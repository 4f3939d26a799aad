"""Combinatorial entanglement bounds and the resulting graph classification.

The upper bound is ``n - |A|`` with ``A`` a maximum independent set (the
largest collection of graph basis states distinguishable by local operations
and classical communication); the lower bound is the maximum matching size
(each matched edge yields a Bell pair across a bipartition).  When the bounds
meet, the entanglement is settled without any optimization.

The matching count alone is used for the lower bound (LOWER_BOUND_METHOD in
outputs).  It is not valid for every graph: K_{3,3} (n = 6) is reported
settled at E = 3, but the product state |+++---> reaches F = 1/4, so E <= 2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graphs import Graph, is_two_colorable, max_independent_set_size, max_matching_size

#: Name of the lower-bound method, as reported in JSON and text outputs.
LOWER_BOUND_METHOD = "matching"


class BoundsCategory(enum.Enum):
    """Category codes as used in catalog files."""

    BIPARTITE_EQUAL = "T1"
    NONBIPARTITE_EQUAL = "T2"
    UNEQUAL = "T3"


@dataclass(frozen=True)
class BoundsReport:
    """Integer entanglement bounds plus the classification they imply."""

    upper: int
    lower: int
    equal: bool
    two_colorable: bool
    category: BoundsCategory

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    def to_json_dict(self) -> dict:
        return {
            "upper": self.upper,
            "lower": self.lower,
            "equal": self.equal,
            "two_colorable": self.two_colorable,
            "category": self.category.value,
            "lower_bound_method": LOWER_BOUND_METHOD,
        }

    def format_text(self) -> str:
        lower_label = f"lower bound ({LOWER_BOUND_METHOD})"
        lines = [
            f"upper bound (LOCC)       : {self.upper}",
            f"{lower_label:<25}: {self.lower}",
            f"bounds equal             : {'yes' if self.equal else 'no'}",
            f"two-colorable            : {'yes' if self.two_colorable else 'no'}",
            f"category                 : {self.category.value}",
        ]
        if self.equal:
            lines.append(f"entanglement (settled)   : {self.upper}")
        return "\n".join(lines)


def locc_upper_bound(g: Graph) -> int:
    """n minus the maximum independent set size."""
    return g.n - max_independent_set_size(g)


def bipartite_lower_bound(g: Graph) -> int:
    """Maximum number of pairwise non-adjacent edges."""
    return max_matching_size(g)


def classify(g: Graph) -> BoundsReport:
    """Bounds plus category: equal bounds settle the entanglement outright."""
    upper = locc_upper_bound(g)
    lower = bipartite_lower_bound(g)
    two_col = is_two_colorable(g) is not None
    equal = upper == lower
    if not equal:
        category = BoundsCategory.UNEQUAL
    elif two_col:
        category = BoundsCategory.BIPARTITE_EQUAL
    else:
        category = BoundsCategory.NONBIPARTITE_EQUAL
    return BoundsReport(
        upper=upper, lower=lower, equal=equal,
        two_colorable=two_col, category=category,
    )
