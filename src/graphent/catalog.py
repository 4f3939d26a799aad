"""Built-in graph families, catalog files, and exact entanglement constants.

Catalog files are JSON lines, one entry per line::

    {"id": 8, "n": 5, "edges": [[0,1],[1,2],[2,3],[3,4],[0,4]],
     "expected": "1+log2(3)+log2(3-sqrt3)", "category": "T3", "ps": 0.997}

``edges`` may be replaced by a ``graph6`` string.  The ``expected`` grammar is
a sum of a rational constant and terms ``c*log2(r)`` with radical ``r`` drawn
from the closed set {3, 3-sqrt3, 2-sqrt3}.  Category codes: "T1" = bipartite
with equal bounds, "T2" = non-bipartite with equal bounds, "T3" = unequal
bounds (an exact ``expected`` value is then required).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .bounds import BoundsCategory
from .graphs import Graph, _check_vertex_count, _integer, build_graph, parse_graph6
from .states import PAIR_MINUS, PAIR_PLUS, PAIR_ONE, PAIR_ZERO, QubitAmplitudePair

RADICAL_VALUES = {
    "3": 3.0,
    "3-sqrt3": 3.0 - math.sqrt(3.0),
    "2-sqrt3": 2.0 - math.sqrt(3.0),
}


class CatalogError(ValueError):
    """A catalog file or entry does not satisfy the schema."""


@dataclass(frozen=True)
class ExactValue:
    """Closed-form entanglement q0 + sum_i c_i * log2(base_i), bases radical."""

    q0: Fraction
    terms: tuple[tuple[Fraction, str], ...] = ()

    def __post_init__(self):
        for _, base in self.terms:
            if base not in RADICAL_VALUES:
                raise CatalogError(f"unknown radical base {base!r}")
        try:
            value = exact_value_eval(self)
        except OverflowError:
            value = math.inf
        if not 0 <= value < math.inf:
            raise CatalogError(f"exact value must evaluate to a finite float >= 0, got {value}")

    def __str__(self) -> str:
        parts = [str(self.q0)] if (self.q0 or not self.terms) else []
        for c, base in self.terms:
            parts.append(f"log2({base})" if c == 1 else f"{c}*log2({base})")
        return "+".join(parts)


def exact_value_eval(v: ExactValue) -> float:
    """Evaluate an exact value to a float, in bits."""
    total = float(v.q0)
    for c, base in v.terms:
        total += float(c) * math.log2(RADICAL_VALUES[base])
    return total


def _fraction(piece: str, text: str) -> Fraction:
    try:
        return Fraction(piece)
    except (ValueError, ZeroDivisionError):
        raise CatalogError(f"malformed rational {piece!r} in {text!r}") from None


def parse_exact_value(text: str) -> ExactValue:
    """Parse the ``expected`` grammar, e.g. ``"2+3*log2(3)+log2(2-sqrt3)"``."""
    q0 = Fraction(0)
    terms = []
    for piece in str(text).replace(" ", "").split("+"):
        if not piece:
            raise CatalogError(f"empty term in exact value {text!r}")
        if "log2" in piece:
            coeff_s, _, rest = piece.partition("log2")
            if not rest.startswith("(") or not rest.endswith(")"):
                raise CatalogError(f"malformed log2 term {piece!r}")
            base = rest[1:-1]
            if base not in RADICAL_VALUES:
                raise CatalogError(f"unknown radical base {base!r} in {text!r}")
            if coeff_s in ("", "1*"):
                coeff = Fraction(1)
            elif coeff_s.endswith("*"):
                coeff = _fraction(coeff_s[:-1], text)
            else:
                raise CatalogError(f"malformed coefficient in {piece!r}")
            terms.append((coeff, base))
        else:
            q0 += _fraction(piece, text)
    return ExactValue(q0, tuple(terms))


# Closest-state alphabet.  The four phased pairs share |x| = sqrt(p) with
# p = (1 - 1/sqrt(3))/2 and carry phases +-pi/4, +-3pi/4 on the |1> component.
_SQRT_P = math.sqrt(0.5 * (1.0 - 1.0 / math.sqrt(3.0)))
_SQRT_1MP = math.sqrt(0.5 * (1.0 + 1.0 / math.sqrt(3.0)))


def _phased_pair(phi: float) -> QubitAmplitudePair:
    return QubitAmplitudePair(_SQRT_P + 0j, _SQRT_1MP * cmath.exp(1j * phi))


PAIR_CIRCLE_MINUS = QubitAmplitudePair.normalized(1, -1j)
PAIR_CIRCLE_PLUS = QubitAmplitudePair.normalized(1, 1j)
PAIR_PHI = tuple(
    _phased_pair(phi)
    for phi in (math.pi / 4, -math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4)
)

#: Labels matching alphabet_constants() entry for entry.
ALPHABET_LABELS = ("0", "1", "+", "-", "O", "O*", "Phi1", "Phi2", "Phi3", "Phi4")


def alphabet_constants() -> list[QubitAmplitudePair]:
    """The snap alphabet: |0>, |1>, |+>, |->, (|0>-i|1>)/sqrt2, (|0>+i|1>)/sqrt2,
    and the four phased Phi pairs, in the order of ALPHABET_LABELS."""
    return [
        PAIR_ZERO, PAIR_ONE, PAIR_PLUS, PAIR_MINUS,
        PAIR_CIRCLE_MINUS, PAIR_CIRCLE_PLUS, *PAIR_PHI,
    ]


FAMILY_NAMES = ("empty", "complete", "star", "path", "cycle")


def builtin_family(name: str, n: int) -> Graph:
    """Standard labeled families: empty, complete, star (center 0), path, cycle."""
    if name not in FAMILY_NAMES:
        raise ValueError(f"unknown family {name!r}, choose from {FAMILY_NAMES}")
    _check_vertex_count(n)
    if name == "empty":
        return build_graph(n, [])
    if name == "complete":
        return build_graph(n, [(a, b) for b in range(n) for a in range(b)])
    if name == "star":
        return build_graph(n, [(0, v) for v in range(1, n)])
    if name == "path":
        return build_graph(n, [(v, v + 1) for v in range(n - 1)])
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return build_graph(n, [(v, (v + 1) % n) for v in range(n)])


CATEGORY_CODES = tuple(c.value for c in BoundsCategory)


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog row: a graph with optional expected value and metadata."""

    id: str
    graph: Graph
    expected: ExactValue | None = None
    category: str | None = None
    ps_reference: float | None = None
    notes: str | None = None

    def __post_init__(self):
        if self.category is not None and self.category not in CATEGORY_CODES:
            raise CatalogError(f"entry {self.id}: bad category {self.category!r}")
        if self.category == "T3" and self.expected is None:
            raise CatalogError(
                f"entry {self.id}: category T3 requires an expected value"
            )

    def to_json_dict(self) -> dict:
        d: dict = {"id": self.id, **self.graph.to_json_dict()}
        if self.expected is not None:
            d["expected"] = str(self.expected)
        if self.category is not None:
            d["category"] = self.category
        if self.ps_reference is not None:
            d["ps"] = self.ps_reference
        if self.notes is not None:
            d["notes"] = self.notes
        return d


def _entry_from_dict(d: dict, where: str) -> CatalogEntry:
    if not isinstance(d, dict) or "id" not in d or "n" not in d:
        raise CatalogError(f"{where}: entry needs 'id' and 'n'")
    if "edges" not in d and not isinstance(d.get("graph6"), str):
        raise CatalogError(f"{where}: entry needs 'edges' or a 'graph6' string")
    if "ps" in d and (type(d["ps"]) not in (int, float) or not 0 <= d["ps"] <= 1):
        raise CatalogError(f"{where}: 'ps' must be a number in [0, 1], got {d['ps']!r}")
    try:
        ident = d["id"] if isinstance(d["id"], str) else str(_integer(d["id"]))
    except TypeError:
        raise CatalogError(
            f"{where}: 'id' must be a string or an integer, got {d['id']!r}") from None
    if not isinstance(d.get("notes", ""), str):
        raise CatalogError(f"{where}: 'notes' must be a string, got {d['notes']!r}")
    try:
        n = _integer(d["n"])
        g = build_graph(n, d["edges"]) if "edges" in d else parse_graph6(d["graph6"])
        if g.n != n:
            raise ValueError(f"graph6 has {g.n} vertices, 'n' says {n}")
        return CatalogEntry(
            id=ident,
            graph=g,
            expected=parse_exact_value(d["expected"]) if "expected" in d else None,
            category=d.get("category"),
            ps_reference=float(d["ps"]) if "ps" in d else None,
            notes=d.get("notes"),
        )
    except (TypeError, ValueError) as exc:
        raise CatalogError(f"{where}: {exc}") from exc


def load_catalog(path) -> list[CatalogEntry]:
    """Load a JSON-lines catalog file, validating entries and rejecting duplicate ids."""
    entries: list[CatalogEntry] = []
    seen: set[str] = set()
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}"
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CatalogError(f"{where}: invalid JSON ({exc})") from exc
        entry = _entry_from_dict(d, where)
        if entry.id in seen:
            raise CatalogError(f"{where}: duplicate id {entry.id!r}")
        seen.add(entry.id)
        entries.append(entry)
    return entries


def save_catalog(entries, path) -> None:
    """Write entries as JSON lines (inverse of :func:`load_catalog`)."""
    with open(path, "w") as fh:
        for e in entries:
            fh.write(json.dumps(e.to_json_dict(), sort_keys=True) + "\n")


def load_seed_catalog() -> list[CatalogEntry]:
    """The catalog shipped with the package (graphs stated in plain text sources)."""
    ref = resources.files("graphent").joinpath("data/seed_catalog.jsonl")
    with resources.as_file(ref) as path:
        return load_catalog(path)
