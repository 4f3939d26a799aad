"""Reference computations the benchmark checks graphent's outputs against.

Nothing here imports graphent: graph-state signs come from edge counts,
fidelities from dense product-state overlaps, bounds from the GF(2) cut-rank
(Hein, Eisert & Briegel, PRA 69, 062311, 2004) and from explicit product-state
witnesses, independent sets from networkx.  Qubit 0 is the most significant
bit of a basis index, as in graphent.

Run ``python3 graphbench/oracles.py`` for the self-test.
"""

from __future__ import annotations

import math
from itertools import product

import networkx as nx
import numpy as np

PLUS = (1 / math.sqrt(2), 1 / math.sqrt(2))
MINUS = (1 / math.sqrt(2), -1 / math.sqrt(2))
ZERO = (1.0, 0.0)

C5_EXACT = 1 + math.log2(3) + math.log2(3 - math.sqrt(3))


def graph_signs(n: int, edges) -> np.ndarray:
    """(-1)**(number of edges inside the support of mu), for every basis index mu."""
    mu = np.arange(1 << n, dtype=np.int64)
    count = np.zeros(1 << n, dtype=np.int64)
    for a, b in edges:
        count += (mu >> (n - 1 - a)) & (mu >> (n - 1 - b)) & 1
    return 1 - 2 * (count & 1)


def dense_fidelity(n: int, edges, pairs) -> float:
    """|<G|phi>|^2 for the product state whose qubit j is pairs[j] = (x, y)."""
    amps = np.ones(1, dtype=np.complex128)
    for x, y in pairs:
        amps = (amps[:, None] * np.array([x, y], dtype=np.complex128)).reshape(-1)
    terms = graph_signs(n, edges) * amps
    ov = complex(math.fsum(terms.real), math.fsum(terms.imag)) * 2.0 ** (-n / 2)
    return ov.real ** 2 + ov.imag ** 2


def cut_rank_bound(n: int, edges) -> int:
    """max over bipartitions A|B of rank_GF(2) Gamma[A, B].

    The graph state's Schmidt rank across A|B is 2**rank, and its Schmidt
    coefficients are flat, so every product state has F <= 2**-rank: each cut
    gives a valid lower bound on E.  Vectorized over all cuts by XOR-basis
    insertion, one adjacency row at a time.
    """
    if n < 2:
        return 0
    rows = [0] * n
    for a, b in edges:
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    cuts = np.arange(1, 1 << (n - 1), dtype=np.int64)  # A never holds vertex n-1
    outside = ((1 << n) - 1) ^ cuts
    basis = np.zeros((n, cuts.size), dtype=np.int64)
    for v in range(n - 1):
        r = np.where((cuts >> v) & 1 == 1, rows[v] & outside, 0)
        for bit in range(n - 1, -1, -1):
            has_bit = (r >> bit) & 1 == 1
            pivot = basis[bit]
            reduce = has_bit & (pivot != 0)
            insert = has_bit & (pivot == 0)
            r = np.where(reduce, r ^ pivot, r)
            basis[bit] = np.where(insert, r, pivot)
            r = np.where(insert, 0, r)
    return int((basis != 0).sum(axis=0).max())


def max_independent_set(n: int, edges) -> list[int]:
    """A maximum independent set, as a maximum clique of the complement."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    clique, _ = nx.max_weight_clique(nx.complement(g), weight=None)
    return sorted(clique)


def best_pm_pattern(n: int, edges) -> list[tuple[float, float]]:
    """The |+>/|-> product state closest to the graph state.

    Its overlap is a Walsh-Hadamard coefficient of the sign vector, so one
    fast transform scores all 2**n patterns.
    """
    w = graph_signs(n, edges).astype(np.float64)
    h = 1
    while h < w.size:
        w = w.reshape(-1, 2, h)
        w = np.concatenate([w[:, 0] + w[:, 1], w[:, 0] - w[:, 1]], axis=1).reshape(-1)
        h *= 2
    s = int(np.argmax(np.abs(w)))
    return [MINUS if (s >> (n - 1 - j)) & 1 else PLUS for j in range(n)]


class GraphOracle:
    """Everything the checks need about one graph, computed once."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = [tuple(e) for e in edges]
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(self.edges)
        self.bipartite = nx.is_bipartite(g)
        self.mis = max_independent_set(n, self.edges)
        self.cut_rank = cut_rank_bound(n, self.edges)
        mis_state = [PLUS if j in self.mis else ZERO for j in range(n)]
        f_mis = dense_fidelity(n, self.edges, mis_state)
        if not math.isclose(f_mis, 2.0 ** (len(self.mis) - n), rel_tol=1e-12):
            raise AssertionError(f"independent-set witness gives F={f_mis}")
        f_pm = dense_fidelity(n, self.edges, best_pm_pattern(n, self.edges))
        #: Best fidelity of an explicit product state: E <= -log2(witness_F).
        self.witness_F = max(f_mis, f_pm)
        self.witness_E = -math.log2(self.witness_F)

    def fidelity(self, pairs) -> float:
        return dense_fidelity(self.n, self.edges, pairs)


def self_test() -> None:
    """Known values the oracles must reproduce; raises AssertionError otherwise."""
    c5 = [(j, (j + 1) % 5) for j in range(5)]
    p = math.sqrt((1 - 1 / math.sqrt(3)) / 2)
    phis = [(p, math.sqrt(1 - p * p) * complex(math.cos(t), math.sin(t)))
            for t in (math.pi / 4, -math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4)]
    best = max(dense_fidelity(5, c5, pat) for pat in product(phis, repeat=5))
    assert abs(-math.log2(best) - C5_EXACT) < 1e-12, best

    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    f = dense_fidelity(6, k33, [PLUS] * 3 + [MINUS] * 3)
    assert abs(f - 0.25) < 1e-15, f
    assert GraphOracle(6, k33).witness_E <= 2 + 1e-12

    cycle = lambda n: [(j, (j + 1) % n) for j in range(n)]  # noqa: E731
    assert cut_rank_bound(5, c5) == 2
    assert cut_rank_bound(6, cycle(6)) == 3
    assert cut_rank_bound(6, k33) == 2
    assert cut_rank_bound(6, [(0, v) for v in range(1, 6)]) == 1
    assert len(max_independent_set(6, cycle(6))) == 3


if __name__ == "__main__":
    self_test()
    print("oracle self-test passed")
