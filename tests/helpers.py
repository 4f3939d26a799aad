"""Shared test utilities: seeded random graphs and independent brute-force oracles.

Oracles here deliberately avoid the library's internal representations
(bitmask scans, kron chains, cached sign arrays) so they stay independent of
the code paths they check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from graphent import Graph, ProductState, QubitAmplitudePair, build_graph, partial_overlaps
from graphent.optimize import DEGENERATE_EPS


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(a, b) for b in range(n) for a in range(b)]


def random_graph(rng: np.random.Generator, n: int | None = None,
                 n_min: int = 1, n_max: int = 8, p: float = 0.5) -> Graph:
    if n is None:
        n = int(rng.integers(n_min, n_max + 1))
    edges = [e for e in all_pairs(n) if rng.random() < p]
    return build_graph(n, edges)


def random_connected_graph(rng: np.random.Generator, n: int) -> Graph:
    while True:
        g = random_graph(rng, n=n)
        if g.is_connected():
            return g


def all_labeled_graphs(n: int):
    for picked in itertools.chain.from_iterable(
            itertools.combinations(all_pairs(n), k)
            for k in range(len(all_pairs(n)) + 1)):
        yield build_graph(n, list(picked))


# --- independent oracles ----------------------------------------------------

def oracle_edges_inside(g: Graph, mu: int) -> int:
    """Number of graph edges with both endpoints in the support of mu."""
    support = [v for v in range(g.n) if (mu >> (g.n - 1 - v)) & 1]
    return sum(1 for a, b in itertools.combinations(support, 2) if g.has_edge(a, b))


def oracle_graph_state_amplitudes(g: Graph) -> np.ndarray:
    """Graph-state amplitudes from the defining formula, term by term."""
    out = np.empty(1 << g.n, dtype=np.complex128)
    scale = 2.0 ** (-g.n / 2)
    for mu in range(1 << g.n):
        out[mu] = scale * (-1) ** oracle_edges_inside(g, mu)
    return out


def oracle_max_independent_set(g: Graph) -> int:
    """Largest independent set by checking every vertex subset."""
    best = 0
    for k in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), k):
            if all(not g.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                return k
    return best


def oracle_max_matching(g: Graph) -> int:
    """Largest set of vertex-disjoint edges by checking every edge subset."""
    edges = g.edges()
    best = 0
    for k in range(len(edges), 0, -1):
        if k <= best:
            break
        for combo in itertools.combinations(edges, k):
            used = set()
            ok = True
            for a, b in combo:
                if a in used or b in used:
                    ok = False
                    break
                used.update((a, b))
            if ok:
                return k
    return best


def oracle_two_colorable(g: Graph) -> bool:
    """Exhaustive search over all 2**n colorings (n <= 12)."""
    for coloring in range(1 << g.n):
        if all(((coloring >> a) & 1) != ((coloring >> b) & 1)
               for a, b in g.edges()):
            return True
    return False


def oracle_encode_graph6(g: Graph) -> str:
    """Independent graph6 encoder, written directly from the format definition."""
    assert g.n <= 62
    bits = ""
    for col in range(1, g.n):
        for row in range(col):
            bits += "1" if g.has_edge(row, col) else "0"
    bits += "0" * (-len(bits) % 6)
    out = chr(g.n + 63)
    for i in range(0, len(bits), 6):
        out += chr(int(bits[i:i + 6], 2) + 63)
    return out


def apply_stabilizer(g: Graph, a: int, amps: np.ndarray) -> np.ndarray:
    """X_a Z_N(a) applied by explicit index permutation and sign flips."""
    n = g.n
    out = np.empty_like(amps)
    for mu in range(1 << n):
        zpar = sum((mu >> (n - 1 - b)) & 1
                   for b in range(n) if g.has_edge(a, b)) & 1
        out[mu] = (-1) ** zpar * amps[mu ^ (1 << (n - 1 - a))]
    return out


def oracle_overlap(g: Graph, state) -> complex:
    """<G|phi> summed term by term with explicit per-basis products."""
    total = 0j
    for mu in range(1 << g.n):
        term = (-1) ** oracle_edges_inside(g, mu)
        prod = 1.0 + 0j
        for j, q in enumerate(state.qubits):
            bit = (mu >> (g.n - 1 - j)) & 1
            prod *= q.y if bit else q.x
        total += term * prod
    return total * 2.0 ** (-g.n / 2)


def dense_fsum_overlap(g: Graph, state) -> complex:
    """<G|phi> by error-free summation (fsum) of all 2**n dense terms: each
    basis state's defining sign times the Kronecker product of the qubits."""
    prod = np.ones(1, dtype=np.complex128)
    for q in state.qubits:
        prod = np.kron(prod, [q.x, q.y])
    terms = [(-1) ** oracle_edges_inside(g, mu) * prod[mu] for mu in range(1 << g.n)]
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms)) * 2.0 ** (-g.n / 2)


def grid_oracle_max_fidelity(g: Graph, steps_quarter: int = 60) -> float:
    """Global fidelity maximum, independent of the coordinate-ascent iteration.

    Qubit 0 ranges over a (theta, phi) grid with resolution
    pi/(2*steps_quarter) (theta in [0, pi/2], phi in [0, 2pi)); the remaining
    one or two qubits are maximized exactly: the overlap is bilinear in them,
    so the product maximum is the squared largest singular value of a 2x2
    matrix.  (Gridding all three qubits literally would need ~3e12 points.)
    Supports n <= 3.
    """
    if g.n > 3:
        raise ValueError("grid oracle supports up to 3 qubits")
    signs = oracle_graph_state_amplitudes(g).real.reshape((2,) * g.n)

    if g.n == 1:
        # max_|q| |<signs, q>|^2 = |signs|^2
        return float(abs(signs[0]) ** 2 + abs(signs[1]) ** 2)

    step = math.pi / (2 * steps_quarter)
    theta = np.arange(steps_quarter + 1) * step
    phi = np.arange(4 * steps_quarter) * step
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    grid = np.stack(
        [np.cos(tt).ravel().astype(np.complex128),
         (np.sin(tt) * np.exp(1j * pp)).ravel()], axis=1)

    if g.n == 2:
        t = grid @ signs  # (P, 2): unnormalized amplitude pair on qubit 1
        return float((np.abs(t) ** 2).sum(axis=1).max())

    m = np.einsum("pa,abc->pbc", grid, signs)  # (P, 2, 2), one matrix per point
    trace = (np.abs(m) ** 2).sum(axis=(1, 2))
    det2 = np.abs(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]) ** 2
    sigma_max2 = (trace + np.sqrt(np.maximum(trace ** 2 - 4 * det2, 0.0))) / 2
    return float(sigma_max2.max())


# --- scalar reference implementations ----------------------------------------
# The engine's batched updates and residuals are checked against the first
# two; delete_vertex builds the subgraphs of E(G) <= min_v E(G - v) + 1.

def coordinate_update(g: Graph, p: ProductState, j: int) -> ProductState:
    """Replace qubit j by the fidelity-maximizing pair given all other qubits.

    The new pair is the conjugated, normalized pair of partial overlaps; the
    fidelity afterwards is |c0|^2 + |c1|^2 >= the fidelity before.  A
    degenerate coordinate (both partial overlaps zero) leaves the state
    unchanged, since no choice of qubit j contributes to the overlap.
    """
    c0, c1 = partial_overlaps(g, p, j)
    weight = abs(c0) ** 2 + abs(c1) ** 2
    if weight < DEGENERATE_EPS:
        return p
    return p.replace_qubit(
        j, QubitAmplitudePair.normalized(c0.conjugate(), c1.conjugate())
    )


def orthogonality_residual(g: Graph, p: ProductState, j: int) -> float:
    """Fixed-point residual |y_j* c0 - x_j* c1| at coordinate j (0 at optimum)."""
    c0, c1 = partial_overlaps(g, p, j)
    q = p.qubits[j]
    return abs(q.y.conjugate() * c0 - q.x.conjugate() * c1)


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove vertex ``v`` and its incident edges, relabelling w > v to w - 1."""
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    if g.n == 1:
        raise ValueError("cannot delete the only vertex")
    edges = [
        (a - (a > v), b - (b > v))
        for a, b in g.edges()
        if v not in (a, b)
    ]
    return build_graph(g.n - 1, edges)
