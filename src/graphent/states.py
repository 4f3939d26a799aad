"""Graph states and product states: dense amplitudes, and the elimination
kernel that contracts them without those amplitudes.

Bit-ordering convention, fixed everywhere in this package: qubit 0 is the
most significant bit of the basis index, so ``amplitudes[mu]`` belongs to the
computational basis state whose qubit-j value is ``(mu >> (n-1-j)) & 1``.

The graph state of a graph with adjacency rows Gamma has amplitudes
``2**(-n/2) * (-1)**e(mu)`` where ``e(mu)`` counts the edges lying inside the
support of ``mu`` (an exact integer count, so the sign is never subject to
floating-point parity).

Overlaps with product states never build those 2**n amplitudes.  No edge
joins two vertices of a maximum independent set I, so the sum over the
qubits of I factorises, and with C = V \\ I::

    <G|phi> = 2**(-n/2) * sum_{x_C} sigma(x_C) w_C(x_C) prod_{i in I} f_i(x_C)

with ``w_C`` the product amplitudes of the qubits of C, ``sigma`` the signs of
the subgraph induced on C, and ``f_i = x_i + y_i (-1)**(N(i).x_C)``.  Each
graph's :class:`_EliminationPlan` (the one per-graph cache) holds I, C and
those signs.  The engine's partials, from :func:`_coordinate_partials`, are
plain sums of 2**|C| terms; the reported overlaps use error-free summation
(:func:`math.fsum`) because the entanglement figures are quoted to 1e-14.
A row costs 3 * 2**|C| workspace elements, priced by :func:`_rows_within`
alone: the search's blocks hold at most 2**21, presample's chunks 2**14.

Local complementation is a local unitary, so the plan may sum out a larger
independent set of an LC-equivalent graph: when the representative of
:func:`graphent.graphs.lc_reduce` has one, the plan holds that graph's I, C
and signs, plus a frame of 2x2 unitaries M_q built from the steps with
``_LC_X_FACTOR`` and ``_LC_Z_FACTOR`` (K16 is then searched as a star, with
|C| = 1 instead of 15).  A row phi of the planned graph enters the kernel as
``psi_q = M_q phi_q`` (:func:`_into_frame`), and its overlap does not
change.  Only the search iterates there: :func:`_row_overlaps`, and so every
public overlap and every reported fidelity, sums the terms of the planned
graph's own plan, held as the plan's ``own``, a chunk of rows at a time
(:data:`_SCORE_ELEMS`).  A representative's few terms are products of up to
n rounded factors each (K16's star: two terms of 16), and summed there
K16's optimum came out with E up to 1e-14 below 1; g's own plan keeps it
within a few ulps.  A plan without a frame maps nothing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .graphs import Graph, _complement_at, bits_of, lc_reduce, max_independent_set

NORM_TOL = 1e-12
# A framed plan's rows are scored on the graph's own plan in chunks of this
# many workspace elements: K16's own plan takes one row at a time (1.5 MiB).
_SCORE_ELEMS = 1 << 14
_SMALLEST_NORMAL = np.finfo(float).tiny


@dataclass(frozen=True)
class QubitAmplitudePair:
    """Normalized single-qubit amplitudes (x, y) for x|0> + y|1>.

    Gauge-fixed: x is real and >= 0; when x == 0 exactly, y == 1.  Use
    :meth:`normalized` to build one from arbitrary complex amplitudes (the
    ratio y/x is deliberately never stored, so states with x == 0 are
    first-class values).
    """

    x: complex
    y: complex

    def __post_init__(self):
        object.__setattr__(self, "x", complex(self.x))
        object.__setattr__(self, "y", complex(self.y))
        if self.x.imag != 0.0 or self.x.real < 0.0:
            raise ValueError("gauge violation: x must be real and >= 0 "
                             "(use QubitAmplitudePair.normalized)")
        if self.x == 0 and self.y != 1:
            raise ValueError("gauge violation: x == 0 requires y == 1")
        nrm = abs(self.x) ** 2 + abs(self.y) ** 2
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise ValueError(f"|x|^2+|y|^2 = {nrm} is not 1")

    @classmethod
    def normalized(cls, x: complex, y: complex) -> "QubitAmplitudePair":
        """Normalize and gauge-fix arbitrary (x, y) amplitudes, as
        :func:`_normalized_rows` does every pair the package makes."""
        x, y = _normalized_rows(np.array([[x, y]], dtype=np.complex128))[0]
        return cls(x, y)

    def to_json(self) -> list:
        return [[self.x.real, self.x.imag], [self.y.real, self.y.imag]]

    @classmethod
    def from_json(cls, data) -> "QubitAmplitudePair":
        """Inverse of :meth:`to_json`; ``ValueError`` on another shape or a non-finite number."""
        try:
            (xr, xi), (yr, yi) = data
            x, y = complex(xr, xi), complex(yr, yi)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"qubit pair must be [[re, im], [re, im]], got {data!r}") from None
        if not (cmath.isfinite(x) and cmath.isfinite(y)):
            raise ValueError(f"qubit pair amplitudes must be finite, got {data!r}")
        return cls(x, y)


def _gauge_fix_rows(pairs: np.ndarray) -> np.ndarray:
    """Vectorized gauge fix: first amplitude real >= 0; second 1 when it vanishes.

    A subnormal |x| counts as vanishing: numpy divides x / |x| through 1/|x|,
    which overflows, and x* / |x| would keep too few mantissa bits to be a
    unit phase.
    """
    x = pairs[:, 0]
    ax = np.abs(x)
    nz = ax >= _SMALLEST_NORMAL
    phase = np.ones_like(x)
    phase[nz] = x[nz].conj() / ax[nz]
    out = pairs * phase[:, None]
    out[:, 0] = ax
    out[~nz, 1] = 1.0
    return out


def _normalized_rows(q: np.ndarray) -> np.ndarray:
    """(R, 2) amplitude pairs scaled to unit norm, then gauge-fixed.

    The squared norm sums re x, im x, re y, im y squared in that order, as the
    engine sums its updated fidelity.  ``ValueError`` on a pair of norm 0.
    """
    norm2 = q.real[:, 0] ** 2 + q.imag[:, 0] ** 2 + q.real[:, 1] ** 2 + q.imag[:, 1] ** 2
    if not norm2.all():
        raise ValueError("cannot normalize the zero amplitude pair")
    return _gauge_fix_rows(q / np.sqrt(norm2)[:, None])


def pair_overlap(a: QubitAmplitudePair, b: QubitAmplitudePair) -> complex:
    """Single-qubit inner product <a|b>."""
    return a.x.conjugate() * b.x + a.y.conjugate() * b.y


def fubini_study_distance(a: QubitAmplitudePair, b: QubitAmplitudePair) -> float:
    """Gauge-invariant distance arccos|<a|b>| between qubit states."""
    return math.acos(min(1.0, abs(pair_overlap(a, b))))


def _normal_draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 4) normals (re x, im x, re y, im y) of n qubits, none all 0.

    A qubit whose four normals are all 0 is drawn again, and the later
    qubits shift to later draws, as n calls of :func:`haar_random_pair` do.
    """
    v = rng.standard_normal((n, 4))
    while not v.any(axis=1).all():
        kept = v[v.any(axis=1)]
        v = np.concatenate((kept, rng.standard_normal((n - len(kept), 4))))
    return v


def _random_pairs(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2) amplitudes of n qubits uniform on the Bloch sphere: the
    :func:`_normal_draws` of n qubits, by :func:`_normalized_rows`."""
    return _normalized_rows(_normal_draws(rng, n).view(np.complex128))


def haar_random_pair(rng: np.random.Generator) -> QubitAmplitudePair:
    """Qubit state uniform on the Bloch sphere."""
    return QubitAmplitudePair(*_random_pairs(rng, 1)[0])


PAIR_ZERO = QubitAmplitudePair(1.0 + 0j, 0j)
PAIR_ONE = QubitAmplitudePair(0j, 1.0 + 0j)
PAIR_PLUS = QubitAmplitudePair.normalized(1, 1)
PAIR_MINUS = QubitAmplitudePair.normalized(1, -1)


@dataclass(frozen=True)
class ProductState:
    """Unentangled n-qubit state as an ordered tuple of qubit pairs."""

    qubits: tuple[QubitAmplitudePair, ...]

    def __post_init__(self):
        if not self.qubits:
            raise ValueError("product state needs at least one qubit")
        object.__setattr__(self, "qubits", tuple(self.qubits))

    @property
    def n(self) -> int:
        return len(self.qubits)

    def replace_qubit(self, j: int, pair: QubitAmplitudePair) -> "ProductState":
        qs = list(self.qubits)
        qs[j] = pair
        return ProductState(tuple(qs))

    def to_json(self) -> list:
        return [q.to_json() for q in self.qubits]

    @classmethod
    def from_json(cls, data) -> "ProductState":
        """Inverse of :meth:`to_json`; ``ValueError`` unless a list of qubit pairs."""
        if not isinstance(data, list):
            raise ValueError("product state must be a list of qubit pairs")
        return cls(tuple(QubitAmplitudePair.from_json(q) for q in data))


def random_product_state(n: int, rng: np.random.Generator) -> ProductState:
    return ProductState(tuple(QubitAmplitudePair(*q) for q in _random_pairs(rng, n)))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense n-qubit pure state: 2**n complex amplitudes, unit norm."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got {amps.shape}")
        nrm = float(np.linalg.norm(amps))
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {nrm} is not 1")
        object.__setattr__(self, "amplitudes", amps)


def phase_signs(g: Graph) -> np.ndarray:
    """(-1)**e(mu) for every basis index mu, as an int8 array of +-1."""
    mu = np.arange(1 << g.n, dtype=np.uint32)
    signs = np.ones(1 << g.n, dtype=np.int8)
    for a, b in g.edges():
        both = ((mu >> (g.n - 1 - a)) & (mu >> (g.n - 1 - b)) & 1).astype(bool)
        signs[both] *= -1
    return signs


def graph_state_vector(g: Graph) -> StateVector:
    """Graph state amplitudes 2**(-n/2) * (-1)**e(mu)."""
    return StateVector(g.n, phase_signs(g) * 2.0 ** (-g.n / 2))


_LC_X_FACTOR = np.array([[1, -1j], [-1j, 1]], dtype=np.complex128) / math.sqrt(2)
_LC_Z_FACTOR = np.diag([cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 4)])

# cos(pi k / 4) for k = 0..7, then the same over sqrt 2, each correctly rounded
_H = math.sqrt(0.5)
_EIGHTH_TURNS = np.array([[1, _H, 0, -_H, -1, -_H, 0, _H], [_H, .5, 0, -.5, -_H, -.5, 0, .5]])


@dataclass(frozen=True, eq=False)
class _EliminationPlan:
    """A graph's signs with a maximum independent set I summed out.

    No edge joins two vertices of I, so with C = V \\ I the sign of a basis
    state is ``sigma(x_C) * prod_{i in I} s_i(x_C)**x_i``: ``sigma`` is the
    sign of the subgraph induced on C and ``s_i(x_C) = (-1)**(N(i).x_C)``.
    Both are int8 arrays of +-1 over the 2**|C| values of x_C, with
    ``rest[0]`` the most significant bit.

    The signs are those of ``graph``: the planned graph itself, or, with a
    ``frame``, an LC-equivalent representative of it.  Then qubit q's pair
    phi_q of a row of the planned graph is the pair ``frame[q] @ phi_q`` of
    the representative, and the overlaps of the two are equal; ``own`` is
    then the planned graph's own plan, on which rows are scored.
    """

    graph: Graph
    independent: tuple[int, ...]  # I, in increasing order
    rest: tuple[int, ...]  # C, in increasing order
    signs: np.ndarray  # sigma, (2**|C|,)
    parities: np.ndarray  # s_i for the i of ``independent`` in order, (|I|, 2**|C|)
    frame: np.ndarray | None = None  # (n, 2, 2) unitaries, or None for the identity
    own: _EliminationPlan | None = None  # with a frame, the planned graph's plan

    @property
    def n(self) -> int:
        return self.graph.n


def _plan_of(g: Graph, mis: int) -> _EliminationPlan:
    """The plan of g that sums out the independent set ``mis``."""
    if mis.bit_count() == g.n > 1:
        # Keep one qubit in C: with one term per row numpy runs the rows as one
        # loop, and a row's complex products then round by the batch size.
        mis ^= 1 << (g.n - 1)
    independent = tuple(bits_of(mis))
    rest = tuple(v for v in range(g.n) if not mis >> v & 1)
    m = len(rest)
    x = np.arange(1 << m, dtype=np.uint32)

    def odd(vertices: int) -> np.ndarray:
        """Parity of x_C over the vertices of a mask, 0 or 1 for each x_C."""
        mask = sum(1 << (m - 1 - p) for p, c in enumerate(rest) if vertices >> c & 1)
        return (np.bitwise_count(x & mask) & 1).astype(np.int8)

    edges_odd = np.zeros(1 << m, dtype=np.int8)
    for c in rest:  # each edge inside C once, from its lower end c
        edges_odd ^= odd(1 << c) & odd(g.rows[c] >> c << c)
    signs = 1 - 2 * edges_odd
    parities = np.array([1 - 2 * odd(g.rows[i]) for i in independent])
    signs.setflags(write=False)
    parities.setflags(write=False)
    return _EliminationPlan(g, independent, rest, signs, parities)


def _lc_frame(g: Graph, steps) -> np.ndarray:
    """(n, 2, 2) unitaries M_q with ``<G'| (M_0 x ... x M_(n-1)) = <G|`` for the
    graph G' that local complementations at ``steps`` make of G.

    Complementation at a is the X factor on a and the Z factor on each of
    its d neighbours, which maps the graph state onto the next one times
    ``exp(i pi (d - 1) / 4)``; qubit 0's unitary takes the phases back.
    Every entry of such a product is 0, or exp(i pi k / 4) over 1 or sqrt 2,
    so each is set to that value rounded once: the frame stays unitary to an
    ulp however many steps made it.
    """
    frame = np.tile(np.eye(2, dtype=np.complex128), (g.n, 1, 1))
    rows = list(g.rows)
    eighths = 0
    for a in steps:
        frame[a] = _LC_X_FACTOR @ frame[a]
        for b in bits_of(rows[a]):
            frame[b] = _LC_Z_FACTOR @ frame[b]
        eighths -= rows[a].bit_count() - 1
        _complement_at(rows, a)
    frame[0] *= cmath.exp(1j * math.pi / 4 * (eighths % 8))
    k = np.rint(np.angle(frame) / (math.pi / 4)).astype(int) % 8
    over_sqrt2 = (np.abs(frame) < 0.85).astype(int)
    exact = np.zeros_like(frame)
    exact.real = _EIGHTH_TURNS[over_sqrt2, k]
    exact.imag = _EIGHTH_TURNS[over_sqrt2, (k - 2) % 8]
    exact[np.abs(frame) < 0.35] = 0
    exact.setflags(write=False)
    return exact


@lru_cache(maxsize=128)
def _elimination_plan(g: Graph) -> _EliminationPlan:
    """The one per-graph cache: the plan of :func:`max_independent_set`'s set,
    or of :func:`lc_reduce`'s representative of g where that has a larger
    maximum independent set, with the frame that maps g's rows onto it and
    g's own plan.  Each plan holds (|I| + 1) 2**|C| <= 2**n bytes, no more."""
    mis = max_independent_set(g)
    rows, steps = lc_reduce(g)
    if steps:
        rep = Graph(g.n, rows)
        rep_mis = max_independent_set(rep)
        if rep_mis.bit_count() > mis.bit_count():
            return replace(_plan_of(rep, rep_mis), frame=_lc_frame(g, steps),
                           own=_plan_of(g, mis))
    return _plan_of(g, mis)


def _apply_frame(Q: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """(R, k, 2) rows with qubit q's pair multiplied by the 2x2 ``frame[q]``.

    Real multiplies and adds only, each rounded once, so a row's bits do not
    depend on the batch it is mapped in.  The parts are laid out (k, R), so
    each step runs over the rows in one contiguous loop.
    """
    R, k = Q.shape[:2]
    # re x, im x, re y, im y of every pair, each (k, R)
    parts_in = np.ascontiguousarray(Q).view(np.float64).reshape(R, k, 4)
    xr, xi, yr, yi = parts_in.transpose(2, 1, 0).copy()
    # re and im of M00, M01, M10, M11 of every qubit, each (k, 1)
    m = np.ascontiguousarray(frame).view(np.float64).reshape(k, 8).T[:, :, None]
    out = np.empty((R, k, 2), dtype=np.complex128)
    parts = out.view(np.float64).reshape(R, k, 4).transpose(2, 1, 0)
    for row in (0, 1):
        ar, ai, br, bi = m[4 * row:4 * row + 4]
        parts[2 * row] = (ar * xr - ai * xi) + (br * yr - bi * yi)
        parts[2 * row + 1] = (ar * xi + ai * xr) + (br * yi + bi * yr)
    return out


def _into_frame(Q: np.ndarray, plan: _EliminationPlan) -> np.ndarray:
    """Rows of the planned graph as rows of the plan's signs: Q itself when
    the plan has no frame."""
    return Q if plan.frame is None else _apply_frame(Q, plan.frame)


def _out_of_frame(P: np.ndarray, plan: _EliminationPlan, qubits) -> np.ndarray:
    """(R, len(qubits), 2) pairs of those qubits of the plan-side rows P,
    mapped back to the planned graph and normalised."""
    back = plan.frame[qubits].conj().transpose(0, 2, 1)
    pairs = _apply_frame(P[:, qubits], back)
    return _normalized_rows(pairs.reshape(-1, 2)).reshape(pairs.shape)


def _state_to_row(p: ProductState) -> np.ndarray:
    """(n, 2) array of a product state's qubit pairs."""
    return np.array([[q.x, q.y] for q in p.qubits], dtype=np.complex128)


def _kernel_workspace(R: int, plan: _EliminationPlan) -> tuple[np.ndarray, np.ndarray]:
    """Buffers for up to R rows of the plan's graph, with m = |C|: 3 R 2**m
    elements in all.

    The first, (R * 2**m,), holds the eliminated signs of
    :func:`_eliminated_signs`, which the independent qubits' partials leave
    alone; the second, (2 * R * 2**m,), holds the product weights, the
    factors and the terms.  The engine reuses one per block: fresh arrays that
    shrank with the live rows made the allocator return pages and fault them
    in again.
    """
    N = R << len(plan.rest)
    return np.empty(N, dtype=np.complex128), np.empty(2 * N, dtype=np.complex128)


def _rows_within(plan: _EliminationPlan, elems: int) -> int:
    """The most rows, at least one, whose workspace holds at most ``elems``."""
    return max(1, elems // (3 << len(plan.rest)))


def _product_weights(Q: np.ndarray, skip: int | None = None, work=None) -> np.ndarray:
    """(R, n, 2) qubit pairs -> (R, 2**m) product amplitudes, qubit 0 first.

    ``skip`` leaves that qubit out (m = n - 1).  Uses explicit elementwise
    products (never BLAS matmul) so each row's arithmetic is bit-identical
    regardless of how rows are batched.  The steps alternate between the two
    buffers of ``work`` (R 2**m elements or more each), from the first, and
    the result is a view into either; with no qubit kept it is fresh ones.
    """
    R = Q.shape[0]
    kept = [k for k in range(Q.shape[1]) if k != skip]
    if not kept:
        return np.ones((R, 1), dtype=np.complex128)
    work = work or np.empty((2, R << len(kept)), dtype=np.complex128)
    w = work[0][:2 * R].reshape(R, 2)
    w[...] = Q[:, kept[0]]
    for i, k in enumerate(kept[1:], 1):
        out = work[i % 2][:2 * w.size].reshape(R, -1, 2)
        w = np.multiply(w[:, :, None], Q[:, k, None, :], out=out).reshape(R, -1)
    return w


def _factor(Q: np.ndarray, plan: _EliminationPlan, k: int, out: np.ndarray) -> np.ndarray:
    """``f_i = x_i + y_i s_i`` of the k-th independent qubit i, every row, in out."""
    i = plan.independent[k]
    np.multiply(Q[:, i, 1, None], plan.parities[k], out=out)
    return np.add(out, Q[:, i, 0, None], out=out)


def _eliminated_signs(Q: np.ndarray, plan: _EliminationPlan, work) -> np.ndarray:
    """(R, 2**|C|) ``(sigma * f_i0) * f_i1 ...`` over I of every row of Q: the
    graph state's signs with the independent qubits summed out.  Built in
    ``work[0]``; the factors use ``work[1]``."""
    R, N = Q.shape[0], plan.signs.size
    v = work[0][:R * N].reshape(R, N)
    f = work[1][:R * N].reshape(R, N)
    for k in range(len(plan.independent)):
        np.multiply(v if k else plan.signs, _factor(Q, plan, k, f), out=v)
    return v


def _overlap_terms(Q: np.ndarray, plan: _EliminationPlan, work) -> np.ndarray:
    """(R, 2**|C|) terms whose sum over x_C is 2**(n/2) <G|phi> for each row:
    the rest's product weights times the eliminated signs."""
    R, N = Q.shape[0], plan.signs.size
    v = _eliminated_signs(Q, plan, work)
    w = _product_weights(Q[:, list(plan.rest)], work=(work[1][:R * N], work[1][R * N:]))
    return np.multiply(w, v, out=w)


def _batch_partials(Q: np.ndarray, plan: _EliminationPlan, j: int, work=None,
                    v: np.ndarray | None = None) -> np.ndarray:
    """(R, 2) partial-overlap pairs of coordinate j for every row of Q.

    For j in I the pair is the plain sums of ``t = w_C sigma prod_{i != j} f_i``
    and of ``t s_j``.  For j in C it is the dense sum over the qubits of C,
    with the rows' eliminated signs ``v`` (:func:`_eliminated_signs`, built
    here unless passed in) in place of a sign vector.  Each partial is one
    contiguous plain sum, whose rounding does not depend on the batch.
    """
    R, N = Q.shape[0], plan.signs.size
    work = work or _kernel_workspace(R, plan)
    buf = work[1]
    if j in plan.independent:
        t, f = buf[:R * N], buf[R * N:2 * R * N]
        w = _product_weights(Q[:, list(plan.rest)], work=(f, t))
        t = np.multiply(w, plan.signs, out=t.reshape(R, N))
        f = f.reshape(R, N)
        for k, i in enumerate(plan.independent):
            if i != j:
                np.multiply(t, _factor(Q, plan, k, f), out=t)
        np.multiply(t, plan.parities[plan.independent.index(j)], out=f)
        sums = buf[:2 * R * N].reshape(2, R, N).sum(axis=2).T
    else:
        if v is None:
            v = _eliminated_signs(Q, plan, work)
        p = plan.rest.index(j)
        half = R * N // 2
        w = _product_weights(Q[:, list(plan.rest)], skip=p,
                             work=(buf[R * N:R * N + half], buf[R * N + half:]))
        terms = buf[:R * N].reshape(R, 2, 1 << p, -1)
        np.multiply(w.reshape(R, 1, 1 << p, -1),
                    v.reshape(R, 1 << p, 2, -1).transpose(0, 2, 1, 3), out=terms)
        sums = terms.reshape(R, 2, -1).sum(axis=2)
    return np.multiply(sums, 2.0 ** (-plan.n / 2), order="C")


def _coordinate_partials(Q: np.ndarray, plan: _EliminationPlan, js, work, sweep: bool):
    """Yield the (R, 2) partial pairs of the rows of Q for each coordinate of
    ``js`` in turn.  The partials of C share the rows' eliminated signs, which
    stay valid until a qubit of I changes: with ``sweep`` the caller may
    replace qubit j of Q before asking for the next pair, so the signs are
    dropped after each j in I; without it Q must not change meanwhile."""
    v = None
    for j in js:
        if v is None and j in plan.rest:
            v = _eliminated_signs(Q, plan, work)
        yield _batch_partials(Q, plan, j, work, v)
        if sweep and j in plan.independent:
            v = None


def _batch_fidelity(Q: np.ndarray, plan: _EliminationPlan, work) -> np.ndarray:
    """(R,) fidelities |<G|phi>|**2 of every row of Q, by plain summation."""
    f = _overlap_terms(Q, plan, work).sum(axis=1) * 2.0 ** (-plan.n / 2)
    return f.real ** 2 + f.imag ** 2


def product_state_vector(p: ProductState) -> StateVector:
    """Assemble the 2**n amplitudes of a product state (qubit 0 first)."""
    return StateVector(p.n, _product_weights(_state_to_row(p)[None])[0])


def _row_overlaps(Q: np.ndarray, plan: _EliminationPlan, work=None) -> list[complex]:
    """<G|phi> of every (n, 2) row of Q, a row of the planned graph, each by
    error-free summation (:func:`math.fsum`) of its 2**|C| eliminated terms.

    A framed plan scores on its ``own`` plan, :data:`_SCORE_ELEMS` workspace
    elements at a time, and ``work`` goes unused."""
    if plan.own is not None:
        step = _rows_within(plan.own, _SCORE_ELEMS)
        return [z for s in range(0, Q.shape[0], step)
                for z in _row_overlaps(Q[s:s + step], plan.own)]
    work = work or _kernel_workspace(Q.shape[0], plan)
    scale = 2.0 ** (-plan.n / 2)
    # fsum reads a list of floats faster than it iterates an array
    return [complex(math.fsum(t.real.tolist()), math.fsum(t.imag.tolist())) * scale
            for t in _overlap_terms(Q, plan, work)]


def overlap(g: Graph, p: ProductState) -> complex:
    """<G|phi>: signed sum of product amplitudes, error-free accumulation."""
    if p.n != g.n:
        raise ValueError(f"product state has {p.n} qubits, graph has {g.n}")
    return _row_overlaps(_state_to_row(p)[None], _elimination_plan(g))[0]


def fidelity(g: Graph, p: ProductState) -> float:
    """|<G|phi>|^2, the squared overlap with the graph state."""
    return abs(overlap(g, p)) ** 2


def partial_overlaps(g: Graph, p: ProductState, j: int) -> tuple[complex, complex]:
    """Partial derivatives of the overlap with respect to qubit j's amplitudes.

    Returns ``(c0, c1)`` with ``overlap == x_j*c0 + y_j*c1``: c0 is the
    overlap with qubit j set to |0>, c1 with it set to |1>.
    """
    if p.n != g.n:
        raise ValueError(f"product state has {p.n} qubits, graph has {g.n}")
    if not (0 <= j < g.n):
        raise ValueError(f"qubit {j} out of range for n={g.n}")
    rows = np.stack([_state_to_row(p)] * 2)
    rows[:, j] = np.eye(2)
    c0, c1 = _row_overlaps(rows, _elimination_plan(g))
    return c0, c1


def _apply_single_qubit(amps: np.ndarray, gate: np.ndarray, q: int, n: int) -> np.ndarray:
    t = amps.reshape((2,) * n)
    t = np.moveaxis(np.tensordot(gate, t, axes=([1], [q])), 0, q)
    return t.reshape(-1)


def apply_lc_unitary(g: Graph, a: int, s: StateVector) -> StateVector:
    """Local unitary realizing local complementation at vertex ``a``.

    sqrt(X_a Z_{N(a)}): a -pi/4 X rotation on qubit a and +pi/4 Z rotations
    on its neighbours.  Maps the graph state of ``g`` onto the graph state of
    ``local_complement(g, a)`` up to a global phase.
    """
    if not (0 <= a < g.n):
        raise ValueError(f"vertex {a} out of range for n={g.n}")
    if s.n != g.n:
        raise ValueError("state size does not match graph")
    amps = _apply_single_qubit(s.amplitudes, _LC_X_FACTOR, a, g.n)
    for b in bits_of(g.rows[a]):
        amps = _apply_single_qubit(amps, _LC_Z_FACTOR, b, g.n)
    return StateVector(g.n, amps)
