"""Dense amplitude representation of graph states and product states.

Bit-ordering convention, fixed everywhere in this package: qubit 0 is the
most significant bit of the basis index, so ``amplitudes[mu]`` belongs to the
computational basis state whose qubit-j value is ``(mu >> (n-1-j)) & 1``.

The graph state of a graph with adjacency rows Gamma has amplitudes
``2**(-n/2) * (-1)**e(mu)`` where ``e(mu)`` counts the edges lying inside the
support of ``mu`` (an exact integer count, so the sign is never subject to
floating-point parity).  Overlaps accumulate with error-free summation
(:func:`math.fsum`) because the downstream entanglement figures are quoted to
1e-14.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import Graph, bits_of

NORM_TOL = 1e-12
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


def _random_pairs(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2) amplitudes of n qubits uniform on the Bloch sphere, from n draws
    of four normals (re x, im x, re y, im y), by :func:`_normalized_rows`.

    A qubit whose four normals are all 0 is drawn again, and the later
    qubits shift to later draws, as n calls of :func:`haar_random_pair` do.
    """
    v = rng.standard_normal((n, 4))
    while not v.any(axis=1).all():
        kept = v[v.any(axis=1)]
        v = np.concatenate((kept, rng.standard_normal((n - len(kept), 4))))
    return _normalized_rows(v.view(np.complex128))


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


@lru_cache(maxsize=128)
def phase_signs(g: Graph) -> np.ndarray:
    """(-1)**e(mu) for every basis index mu, as an int8 array of +-1."""
    mu = np.arange(1 << g.n, dtype=np.uint32)
    signs = np.ones(1 << g.n, dtype=np.int8)
    for a, b in g.edges():
        both = ((mu >> (g.n - 1 - a)) & (mu >> (g.n - 1 - b)) & 1).astype(bool)
        signs[both] *= -1
    signs.setflags(write=False)
    return signs


def _scaled_signs(g: Graph) -> np.ndarray:
    """The graph state's real amplitudes 2**(-n/2) * (-1)**e(mu), as float64."""
    return phase_signs(g) * 2.0 ** (-g.n / 2)


def graph_state_vector(g: Graph) -> StateVector:
    """Graph state amplitudes 2**(-n/2) * (-1)**e(mu)."""
    return StateVector(g.n, _scaled_signs(g))


def _state_to_row(p: ProductState) -> np.ndarray:
    """(n, 2) array of a product state's qubit pairs."""
    return np.array([[q.x, q.y] for q in p.qubits], dtype=np.complex128)


def _kernel_workspace(R: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Buffers for up to R rows of m-qubit weights: the expansion ends in the
    first, (R * 2**m,); its earlier steps and the signed terms use the second.
    The engine reuses one per block: fresh arrays that shrank with the live
    rows made the allocator return pages and fault them in again."""
    return np.empty(R << m, dtype=np.complex128), np.empty(2 * R << m, dtype=np.complex128)


def _product_weights(Q: np.ndarray, skip: int | None = None, work=None) -> np.ndarray:
    """(R, n, 2) qubit pairs -> (R, 2**m) product amplitudes, qubit 0 first.

    ``skip`` leaves that qubit out (m = n - 1).  Uses explicit elementwise
    products (never BLAS matmul) so each row's arithmetic is bit-identical
    regardless of how rows are batched.  The result is a view into ``work``.
    """
    R = Q.shape[0]
    kept = [k for k in range(Q.shape[1]) if k != skip]
    work = work or _kernel_workspace(R, len(kept))
    w = np.ones((R, 1), dtype=np.complex128)
    for i, k in enumerate(kept):
        out = work[(len(kept) - 1 - i) % 2][:2 * w.size].reshape(R, -1, 2)
        w = np.multiply(w[:, :, None], Q[:, k, None, :], out=out).reshape(R, -1)
    return w


def _batch_partials(Q: np.ndarray, signs: np.ndarray, j: int, work=None) -> np.ndarray:
    """(R, 2) partial-overlap pairs of coordinate j for every row of Q, given
    the :func:`_scaled_signs` vector.

    Qubit j's axis is outermost in the signed terms, so each partial is one
    contiguous plain sum, whose rounding does not depend on the batch.
    """
    R = Q.shape[0]
    work = work or _kernel_workspace(R, Q.shape[1] - 1)
    s = signs.reshape(1 << j, 2, -1)  # (qubits before j, qubit j, qubits after j)
    w = _product_weights(Q, skip=j, work=work).reshape(R, 1, *s[:, 0].shape)
    terms = work[1][:2 * w.size].reshape(R, 2, *s[:, 0].shape)
    np.multiply(w, s.transpose(1, 0, 2), out=terms)
    return terms.reshape(R, 2, -1).sum(axis=2)


def _batch_fidelity(Q: np.ndarray, signs: np.ndarray, j: int, work=None) -> np.ndarray:
    """(R,) fidelities |<G|phi>|**2 of every row of Q, by plain summation,
    contracted through the partials of coordinate j."""
    hg = _batch_partials(Q, signs, j, work)
    f = Q[:, j, 0] * hg[:, 0] + Q[:, j, 1] * hg[:, 1]
    return f.real ** 2 + f.imag ** 2


def product_state_vector(p: ProductState) -> StateVector:
    """Assemble the 2**n amplitudes of a product state (qubit 0 first)."""
    return StateVector(p.n, _product_weights(_state_to_row(p)[None])[0])


def _row_overlap(pm: np.ndarray, row: np.ndarray) -> complex:
    """<G|phi> of one (n, 2) row given :func:`phase_signs`, error-free."""
    terms = pm * _product_weights(row[None])[0]
    return complex(math.fsum(terms.real), math.fsum(terms.imag)) * 2.0 ** (-row.shape[0] / 2)


def overlap(g: Graph, p: ProductState) -> complex:
    """<G|phi>: signed sum of product amplitudes, error-free accumulation."""
    if p.n != g.n:
        raise ValueError(f"product state has {p.n} qubits, graph has {g.n}")
    return _row_overlap(phase_signs(g), _state_to_row(p))


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
    pm, row = phase_signs(g), _state_to_row(p)
    row[j] = (1, 0)
    c0 = _row_overlap(pm, row)
    row[j] = (0, 1)
    return c0, _row_overlap(pm, row)


_LC_X_FACTOR = np.array([[1, -1j], [-1j, 1]], dtype=np.complex128) / math.sqrt(2)
_LC_Z_FACTOR = np.diag([cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 4)])


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
