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
EIGENCHECK_TOL = 1e-10


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
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"|x|^2+|y|^2 = {nrm} is not 1")

    @classmethod
    def normalized(cls, x: complex, y: complex) -> "QubitAmplitudePair":
        """Normalize and gauge-fix arbitrary (x, y) amplitudes."""
        nrm = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero amplitude pair")
        x, y = complex(x) / nrm, complex(y) / nrm
        ax = abs(x)
        if ax == 0.0:
            return cls(0j, 1.0 + 0j)
        phase = x.conjugate() / ax
        return cls(complex(ax, 0.0), y * phase)

    def to_json(self) -> list:
        return [[self.x.real, self.x.imag], [self.y.real, self.y.imag]]

    @classmethod
    def from_json(cls, data) -> "QubitAmplitudePair":
        (xr, xi), (yr, yi) = data
        return cls(complex(xr, xi), complex(yr, yi))


def pair_overlap(a: QubitAmplitudePair, b: QubitAmplitudePair) -> complex:
    """Single-qubit inner product <a|b>."""
    return a.x.conjugate() * b.x + a.y.conjugate() * b.y


def fubini_study_distance(a: QubitAmplitudePair, b: QubitAmplitudePair) -> float:
    """Gauge-invariant distance arccos|<a|b>| between qubit states."""
    return math.acos(min(1.0, abs(pair_overlap(a, b))))


def haar_random_pair(rng: np.random.Generator) -> QubitAmplitudePair:
    """Qubit state uniform on the Bloch sphere."""
    while True:
        v = rng.standard_normal(4)
        if v[0] or v[1] or v[2] or v[3]:
            return QubitAmplitudePair.normalized(
                complex(v[0], v[1]), complex(v[2], v[3])
            )


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
        return cls(tuple(QubitAmplitudePair.from_json(q) for q in data))


def random_product_state(n: int, rng: np.random.Generator) -> ProductState:
    return ProductState(tuple(haar_random_pair(rng) for _ in range(n)))


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
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {nrm} is not 1")
        object.__setattr__(self, "amplitudes", amps)

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


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


def graph_basis_state(g: Graph, k) -> StateVector:
    """Graph basis state: the graph state with Z applied where k_a = 1."""
    k = list(k)
    if len(k) != g.n:
        raise ValueError(f"bit vector length {len(k)} != n = {g.n}")
    if any(b not in (0, 1) for b in k):
        raise ValueError("bit vector entries must be 0 or 1")
    kmask = sum(b << (g.n - 1 - a) for a, b in enumerate(k))
    mu = np.arange(1 << g.n, dtype=np.uint32)
    flips = np.bitwise_count(mu & np.uint32(kmask)).astype(np.int64) & 1
    amps = graph_state_vector(g).amplitudes * np.where(flips, -1.0, 1.0)
    return StateVector(g.n, amps)


def stabilizer_eigencheck(g: Graph, a: int, s: StateVector):
    """Eigenvalue of the vertex-a stabilizer X_a Z_{N(a)} on ``s``.

    Returns +1 or -1 when ``s`` is an eigenstate within 1e-10, else None.
    """
    if not (0 <= a < g.n):
        raise ValueError(f"vertex {a} out of range for n={g.n}")
    if s.n != g.n:
        raise ValueError("state size does not match graph")
    n = g.n
    mu = np.arange(1 << n, dtype=np.uint32)
    nbmask = np.uint32(sum(1 << (n - 1 - b) for b in bits_of(g.rows[a])))
    zpar = np.bitwise_count(mu & nbmask).astype(np.int64) & 1
    applied = s.amplitudes[mu ^ np.uint32(1 << (n - 1 - a))] * np.where(zpar, -1.0, 1.0)
    for sign in (1, -1):
        if float(np.max(np.abs(applied - sign * s.amplitudes))) <= EIGENCHECK_TOL:
            return sign
    return None


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
    the :func:`_scaled_signs` vector."""
    work = work or _kernel_workspace(Q.shape[0], Q.shape[1] - 1)
    s = signs.reshape(1 << j, 2, -1)  # (qubits before j, qubit j, qubits after j)
    w = _product_weights(Q, skip=j, work=work)
    w = w.reshape(w.shape[0], *s[:, 0].shape)
    # The sum rounds in the memory order of the terms, so that order is fixed:
    # qubit j's axis is outermost for j = 0 and innermost otherwise.
    terms = work[1][:2 * w.size]
    if j == 0:
        terms = terms.reshape(w.shape[0], 2, -1).transpose(0, 2, 1)
    else:
        terms = terms.reshape(w.shape[0], -1, 2)
    for b in (0, 1):
        np.multiply(w, s[:, b], out=terms.reshape(*w.shape, 2)[..., b])
    return terms.sum(axis=1)


def _batch_overlaps(signs: np.ndarray, Q: np.ndarray, work) -> np.ndarray:
    """(R,) overlaps <G|phi> of every row of Q, by plain summation, given the
    :func:`_scaled_signs` vector."""
    w = _product_weights(Q, work=work)
    return np.multiply(w, signs[None, :], out=work[1][:w.size].reshape(w.shape)).sum(axis=1)


def product_state_vector(p: ProductState) -> StateVector:
    """Assemble the 2**n amplitudes of a product state (qubit 0 first)."""
    return StateVector(p.n, _product_weights(_state_to_row(p)[None])[0])


def _fsum_complex(values: np.ndarray) -> complex:
    return complex(math.fsum(values.real), math.fsum(values.imag))


def overlap(g: Graph, p: ProductState) -> complex:
    """<G|phi>: signed sum of product amplitudes, error-free accumulation."""
    if p.n != g.n:
        raise ValueError(f"product state has {p.n} qubits, graph has {g.n}")
    terms = phase_signs(g) * _product_weights(_state_to_row(p)[None])[0]
    return _fsum_complex(terms) * 2.0 ** (-g.n / 2)


def fidelity(g: Graph, p: ProductState) -> float:
    """|<G|phi>|^2, the squared overlap with the graph state."""
    return abs(overlap(g, p)) ** 2


def partial_overlaps(g: Graph, p: ProductState, j: int) -> tuple[complex, complex]:
    """Partial derivatives of the overlap with respect to qubit j's amplitudes.

    Returns ``(c0, c1)`` with ``overlap == x_j*c0 + y_j*c1``: c0 sums the
    basis terms where qubit j is 0, c1 those where it is 1.
    """
    if p.n != g.n:
        raise ValueError(f"product state has {p.n} qubits, graph has {g.n}")
    if not (0 <= j < g.n):
        raise ValueError(f"qubit {j} out of range for n={g.n}")
    others = _product_weights(_state_to_row(p)[None], skip=j)[0]
    # Bare signs: the scale is applied once, after the error-free sum.
    split = phase_signs(g).reshape(1 << j, 2, -1)
    scale = 2.0 ** (-g.n / 2)
    c0 = _fsum_complex(split[:, 0].reshape(-1) * others) * scale
    c1 = _fsum_complex(split[:, 1].reshape(-1) * others) * scale
    return c0, c1


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
