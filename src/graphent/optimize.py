"""Closest-product-state search by monotone coordinate fixed-point iteration.

Each step replaces one qubit pair by the (conjugated, normalized) pair of
partial overlaps, which maximizes the fidelity over that coordinate alone, so
in sequential mode the fidelity never decreases.  Restarts draw independent
Bloch-uniform initial states from per-restart RNG streams derived as
``(seed, restart_index)``, making results reproducible and independent of
execution order or thread count.

Coordinates can be pinned (never updated) to break correlated update
equations: the per-round schedule can circle forever on a graph whose
update equations depend on each other (the Bell pair is the smallest), and
pinning one qubit restores convergence.  The sequential schedule reaches
the same optima unpinned.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .catalog import ALPHABET_LABELS, alphabet_constants
from .graphs import Graph
from .states import (
    PAIR_MINUS,
    PAIR_ONE,
    PAIR_PLUS,
    PAIR_ZERO,
    ProductState,
    QubitAmplitudePair,
    _batch_overlaps,
    _batch_partials,
    _kernel_workspace,
    _scaled_signs,
    _state_to_row,
    fidelity,
    fubini_study_distance,
    haar_random_pair,
    partial_overlaps,
)

MODES = ("sequential", "per-round")

# A restart is stalled when its best fidelity improved by less than
# STALL_IMPROVE_EPS for STALL_WINDOW consecutive rounds while the fixed-point
# residual still exceeds STALL_RESIDUAL (i.e. it is not at a critical point).
STALL_WINDOW = 20
STALL_IMPROVE_EPS = 1e-12
STALL_RESIDUAL = 1e-6

# Convergence requires a flat fidelity AND a near-zero fixed-point residual:
# correlated update equations can leave the fidelity exactly invariant while
# the state is far from any critical point (those restarts stall instead).
CONVERGED_RESIDUAL = 1e-8

DEGENERATE_EPS = 1e-300
_SMALLEST_NORMAL = np.finfo(float).tiny
SNAP_MAX_DISTANCE = 0.05

_ENGINE_BLOCK_ELEMS = 1 << 21
# presample draws in chunks whose (chunk, 2**n) weight array has at most this
# many elements, so its memory does not grow with the sample count.
_PRESAMPLE_ELEMS = 1 << 16

# Named pin values; ``random`` keeps each restart's own draw for the qubit.
FIX_VALUES = {
    "|0>": PAIR_ZERO,
    "|1>": PAIR_ONE,
    "|+>": PAIR_PLUS,
    "|->": PAIR_MINUS,
    "random": None,
}
_FIX_NAMES = {val: name for name, val in FIX_VALUES.items()}


@dataclass(frozen=True)
class FixedCoordinateSpec:
    """Coordinates excluded from updates: (vertex, value) entries.

    A ``None`` value keeps the restart's random initial draw for that qubit
    (fresh random per restart); an explicit pair pins the qubit to it.
    """

    entries: tuple[tuple[int, QubitAmplitudePair | None], ...]

    def __post_init__(self):
        verts = [v for v, _ in self.entries]
        if len(set(verts)) != len(verts):
            raise ValueError(f"fixed vertices must be distinct, got {verts}")
        if any(v < 0 for v in verts):
            raise ValueError(f"fixed vertices must be non-negative, got {verts}")

    @classmethod
    def zeros(cls, vertices) -> "FixedCoordinateSpec":
        return cls(tuple((v, PAIR_ZERO) for v in vertices))

    @classmethod
    def randoms(cls, vertices) -> "FixedCoordinateSpec":
        return cls(tuple((v, None) for v in vertices))

    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.entries)

    def describe(self) -> str:
        """``fixed 0=|1>,2=random``; pins outside :data:`FIX_VALUES` as raw pairs."""
        parts = []
        for v, val in self.entries:
            name = _FIX_NAMES.get(val)
            parts.append(f"{v}={name}" if name else f"{v}=({val.x:.6g},{val.y:.6g})")
        return "fixed " + ",".join(parts)


@dataclass(frozen=True)
class OptimizerConfig:
    """Iteration controls: 150 rounds and 1000 sequential restarts by default."""

    rounds: int = 150
    restarts: int = 1000
    mode: str = "sequential"
    seed: int = 0
    convergence_eps: float = 1e-16
    success_tol: float = 1e-14
    fixed: FixedCoordinateSpec | None = None

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.convergence_eps < 0:
            raise ValueError("convergence_eps must be >= 0")
        if self.success_tol <= 0:
            raise ValueError("success_tol must be > 0")


@dataclass(frozen=True)
class RestartRecord:
    """Full trajectory of a single restart."""

    init: ProductState
    fidelity_trace: tuple[float, ...]
    final_state: ProductState
    final_F: float
    converged: bool
    stalled: bool = False
    degenerate_steps: int = 0
    rounds: int = 0


@dataclass(frozen=True)
class RestartSummary:
    """Per-restart outcome kept by :func:`optimize`."""

    index: int
    final_F: float
    entanglement: float
    converged: bool
    stalled: bool
    rounds: int

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "final_F": self.final_F,
            "entanglement": self.entanglement,
            "converged": self.converged,
            "stalled": self.stalled,
            "rounds": self.rounds,
        }


@dataclass(frozen=True)
class OptimizationResult:
    """Best fidelity over all restarts and the matching entanglement figures."""

    best_F: float
    entanglement: float
    best_state: ProductState
    best_index: int
    records: tuple[RestartSummary, ...]
    measures: dict = field(default_factory=dict)
    fix_used: str | None = None

    def stalled_count(self) -> int:
        return sum(1 for r in self.records if r.stalled)

    def hit_fraction(self, E_ref: float, tol: float) -> float:
        """Fraction of restarts whose final entanglement is within tol of E_ref."""
        hits = sum(1 for r in self.records if abs(r.entanglement - E_ref) <= tol)
        return hits / len(self.records)

    def to_json_dict(self, g: Graph | None = None) -> dict:
        d = {
            "entanglement": self.entanglement,
            "best_F": self.best_F,
            "best_index": self.best_index,
            "measures": dict(self.measures),
            "fix_used": self.fix_used,
            "best_state": self.best_state.to_json(),
            "restarts_summary": [r.to_json_dict() for r in self.records],
        }
        if g is not None:
            d["graph"] = g.to_json_dict()
        return d


@dataclass(frozen=True)
class PresampleReport:
    """Fidelity range seen over random product states, without iteration."""

    count: int
    min_F: float
    max_F: float
    histogram: tuple[int, ...]
    bin_edges: tuple[float, ...]


@dataclass(frozen=True)
class SnapResult:
    """Outcome of replacing converged qubits by exact alphabet states."""

    snapped: ProductState
    labels: tuple[str | None, ...]
    refused: tuple[int, ...]
    fidelity: float
    description: str


def entanglement_from_fidelity(F: float) -> float:
    """E = -log2(F) in bits; rejects non-positive or clearly invalid F."""
    if F <= 0.0:
        raise ValueError(f"fidelity must be positive, got {F}")
    if F > 1.0 + 1e-9:
        raise ValueError(f"fidelity must be <= 1, got {F}")
    return -math.log2(min(F, 1.0))


def measures_from_entanglement(E: float) -> dict:
    """Expand the single entanglement scalar into the equal-valued measures.

    Relative entropy of entanglement, logarithmic robustness and the geometric
    measure coincide for stabilizer states; the plain robustness is 2**E - 1.
    """
    if E < 0:
        raise ValueError(f"entanglement must be >= 0, got {E}")
    return {
        "relative_entropy": E,
        "log_robustness": E,
        "geometric": E,
        "robustness": 2.0 ** E - 1.0,
    }


# ---------------------------------------------------------------------------
# batched iteration engine

def _gauge_fix_rows(pairs: np.ndarray) -> np.ndarray:
    """Vectorized gauge fix: first amplitude real >= 0; second 1 when it vanishes.

    A subnormal |x| counts as vanishing: numpy divides x / |x| through 1/|x|,
    which overflows.
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


def _batch_residuals(Q: np.ndarray, signs, free, work) -> np.ndarray:
    """Max fixed-point residual |y* c0 - x* c1| over free coordinates, per row."""
    res = np.zeros(Q.shape[0])
    for j in free:
        hg = _batch_partials(Q, signs, j, work)
        r = np.abs(Q[:, j, 1].conj() * hg[:, 0] - Q[:, j, 0].conj() * hg[:, 1])
        res = np.maximum(res, r)
    return res


def _batch_fidelity(Q: np.ndarray, signs, j0: int, work) -> np.ndarray:
    hg = _batch_partials(Q, signs, j0, work)
    f = Q[:, j0, 0] * hg[:, 0] + Q[:, j0, 1] * hg[:, 1]
    return f.real ** 2 + f.imag ** 2


@dataclass
class _BlockOutcome:
    converged: np.ndarray
    stalled: np.ndarray
    rounds: np.ndarray
    degenerate: np.ndarray
    trace: list[float] | None


def _compute_update(hg: np.ndarray):
    """Fidelity after the step, degeneracy mask, and the gauge-fixed new pairs."""
    F_new = hg.real[:, 0] ** 2 + hg.imag[:, 0] ** 2 \
        + hg.real[:, 1] ** 2 + hg.imag[:, 1] ** 2
    deg = F_new < DEGENERATE_EPS
    pairs = _gauge_fix_rows(hg.conj() / np.sqrt(np.where(deg, 1.0, F_new))[:, None])
    return F_new, deg, pairs


def _iterate_block(g: Graph, Q: np.ndarray, cfg: OptimizerConfig, free: list[int],
                   collect_trace: bool = False) -> _BlockOutcome:
    """Run the fixed-point iteration on a block of restart rows, in place.

    Each round updates only the rows still active.  ``collect_trace``
    records the fidelity after every update of a one-row block.
    """
    R = Q.shape[0]
    signs = _scaled_signs(g)
    work = _kernel_workspace(R, g.n - 1)
    active = np.ones(R, dtype=bool)
    converged = np.zeros(R, dtype=bool)
    stalled = np.zeros(R, dtype=bool)
    rounds_used = np.zeros(R, dtype=np.int64)
    degenerate = np.zeros(R, dtype=np.int64)
    plateau = np.zeros(R, dtype=np.int64)
    trace: list[float] | None = [] if collect_trace else None

    F_prev = _batch_fidelity(Q, signs, free[0], work)
    best_seen = F_prev.copy()

    for _ in range(cfg.rounds):
        live = np.flatnonzero(active)
        if not live.size:
            break
        rounds_used[live] += 1
        A = Q[live]
        if cfg.mode == "sequential":
            F_round = F_prev[live]
            for j in free:
                F_new, deg, pairs = _compute_update(_batch_partials(A, signs, j, work))
                A[~deg, j, :] = pairs[~deg]
                degenerate[live] += deg
                F_round = np.where(deg, F_round, F_new)
                if collect_trace:
                    trace.extend(F_round.tolist())
        else:
            staged = [(j, _compute_update(_batch_partials(A, signs, j, work)))
                      for j in free]
            for j, (_, deg, pairs) in staged:
                A[~deg, j, :] = pairs[~deg]
                degenerate[live] += deg
            F_round = _batch_fidelity(A, signs, free[0], work)
            if collect_trace:
                trace.extend(F_round.tolist())
        Q[live] = A

        flat = np.flatnonzero(np.abs(F_round - F_prev[live]) < cfg.convergence_eps)
        if flat.size:
            res = _batch_residuals(A[flat], signs, free, work)
            settled = live[flat[res <= CONVERGED_RESIDUAL]]
            converged[settled] = True
            active[settled] = False

        improved = F_round > best_seen[live] + STALL_IMPROVE_EPS
        plateau[live] = np.where(improved, 0, plateau[live] + 1)
        best_seen[live] = np.maximum(best_seen[live], F_round)
        candidates = live[active[live] & (plateau[live] >= STALL_WINDOW)]
        if candidates.size:
            res = _batch_residuals(Q[candidates], signs, free, work)
            bad = candidates[res > STALL_RESIDUAL]
            stalled[bad] = True
            active[bad] = False
        F_prev[live] = F_round

    return _BlockOutcome(converged, stalled, rounds_used, degenerate, trace)


def _rows_to_state(Q: np.ndarray, r: int) -> ProductState:
    return ProductState(tuple(
        QubitAmplitudePair(complex(Q[r, k, 0]), complex(Q[r, k, 1]))
        for k in range(Q.shape[1])
    ))


def _free_coordinates(g: Graph, fixed: FixedCoordinateSpec | None) -> list[int]:
    if fixed is None:
        return list(range(g.n))
    pinned = set(fixed.vertices())
    if any(v >= g.n for v in pinned):
        raise ValueError(f"fixed vertices {sorted(pinned)} out of range for n={g.n}")
    free = [j for j in range(g.n) if j not in pinned]
    if not free:
        raise ValueError("cannot fix every coordinate: nothing left to update")
    return free


def _apply_fixed(pairs: list[QubitAmplitudePair],
                 fixed: FixedCoordinateSpec | None) -> list[QubitAmplitudePair]:
    if fixed is not None:
        for v, val in fixed.entries:
            if val is not None:
                pairs[v] = val
    return pairs


def restart_rng(seed: int, index: int) -> np.random.Generator:
    """Private RNG stream for one restart: stream(seed, restart_index)."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def initial_state_for_restart(g: Graph, cfg: OptimizerConfig, index: int) -> ProductState:
    """The (Bloch-uniform) initial product state optimize() uses for a restart."""
    rng = restart_rng(cfg.seed, index)
    pairs = [haar_random_pair(rng) for _ in range(g.n)]
    return ProductState(tuple(_apply_fixed(pairs, cfg.fixed)))


# ---------------------------------------------------------------------------
# public operations

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


def run_restart(g: Graph, init: ProductState, cfg: OptimizerConfig) -> RestartRecord:
    """Iterate from one explicit initial state, recording the fidelity trace.

    Sequential mode sweeps the free coordinates in order, updating in place;
    per-round mode computes every update from the round-start state and
    applies them together (one trace entry per round).  Stops at the rounds
    cap, on a round-over-round fidelity change below ``convergence_eps``, or
    when flagged as stalled.  Pinned coordinates with explicit values replace
    the matching entries of ``init``; value-less pins keep ``init``'s entry.
    """
    if init.n != g.n:
        raise ValueError(f"init has {init.n} qubits, graph has {g.n}")
    free = _free_coordinates(g, cfg.fixed)
    pairs = _apply_fixed(list(init.qubits), cfg.fixed)
    init = ProductState(tuple(pairs))
    Q = _state_to_row(init)[None, :, :]
    out = _iterate_block(g, Q, cfg, free, collect_trace=True)
    final_state = _rows_to_state(Q, 0)
    return RestartRecord(
        init=init,
        fidelity_trace=tuple(out.trace),
        final_state=final_state,
        final_F=fidelity(g, final_state),
        converged=bool(out.converged[0]),
        stalled=bool(out.stalled[0]),
        degenerate_steps=int(out.degenerate[0]),
        rounds=int(out.rounds[0]),
    )


def _block_size(n: int, restarts: int, threads: int) -> int:
    size = max(1, _ENGINE_BLOCK_ELEMS >> max(0, n - 1))
    if threads > 1:
        size = min(size, max(1, -(-restarts // threads)))
    return min(size, restarts)


def optimize(g: Graph, cfg: OptimizerConfig | None = None, threads: int = 1) -> OptimizationResult:
    """Best product-state fidelity over independent random restarts.

    Deterministic for fixed (graph, config): every restart owns the RNG
    stream ``(seed, restart_index)`` and per-restart arithmetic does not
    depend on batching, so the result is identical for any thread count.
    The winner is the maximum final fidelity, ties to the lowest index.
    ``threads`` must be >= 1 and is clamped to the CPU count.
    """
    cfg = cfg or OptimizerConfig()
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    threads = min(threads, os.cpu_count() or 1)
    free = _free_coordinates(g, cfg.fixed)
    block = _block_size(g.n, cfg.restarts, threads)
    starts = list(range(0, cfg.restarts, block))

    def run_span(start: int) -> tuple[list[RestartSummary], np.ndarray]:
        count = min(block, cfg.restarts - start)
        Q = np.empty((count, g.n, 2), dtype=np.complex128)
        for i in range(count):
            Q[i] = _state_to_row(initial_state_for_restart(g, cfg, start + i))
        out = _iterate_block(g, Q, cfg, free)
        summaries = []
        for i in range(count):
            F = fidelity(g, _rows_to_state(Q, i))
            summaries.append(RestartSummary(
                index=start + i,
                final_F=F,
                entanglement=entanglement_from_fidelity(F) if F > 0 else math.inf,
                converged=bool(out.converged[i]),
                stalled=bool(out.stalled[i]),
                rounds=int(out.rounds[i]),
            ))
        return summaries, Q

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_span, starts))
    else:
        results = [run_span(start) for start in starts]

    records: list[RestartSummary] = []
    best = None
    best_state = None
    for summaries, Qfinal in results:
        for i, s in enumerate(summaries):
            records.append(s)
            if best is None or s.final_F > best.final_F:
                best = s
                best_state = _rows_to_state(Qfinal, i)
    if best.final_F <= 0.0:
        raise ValueError("every restart ended at F = 0: the pinned qubits make "
                         "the product state orthogonal to the graph state")
    E = max(0.0, entanglement_from_fidelity(best.final_F))
    return OptimizationResult(
        best_F=best.final_F,
        entanglement=E,
        best_state=best_state,
        best_index=best.index,
        records=tuple(records),
        measures=measures_from_entanglement(E),
        fix_used=cfg.fixed.describe() if cfg.fixed is not None else None,
    )


def presample(g: Graph, count: int, seed: int = 0) -> PresampleReport:
    """Fidelity of ``count`` random product states, without any iteration.

    Uses a single RNG stream; intended to bracket the plausible fidelity
    range before running the full search.
    """
    if count < 1:
        raise ValueError(f"presample count must be >= 1, got {count}")
    n = g.n
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA11)))
    bins = 50
    edges = np.linspace(0.0, 1.0, bins + 1)
    counts = np.zeros(bins, dtype=np.int64)
    min_F, max_F = math.inf, -math.inf
    chunk = max(1, _PRESAMPLE_ELEMS >> n)
    signs = _scaled_signs(g)
    work = _kernel_workspace(chunk, n)
    remaining = count
    while remaining:
        m = min(chunk, remaining)
        remaining -= m
        v = rng.standard_normal((m, n, 2, 2))
        q = v[..., 0] + 1j * v[..., 1]
        norms = np.sqrt((q.real ** 2 + q.imag ** 2).sum(axis=2, keepdims=True))
        degenerate = norms == 0.0
        q = np.where(degenerate, 1.0, q) / np.where(degenerate, 1.0, norms)
        f = _batch_overlaps(signs, q, work)
        F = f.real ** 2 + f.imag ** 2
        min_F = min(min_F, float(F.min()))
        max_F = max(max_F, float(F.max()))
        counts += np.histogram(np.clip(F, 0.0, 1.0), bins=edges)[0]
    return PresampleReport(
        count=count,
        min_F=min_F,
        max_F=max_F,
        histogram=tuple(int(c) for c in counts),
        bin_edges=tuple(float(e) for e in edges),
    )


def success_probability(g: Graph, E_ref: float, runs: int,
                        cfg: OptimizerConfig | None = None,
                        threads: int = 1) -> float:
    """Fraction of independent restarts landing within success_tol of E_ref."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    cfg = cfg or OptimizerConfig()
    res = optimize(g, replace(cfg, restarts=runs), threads=threads)
    return res.hit_fraction(E_ref, cfg.success_tol)


def snap_to_exact(g: Graph, p: ProductState) -> SnapResult:
    """Replace each qubit by its nearest alphabet state and re-measure fidelity.

    Distance is the gauge-invariant Fubini-Study metric, ties broken by the
    lowest alphabet index.  A qubit farther than 0.05 from every alphabet
    state is refused (kept numeric and labelled None): its converged value
    lies outside the known closed-form alphabet.
    """
    alphabet = alphabet_constants()
    labels: list[str | None] = []
    refused: list[int] = []
    snapped: list[QubitAmplitudePair] = []
    for idx, q in enumerate(p.qubits):
        dists = [fubini_study_distance(q, a) for a in alphabet]
        k = min(range(len(alphabet)), key=lambda i: dists[i])
        if dists[k] > SNAP_MAX_DISTANCE:
            labels.append(None)
            refused.append(idx)
            snapped.append(q)
        else:
            labels.append(ALPHABET_LABELS[k])
            snapped.append(alphabet[k])
    state = ProductState(tuple(snapped))
    description = "".join(f"|{lab}>" if lab is not None else "|?>" for lab in labels)
    return SnapResult(
        snapped=state,
        labels=tuple(labels),
        refused=tuple(refused),
        fidelity=fidelity(g, state),
        description=description,
    )
