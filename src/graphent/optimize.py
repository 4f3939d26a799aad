"""Closest-product-state search by monotone coordinate fixed-point iteration.

Each step replaces one qubit pair by the (conjugated, normalized) pair of
partial overlaps, which maximizes the fidelity over that coordinate alone, so
in sequential mode the fidelity never decreases.  Restarts draw independent
Bloch-uniform initial states from per-restart RNG streams derived as
``(seed, restart_index)``, making results reproducible and independent of
execution order or thread count.

Restarts stay numpy rows from draw to score: a block's rows are drawn, pinned,
iterated in place and scored by :func:`_iterate_block`, and only the winner
becomes a :class:`ProductState`.  :func:`initial_state_for_restart` and
:func:`run_restart` are one-row wrappers around the same path.

Every contraction comes from the graph's elimination plan (see
:mod:`graphent.states`): a maximum independent set I is summed out, so a
partial costs O(2**(n - |I|)) and no 2**n array is built.  A sweep reuses
the rows' eliminated signs across the partials of C = V \\ I until an
independent qubit moves.

Coordinates can be pinned (never updated) to break correlated update
equations: the per-round schedule can circle forever on a graph whose
update equations depend on each other (the Bell pair is the smallest), and
pinning one qubit restores convergence.  The sequential schedule reaches
the same optima unpinned.

E = -log2 F comes only from :func:`entanglement_from_fidelity`.  A restart is
a success when its E is within :data:`SUCCESS_TOL` of the reported E.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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
    _batch_fidelity,
    _batch_partials,
    _eliminated_signs,
    _elimination_plan,
    _gauge_fix_rows,  # noqa: F401 -- re-exported: the gauge fix stays importable here
    _kernel_workspace,
    _normalized_rows,
    _random_pairs,
    _row_overlaps,
    _state_to_row,
    fidelity,
    fubini_study_distance,
)

MODES = ("sequential", "per-round")

# A restart is stalled when its best fidelity improved by less than
# STALL_IMPROVE_EPS for STALL_WINDOW consecutive rounds while the fixed-point
# residual still exceeds STALL_RESIDUAL (i.e. it is not at a critical point).
STALL_WINDOW = 20
STALL_IMPROVE_EPS = 1e-12
STALL_RESIDUAL = 1e-6

# Convergence requires a flat fidelity (a round-over-round change of at most
# CONVERGENCE_EPS, or of 4 ulps of F where that is larger: at the optimum F can
# alternate between neighbouring doubles) AND a near-zero fixed-point
# residual: correlated update equations can leave the fidelity exactly
# invariant while the state is far from any critical point (those restarts
# stall instead).
CONVERGENCE_EPS = 1e-16
CONVERGED_RESIDUAL = 1e-8

SUCCESS_TOL = 1e-14  # the paper's precision for E

DEGENERATE_EPS = 1e-300
SNAP_MAX_DISTANCE = 0.05

_ENGINE_BLOCK_ELEMS = 1 << 21
# presample draws in chunks of at most this many elements over the 2**n basis
# states, so its workspace does not grow with the sample count.
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
        return self.__dict__.copy()


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
    """E = -log2(F) in bits (+0.0 at F >= 1); rejects non-positive or clearly invalid F."""
    if F <= 0.0:
        raise ValueError(f"fidelity must be positive, got {F}")
    if F > 1.0 + 1e-9:
        raise ValueError(f"fidelity must be <= 1, got {F}")
    # 0.0 - x is -x for every x != 0, and +0.0 (not -0.0) for x = 0
    return 0.0 - math.log2(min(F, 1.0))


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

def _batch_residuals(Q: np.ndarray, plan, free, work) -> np.ndarray:
    """Max fixed-point residual |y* c0 - x* c1| over free coordinates, per row."""
    res = np.zeros(Q.shape[0])
    v = _eliminated_signs(Q, plan, work)
    for j in free:
        hg = _batch_partials(Q, plan, j, work, v)
        r = np.abs(Q[:, j, 1].conj() * hg[:, 0] - Q[:, j, 0].conj() * hg[:, 1])
        res = np.maximum(res, r)
    return res


def _iterate_block(g: Graph, Q: np.ndarray, cfg: OptimizerConfig, free: list[int],
                   first: int = 0, trace: list[float] | None = None):
    """Run the fixed-point iteration on a block of restart rows, in place, and
    score each final row.

    Row i is restart ``first + i``.  Each round updates only the rows still
    active.  Returns the rows' summaries and degenerate-step counts; a
    one-row block appends its fidelity after every update to ``trace``.
    """
    R = Q.shape[0]
    plan = _elimination_plan(g)
    work = _kernel_workspace(R, len(plan.rest))
    sequential = cfg.mode == "sequential"
    active = np.ones(R, dtype=bool)
    converged = np.zeros(R, dtype=bool)
    stalled = np.zeros(R, dtype=bool)
    rounds_used = np.zeros(R, dtype=np.int64)
    degenerate = np.zeros(R, dtype=np.int64)
    plateau = np.zeros(R, dtype=np.int64)

    F_prev = _batch_fidelity(Q, plan, work)
    best_seen = F_prev.copy()

    for _ in range(cfg.rounds):
        live = np.flatnonzero(active)
        if not live.size:
            break
        rounds_used[live] += 1
        A = Q[live]
        # per-round mode reads every partial from the rows as the round began
        old = A if sequential else A.copy()
        F_round = F_prev[live]
        v = None  # old's eliminated signs, kept while no independent qubit moves
        for j in free:
            if v is None and j in plan.rest:
                v = _eliminated_signs(old, plan, work)
            hg = _batch_partials(old, plan, j, work, v)
            F_new = hg.real[:, 0] ** 2 + hg.imag[:, 0] ** 2 \
                + hg.real[:, 1] ** 2 + hg.imag[:, 1] ** 2
            deg = F_new < DEGENERATE_EPS
            A[~deg, j, :] = _normalized_rows(hg[~deg].conj())
            degenerate[live] += deg
            if sequential:
                if j in plan.independent:
                    v = None
                F_round = np.where(deg, F_round, F_new)
                if trace is not None:
                    trace.extend(F_round.tolist())
        if not sequential:
            F_round = _batch_fidelity(A, plan, work)
            if trace is not None:
                trace.extend(F_round.tolist())
        Q[live] = A

        improved = F_round > best_seen[live] + STALL_IMPROVE_EPS
        plateau[live] = np.where(improved, 0, plateau[live] + 1)
        best_seen[live] = np.maximum(best_seen[live], F_round)
        flat = np.abs(F_round - F_prev[live]) <= np.maximum(
            CONVERGENCE_EPS, 4 * np.spacing(F_prev[live]))
        stuck = plateau[live] >= STALL_WINDOW
        # A row's residual does not depend on the other rows in its batch, so
        # one pass over the flat and the plateaued rows decides both tests.
        check = flat | stuck
        if check.any():
            res = _batch_residuals(A[check], plan, free, work)
            done = flat[check] & (res <= CONVERGED_RESIDUAL)
            bad = ~done & stuck[check] & (res > STALL_RESIDUAL)
            rows = live[check]
            converged[rows[done]] = True
            stalled[rows[bad]] = True
            active[rows[done | bad]] = False
        F_prev[live] = F_round

    finals = [abs(z) ** 2 for z in _row_overlaps(Q, plan, work)]
    return [RestartSummary(first + i, F, entanglement_from_fidelity(F) if F > 0 else math.inf,
                           bool(converged[i]), bool(stalled[i]), int(rounds_used[i]))
            for i, F in enumerate(finals)], degenerate


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


def _pin(Q: np.ndarray, fixed: FixedCoordinateSpec | None) -> np.ndarray:
    """Write the explicit pins into every row of Q, in place; returns Q."""
    if fixed is not None:
        for v, val in fixed.entries:
            if val is not None:
                Q[:, v] = val.x, val.y
    return Q


def _restart_rows(g: Graph, cfg: OptimizerConfig, start: int, count: int) -> np.ndarray:
    """(count, n, 2) initial rows of restarts start, start + 1, ..., pinned;
    restart i draws its qubits from stream ``(seed, i)``."""
    rows = [_random_pairs(np.random.default_rng(np.random.SeedSequence((cfg.seed, i))), g.n)
            for i in range(start, start + count)]
    return _pin(np.stack(rows), cfg.fixed)


def initial_state_for_restart(g: Graph, cfg: OptimizerConfig, index: int) -> ProductState:
    """The (Bloch-uniform) initial product state optimize() uses for a restart."""
    return _rows_to_state(_restart_rows(g, cfg, index, 1), 0)


# ---------------------------------------------------------------------------
# public operations

def run_restart(g: Graph, init: ProductState, cfg: OptimizerConfig) -> RestartRecord:
    """Iterate from one explicit initial state, recording the fidelity trace.

    Sequential mode sweeps the free coordinates in order, updating in place;
    per-round mode computes every update from the round-start state and
    applies them together (one trace entry per round).  Stops at the rounds
    cap, on convergence (a round-over-round fidelity change of at most
    :data:`CONVERGENCE_EPS` or 4 ulps of F at a fixed-point residual of at most
    :data:`CONVERGED_RESIDUAL`), or when flagged as stalled.  Pinned
    coordinates with explicit values replace the matching entries of
    ``init``; value-less pins keep ``init``'s entry.
    """
    if init.n != g.n:
        raise ValueError(f"init has {init.n} qubits, graph has {g.n}")
    free = _free_coordinates(g, cfg.fixed)
    Q = _pin(_state_to_row(init)[None], cfg.fixed)
    init = _rows_to_state(Q, 0)
    trace: list[float] = []
    (s,), degenerate = _iterate_block(g, Q, cfg, free, trace=trace)
    return RestartRecord(init, tuple(trace), _rows_to_state(Q, 0), s.final_F, s.converged,
                         s.stalled, int(degenerate[0]), s.rounds)


def usable_cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    ``threads`` must be >= 1 and is clamped to :func:`usable_cpu_count`.
    """
    cfg = cfg or OptimizerConfig()
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    threads = min(threads, usable_cpu_count())
    free = _free_coordinates(g, cfg.fixed)
    block = _block_size(g.n, cfg.restarts, threads)
    starts = list(range(0, cfg.restarts, block))
    _elimination_plan(g)  # fill its cache here, not in every pool thread at once

    def run_span(start: int) -> tuple[list[RestartSummary], np.ndarray]:
        Q = _restart_rows(g, cfg, start, min(block, cfg.restarts - start))
        return _iterate_block(g, Q, cfg, free, start)[0], Q

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_span, starts))
    else:
        results = [run_span(start) for start in starts]

    records = [s for summaries, _ in results for s in summaries]
    # max keeps the first maximum, so ties go to the lowest index
    best = max(records, key=lambda s: s.final_F)
    best_state = _rows_to_state(results[best.index // block][1], best.index % block)
    if best.final_F <= 0.0:
        raise ValueError("every restart ended at F = 0: the pinned qubits make "
                         "the product state orthogonal to the graph state")
    E = entanglement_from_fidelity(best.final_F)
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

    Uses a single RNG stream, drawn qubit by qubit as a restart draws its
    rows; intended to bracket the plausible fidelity range before running
    the full search.
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
    plan = _elimination_plan(g)
    work = _kernel_workspace(chunk, len(plan.rest))
    remaining = count
    while remaining:
        m = min(chunk, remaining)
        remaining -= m
        F = _batch_fidelity(_random_pairs(rng, m * n).reshape(m, n, 2), plan, work)
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
