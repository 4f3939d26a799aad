import importlib
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

from graphent import (
    FixedCoordinateSpec,
    OptimizerConfig,
    ProductState,
    QubitAmplitudePair,
    build_graph,
    builtin_family,
    entanglement_from_fidelity,
    fidelity,
    initial_state_for_restart,
    measures_from_entanglement,
    optimize,
    partial_overlaps,
    presample,
    random_product_state,
    run_restart,
    snap_to_exact,
)
from graphent.catalog import PAIR_PHI
from graphent.graphs import max_independent_set
from graphent.optimize import SUCCESS_TOL, _gauge_fix_rows, usable_cpu_count
from graphent.states import (
    PAIR_MINUS,
    PAIR_ONE,
    PAIR_PLUS,
    PAIR_ZERO,
    _batch_fidelity,
    _batch_partials,
    _eliminated_signs,
    _elimination_plan,
    _kernel_workspace,
    _product_weights,
    _random_pairs,
    _row_overlaps,
)
from helpers import (
    coordinate_update,
    dense_fsum_overlap,
    grid_oracle_max_fidelity,
    orthogonality_residual,
    random_graph,
)

# the package rebinds the name ``optimize`` to the function
optimize_mod = importlib.import_module("graphent.optimize")
E_RING5 = 1 + math.log2(3) + math.log2(3 - math.sqrt(3))
F_RING5 = (3 + math.sqrt(3)) / 36
K2 = build_graph(2, [(0, 1)])


def _bits(vertices) -> dict:
    """Each vertex's bit over the 2**len(vertices) values, the first vertex
    most significant."""
    x = np.arange(1 << len(vertices))
    return {v: (x >> (len(vertices) - 1 - k)) & 1 for k, v in enumerate(vertices)}


def _explicit_signs(g, vertices) -> np.ndarray:
    """(-1)**(edges of g inside the support) over the vertices' bits."""
    bit = _bits(vertices)
    return (-1) ** sum((bit[a] * bit[b] for a, b in g.edges() if a in bit and b in bit),
                       np.zeros(1 << len(vertices), dtype=int))


def _explicit_elimination(g, Q) -> SimpleNamespace:
    """The plan's I, then C, sigma_C, each s_i and f_i, and the eliminated signs
    v = (sigma * f_i0) * f_i1 ... of the rows of Q, written out from their
    definitions."""
    e = SimpleNamespace(independent=_elimination_plan(g).independent)
    assert not any(g.has_edge(a, b) for a in e.independent for b in e.independent)
    e.rest = [v for v in range(g.n) if v not in e.independent]
    e.sigma = _explicit_signs(g, e.rest)
    bit = _bits(e.rest)
    e.parity = {i: (-1) ** sum((bit[c] for c in e.rest if g.has_edge(i, c)),
                               np.zeros(1 << len(e.rest), dtype=int)) for i in e.independent}
    e.factor = {i: Q[:, i, 0, None] + Q[:, i, 1, None] * e.parity[i] for i in e.independent}
    e.v = e.sigma
    for i in e.independent:
        e.v = e.v * e.factor[i]
    return e


def _explicit_partials(g, Q, j):
    """(R, 2) partials of coordinate j as the kernel sums them, each term and
    each contiguous sum written out here."""
    e = _explicit_elimination(g, Q)
    if j in e.independent:
        t = _product_weights(Q[:, e.rest]) * e.sigma
        for i in e.independent:
            if i != j:
                t = t * e.factor[i]
        sums = np.stack([t.sum(axis=1), (t * e.parity[j]).sum(axis=1)], axis=1)
    else:
        p = e.rest.index(j)
        mat = np.moveaxis(e.v.reshape(len(Q), 1 << p, 2, -1), 2, 1).reshape(len(Q), 2, -1)
        w = _product_weights(Q[:, e.rest], skip=p)
        sums = np.ascontiguousarray(w[:, None, :] * mat).sum(axis=2)
    return sums * 2.0 ** (-g.n / 2)


def small_cfg(**kw):
    base = dict(restarts=40, rounds=80, seed=7)
    base.update(kw)
    return OptimizerConfig(**base)


class TestCoordinateUpdate:
    def test_k2_zero_random_becomes_plus(self, rng):
        p = ProductState((PAIR_ZERO, random_product_state(1, rng).qubits[0]))
        updated = coordinate_update(K2, p, 1)
        q = updated.qubits[1]
        assert abs(q.x - 1 / math.sqrt(2)) <= 1e-12
        assert abs(q.y - 1 / math.sqrt(2)) <= 1e-12
        assert abs(fidelity(K2, updated) - 0.5) <= 1e-14

    def test_c5_phi_pattern_is_fixed_point(self):
        g = builtin_family("cycle", 5)
        p = ProductState((PAIR_PHI[0],) * 5)
        for j in range(5):
            updated = coordinate_update(g, p, j)
            q0, q1 = p.qubits[j], updated.qubits[j]
            assert abs(q0.x - q1.x) <= 1e-12 and abs(q0.y - q1.y) <= 1e-12
            assert abs(fidelity(g, updated) - F_RING5) <= 1e-14

    def test_empty_graph_gives_plus(self, rng):
        g = builtin_family("empty", 3)
        p = random_product_state(3, rng)
        updated = coordinate_update(g, p, 1)
        q = updated.qubits[1]
        assert abs(q.x - 1 / math.sqrt(2)) <= 1e-12
        assert abs(q.y - 1 / math.sqrt(2)) <= 1e-12

    def test_never_decreases_fidelity(self, rng):
        for _ in range(100):
            g = random_graph(rng)
            p = random_product_state(g.n, rng)
            j = int(rng.integers(0, g.n))
            assert fidelity(g, coordinate_update(g, p, j)) >= fidelity(g, p) - 1e-12

    def test_degenerate_coordinate_unchanged(self):
        # star center with leaves |-> and |+>: both partial overlaps vanish,
        # so no choice of the center qubit contributes to the overlap
        g = builtin_family("star", 3)
        p = ProductState((PAIR_ZERO, PAIR_MINUS, PAIR_PLUS))
        c0, c1 = partial_overlaps(g, p, 0)
        assert abs(c0) <= 1e-16 and abs(c1) <= 1e-16
        assert coordinate_update(g, p, 0) == p

    def test_degenerate_step_flagged_in_record(self):
        g = builtin_family("star", 3)
        init = ProductState((PAIR_ZERO, PAIR_MINUS, PAIR_PLUS))
        rec = run_restart(g, init, small_cfg())
        assert rec.degenerate_steps >= 1

    def test_engine_matches_public_partials(self, rng):
        # the batched engine and the fsum-based public op agree
        for _ in range(50):
            g = random_graph(rng)
            p = random_product_state(g.n, rng)
            j = int(rng.integers(0, g.n))
            row = np.array([[q.x, q.y] for q in p.qubits])[None, :, :]
            hg = _batch_partials(row, _elimination_plan(g), j)
            c0, c1 = partial_overlaps(g, p, j)
            assert abs(hg[0, 0] - c0) <= 1e-12
            assert abs(hg[0, 1] - c1) <= 1e-12

    def test_elimination_plan(self, rng):
        # I is the lowest maximum independent set (the edgeless graph keeps its
        # last qubit in C), and sigma_C and every s_i equal their definitions;
        # the plan holds no more than the 2**n bytes of phase_signs
        cases = [random_graph(rng, n=n, p=rng.random()) for n in range(1, 17)]
        cases += [builtin_family("empty", 1), builtin_family("empty", 4)]
        for g in cases:
            plan = _elimination_plan(g)
            if g.edge_count():
                assert sum(1 << i for i in plan.independent) == max_independent_set(g)
            else:
                assert plan.rest == ((g.n - 1,) if g.n > 1 else ())
            assert sorted(plan.independent + plan.rest) == list(range(g.n))
            e = _explicit_elimination(g, np.ones((1, g.n, 2)))
            assert np.array_equal(plan.signs, e.sigma)
            assert np.array_equal(plan.parities, [e.parity[i] for i in plan.independent])
            assert plan.signs.nbytes + plan.parities.nbytes <= 1 << g.n

    def test_shared_workspace_is_bit_identical(self, rng):
        # the kernel reads its signs from the elimination plan and keeps its
        # temporaries in a workspace; it must equal, bit for bit, the explicit
        # elimination sum of _explicit_partials, with a shared workspace
        # holding more rows than used or a fresh one, and with the rows'
        # eliminated signs passed in or built by the call
        cases = [random_graph(rng, n=n) for n in (1, 2, 3, 6, 9, 12, 16)]
        cases += [builtin_family("empty", 5), builtin_family("star", 6)]
        for g in cases:
            plan = _elimination_plan(g)
            work = _kernel_workspace(9, len(plan.rest))
            for rows in (9, 4, 1):
                Q = rng.normal(size=(rows, g.n, 2)) + 1j * rng.normal(size=(rows, g.n, 2))
                v = _eliminated_signs(Q, plan, work)
                for j in range(g.n):
                    plain = _explicit_partials(g, Q, j)
                    assert np.array_equal(_batch_partials(Q, plan, j, work, v), plain)
                    assert np.array_equal(_batch_partials(Q, plan, j, work), plain)
                    assert np.array_equal(_batch_partials(Q, plan, j), plain)

    def test_batch_size_does_not_change_a_row(self, rng):
        # a row's partials, fidelity and fsum overlap are the same bits in a
        # batch of 9, 4 or 1 rows; the edgeless graph has |C| = 0, the star
        # |C| = 1
        cases = [builtin_family("empty", n) for n in (1, 4)]
        cases += [builtin_family("star", n) for n in (2, 5)]
        cases += [random_graph(rng, n=n) for n in (3, 8, 13)]
        for g in cases:
            plan = _elimination_plan(g)
            Q = _random_pairs(rng, 9 * g.n).reshape(9, g.n, 2)
            for j in range(g.n):
                whole = _batch_partials(Q, plan, j)
                for rows in (4, 1):
                    assert np.array_equal(_batch_partials(Q[:rows], plan, j), whole[:rows])
            work = _kernel_workspace(9, len(plan.rest))
            whole = _batch_fidelity(Q, plan, work)
            fsums = _row_overlaps(Q, plan)
            for rows in (4, 1):
                assert np.array_equal(_batch_fidelity(Q[:rows], plan, work), whole[:rows])
                assert _row_overlaps(Q[:rows], plan) == fsums[:rows]

    def test_partials_match_dense_sums(self, rng):
        # unit rows: every partial within 1e-15 of the dense sum over the
        # explicit (2, 2**(n-1)) sign matrix of coordinate j
        for n in range(1, 17):
            g = random_graph(rng, n=n, p=rng.random())
            plan = _elimination_plan(g)
            Q = _random_pairs(rng, 3 * n).reshape(3, n, 2)
            signs = _explicit_signs(g, range(n)).reshape((2,) * n)
            for j in range(n):
                mat = np.moveaxis(signs, j, 0).reshape(2, -1) * 2.0 ** (-n / 2)
                dense = (_product_weights(Q, skip=j)[:, None, :] * mat).sum(axis=2)
                assert np.abs(_batch_partials(Q, plan, j) - dense).max() <= 1e-15

    def test_public_partials_match_explicit_matrix(self, rng):
        # partial_overlaps is the fsum over the eliminated terms with qubit j
        # set to |0> and to |1>; it must equal that sum built explicitly here
        for n in (1, 2, 3, 6, 9, 12, 16):
            g = random_graph(rng, n=n)
            p = random_product_state(n, rng)
            scale = 2.0 ** (-n / 2)
            row = np.array([[q.x, q.y] for q in p.qubits])
            for j in range(n):
                rows = np.stack([row, row])
                rows[:, j] = np.eye(2)
                e = _explicit_elimination(g, rows)
                terms = _product_weights(rows[:, e.rest]) * e.v
                expect = tuple(complex(math.fsum(t.real), math.fsum(t.imag)) * scale
                               for t in terms)
                assert partial_overlaps(g, p, j) == expect

    def test_fsum_rescoring_matches_dense_oracle(self):
        # the engine rescores its rows by fsum over 2**|C| eliminated terms;
        # the dense fsum over all 2**n terms agrees to a relative 1e-14
        for g in (builtin_family("cycle", 5), builtin_family("cycle", 12),
                  builtin_family("path", 9), builtin_family("complete", 7),
                  build_graph(8, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7),
                                  (3, 7), (1, 5)])):
            res = optimize(g, small_cfg(restarts=6, rounds=30))
            row = np.array([[q.x, q.y] for q in res.best_state.qubits])
            got = _row_overlaps(row[None], _elimination_plan(g))[0]
            want = dense_fsum_overlap(g, res.best_state)
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_gauge_fix_subnormal_first_amplitude(self):
        # numpy divides x / |x| through 1/|x|, which overflows when |x| is
        # subnormal; such rows must come out finite and bit for bit as the
        # scalar gauge fix gives them
        phases = (1, 1j, -1, -1j, 0.6 + 0.8j, -0.8 + 0.6j, 0.28 - 0.96j,
                  np.exp(2.1j))
        rows = np.array([[s * ph, ph] for ph in phases
                         for s in (5e-320, 3e-310, 1e-315, 2e-309)])
        out = _gauge_fix_rows(rows)
        for row, got in zip(rows, out):
            ref = QubitAmplitudePair.normalized(*row)
            assert (got[0], got[1]) == (ref.x, ref.y)


class TestRunRestart:
    def test_sequential_trace_monotone(self, rng):
        for _ in range(50):
            g = random_graph(rng)
            cfg = small_cfg()
            rec = run_restart(g, random_product_state(g.n, rng), cfg)
            trace = rec.fidelity_trace
            assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_c5_reaches_exact(self):
        g = builtin_family("cycle", 5)
        cfg = OptimizerConfig(restarts=1, rounds=150, seed=1)
        found = 0
        for i in range(10):
            rec = run_restart(g, initial_state_for_restart(g, cfg, i), cfg)
            if abs(-math.log2(rec.final_F) - E_RING5) <= 1e-13:
                found += 1
        assert found >= 8

    def test_k2_per_round_oscillates(self):
        cfg = OptimizerConfig(restarts=1, rounds=150, seed=5, mode="per-round")
        stalls = 0
        for i in range(10):
            rec = run_restart(K2, initial_state_for_restart(K2, cfg, i), cfg)
            if rec.stalled:
                stalls += 1
                assert not rec.converged
                assert rec.final_F < 0.5 - 1e-6
        assert stalls >= 8

    def test_k2_sequential_converges_first_round(self, rng):
        rec = run_restart(K2, random_product_state(2, rng), small_cfg())
        assert rec.converged and rec.rounds <= 2
        assert abs(rec.final_F - 0.5) <= 1e-15

    def test_per_round_one_entry_per_round(self, rng):
        # K2 per-round oscillates, so it runs to the rounds cap
        cfg = small_cfg(mode="per-round", rounds=17)
        rec = run_restart(K2, random_product_state(2, rng), cfg)
        assert len(rec.fidelity_trace) == rec.rounds == 17

    def test_one_residual_pass_per_round(self, monkeypatch):
        # a K2 per-round row can be flat and, after STALL_WINDOW rounds, on a
        # plateau in the same round: both decisions come from one pass
        calls = []
        real = optimize_mod._batch_residuals
        monkeypatch.setattr(optimize_mod, "_batch_residuals",
                            lambda *a: calls.append(1) or real(*a))
        cfg = OptimizerConfig(restarts=1, rounds=150, seed=5, mode="per-round")
        for i in range(10):
            calls.clear()
            rec = run_restart(K2, initial_state_for_restart(K2, cfg, i), cfg)
            assert len(calls) <= rec.rounds

    def test_k2_restarts_stop_at_neighbouring_doubles(self):
        # F near 1/2 can alternate between two neighbouring doubles at the
        # optimum; a few ulps of change count as flat, so no restart runs to
        # the rounds cap, and E and P_s stay as they were
        cfg = OptimizerConfig(restarts=500, rounds=40, seed=0)
        res = optimize(K2, cfg)
        capped = [r for r in res.records
                  if r.rounds == cfg.rounds and not (r.converged or r.stalled)]
        assert capped == []
        assert abs(res.entanglement - 1.0) <= SUCCESS_TOL
        assert res.hit_fraction(res.entanglement, SUCCESS_TOL) == 1.0

    def test_init_length_checked(self, rng):
        with pytest.raises(ValueError):
            run_restart(K2, random_product_state(3, rng), small_cfg())


class TestOptimize:
    def test_c5_exact(self):
        res = optimize(builtin_family("cycle", 5), small_cfg(restarts=100))
        assert abs(res.entanglement - E_RING5) <= 1e-12

    def test_star_ghz_value(self):
        for n in (3, 5, 7):
            res = optimize(builtin_family("star", n), small_cfg())
            assert abs(res.entanglement - 1.0) <= 1e-12

    def test_c6(self):
        res = optimize(builtin_family("cycle", 6), small_cfg(restarts=100))
        assert abs(res.entanglement - 3.0) <= 1e-12

    def test_empty_graph_unentangled(self):
        res = optimize(builtin_family("empty", 3), small_cfg(restarts=5))
        assert res.best_F >= 1 - 1e-12
        assert res.entanglement <= 1e-12

    def test_best_is_max_of_records(self):
        res = optimize(builtin_family("cycle", 5), small_cfg())
        assert res.best_F == max(r.final_F for r in res.records)
        winner = min(r.index for r in res.records if r.final_F == res.best_F)
        assert res.best_index == winner

    def test_only_winner_becomes_product_state(self, monkeypatch):
        built = []
        real = optimize_mod._rows_to_state
        monkeypatch.setattr(optimize_mod, "_rows_to_state",
                            lambda Q, r: built.append(r) or real(Q, r))
        g = builtin_family("cycle", 6)
        res = optimize(g, small_cfg(restarts=64), threads=2)
        assert len(built) == 1
        assert fidelity(g, res.best_state) == res.best_F

    def test_only_winner_builds_qubit_pairs(self, monkeypatch):
        # restarts stay numpy rows from draw to score: the winner's n qubits
        # are the only QubitAmplitudePairs optimize builds
        built = []
        real = QubitAmplitudePair.__post_init__
        monkeypatch.setattr(QubitAmplitudePair, "__post_init__",
                            lambda self: built.append(1) or real(self))
        g = builtin_family("cycle", 6)
        spec = FixedCoordinateSpec(((0, PAIR_ZERO), (3, None)))
        for mode in optimize_mod.MODES:
            built.clear()
            optimize(g, small_cfg(restarts=64, mode=mode, fixed=spec), threads=2)
            assert len(built) == g.n

    def test_deterministic_bitwise(self):
        g = builtin_family("cycle", 5)
        a = optimize(g, small_cfg())
        b = optimize(g, small_cfg())
        assert a.best_F == b.best_F and a.records == b.records
        assert a.best_state == b.best_state

    def test_thread_count_invariant(self):
        g = builtin_family("cycle", 6)
        cfg = small_cfg(restarts=64)
        serial = optimize(g, cfg)
        threaded = optimize(g, cfg, threads=4)
        assert serial.best_F == threaded.best_F
        assert serial.records == threaded.records
        assert serial.best_state == threaded.best_state

    def test_restart_streams_independent_of_count(self):
        # restart i sees the same stream whether 10 or 40 restarts run
        g = builtin_family("cycle", 4)
        small = optimize(g, small_cfg(restarts=10))
        large = optimize(g, small_cfg(restarts=40))
        assert small.records == large.records[:10]

    def test_measures_attached(self):
        res = optimize(K2, small_cfg(restarts=5))
        assert abs(res.measures["robustness"] - 1.0) <= 1e-9
        assert res.measures["relative_entropy"] == res.entanglement

    def test_per_round_matches_sequential_best_on_c5(self):
        g = builtin_family("cycle", 5)
        seq = optimize(g, small_cfg(restarts=100))
        rnd = optimize(g, small_cfg(restarts=100, mode="per-round", rounds=150))
        assert abs(seq.best_F - rnd.best_F) <= 1e-12


def _old_pairs(rng, n):
    """n qubits drawn as optimize once drew them: four normals per qubit,
    drawn again while all four are 0, normalized into a validated pair."""
    pairs = []
    for _ in range(n):
        v = rng.standard_normal(4)
        while not v.any():
            v = rng.standard_normal(4)
        pairs.append(QubitAmplitudePair.normalized(complex(v[0], v[1]), complex(v[2], v[3])))
    return pairs


def _old_restart_row(n, cfg, index):
    """Restart ``index``'s initial row as optimize once built it: the old
    per-qubit draws on stream (seed, index), then the explicit pins."""
    pairs = _old_pairs(np.random.default_rng(np.random.SeedSequence((cfg.seed, index))), n)
    for v, val in cfg.fixed.entries if cfg.fixed else ():
        if val is not None:
            pairs[v] = val
    return np.array([[q.x, q.y] for q in pairs], dtype=np.complex128)


class _ScriptedNormals:
    """Stands in for a Generator: serves ``values`` in order."""

    def __init__(self, values):
        self.values = list(values)

    def standard_normal(self, shape):
        size = int(np.prod(shape))
        take, self.values = self.values[:size], self.values[size:]
        return np.array(take).reshape(shape)


class TestRestartRows:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_optimize_draws_the_old_rows(self, n, monkeypatch):
        drawn = []
        real = optimize_mod._iterate_block
        monkeypatch.setattr(optimize_mod, "_iterate_block",
                            lambda g, Q, *a, **kw: drawn.append(Q.copy()) or real(g, Q, *a, **kw))
        g = builtin_family("path", n) if n > 1 else builtin_family("empty", 1)
        # n = 2 pins |0>, n = 3 adds |->, n >= 4 also a random pin
        pins = ((0, PAIR_ZERO), (n - 1, PAIR_MINUS), (n // 2, None))[:n - 1]
        for fixed in (None, FixedCoordinateSpec(pins) if pins else None):
            drawn.clear()
            cfg = OptimizerConfig(restarts=3, rounds=1, seed=11 * n, fixed=fixed)
            optimize(g, cfg)
            rows = np.concatenate(drawn)
            for i in range(cfg.restarts):
                assert rows[i].tobytes() == _old_restart_row(n, cfg, i).tobytes()
                assert initial_state_for_restart(g, cfg, i) == ProductState(tuple(
                    QubitAmplitudePair(x, y) for x, y in _old_restart_row(n, cfg, i)))

    def test_all_zero_draw_is_drawn_again(self):
        # qubit 1 draws four zeros twice (+0.0, then -0.0); the later qubits
        # shift to the later draws, as the per-qubit loop gives them
        rng = np.random.default_rng(5)
        values = rng.standard_normal(4).tolist() + [0.0] * 4 + [-0.0] * 4 \
            + rng.standard_normal(12).tolist()
        want = np.array([(q.x, q.y) for q in _old_pairs(_ScriptedNormals(values), 4)])
        assert _random_pairs(_ScriptedNormals(values), 4).tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["sequential", "per-round"])
    def test_run_restart_repeats_optimize_record(self, mode):
        g = builtin_family("cycle", 5)
        for fixed in (None, FixedCoordinateSpec(((1, PAIR_ZERO), (3, None)))):
            cfg = small_cfg(restarts=24, rounds=60, mode=mode, fixed=fixed)
            res = optimize(g, cfg, threads=2)
            for r in res.records:
                rec = run_restart(g, initial_state_for_restart(g, cfg, r.index), cfg)
                assert (rec.final_F, rec.converged, rec.stalled, rec.rounds) == \
                    (r.final_F, r.converged, r.stalled, r.rounds)


class TestFixedCoordinates:
    def test_k2_fixed_zero_exact_half(self):
        res = optimize(K2, small_cfg(mode="per-round",
                                     fixed=FixedCoordinateSpec.zeros([0])))
        assert abs(res.best_F - 0.5) <= 1e-15
        assert res.fix_used == "fixed 0=|0>"

    def test_fixed_qubit_never_moves(self):
        spec = FixedCoordinateSpec(((0, PAIR_MINUS),))
        res = optimize(builtin_family("cycle", 4), small_cfg(restarts=8, fixed=spec))
        assert res.best_state.qubits[0] == PAIR_MINUS

    def test_subgraph_ansatz_bound(self):
        # pinning the last qubit to |0> realizes the vertex-deleted ansatz:
        # E(fixed) >= E(free), within one bit of the subgraph value
        g = builtin_family("cycle", 6)
        free = optimize(g, small_cfg(restarts=60))
        pinned = optimize(g, small_cfg(restarts=60, fixed=FixedCoordinateSpec.zeros([5])))
        sub = optimize(builtin_family("path", 5), small_cfg(restarts=60))
        assert pinned.entanglement >= free.entanglement - 1e-9
        assert abs(pinned.entanglement - (sub.entanglement + 1)) <= 1e-9

    def test_all_fixed_rejected(self):
        with pytest.raises(ValueError):
            optimize(K2, small_cfg(restarts=2, fixed=FixedCoordinateSpec.zeros([0, 1])))

    def test_orthogonal_pin_rejected(self):
        # |-> on a vertex of the empty graph state |++> leaves F = 0 for every
        # restart; the error must say so, not complain about log2(0)
        spec = FixedCoordinateSpec(((0, PAIR_MINUS),))
        with pytest.raises(ValueError, match="every restart ended at F = 0"):
            optimize(builtin_family("empty", 2), small_cfg(restarts=3, fixed=spec))

    def test_describe_names_table_pins(self):
        spec = FixedCoordinateSpec(((0, PAIR_ONE), (1, PAIR_MINUS), (2, None),
                                    (3, PAIR_PHI[0])))
        assert spec.describe() == (
            "fixed 0=|1>,1=|->,2=random,3=(0.459701+0j,0.627963+0.627963j)")

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError):
            FixedCoordinateSpec.zeros([1, 1])

    def test_random_policy_keeps_init_draw(self):
        g = builtin_family("cycle", 4)
        cfg = small_cfg(restarts=4, fixed=FixedCoordinateSpec.randoms([2]))
        init = initial_state_for_restart(g, cfg, 0)
        rec = run_restart(g, init, cfg)
        assert rec.final_state.qubits[2] == init.qubits[2]


class TestPresample:
    def test_empty_graph_near_one(self):
        rep = presample(builtin_family("empty", 2), 20000, seed=3)
        assert rep.max_F <= 1 + 1e-12
        assert rep.max_F > 0.9

    def test_k2_below_half(self):
        rep = presample(K2, 100000, seed=3)
        assert rep.max_F <= 0.5 + 1e-9
        assert rep.min_F >= 0.0

    def test_count_zero_rejected(self):
        with pytest.raises(ValueError):
            presample(K2, 0)

    def test_histogram_totals(self):
        rep = presample(K2, 5000, seed=1)
        assert sum(rep.histogram) == 5000
        assert len(rep.bin_edges) == len(rep.histogram) + 1

    def test_all_zero_draw_is_never_scored(self, monkeypatch):
        # four zero normals would make the pair (1, 1), of norm sqrt 2; the
        # qubit is drawn again instead, as a restart's qubit is
        values = [0.0] * 4 + np.random.default_rng(5).standard_normal(4).tolist()
        monkeypatch.setattr(np.random, "default_rng", lambda *a: _ScriptedNormals(values))
        rep = presample(builtin_family("empty", 1), 1)
        assert 0 < rep.max_F <= 1

    def test_deterministic(self):
        a = presample(builtin_family("cycle", 4), 10000, seed=9)
        b = presample(builtin_family("cycle", 4), 10000, seed=9)
        assert a == b


class TestScalarConversions:
    @pytest.mark.parametrize("F,E", [(0.5, 1.0), (F_RING5, E_RING5), (1.0, 0.0)])
    def test_entanglement_from_fidelity(self, F, E):
        assert abs(entanglement_from_fidelity(F) - E) <= 1e-12

    def test_sign_of_zero_and_bit_identity(self, rng):
        # F >= 1 gives +0.0, never -0.0; below 1 the value is -log2(F) exactly
        for F in (1.0, 1.0 + 4.4e-16):
            assert math.copysign(1.0, entanglement_from_fidelity(F)) == 1.0
        for F in rng.random(1000):
            assert entanglement_from_fidelity(F) == -math.log2(F)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            entanglement_from_fidelity(0.0)
        with pytest.raises(ValueError):
            entanglement_from_fidelity(-0.2)

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            entanglement_from_fidelity(1.5)

    def test_measures_values(self):
        m = measures_from_entanglement(1.0)
        assert m == {"relative_entropy": 1.0, "log_robustness": 1.0,
                     "geometric": 1.0, "robustness": 1.0}

    def test_measures_ring5_robustness(self):
        m = measures_from_entanglement(E_RING5)
        assert abs(m["robustness"] - (6 * (3 - math.sqrt(3)) - 1)) <= 1e-12

    def test_measures_zero(self):
        assert measures_from_entanglement(0.0)["robustness"] == 0.0

    def test_measures_negative_rejected(self):
        with pytest.raises(ValueError):
            measures_from_entanglement(-0.1)


class TestSnap:
    def test_k2_fixed_zero_snaps_to_zero_plus(self):
        res = optimize(K2, small_cfg(restarts=10, fixed=FixedCoordinateSpec.zeros([0])))
        snap = snap_to_exact(K2, res.best_state)
        assert snap.labels == ("0", "+")
        assert abs(snap.fidelity - 0.5) <= 1e-15
        assert snap.refused == ()

    def test_c5_converged_run_snaps_exactly(self):
        g = builtin_family("cycle", 5)
        cfg = OptimizerConfig(restarts=1, rounds=150, seed=0)
        for i in range(300):
            rec = run_restart(g, initial_state_for_restart(g, cfg, i), cfg)
            if not rec.converged:
                continue
            snap = snap_to_exact(g, rec.final_state)
            if all(lab is not None and lab.startswith("Phi")
                   for lab in snap.labels):
                assert abs(snap.fidelity - F_RING5) <= 1e-15
                return
        pytest.fail("no converged restart snapped to a pure Phi pattern")

    def test_snapped_fidelity_stays_exact_with_refusals(self):
        # optimum manifold points outside the alphabet keep their numeric
        # value; the snapped fidelity still equals the exact optimum
        g = builtin_family("cycle", 5)
        res = optimize(g, small_cfg(restarts=30))
        snap = snap_to_exact(g, res.best_state)
        assert abs(snap.fidelity - F_RING5) <= 1e-14

    def test_far_state_refused(self):
        # theta chosen so the state is > 0.05 away from every alphabet member
        q = QubitAmplitudePair.normalized(math.cos(0.25), math.sin(0.25))
        snap = snap_to_exact(builtin_family("empty", 1), ProductState((q,)))
        assert snap.labels == (None,)
        assert snap.refused == (0,)
        assert snap.snapped.qubits[0] == q
        assert "?" in snap.description

    def test_description_format(self):
        snap = snap_to_exact(K2, ProductState((PAIR_ZERO, PAIR_PLUS)))
        assert snap.description == "|0>|+>"


class TestSuccessProbability:
    def test_star3_near_one(self):
        p = optimize(builtin_family("star", 3), small_cfg(restarts=200)).hit_fraction(
            1.0, 1e-12)
        assert p >= 0.99

    def test_gross_reference_zero(self):
        p = optimize(builtin_family("star", 3), small_cfg(restarts=50)).hit_fraction(
            10.0, SUCCESS_TOL)
        assert p == 0.0


class TestUsableCpuCount:
    def test_counts_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpu_count() == 1

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpu_count() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpu_count() == 1

    def test_optimize_clamps_to_affinity(self, monkeypatch):
        # one usable CPU: the clamp leaves one thread, so no pool starts
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started on one usable CPU")

        monkeypatch.setattr(optimize_mod, "ThreadPoolExecutor", no_pool)
        g = builtin_family("cycle", 5)
        res = optimize(g, small_cfg(restarts=64), threads=8)
        assert res.best_F == optimize(g, small_cfg(restarts=64)).best_F


class TestOrthogonalityResidual:
    def test_zero_at_fixed_point(self):
        g = builtin_family("cycle", 5)
        p = ProductState((PAIR_PHI[0],) * 5)
        for j in range(5):
            assert orthogonality_residual(g, p, j) <= 1e-15

    def test_nonzero_away_from_optimum(self, rng):
        g = builtin_family("cycle", 4)
        residuals = [max(orthogonality_residual(g, random_product_state(4, rng), j)
                         for j in range(4)) for _ in range(20)]
        assert max(residuals) > 1e-3


class TestGridOracle:
    def test_matches_optimize_small(self, rng):
        # exhaustive check over all labeled graphs on <= 2 vertices plus a
        # couple of 3-vertex cases; the full n=3 sweep runs in acceptance
        cases = [builtin_family("empty", 1), builtin_family("empty", 2), K2,
                 build_graph(3, [(0, 1), (1, 2)]),
                 build_graph(3, [(0, 1), (1, 2), (0, 2)])]
        for g in cases:
            got = optimize(g, small_cfg(restarts=30)).best_F
            want = grid_oracle_max_fidelity(g)
            assert abs(got - want) <= 2e-3, g.edges()
            assert got >= want - 2e-3


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(rounds=0), dict(restarts=0), dict(mode="zigzag"), dict(seed=-1)])
    def test_bad_configs(self, kw):
        with pytest.raises(ValueError):
            OptimizerConfig(**kw)
