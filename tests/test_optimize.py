import math

import numpy as np
import pytest

from graphent import (
    FixedCoordinateSpec,
    OptimizerConfig,
    ProductState,
    QubitAmplitudePair,
    build_graph,
    builtin_family,
    coordinate_update,
    entanglement_from_fidelity,
    fidelity,
    initial_state_for_restart,
    measures_from_entanglement,
    optimize,
    orthogonality_residual,
    partial_overlaps,
    presample,
    random_product_state,
    run_restart,
    snap_to_exact,
    success_probability,
)
from graphent.catalog import PAIR_PHI
from graphent.optimize import _gauge_fix_rows
from graphent.states import (
    PAIR_MINUS,
    PAIR_ONE,
    PAIR_PLUS,
    PAIR_ZERO,
    _batch_partials,
    _kernel_workspace,
    _product_weights,
    _scaled_signs,
)
from helpers import grid_oracle_max_fidelity, random_graph

E_RING5 = 1 + math.log2(3) + math.log2(3 - math.sqrt(3))
F_RING5 = (3 + math.sqrt(3)) / 36
K2 = build_graph(2, [(0, 1)])


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
            hg = _batch_partials(row, _scaled_signs(g), j)
            c0, c1 = partial_overlaps(g, p, j)
            assert abs(hg[0, 0] - c0) <= 1e-12
            assert abs(hg[0, 1] - c1) <= 1e-12

    def test_shared_workspace_is_bit_identical(self, rng):
        # the kernel reads coordinate j from a view of the sign vector; it must
        # equal, bit for bit, the plain product and sum over the explicit
        # (2**(n-1), 2) matrix of coordinate j (rows: the other qubits in
        # order; column-major for j = 0, which matters for n >= 9), with a
        # shared workspace holding more rows than used or a fresh one
        for n in (1, 2, 3, 6, 9, 12, 16):
            g = random_graph(rng, n=n)
            signs = _scaled_signs(g)
            work = _kernel_workspace(9, g.n - 1)
            for rows in (9, 4, 1):
                Q = rng.normal(size=(rows, g.n, 2)) + 1j * rng.normal(size=(rows, g.n, 2))
                for j in range(g.n):
                    mat = np.moveaxis(signs.reshape((2,) * n), j, -1).reshape(-1, 2)
                    w = _product_weights(Q, skip=j)
                    plain = (w[:, :, None] * mat[None, :, :]).sum(axis=1)
                    assert np.array_equal(_batch_partials(Q, signs, j, work), plain)
                    assert np.array_equal(_batch_partials(Q, signs, j), plain)

    def test_public_partials_match_explicit_matrix(self, rng):
        # partial_overlaps takes its +-1 split from a view of phase_signs; it
        # must equal the fsum over the signs of coordinate j's explicit matrix
        for n in (1, 2, 3, 6, 9, 12, 16):
            g = random_graph(rng, n=n)
            p = random_product_state(n, rng)
            scale = 2.0 ** (-n / 2)
            tensor = _scaled_signs(g).reshape((2,) * n)
            row = np.array([[q.x, q.y] for q in p.qubits])[None]
            for j in range(n):
                split = np.sign(np.moveaxis(tensor, j, -1).reshape(-1, 2))
                others = _product_weights(row, skip=j)[0]
                expect = tuple(complex(math.fsum(t.real), math.fsum(t.imag)) * scale
                               for t in (split[:, 0] * others, split[:, 1] * others))
                assert partial_overlaps(g, p, j) == expect

    def test_gauge_fix_subnormal_first_amplitude(self):
        # numpy divides x / |x| through 1/|x|, which overflows when |x| is
        # subnormal; such rows must come out finite and as the scalar gauge
        # fix gives them
        rows = np.array([[s * ph, ph] for s, ph in (
            (5e-320, 1), (3e-310, 1j), (1e-315, -1), (2e-309, -1j))])
        out = _gauge_fix_rows(rows)
        for row, got in zip(rows, out):
            ref = QubitAmplitudePair.normalized(*row)
            assert abs(got[0] - ref.x) <= 1e-15 and abs(got[1] - ref.y) <= 1e-15


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
        g = builtin_family("cycle", 4)
        cfg = small_cfg(mode="per-round", rounds=17, convergence_eps=0.0)
        rec = run_restart(g, random_product_state(4, rng), cfg)
        assert len(rec.fidelity_trace) == rec.rounds

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

    def test_deterministic(self):
        a = presample(builtin_family("cycle", 4), 10000, seed=9)
        b = presample(builtin_family("cycle", 4), 10000, seed=9)
        assert a == b


class TestScalarConversions:
    @pytest.mark.parametrize("F,E", [(0.5, 1.0), (F_RING5, E_RING5), (1.0, 0.0)])
    def test_entanglement_from_fidelity(self, F, E):
        assert abs(entanglement_from_fidelity(F) - E) <= 1e-12

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
        p = success_probability(builtin_family("star", 3), 1.0, runs=200,
                                cfg=small_cfg(success_tol=1e-12))
        assert p >= 0.99

    def test_gross_reference_zero(self):
        p = success_probability(builtin_family("star", 3), 10.0, runs=50,
                                cfg=small_cfg())
        assert p == 0.0

    def test_runs_validated(self):
        with pytest.raises(ValueError):
            success_probability(K2, 1.0, runs=0)


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
        dict(rounds=0), dict(restarts=0), dict(mode="zigzag"),
        dict(convergence_eps=-1.0), dict(success_tol=0.0), dict(seed=-1)])
    def test_bad_configs(self, kw):
        with pytest.raises(ValueError):
            OptimizerConfig(**kw)
