"""The LC-reduced search: a plan whose signs belong to a sparser member of the
graph's LC orbit, with the per-qubit frame that maps the graph's rows there.

"Unreduced" runs patch :func:`graphent.graphs.lc_reduce` out of the plan, so
the same search runs on the graph's own signs.
"""

import importlib
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphent import (
    FixedCoordinateSpec,
    OptimizerConfig,
    build_graph,
    builtin_family,
    fidelity,
    initial_state_for_restart,
    optimize,
    overlap,
    parse_graph6,
    partial_overlaps,
    presample,
    random_product_state,
    run_restart,
    snap_to_exact,
)
from graphent.graphs import lc_reduce, local_complement, max_independent_set
from graphent.optimize import SUCCESS_TOL
from graphent.states import PAIR_MINUS, PAIR_ZERO, _elimination_plan
from helpers import all_pairs, oracle_overlap, random_graph

states_mod = importlib.import_module("graphent.states")

# Benchmark structures whose plan has a frame: n - |MIS| of the graph, then
# |C| of its plan (the representative's n - |MIS|).
REDUCIBLE = {"DuG": (3, 2), "E|l?": (4, 2), "E]zw": (4, 3), "Fe?JW": (4, 3),
             "GpXvL{": (5, 4), "Gy{|Ms": (6, 5), "KGxM}pwudAfc": (8, 7),
             "KUtlohJAcvLc": (8, 7)}


def unreduced(run):
    """``run()`` with every plan built from the graph's own signs."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(states_mod, "lc_reduce", lambda g: (g.rows, ()))
        _elimination_plan.cache_clear()
        try:
            return run()
        finally:
            _elimination_plan.cache_clear()


def framed(g):
    assert _elimination_plan(g).frame is not None
    return g


class TestLcReduce:
    def test_steps_replay_to_the_rows(self, rng):
        for _ in range(200):
            g = random_graph(rng, n_max=10, p=rng.random())
            rows, steps = lc_reduce(g)
            h = g
            for a in steps:
                h = local_complement(h, a)
            assert h.rows == rows
            assert h.edge_count() <= g.edge_count()
            # greedy to the end: no move removes an edge from the result
            assert lc_reduce(h) == (rows, ())

    def test_complete_graph_becomes_a_star(self):
        for n in range(3, 17):
            rows, steps = lc_reduce(builtin_family("complete", n))
            assert steps == (0,)
            assert rows == builtin_family("star", n).rows

    def test_pivot_reduces_k33(self):
        # no single complementation lowers K_{3,3}'s 9 edges; a pivot leaves 5
        k33 = build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
        rows, steps = lc_reduce(k33)
        assert len(steps) == 3 and steps[0] == steps[2]
        assert sum(r.bit_count() for r in rows) // 2 == 5

    @pytest.mark.parametrize("name", ["cycle", "path", "star"])
    def test_sparse_families_stay(self, name):
        for n in (5, 12, 16):
            g = builtin_family(name, n)
            assert lc_reduce(g) == (g.rows, ())
            assert _elimination_plan(g).frame is None


class TestFrame:
    def test_plan_of_each_reducible_structure(self):
        for g6, (before, after) in REDUCIBLE.items():
            g = parse_graph6(g6)
            plan = _elimination_plan(g)
            assert g.n - max_independent_set(g).bit_count() == before
            assert len(plan.rest) == after and plan.frame is not None

    def test_frame_is_unitary_to_an_ulp(self):
        for g in [*map(parse_graph6, REDUCIBLE), builtin_family("complete", 16)]:
            frame = _elimination_plan(g).frame
            gram = np.einsum("qki,qkj->qij", frame.conj(), frame)
            assert np.abs(gram - np.eye(2)).max() <= 2.3e-16

    def test_overlap_matches_the_dense_oracle(self, rng):
        # overlap keeps its phase: the frame carries the LC steps' phases
        for g6 in list(REDUCIBLE)[:6]:
            g = framed(parse_graph6(g6))
            for _ in range(5):
                p = random_product_state(g.n, rng)
                assert abs(overlap(g, p) - oracle_overlap(g, p)) <= 1e-14

    def test_partials_recombine_to_the_overlap(self, rng):
        for g in [*map(parse_graph6, REDUCIBLE), builtin_family("complete", 9)]:
            framed(g)
            p = random_product_state(g.n, rng)
            ov = overlap(g, p)
            for j, q in enumerate(p.qubits):
                c0, c1 = partial_overlaps(g, p, j)
                assert abs(q.x * c0 + q.y * c1 - ov) <= 1e-15

    def test_presample_matches_unreduced(self):
        g = framed(parse_graph6("Gy{|Ms"))
        got = presample(g, 700, seed=3)
        want = unreduced(lambda: presample(g, 700, seed=3))
        assert abs(got.max_F - want.max_F) <= 1e-14
        assert abs(got.min_F - want.min_F) <= 1e-14


def _same_search(g, cfg):
    got = optimize(g, cfg)
    want = unreduced(lambda: optimize(g, cfg))
    assert abs(got.entanglement - want.entanglement) <= 1e-13
    return got


class TestReducedSearch:
    def test_complete_graphs_match_unreduced(self):
        for n in range(4, 17):
            g = framed(builtin_family("complete", n))
            res = _same_search(g, OptimizerConfig(restarts=4, rounds=20, seed=n))
            assert abs(res.entanglement - 1.0) <= 1e-13

    def test_benchmark_structures_match_unreduced(self):
        for g6 in REDUCIBLE:
            g = framed(parse_graph6(g6))
            _same_search(g, OptimizerConfig(restarts=8, rounds=40, seed=1))

    # dense graphs: sparse ones seldom have a representative with a larger MIS
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(3, 10).flatmap(lambda n: st.tuples(st.just(n), st.sets(
        st.sampled_from(all_pairs(n)), min_size=n * (n - 1) // 4))))
    def test_random_graphs_match_unreduced(self, graph):
        n, edges = graph
        g = build_graph(n, sorted(edges))
        assume(_elimination_plan(g).frame is not None)
        _same_search(g, OptimizerConfig(restarts=6, rounds=60, seed=n))

    @pytest.mark.parametrize("mode", ["sequential", "per-round"])
    def test_best_F_is_the_fidelity_of_best_state(self, mode):
        for g in (builtin_family("complete", 7), parse_graph6("Gy{|Ms")):
            framed(g)
            for fixed in (None, FixedCoordinateSpec(((1, PAIR_MINUS), (3, None)))):
                res = optimize(g, OptimizerConfig(restarts=12, rounds=30, mode=mode,
                                                  fixed=fixed))
                assert res.best_F == fidelity(g, res.best_state)

    def test_mapped_back_state_keeps_its_fidelity(self):
        # the last F of a sequential trace is the representative's; the
        # reported state is mapped back to g and scored by fsum there
        g = framed(parse_graph6("KGxM}pwudAfc"))
        cfg = OptimizerConfig(restarts=6, rounds=40)
        for i in range(cfg.restarts):
            rec = run_restart(g, initial_state_for_restart(g, cfg, i), cfg)
            assert abs(fidelity(g, rec.final_state) - rec.fidelity_trace[-1]) <= 1e-14
            assert rec.final_F == fidelity(g, rec.final_state)

    @pytest.mark.parametrize("mode", ["sequential", "per-round"])
    def test_run_restart_repeats_optimize_record(self, mode, pooled):
        g = framed(parse_graph6("GpXvL{"))
        for fixed in (None, FixedCoordinateSpec(((1, PAIR_ZERO), (3, None)))):
            cfg = OptimizerConfig(restarts=16, rounds=40, mode=mode, seed=5, fixed=fixed)
            res = optimize(g, cfg, threads=2)
            for r in res.records:
                rec = run_restart(g, initial_state_for_restart(g, cfg, r.index), cfg)
                assert (rec.final_F, rec.converged, rec.stalled, rec.rounds) == \
                    (r.final_F, r.converged, r.stalled, r.rounds)
            if fixed is not None:
                assert rec.final_state.qubits[1] == PAIR_ZERO
        assert pooled == [1, 1]

    def test_pins_stay_in_the_graph_frame(self):
        g = framed(builtin_family("complete", 6))
        cfg = OptimizerConfig(restarts=6, rounds=30,
                              fixed=FixedCoordinateSpec(((0, PAIR_MINUS), (4, None))))
        res = optimize(g, cfg)
        assert res.best_state.qubits[0] == PAIR_MINUS
        init = initial_state_for_restart(g, cfg, res.best_index)
        assert res.best_state.qubits[4] == init.qubits[4]

    def test_thread_count_does_not_change_the_output(self, pooled):
        for g in (framed(parse_graph6("KUtlohJAcvLc")), framed(builtin_family("complete", 16))):
            cfg = OptimizerConfig(restarts=8, rounds=20, seed=2)
            one = optimize(g, cfg)
            two = optimize(g, cfg, threads=2)
            assert json.dumps(two.to_json_dict(g)) == json.dumps(one.to_json_dict(g))
        assert pooled == [1, 1]

    def test_complete_graph_optimum_is_scored_on_its_own_plan(self):
        # K_n is searched as a star, but scored on its own plan: F stays within
        # 2e-15 of its maximum 1/2, E is no more than 6e-15 below its bound 1,
        # and every converged restart is within half the success tolerance
        # of the reported E.  Scored on the star, K16 reached 3.3e-15,
        # 9.7e-15 and 9.3e-15.
        for n in range(2, 17):
            g = builtin_family("complete", n)
            for seed in range(3):
                res = optimize(g, OptimizerConfig(restarts=8, rounds=20, seed=seed))
                assert abs(res.best_F - 0.5) <= 2e-15
                assert res.entanglement >= 1 - 6e-15
                assert all(abs(r.entanglement - res.entanglement) <= SUCCESS_TOL / 2
                           for r in res.records if r.converged)

    def test_snap_of_a_reduced_search(self):
        # the state mapped back to K5 snaps to alphabet states at F = 1/2
        g = framed(builtin_family("complete", 5))
        res = optimize(g, OptimizerConfig(restarts=8, rounds=40))
        snap = snap_to_exact(g, res.best_state)
        assert not snap.refused and abs(snap.fidelity - 0.5) <= 1e-14
