import json

import pytest

from graphent import (
    BoundsCategory,
    OptimizerConfig,
    bipartite_lower_bound,
    build_graph,
    builtin_family,
    classify,
    locc_upper_bound,
    optimize,
)
from helpers import delete_vertex, random_graph


class TestBounds:
    @pytest.mark.parametrize("family,n,expect", [
        ("cycle", 5, 3), ("star", 5, 1), ("empty", 4, 0), ("cycle", 7, 4)])
    def test_upper(self, family, n, expect):
        assert locc_upper_bound(builtin_family(family, n)) == expect

    @pytest.mark.parametrize("family,n,expect", [
        ("cycle", 5, 2), ("cycle", 6, 3), ("star", 5, 1), ("cycle", 7, 3)])
    def test_lower(self, family, n, expect):
        assert bipartite_lower_bound(builtin_family(family, n)) == expect

    def test_lower_never_exceeds_upper(self, rng):
        for _ in range(300):
            g = random_graph(rng)
            assert bipartite_lower_bound(g) <= locc_upper_bound(g)

    def test_bipartite_families_have_equal_bounds(self):
        cases = [("path", n) for n in range(2, 9)]
        cases += [("cycle", n) for n in (4, 6, 8)]
        cases += [("star", n) for n in range(2, 9)]
        for name, n in cases:
            g = builtin_family(name, n)
            assert locc_upper_bound(g) == bipartite_lower_bound(g), (name, n)
        for a in range(1, 5):
            for b in range(1, 5):
                g = build_graph(a + b, [(i, a + j) for i in range(a)
                                        for j in range(b)])
                assert locc_upper_bound(g) == bipartite_lower_bound(g), (a, b)


class TestClassify:
    def test_c6(self):
        r = classify(builtin_family("cycle", 6))
        assert (r.upper, r.lower) == (3, 3)
        assert r.equal and r.two_colorable
        assert r.category is BoundsCategory.BIPARTITE_EQUAL

    def test_c5(self):
        r = classify(builtin_family("cycle", 5))
        assert (r.upper, r.lower) == (3, 2)
        assert not r.equal and not r.two_colorable
        assert r.category is BoundsCategory.UNEQUAL

    def test_k2(self):
        r = classify(build_graph(2, [(0, 1)]))
        assert (r.upper, r.lower) == (1, 1)
        assert r.category is BoundsCategory.BIPARTITE_EQUAL

    def test_nonbipartite_equal(self):
        # Triangle: MIS=1 -> upper=2... actually upper=2, matching=1: unequal.
        # Triangle with a pendant vertex: upper 2, matching 2, has odd cycle.
        g = build_graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        r = classify(g)
        assert r.equal and not r.two_colorable
        assert r.category is BoundsCategory.NONBIPARTITE_EQUAL

    def test_category_predicate_consistency(self, rng):
        for _ in range(200):
            r = classify(random_graph(rng))
            if r.category is BoundsCategory.UNEQUAL:
                assert not r.equal
            elif r.category is BoundsCategory.BIPARTITE_EQUAL:
                assert r.equal and r.two_colorable
            else:
                assert r.equal and not r.two_colorable

    def test_json_serialization(self):
        d = json.loads(json.dumps(classify(builtin_family("cycle", 5)).to_json_dict()))
        assert d["upper"] == 3 and d["lower"] == 2
        assert d["category"] == "T3"
        assert d["lower_bound_method"] == "matching"

    def test_text_report_mentions_settled_value(self):
        text = classify(builtin_family("cycle", 6)).format_text()
        assert "entanglement (settled)   : 3" in text

    def test_report_bounds_rejects_inverted(self):
        from graphent.bounds import BoundsReport
        with pytest.raises(ValueError):
            BoundsReport(upper=1, lower=2, equal=False, two_colorable=False,
                         category=BoundsCategory.UNEQUAL)


class TestBoundsAgainstOptimizer:
    def test_lower_bound_holds_for_families_even_with_weak_searches(self):
        # any product state obeys F <= 2**(-E), so for graphs whose matching
        # count is a genuine lower bound the found E can never undercut it,
        # no matter how few restarts run
        cases = [builtin_family("cycle", n) for n in range(3, 8)]
        cases += [builtin_family("star", n) for n in range(2, 8)]
        cases += [builtin_family("path", n) for n in range(2, 8)]
        for g in cases:
            res = optimize(g, OptimizerConfig(restarts=2, rounds=10, seed=1))
            assert res.entanglement >= bipartite_lower_bound(g) - 1e-9

    def test_matching_count_is_not_verified(self):
        # known caveat of skipping the Bell-pair verification step: K4 counts
        # a 2-edge matching, yet it is LC-equivalent to the 4-vertex star
        # (E = 1), so the raw count overshoots the true lower bound
        k4 = builtin_family("complete", 4)
        assert bipartite_lower_bound(k4) == 2
        res = optimize(k4, OptimizerConfig(restarts=40, seed=1))
        assert abs(res.entanglement - 1.0) <= 1e-12

    def test_seed_catalog_entries_within_bounds(self):
        from graphent import load_seed_catalog
        for e in load_seed_catalog():
            res = optimize(e.graph, OptimizerConfig(restarts=150, seed=3))
            assert res.entanglement >= bipartite_lower_bound(e.graph) - 1e-9
            assert res.entanglement <= locc_upper_bound(e.graph) + 1e-9


class TestSubgraphRecursion:
    def test_c6_bound_is_tight(self):
        g = builtin_family("cycle", 6)
        cfg = OptimizerConfig(restarts=60, seed=2)
        e_sub = [optimize(delete_vertex(g, v), cfg).entanglement
                 for v in range(g.n)]
        bound = min(e_sub) + 1  # deleting a vertex costs at most one bit
        assert abs(bound - 3.0) <= 1e-9  # every deletion leaves P5 with E=2
        assert optimize(g, cfg).entanglement <= bound + 1e-9
