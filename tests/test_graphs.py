import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphent import (
    CapabilityError,
    Graph,
    build_graph,
    builtin_family,
    encode_graph6,
    is_two_colorable,
    lc_orbit,
    local_complement,
    max_independent_set_size,
    max_matching_size,
    parse_edge_list,
    parse_graph6,
)
from graphent.graphs import max_independent_set
from helpers import (
    all_labeled_graphs,
    all_pairs,
    delete_vertex,
    oracle_encode_graph6,
    oracle_max_independent_set,
    oracle_max_matching,
    oracle_two_colorable,
    random_graph,
)


@st.composite
def graphs(draw, n_min=1, n_max=8):
    n = draw(st.integers(n_min, n_max))
    edges = draw(st.sets(st.sampled_from(all_pairs(n)) if n > 1 else st.nothing(),
                         max_size=n * (n - 1) // 2))
    return build_graph(n, sorted(edges))


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert g.rows == (0b10, 0b01)

    def test_c5_adjacency(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert g.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        assert all(g.has_edge(a, b) == g.has_edge(b, a)
                   for a in range(5) for b in range(5))
        assert not any(g.has_edge(v, v) for v in range(5))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            build_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_graph(3, [(0, 3)])

    def test_too_many_vertices(self):
        with pytest.raises(CapabilityError):
            build_graph(17, [])

    def test_vertex_count_refused_before_edges_are_read(self):
        def edges():
            pytest.fail("edges read for a refused vertex count")
            yield

        with pytest.raises(CapabilityError):
            build_graph(17, edges())
        with pytest.raises(ValueError):
            build_graph(0, edges())

    def test_json_round_trip(self, rng):
        for _ in range(20):
            g = random_graph(rng, n_max=10)
            assert Graph.from_json_dict(g.to_json_dict()) == g

    @pytest.mark.parametrize("n,edges", [
        (2.7, []), ("2", []), (2, [(0, "x")]), (2, [(0.0, 1.0)]), (2, [5]),
        (True, []), (2, [(True, False)])])
    def test_non_integer_input_rejected(self, n, edges):
        with pytest.raises(ValueError):
            build_graph(n, edges)

    @pytest.mark.parametrize("d", [{"n": 2.7, "edges": [[0, 1]]}, [2, [[0, 1]]]])
    def test_malformed_json_rejected(self, d):
        # a fractional vertex count is refused, not truncated
        with pytest.raises(ValueError):
            Graph.from_json_dict(d)


class TestGraph6:
    def test_empty_two_vertices(self):
        assert parse_graph6("A?") == build_graph(2, [])

    def test_single_edge(self):
        assert parse_graph6("A_") == build_graph(2, [(0, 1)])

    def test_known_five_vertex(self):
        g = parse_graph6("DQc")
        assert g.n == 5
        assert encode_graph6(g) == "DQc"

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<A_") == build_graph(2, [(0, 1)])

    def test_matches_independent_encoder(self, rng):
        for _ in range(200):
            g = random_graph(rng, n_max=16)
            encoded = oracle_encode_graph6(g)
            assert encode_graph6(g) == encoded
            assert parse_graph6(encoded) == g

    def test_round_trip_all_n(self, rng):
        for n in range(1, 17):
            g = random_graph(rng, n=n)
            assert parse_graph6(encode_graph6(g)) == g

    @pytest.mark.parametrize("bad", ["", "A", "A_?", chr(40) + "_", "A" + chr(127)])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_graph6(bad)

    def test_nonzero_padding_rejected(self):
        # n=2 has one data bit; the remaining five padding bits must be zero.
        with pytest.raises(ValueError):
            parse_graph6("A" + chr(63 + 0b010001))

    def test_oversized_rejected(self):
        with pytest.raises(CapabilityError):
            parse_graph6(oracle_encode_graph6(_path_like(17)))


def _path_like(n):
    class Fake:
        pass

    fake = Fake()
    fake.n = n
    fake.has_edge = lambda a, b: abs(a - b) == 1
    return fake


class TestEdgeList:
    def test_basic(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g == build_graph(3, [(0, 1), (1, 2)])

    def test_vertex_count_line_and_comments(self):
        g = parse_edge_list("# a path plus an isolated vertex\n4\n0 1\n1 2\n")
        assert g == build_graph(4, [(0, 1), (1, 2)])

    def test_bad_line(self):
        with pytest.raises(ValueError):
            parse_edge_list("0 1 2\n")


class TestLocalComplement:
    def test_triangle_at_vertex(self):
        tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert local_complement(tri, 0).edges() == [(0, 1), (0, 2)]

    def test_star_becomes_triangle(self):
        star = build_graph(3, [(0, 1), (0, 2)])
        assert local_complement(star, 0).edges() == [(0, 1), (0, 2), (1, 2)]

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            local_complement(build_graph(2, []), 2)

    @settings(max_examples=200, deadline=None)
    @given(graphs(), st.data())
    def test_involution(self, g, data):
        a = data.draw(st.integers(0, g.n - 1))
        assert local_complement(local_complement(g, a), a) == g


class TestTwoColorable:
    def test_odd_cycle(self):
        assert is_two_colorable(builtin_family("cycle", 5)) is None

    def test_even_cycle(self):
        side0, side1 = is_two_colorable(builtin_family("cycle", 6))
        assert {side0, side1} == {0b010101, 0b101010}

    def test_empty_graph(self):
        split = is_two_colorable(builtin_family("empty", 4))
        assert split is not None
        side0, side1 = split
        assert side0 | side1 == 0b1111 and side0 & side1 == 0

    def test_coloring_is_proper(self, rng):
        for _ in range(100):
            g = random_graph(rng)
            split = is_two_colorable(g)
            if split is None:
                continue
            side0, _ = split
            for a, b in g.edges():
                assert ((side0 >> a) & 1) != ((side0 >> b) & 1)

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(200):
            g = random_graph(rng)
            assert (is_two_colorable(g) is not None) == oracle_two_colorable(g)


def known_graph(family: str, n: int) -> Graph:
    """A builtin family, or ``bipartite``: the complete bipartite K_{n/2,n/2}."""
    if family == "bipartite":
        h = n // 2
        return build_graph(n, [(a, h + b) for a in range(h) for b in range(h)])
    return builtin_family(family, n)


def small_graphs(rng, count: int, n_max: int):
    """Every labelled graph with n <= 5, then ``count`` random ones."""
    for n in range(1, 6):
        yield from all_labeled_graphs(n)
    for _ in range(count):
        yield random_graph(rng, n_max=n_max)


class TestIndependentSetAndMatching:
    @pytest.mark.parametrize("family,n,expect", [
        ("cycle", 5, 2), ("complete", 5, 1), ("empty", 6, 6), ("empty", 1, 1),
        ("empty", 16, 16), ("complete", 16, 1), ("bipartite", 16, 8)])
    def test_mis_known(self, family, n, expect):
        assert max_independent_set_size(known_graph(family, n)) == expect

    @pytest.mark.parametrize("family,n,expect", [
        ("cycle", 5, 2), ("star", 4, 1), ("cycle", 6, 3), ("empty", 1, 0),
        ("empty", 16, 0), ("complete", 16, 8), ("bipartite", 16, 8)])
    def test_matching_known(self, family, n, expect):
        assert max_matching_size(known_graph(family, n)) == expect

    def test_mis_matches_oracle(self, rng):
        for g in small_graphs(rng, 150, n_max=8):
            assert max_independent_set_size(g) == oracle_max_independent_set(g)

    def test_mis_mask_is_the_lowest_maximum_independent_set(self, rng):
        # every labelled graph with n <= 5, where the lowest mask among the
        # largest independent sets is found by brute force here, then random
        # graphs up to n = 16; the mask is the same on every call
        for g in small_graphs(rng, 0, n_max=5):
            size = max_independent_set_size(g)
            lowest = min(mask for mask in range(1 << g.n) if mask.bit_count() == size
                         and not any(g.rows[v] & mask for v in range(g.n) if mask >> v & 1))
            assert max_independent_set(g) == lowest
        for _ in range(60):
            g = random_graph(rng, n_min=6, n_max=16, p=rng.random())
            mask = max_independent_set(g)
            assert not any(g.rows[v] & mask for v in range(g.n) if mask >> v & 1)
            assert mask.bit_count() == max_independent_set_size(g)
            assert max_independent_set(g) == mask

    def test_matching_matches_oracle(self, rng):
        for g in small_graphs(rng, 100, n_max=6):
            assert max_matching_size(g) == oracle_max_matching(g)

    def test_size_relations(self, rng):
        for _ in range(200):
            g = random_graph(rng)
            m = max_matching_size(g)
            assert m <= g.n // 2
            assert max_independent_set_size(g) + m <= g.n

    def test_large_n_fast(self):
        g = builtin_family("cycle", 16)
        assert max_independent_set_size(g) == 8
        assert max_matching_size(g) == 8


class TestOrbitAndIsomorphism:
    def test_k2_orbit(self):
        g = build_graph(2, [(0, 1)])
        assert lc_orbit(g) == {g}

    def test_triangle_orbit_size(self):
        tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        orbit = lc_orbit(tri)
        assert len(orbit) == 4
        assert tri in orbit

    def test_c5_orbit_size(self):
        # Frozen from an exhaustive BFS enumeration over labeled graphs.
        assert len(lc_orbit(builtin_family("cycle", 5))) == 132

    def test_orbit_cap(self):
        with pytest.raises(CapabilityError, match="cap"):
            lc_orbit(builtin_family("cycle", 8), max_graphs=5)

    def test_orbit_vertex_limit(self):
        with pytest.raises(CapabilityError):
            lc_orbit(builtin_family("empty", 11))

    def test_triangle_vs_star(self):
        tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert builtin_family("star", 3) in lc_orbit(tri)


class TestDeleteVertex:
    def test_cycle_to_path(self):
        g = delete_vertex(builtin_family("cycle", 6), 0)
        assert g == builtin_family("path", 5)

    def test_degree_drop(self, rng):
        for _ in range(50):
            g = random_graph(rng, n_min=2)
            v = int(rng.integers(0, g.n))
            h = delete_vertex(g, v)
            assert h.n == g.n - 1
            assert h.edge_count() == g.edge_count() - g.rows[v].bit_count()
