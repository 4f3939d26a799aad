import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphent import (
    ProductState,
    QubitAmplitudePair,
    StateVector,
    apply_lc_unitary,
    build_graph,
    builtin_family,
    fidelity,
    fubini_study_distance,
    graph_state_vector,
    local_complement,
    overlap,
    partial_overlaps,
    product_state_vector,
    random_product_state,
)
from graphent.catalog import PAIR_PHI
from graphent.states import PAIR_PLUS, PAIR_ZERO, haar_random_pair
from helpers import (
    apply_stabilizer,
    oracle_graph_state_amplitudes,
    oracle_overlap,
    random_graph,
)

E_RING5 = 1 + math.log2(3) + math.log2(3 - math.sqrt(3))
F_RING5 = (3 + math.sqrt(3)) / 36


class TestQubitAmplitudePair:
    def test_normalized_gauge(self):
        q = QubitAmplitudePair.normalized(1 + 1j, 2 - 1j)
        assert q.x.imag == 0 and q.x.real > 0
        assert abs(abs(q.x) ** 2 + abs(q.y) ** 2 - 1) < 1e-14

    def test_zero_x_gauge(self):
        q = QubitAmplitudePair.normalized(0, 3j)
        assert q.x == 0 and q.y == 1

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            QubitAmplitudePair.normalized(0, 0)

    def test_gauge_violation_rejected(self):
        with pytest.raises(ValueError):
            QubitAmplitudePair(0.5 + 0.5j, 0.5 - 0.5j)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            QubitAmplitudePair(1.0, 1.0)

    @pytest.mark.parametrize("x,y", [
        (math.nan, 0), (0.6, complex("nan+nanj")), (1.0, complex(0, math.nan))])
    def test_nan_rejected(self, x, y):
        with pytest.raises(ValueError):
            QubitAmplitudePair(x, y)

    def test_haar_pairs_normalized(self, rng):
        for _ in range(200):
            q = haar_random_pair(rng)
            assert abs(abs(q.x) ** 2 + abs(q.y) ** 2 - 1) <= 1e-14

    def test_json_round_trip(self, rng):
        q = haar_random_pair(rng)
        assert QubitAmplitudePair.from_json(q.to_json()) == q


class TestGraphStateVector:
    def test_single_vertex(self):
        sv = graph_state_vector(builtin_family("empty", 1))
        assert np.allclose(sv.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_k2(self):
        sv = graph_state_vector(build_graph(2, [(0, 1)]))
        assert np.allclose(sv.amplitudes, np.array([1, 1, 1, -1]) / 2)

    def test_uniform_magnitudes(self, rng):
        for _ in range(20):
            g = random_graph(rng)
            sv = graph_state_vector(g)
            assert np.allclose(np.abs(sv.amplitudes), 2 ** (-g.n / 2))

    def test_matches_term_by_term_oracle(self, rng):
        for _ in range(50):
            g = random_graph(rng, n_max=6)
            assert np.array_equal(graph_state_vector(g).amplitudes,
                                  oracle_graph_state_amplitudes(g))

    def test_stabilizer_eigenstate_every_vertex(self, rng):
        for _ in range(50):
            g = random_graph(rng)
            sv = graph_state_vector(g)
            for a in range(g.n):
                direct = apply_stabilizer(g, a, sv.amplitudes)
                assert float(np.max(np.abs(direct - sv.amplitudes))) <= 1e-12


class TestStabilizerEigencheck:
    def test_non_eigenstate_fails(self):
        g = build_graph(2, [(0, 1)])
        uniform = product_state_vector(ProductState((PAIR_PLUS, PAIR_PLUS)))
        direct = apply_stabilizer(g, 0, uniform.amplitudes)
        for sign in (1, -1):
            assert float(np.max(np.abs(direct - sign * uniform.amplitudes))) > 1e-10

    def test_matches_direct_application(self, rng):
        for _ in range(30):
            g = random_graph(rng, n_max=6)
            sv = graph_state_vector(g)
            a = int(rng.integers(0, g.n))
            assert np.allclose(apply_stabilizer(g, a, sv.amplitudes),
                               sv.amplitudes, atol=1e-12)


class TestStateVector:
    @pytest.mark.parametrize("amps", [[math.nan, 0], [complex(0, math.nan), 0]])
    def test_nan_rejected(self, amps):
        with pytest.raises(ValueError):
            StateVector(1, amps)


class TestProductStateVector:
    def test_all_plus(self):
        p = ProductState((PAIR_PLUS,) * 4)
        assert np.allclose(product_state_vector(p).amplitudes, 0.25)

    def test_all_zero(self):
        p = ProductState((PAIR_ZERO,) * 3)
        amps = product_state_vector(p).amplitudes
        assert amps[0] == 1 and np.all(amps[1:] == 0)

    def test_phi_power_normalized(self):
        p = ProductState((PAIR_PHI[0],) * 5)
        nrm = np.linalg.norm(product_state_vector(p).amplitudes)
        assert abs(nrm - 1) <= 1e-14

    def test_bit_ordering_msb_first(self):
        p = ProductState((PAIR_ZERO, QubitAmplitudePair(0j, 1 + 0j)))
        amps = product_state_vector(p).amplitudes
        assert amps[0b01] == 1  # qubit 0 (MSB) = 0, qubit 1 (LSB) = 1


class TestOverlap:
    def test_k2_zero_plus(self):
        g = build_graph(2, [(0, 1)])
        p = ProductState((PAIR_ZERO, PAIR_PLUS))
        f = overlap(g, p)
        assert abs(f - 1 / math.sqrt(2)) <= 1e-15
        assert abs(fidelity(g, p) - 0.5) <= 1e-15

    def test_c5_phi_pattern(self):
        g = builtin_family("cycle", 5)
        p = ProductState((PAIR_PHI[0],) * 5)
        assert abs(fidelity(g, p) - F_RING5) <= 1e-15

    def test_all_plus_substitution(self, rng):
        from graphent.states import phase_signs
        for _ in range(20):
            g = random_graph(rng, n_max=6)
            p = ProductState((PAIR_PLUS,) * g.n)
            expect = float(phase_signs(g).sum()) / (1 << g.n)
            assert abs(overlap(g, p) - expect) <= 1e-13

    def test_two_code_paths_agree(self, rng):
        for _ in range(100):
            g = random_graph(rng)
            p = random_product_state(g.n, rng)
            direct = overlap(g, p)
            via_vectors = np.vdot(graph_state_vector(g).amplitudes,
                                  product_state_vector(p).amplitudes)
            assert abs(direct - via_vectors) <= 1e-12

    def test_matches_term_oracle(self, rng):
        for _ in range(30):
            g = random_graph(rng, n_max=6)
            p = random_product_state(g.n, rng)
            assert abs(overlap(g, p) - oracle_overlap(g, p)) <= 1e-13

    def test_cauchy_schwarz(self, rng):
        for _ in range(200):
            g = random_graph(rng)
            p = random_product_state(g.n, rng)
            assert fidelity(g, p) <= 1 + 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            overlap(builtin_family("cycle", 4), random_product_state(3, rng))

    def test_gauge_invariance(self, rng):
        for _ in range(50):
            g = random_graph(rng, n_max=6)
            p = random_product_state(g.n, rng)
            j = int(rng.integers(0, g.n))
            q = p.qubits[j]
            phase = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            regauged = p.replace_qubit(
                j, QubitAmplitudePair.normalized(q.x * phase, q.y * phase))
            assert abs(abs(overlap(g, p)) - abs(overlap(g, regauged))) <= 1e-12


class TestPartialOverlaps:
    def test_identity_f_equals_xc0_plus_yc1(self, rng):
        for _ in range(100):
            g = random_graph(rng)
            p = random_product_state(g.n, rng)
            f = overlap(g, p)
            for j in range(g.n):
                c0, c1 = partial_overlaps(g, p, j)
                q = p.qubits[j]
                assert abs(f - (q.x * c0 + q.y * c1)) <= 1e-12

    def test_empty_graph_no_coupling(self, rng):
        g = builtin_family("empty", 4)
        p = random_product_state(4, rng)
        j = 2
        c0, c1 = partial_overlaps(g, p, j)
        # Switching qubit j leaves the partials unchanged.
        p2 = p.replace_qubit(j, haar_random_pair(rng))
        d0, d1 = partial_overlaps(g, p2, j)
        assert abs(c0 - d0) <= 1e-14 and abs(c1 - d1) <= 1e-14
        assert abs(c0 - c1) <= 1e-14  # no edges: both halves identical

    def test_finite_difference(self, rng):
        # The overlap is multilinear in the raw amplitudes, so evaluate the
        # defining sum at unnormalized values to difference it.
        from helpers import oracle_edges_inside

        def raw_overlap(g, pairs):
            total = 0j
            for mu in range(1 << g.n):
                prod = (-1) ** oracle_edges_inside(g, mu) + 0j
                for k, (x, y) in enumerate(pairs):
                    prod *= y if (mu >> (g.n - 1 - k)) & 1 else x
                total += prod
            return total * 2.0 ** (-g.n / 2)

        eps = 1e-7
        for _ in range(20):
            g = random_graph(rng, n_max=5)
            p = random_product_state(g.n, rng)
            j = int(rng.integers(0, g.n))
            c0, c1 = partial_overlaps(g, p, j)
            pairs = [(q.x, q.y) for q in p.qubits]
            bumped_x = [((x + eps, y) if k == j else (x, y))
                        for k, (x, y) in enumerate(pairs)]
            bumped_y = [((x, y + eps) if k == j else (x, y))
                        for k, (x, y) in enumerate(pairs)]
            base = raw_overlap(g, pairs)
            assert abs(c0 - (raw_overlap(g, bumped_x) - base) / eps) <= 1e-6
            assert abs(c1 - (raw_overlap(g, bumped_y) - base) / eps) <= 1e-6


class TestApplyLcUnitary:
    def test_maps_to_complemented_graph_state(self, rng):
        for _ in range(40):
            g = random_graph(rng)
            a = int(rng.integers(0, g.n))
            moved = apply_lc_unitary(g, a, graph_state_vector(g))
            target = graph_state_vector(local_complement(g, a))
            assert abs(abs(np.vdot(target.amplitudes, moved.amplitudes)) - 1) <= 1e-10

    def test_norm_preserved(self, rng):
        for _ in range(20):
            g = random_graph(rng)
            p = random_product_state(g.n, rng)
            sv = product_state_vector(p)
            out = apply_lc_unitary(g, int(rng.integers(0, g.n)), sv)
            assert abs(np.linalg.norm(out.amplitudes) - 1) <= 1e-12

    def test_isolated_vertex_acts_locally(self):
        g = build_graph(3, [(1, 2)])  # vertex 0 isolated
        p = ProductState((PAIR_ZERO, PAIR_PLUS, PAIR_ZERO))
        out = apply_lc_unitary(g, 0, product_state_vector(p))
        # qubits 1,2 unchanged: tracing structure stays product with same tail
        t = out.amplitudes.reshape(2, 4)
        assert np.allclose(t[0] / np.linalg.norm(t[0]),
                           product_state_vector(
                               ProductState((PAIR_PLUS, PAIR_ZERO))).amplitudes)

    def test_applied_twice_is_stabilizer(self, rng):
        for _ in range(20):
            g = random_graph(rng, n_max=6)
            sv = graph_state_vector(g)
            a = int(rng.integers(0, g.n))
            twice = apply_lc_unitary(g, a, apply_lc_unitary(g, a, sv))
            # V_a^2 proportional to K_a, and K_a fixes the graph state
            assert abs(abs(np.vdot(sv.amplitudes, twice.amplitudes)) - 1) <= 1e-10
            direct = apply_stabilizer(g, a, twice.amplitudes)
            assert float(np.max(np.abs(direct - twice.amplitudes))) <= 1e-10


class TestFubiniStudy:
    def test_identical_states(self):
        # acos is ill-conditioned at 1: one ulp of overlap error gives ~2e-8.
        assert fubini_study_distance(PAIR_PLUS, PAIR_PLUS) <= 5e-8

    def test_orthogonal_states(self):
        d = fubini_study_distance(PAIR_ZERO, QubitAmplitudePair(0j, 1 + 0j))
        assert abs(d - math.pi / 2) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_gauge_invariant(self, seed):
        r = np.random.default_rng(seed)
        a, b = haar_random_pair(r), haar_random_pair(r)
        phase = cmath.exp(1j * r.uniform(0, 2 * math.pi))
        b2 = QubitAmplitudePair.normalized(b.x * phase, b.y * phase)
        assert abs(fubini_study_distance(a, b) -
                   fubini_study_distance(a, b2)) <= 1e-12
