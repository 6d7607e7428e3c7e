"""Plane norms with absolute generators: values, duals, completions, moduli."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpbkit.absolute import (
    AbsoluteNorm2,
    boundary_completion,
    dual_exponent,
    dual_pair,
    lemma_fact_delta,
    validate_absolute_norm,
)
from bpbkit.errors import NotANorm, NotOnSphere, RangeError

L1 = AbsoluteNorm2.lp(1.0)
L2 = AbsoluteNorm2.lp(2.0)
L3 = AbsoluteNorm2.lp(3.0)
LINF = AbsoluteNorm2.lp(math.inf)
# Hexagon-type generator: sphere vertices (1,0), (0.55,0.55), (0,1).
TABLE = AbsoluteNorm2.from_table([(0.0, 1.0), (0.5, 10.0 / 11.0), (1.0, 1.0)])

GENERATORS = [L1, L2, L3, LINF, TABLE]

UNIT_U = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
COORD = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestValue:
    def test_lp_closed_forms(self):
        assert L1.value((3.0, -4.0)) == pytest.approx(7.0)
        assert L2.value((3.0, -4.0)) == pytest.approx(5.0)
        assert LINF.value((3.0, -4.0)) == pytest.approx(4.0)
        assert L3.value((1.0, 1.0)) == pytest.approx(2.0 ** (1.0 / 3.0))

    def test_table_matches_its_vertices(self):
        for vx, vy in TABLE.vertices:
            assert TABLE.value((vx, vy)) == pytest.approx(1.0, abs=1e-12)
        assert TABLE.value((0.55, 0.55)) == pytest.approx(1.0)

    def test_from_samples_equivalent_to_table(self):
        rebuilt = AbsoluteNorm2.from_samples(
            [(1.0, 0.0, 1.0), (0.5, 0.5, 10.0 / 11.0), (0.0, 1.0, 1.0)]
        )
        for u in np.linspace(0.0, 1.0, 17):
            assert rebuilt.psi(float(u)) == pytest.approx(TABLE.psi(float(u)))

    @given(u=UNIT_U)
    def test_sphere_points_have_value_one(self, u):
        for n in GENERATORS:
            assert n.value(n.sphere_point(u)) == pytest.approx(1.0, abs=1e-9)

    @given(a=COORD, b=COORD, scale=st.floats(min_value=0.0, max_value=5.0))
    def test_homogeneity_and_absoluteness(self, a, b, scale):
        for n in (L2, TABLE):
            base = n.value((a, b))
            assert n.value((scale * a, scale * b)) == pytest.approx(
                scale * base, abs=1e-9 * (1.0 + scale * base)
            )
            assert n.value((-a, abs(b))) == pytest.approx(base, abs=1e-12)

    @given(a=COORD, b=COORD, c=COORD, d=COORD)
    def test_triangle_inequality(self, a, b, c, d):
        for n in (L1, L3, TABLE):
            lhs = n.value((a + c, b + d))
            rhs = n.value((a, b)) + n.value((c, d))
            assert lhs <= rhs + 1e-9 * (1.0 + rhs)

    def test_swapped_exchanges_coordinates(self):
        n = TABLE.swapped()
        assert n.value((2.0, 3.0)) == pytest.approx(TABLE.value((3.0, 2.0)))
        assert L1.swapped().value((2.0, 3.0)) == pytest.approx(5.0)


class TestValidation:
    def test_good_generators_pass_all_checks(self):
        for n in GENERATORS:
            rep = validate_absolute_norm(n)
            assert rep.ok, rep.reason
            assert rep.checks == ("positive", "normalized", "admissible-band", "convex")

    def test_unnormalized_table_reported(self):
        rep = validate_absolute_norm(AbsoluteNorm2.from_table([(0.0, 1.0), (1.0, 2.0)]))
        assert not rep.ok
        assert "normalization" in rep.reason
        assert rep.violation == (0.0, 1.0, 2.0)

    def test_band_violation_reported(self):
        rep = validate_absolute_norm(
            AbsoluteNorm2.from_table([(0.0, 1.0), (0.5, 1.2), (1.0, 1.0)])
        )
        assert not rep.ok
        assert "band" in rep.reason

    def test_nonmonotone_nodes_rejected_at_construction(self):
        with pytest.raises(NotANorm, match="strictly increasing"):
            AbsoluteNorm2.from_table([(0.0, 1.0), (0.7, 0.9), (0.3, 0.9), (1.0, 1.0)])

    def test_small_resolution_rejected(self):
        with pytest.raises(RangeError):
            validate_absolute_norm(L2, resolution=2)

    def test_bad_exponent_rejected(self):
        with pytest.raises(RangeError, match="p >= 1"):
            AbsoluteNorm2.lp(0.5)


class TestDualPair:
    def test_smooth_euclidean_dual_is_the_point_itself(self):
        np.testing.assert_allclose(dual_pair(L2, (0.6, 0.8)), [0.6, 0.8], atol=1e-9)

    def test_sum_norm_face_interior_dual_is_all_ones(self):
        np.testing.assert_allclose(dual_pair(L1, (0.3, 0.7)), [1.0, 1.0], atol=1e-12)

    def test_max_norm_tie_resolution(self):
        np.testing.assert_allclose(dual_pair(LINF, (1.0, 0.5)), [1.0, 0.0], atol=1e-12)

    def test_vertex_ties_take_the_smallest_candidate(self):
        # at a sphere vertex several extreme dual points attain: the
        # lexicographically smallest wins, with the signs of x (+ on zeros)
        np.testing.assert_array_equal(LINF.dual_pair((1.0, 1.0)), [0.0, 1.0])
        np.testing.assert_array_equal(L1.dual_pair((0.0, -1.0)), [0.0, -1.0])
        np.testing.assert_allclose(TABLE.dual_pair((-0.55, 0.55)),
                                   [-9.0 / 11.0, 1.0], rtol=1e-12)

    @given(u=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=40)
    def test_dual_attains_and_never_exceeds_one(self, u):
        # A norming functional pairs to exactly 1 at its point and to at most 1
        # anywhere else on the sphere -- the brute-force check of dual-unit norm.
        for n in GENERATORS:
            x = n.sphere_point(u)
            f = dual_pair(n, x)
            assert float(f @ x) == pytest.approx(1.0, abs=1e-9)
            for v in np.linspace(0.0, 1.0, 200):
                y = n.sphere_point(float(v))
                assert float(f @ y) <= 1.0 + 1e-9

    def test_dual_value_matches_brute_force(self):
        # dual_value is the support function of the unit ball.
        f = np.array([0.7, 1.3])
        for n in GENERATORS:
            sweep = max(
                float(np.dot(f, n.sphere_point(float(u))))
                for u in np.linspace(0.0, 1.0, 20001)
            )
            assert n.dual_value(f) == pytest.approx(sweep, abs=1e-6)

    def test_zero_direction_rejected(self):
        with pytest.raises(Exception):
            dual_pair(L2, (0.0, 0.0))


class TestBoundaryCompletion:
    def test_flat_top_keeps_full_first_coordinate(self):
        # The max-norm sphere contains (1, 1), so the completion at height one
        # reaches t = 1.
        assert boundary_completion(LINF, 0.4, 1.0, "second_coord") == pytest.approx(1.0)
        assert boundary_completion(LINF, 0.4, 1.0, "first_coord") == pytest.approx(1.0)

    def test_strictly_convex_top_collapses_to_zero(self):
        # Euclidean: t^2 + 1 = 1 forces t = 0 (bisection leaves ~1e-7 residue).
        assert boundary_completion(L2, 0.6, 0.8, "second_coord") == pytest.approx(
            0.0, abs=1e-6
        )

    def test_sum_norm_vertex(self):
        assert boundary_completion(L1, 0.0, 1.0, "second_coord") == pytest.approx(
            0.0, abs=1e-6
        )

    def test_sign_carried_from_source_coordinate(self):
        assert boundary_completion(LINF, -0.4, 1.0, "second_coord") == pytest.approx(-1.0)

    def test_off_sphere_input_rejected(self):
        with pytest.raises(NotOnSphere):
            boundary_completion(L2, 0.5, 0.5, "second_coord")

    def test_unknown_axis_rejected(self):
        with pytest.raises(RangeError):
            boundary_completion(L2, 0.6, 0.8, "both")


class TestLemmaFactDelta:
    def test_euclidean_closed_form(self):
        # On the circle, unit pairs with first coordinate epsilon sit at height
        # sqrt(1 - epsilon^2); the completion threshold is the height deficit.
        eps = 0.2
        assert lemma_fact_delta(L2, eps) == pytest.approx(
            1.0 - math.sqrt(1.0 - eps**2), abs=1e-12
        )

    def test_sum_norm_linear_form(self):
        # On the diamond, height drops one-for-one with the first coordinate.
        assert lemma_fact_delta(L1, 0.1) == pytest.approx(0.1, abs=1e-12)

    def test_max_norm_is_capped(self):
        # Every unit pair has first coordinate at most one = t_max, so any
        # threshold works; the implementation caps just below one.
        assert lemma_fact_delta(LINF, 0.2) == pytest.approx(1.0, abs=1e-8)

    def test_table_polygon_sweep(self):
        # Sphere segment (0.55, 0.55) -> (0, 1) has slope -9/11 in height per
        # unit of first coordinate, so at first coordinate 0.2 the height is
        # 1 - 0.2 * 9/11 and the threshold is that deficit.
        assert lemma_fact_delta(TABLE, 0.2) == pytest.approx(0.2 * 9.0 / 11.0, abs=1e-9)

    def test_threshold_certifies_completion_property(self):
        # Independent re-check on a fine sweep: every unit pair above the
        # returned threshold is within epsilon of a height-one completion.
        for n, eps in ((L2, 0.3), (L3, 0.2), (TABLE, 0.15)):
            delta = lemma_fact_delta(n, eps)
            for u in np.linspace(0.0, 1.0, 40001):
                a, b = n.sphere_point(float(u))
                if b > 1.0 - delta:
                    assert a <= eps + 1e-8

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(RangeError):
            lemma_fact_delta(L2, 0.0)


class TestFacesAndParams:
    def test_face_gap_pins(self):
        assert L1.face_gap() == pytest.approx(1.0, abs=1e-12)
        assert LINF.face_gap() == pytest.approx(1.0, abs=1e-12)
        assert TABLE.face_gap() == pytest.approx(2.0 / 11.0, rel=1e-9)

    def test_face_gap_needs_flat_faces(self):
        with pytest.raises(RangeError):
            L2.face_gap()

    def test_face_vertices_of_sum_norm_face(self):
        assert L1.face_vertices((1.0, 1.0)) == [(1.0, 0.0), (0.0, 1.0)]

    def test_support_candidates_of_max_norm(self):
        assert LINF.support_candidates() == [(1.0, 0.0), (0.0, 1.0)]

    def test_smoothness_flags(self):
        assert L2.is_smooth and not L2.is_polyhedral
        assert L3.is_smooth and not L3.is_polyhedral
        assert not L1.is_smooth and L1.is_polyhedral
        assert not LINF.is_smooth and LINF.is_polyhedral
        assert not TABLE.is_smooth and TABLE.is_polyhedral

    def test_params_round_trip(self):
        for n in GENERATORS:
            rebuilt = AbsoluteNorm2.from_params(n.to_params())
            for u in np.linspace(0.0, 1.0, 33):
                assert rebuilt.psi(float(u)) == pytest.approx(n.psi(float(u)), abs=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(RangeError, match="unknown generator kind"):
            AbsoluteNorm2.from_params({"kind": "mystery"})

    def test_dual_exponent_pins(self):
        assert dual_exponent(1.0) == math.inf
        assert dual_exponent(2.0) == pytest.approx(2.0)
        assert dual_exponent(3.0) == pytest.approx(1.5)
        assert dual_exponent(math.inf) == pytest.approx(1.0)

    def test_psi_domain_enforced(self):
        with pytest.raises(RangeError):
            L2.psi(1.5)

    def test_sphere_endpoints(self):
        for n in GENERATORS:
            np.testing.assert_allclose(n.sphere_point(0.0), [1.0, 0.0], atol=1e-12)
            np.testing.assert_allclose(n.sphere_point(1.0), [0.0, 1.0], atol=1e-12)
