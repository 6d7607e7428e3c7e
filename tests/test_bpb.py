"""Convex-mass filter, parameter cascade, and the sum-norm correction pipeline."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpbkit.bpb import (
    BpbCorrection,
    BpbInstance,
    ComponentBpbOracle,
    ConvexSeries,
    EuclideanComponentOracle,
    OneDimComponentOracle,
    cascade_l1sum,
    correct_operator_l1sum,
    default_component_oracle,
    filter_large_real_part,
    verify_bpb_correction,
)
from bpbkit.certs import all_passed
from bpbkit.errors import (
    ConfigError,
    HypothesisError,
    InternalInvariantError,
    InvalidModulus,
    OracleViolation,
    RangeError,
)
from bpbkit.lattices import LpLattice
from bpbkit.spaces import (DirectSumSpace, EuclideanSpace, LpSpace, Operator,
                           operator_norm)


def hilbert_convexity(r: float) -> float:
    """Closed-form convexity modulus of a Euclidean ball."""
    return 1.0 - math.sqrt(1.0 - r * r / 4.0)


class TestConvexSeries:
    def test_strict_requires_total_one(self):
        ConvexSeries(np.array([0.5, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(RangeError):
            ConvexSeries(np.array([0.5, 0.4]), np.array([1.0, 1.0]))
        with pytest.raises(RangeError):
            ConvexSeries(np.array([0.5, 0.6]), np.array([1.0, 1.0]))

    def test_relaxed_allows_mass_below_one(self):
        ConvexSeries(np.array([0.5, 0.4]), np.array([1.0, 1.0]), strict=False)
        with pytest.raises(RangeError):
            ConvexSeries(np.array([0.5, 0.6]), np.array([1.0, 1.0]), strict=False)

    def test_negative_weights_rejected(self):
        with pytest.raises(RangeError):
            ConvexSeries(np.array([1.5, -0.5]), np.array([1.0, 1.0]))


class TestFilterLargeRealPart:
    def test_single_point_mass(self):
        fr = filter_large_real_part(
            ConvexSeries(np.array([1.0]), np.array([1.0])), eta=0.1, r=0.5
        )
        assert fr.indices == (0,)
        assert fr.mass == pytest.approx(1.0)
        assert fr.bound == pytest.approx(0.8)
        assert fr.mass > fr.bound

    def test_two_point_split(self):
        # mass 0.9 on the passing scalar; bound 1 - 0.11/0.5 = 0.78.
        fr = filter_large_real_part(
            ConvexSeries(np.array([0.9, 0.1]), np.array([1.0, 0.0])), eta=0.11, r=0.5
        )
        assert fr.indices == (0,)
        assert fr.mass == pytest.approx(0.9)
        assert fr.bound == pytest.approx(0.78)
        assert fr.mass > fr.bound

    def test_vacuous_bound_still_selects(self):
        fr = filter_large_real_part(
            ConvexSeries(np.array([0.5, 0.5]), np.array([1.0, 1.0])), eta=0.01, r=0.99
        )
        assert fr.indices == (0, 1)
        assert fr.mass == pytest.approx(1.0)
        assert fr.bound == pytest.approx(0.0, abs=1e-12)

    def test_hypothesis_enforced(self):
        series = ConvexSeries(np.array([0.5, 0.5]), np.array([0.9, 0.5]))
        with pytest.raises(HypothesisError):
            filter_large_real_part(series, eta=0.1, r=0.5)

    def test_complex_payload_uses_real_part(self):
        series = ConvexSeries(
            np.array([0.6, 0.4]), np.array([1.0 + 0.0j, 0.9 + 0.4j])
        )
        fr = filter_large_real_part(series, eta=0.05, r=0.95)
        assert fr.indices == (0,)

    @given(seed=st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=150, deadline=None)
    def test_selected_mass_beats_the_bound(self, seed):
        # The lemma's guarantee on random admissible instances.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        w = rng.dirichlet(np.ones(n))
        eta = float(rng.uniform(0.01, 0.5))
        phases = rng.uniform(-0.2, 0.2, n)
        mags = rng.uniform(0.0, 1.0, n)
        c = mags * np.exp(1j * phases)
        target = float(np.real(w @ c))
        if target <= 1.0 - eta:
            # Push enough scalars to 1 to satisfy the hypothesis.
            c = np.where(rng.random(n) < 0.9, 1.0 + 0.0j, c)
            if float(np.real(w @ c)) <= 1.0 - eta:
                c = np.ones(n, dtype=complex)
        r = float(rng.uniform(0.05, 0.95))
        fr = filter_large_real_part(ConvexSeries(w, c), eta, r)
        assert fr.mass > fr.bound
        for i in fr.indices:
            assert np.real(c[i]) > r
        for i in set(range(n)) - set(fr.indices):
            assert np.real(c[i]) <= r


class TestCascade:
    def test_pinned_example(self):
        # Independent evaluation of the three binding bounds.
        cascade = cascade_l1sum(0.4, lambda s: s / 2.0, EuclideanSpace(2))
        r = 0.9 * (0.4 / 4.0)
        assert cascade.r == pytest.approx(r)
        s = 0.9 * min(0.1, hilbert_convexity(r) / 3.0)
        assert cascade.s == pytest.approx(s, rel=1e-12)
        t = 0.9 * min(0.1, s / 2.0, hilbert_convexity(r) / 3.0)
        assert cascade.t == pytest.approx(t, rel=1e-12)
        assert not cascade.s_floored and not cascade.t_floored

    def test_shrinks_with_epsilon(self):
        prev = None
        for eps in (0.8, 0.4, 0.2, 0.1):
            c = cascade_l1sum(eps, lambda s: s / 2.0, EuclideanSpace(2))
            if prev is not None:
                assert c.r < prev.r and c.raw_s <= prev.raw_s and c.raw_t <= prev.raw_t
            prev = c

    def test_cubic_modulus_binds_t_and_triggers_floor(self):
        c = cascade_l1sum(0.4, lambda s: s**3 / 8.0, EuclideanSpace(2))
        assert c.raw_t == pytest.approx(0.9 * c.s**3 / 8.0, rel=1e-12)
        assert c.t_floored and c.t == 1e-6
        assert not c.s_floored

    def test_invalid_modulus_rejected(self):
        with pytest.raises(InvalidModulus):
            cascade_l1sum(0.4, lambda s: 0.0, EuclideanSpace(2))
        with pytest.raises(InvalidModulus):
            cascade_l1sum(0.4, lambda s: -1.0, EuclideanSpace(2))

    @given(eps=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=80, deadline=None)
    def test_raw_values_satisfy_the_strict_chain(self, eps):
        # The underlying (pre-floor) choices obey the three strict bounds;
        # the modulus is evaluated at the s actually used downstream.
        c = cascade_l1sum(eps, lambda s: s / 2.0, EuclideanSpace(2))
        delta = hilbert_convexity(c.r)
        assert c.r < eps / 4.0
        assert c.raw_s < min(eps / 4.0, delta / 3.0)
        assert c.raw_t < min(eps / 4.0, c.s / 2.0, delta / 3.0)


def euclidean_plane_instance(seed: int, epsilon: float):
    """Normalized two-block operator into the plane plus an attaining input."""
    rng = np.random.default_rng(seed)
    components = [EuclideanSpace(2), EuclideanSpace(2)]
    H = EuclideanSpace(2)
    space = DirectSumSpace(components, LpLattice(2, 1.0))
    m = rng.standard_normal((2, 4))
    space_op = Operator(m, space, H)
    T = Operator(m / operator_norm(space_op).value, space, H)
    z0 = space.unit(operator_norm(T).witness)
    return components, H, space, T, z0


def two_heavy_block_instance(dim: int, seed: int):
    """Three ``dim``-dimensional blocks into the plane: blocks 0 and 1 are
    equal and attain |T| at v; block 2 is shorter and carries no mass, so
    exactly blocks 0 and 1 are heavy."""
    rng = np.random.default_rng(seed)
    comps = [EuclideanSpace(dim) for _ in range(3)]
    H = EuclideanSpace(2)
    space = DirectSumSpace(comps, LpLattice(3, 1.0))
    m = rng.standard_normal((2, 3 * dim))
    m[:, dim:2 * dim] = m[:, :dim]
    _, sv, vh = np.linalg.svd(m[:, :dim])
    m[:, 2 * dim:] *= 0.5 * sv[0] / np.linalg.norm(m[:, 2 * dim:], 2)
    T = Operator(m / sv[0], space, H)
    z0 = np.concatenate([vh[0] / 2.0, vh[0] / 2.0, np.zeros(dim)])
    return comps, H, T, z0


class TestCorrectionPipeline:
    def test_single_scalar_component_is_a_fixed_point(self):
        comps = [EuclideanSpace(1)]
        H = EuclideanSpace(1)
        dom = DirectSumSpace(comps, LpLattice(1, 1.0))
        T = Operator(np.array([[1.0]]), dom, H)
        corr = correct_operator_l1sum(comps, H, T, np.array([1.0]), 0.4)
        assert corr.dist_op == pytest.approx(0.0, abs=1e-12)
        assert corr.dist_vec == pytest.approx(0.0, abs=1e-12)
        assert corr.heavy_set == (0,)
        assert corr.tail_mass == 0.0
        np.testing.assert_allclose(corr.S.matrix, T.matrix)

    def test_attaining_input_left_unchanged(self):
        comps = [EuclideanSpace(1), EuclideanSpace(1)]
        H = EuclideanSpace(2)
        dom = DirectSumSpace(comps, LpLattice(2, 1.0))
        T = Operator(np.eye(2), dom, H)
        corr = correct_operator_l1sum(comps, H, T, np.array([1.0, 0.0]), 0.4)
        assert corr.heavy_set == (0,)
        assert corr.dist_op == pytest.approx(0.0, abs=1e-12)
        assert corr.dist_vec == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(corr.u, [1.0, 0.0])

    def test_nearly_attaining_column_gets_corrected(self):
        # Second column sits t^2/2 below norm one; the correction lifts it
        # back to the sphere, moving the operator by exactly that deficit.
        comps = [EuclideanSpace(1), EuclideanSpace(1)]
        H = EuclideanSpace(1)
        dom = DirectSumSpace(comps, LpLattice(2, 1.0))
        cascade = cascade_l1sum(0.4, OneDimComponentOracle().eta, H)
        deficit = cascade.t**2 / 2.0
        T = Operator(np.array([[1.0, 1.0 - deficit]]), dom, H)
        z0 = np.array([0.7, 0.3])
        corr = correct_operator_l1sum(comps, H, T, z0, 0.4)
        assert corr.heavy_set == (0, 1)
        np.testing.assert_allclose(corr.S.matrix, [[1.0, 1.0]], atol=1e-15)
        assert corr.dist_op == pytest.approx(deficit, rel=1e-6)
        assert corr.dist_vec == pytest.approx(0.0, abs=1e-12)
        assert H.norm(corr.S.apply(corr.u)) == pytest.approx(1.0, abs=1e-12)
        inst = BpbInstance(T, z0, 0.4, cascade.t**2)
        assert all_passed(verify_bpb_correction(inst, corr))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("epsilon", [0.1, 0.5])
    def test_seeded_plane_instances_verify(self, seed, epsilon):
        comps, H, space, T, z0 = euclidean_plane_instance(seed, epsilon)
        corr = correct_operator_l1sum(comps, H, T, z0, epsilon)
        assert corr.tail_mass <= corr.cascade.t + 1e-12
        assert corr.dist_op <= corr.cascade.r + corr.cascade.s + corr.cascade.t + 1e-9
        assert corr.dist_vec <= 2.0 * corr.cascade.t + corr.cascade.s + 1e-9
        inst = BpbInstance(T, z0, epsilon, corr.cascade.t**2)
        certs = verify_bpb_correction(inst, corr)
        assert all_passed(certs), "\n".join(str(c) for c in certs)

    def test_hypothesis_violation_reported(self):
        comps = [EuclideanSpace(1), EuclideanSpace(1)]
        H = EuclideanSpace(2)
        dom = DirectSumSpace(comps, LpLattice(2, 1.0))
        T = Operator(np.eye(2), dom, H)
        with pytest.raises(HypothesisError):
            correct_operator_l1sum(comps, H, T, np.array([0.5, 0.5]), 0.4)

    def test_cheating_oracle_caught_with_component_index(self):
        class CheatingOracle(ComponentBpbOracle):
            def eta(self, s: float) -> float:
                return s / 2.0

            def correct(self, T_i, z_hat, s):
                scaled = T_i.matrix * 1.1 / np.linalg.norm(T_i.matrix, 2)
                return Operator(scaled, T_i.domain, T_i.codomain), z_hat

        comps = [EuclideanSpace(2), EuclideanSpace(2)]
        H = EuclideanSpace(2)
        space = DirectSumSpace(comps, LpLattice(2, 1.0))
        m = np.zeros((2, 4))
        m[:, :2] = np.eye(2) * 0.999
        m[:, 2:] = np.eye(2)
        T = Operator(m / operator_norm(Operator(m, space, H)).value, space, H)
        z0 = np.array([0.0, 0.0, 1.0, 0.0])
        with pytest.raises(OracleViolation, match="component 1"):
            correct_operator_l1sum(comps, H, T, z0, 0.4, component_oracle=CheatingOracle())

    def test_unnormalized_operator_fails_invariants(self):
        comps = [EuclideanSpace(1)]
        H = EuclideanSpace(1)
        dom = DirectSumSpace(comps, LpLattice(1, 1.0))
        T = Operator(np.array([[2.0]]), dom, H)
        with pytest.raises(InternalInvariantError):
            correct_operator_l1sum(comps, H, T, np.array([1.0]), 0.4)

    def test_off_sphere_input_rejected(self):
        comps = [EuclideanSpace(1)]
        H = EuclideanSpace(1)
        dom = DirectSumSpace(comps, LpLattice(1, 1.0))
        T = Operator(np.array([[1.0]]), dom, H)
        from bpbkit.errors import NotOnSphere

        with pytest.raises(NotOnSphere):
            correct_operator_l1sum(comps, H, T, np.array([0.5]), 0.4)

    def test_default_oracle_dispatch(self):
        assert isinstance(
            default_component_oracle(EuclideanSpace(1)), OneDimComponentOracle
        )
        assert isinstance(
            default_component_oracle(EuclideanSpace(3)), EuclideanComponentOracle
        )
        from bpbkit.absolute import AbsoluteNorm2
        from bpbkit.spaces import PlaneSpace

        with pytest.raises(ConfigError):
            default_component_oracle(PlaneSpace(AbsoluteNorm2.lp(1.0)))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_contract_checked_once_per_heavy_component(self, monkeypatch,
                                                       dim, seed):
        # the pipeline owns the oracle-contract check; the built-in
        # oracles do not repeat it inside ``correct``
        labels = []
        check_pair = ComponentBpbOracle._self_check

        def spy(self, T_i, z_hat, s, S_i, x_i, label):
            labels.append(label)
            return check_pair(self, T_i, z_hat, s, S_i, x_i, label)

        monkeypatch.setattr(ComponentBpbOracle, "_self_check", spy)
        comps, H, T, z0 = two_heavy_block_instance(dim, seed)
        corr = correct_operator_l1sum(comps, H, T, z0, 0.4)
        assert corr.heavy_set == (0, 1)
        assert labels == ["component 0 oracle", "component 1 oracle"]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_each_heavy_restriction_measured_once(self, monkeypatch, dim):
        comps, H, T, z0 = two_heavy_block_instance(dim, 0)
        calls = []
        svd = np.linalg.svd

        def spy(*args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        corr = correct_operator_l1sum(comps, H, T, z0, 0.4)
        assert corr.heavy_set == (0, 1)
        # each of the 2 heavy blocks takes 3 full decompositions: |T_i|
        # once, the oracle's lift of T_i/|T_i|, and the contract check of
        # |S_i - T_i/|T_i||; then |R - T| and |R| take one per block (3
        # blocks); the alignment of each heavy image takes singular values
        # only
        assert calls.count(True) == 2 * 3 + 2 * 3
        assert calls.count(False) == 2

    def test_lower_bound_never_read_as_an_upper_bound(self):
        # On LpSpace(3, 3) +_1 R^1 every |.| over the sum is a lower bound
        # (the lp block's is an ascent value), so the correction's distance
        # and norm certificates cannot pass
        comps = [LpSpace(3, 3.0), EuclideanSpace(1)]
        H = EuclideanSpace(2)
        space = DirectSumSpace(comps, LpLattice(2, 1.0))
        T = Operator([[0.1, 0.0, 0.1, 0.6], [0.0, 0.1, 0.0, 0.8]], space, H)
        z0 = np.array([0.0, 0.0, 0.0, 1.0])
        with pytest.raises(InternalInvariantError) as err:
            correct_operator_l1sum(comps, H, T, z0, 0.4,
                                   component_oracle=OneDimComponentOracle())
        assert "operator_moved_at_most_cascade" in str(err.value)
        assert "corrected_operator_unit" in str(err.value)
        # the verifier: T itself attains at z0, but neither |T - T| nor |T|
        # is bounded from above
        correction = BpbCorrection(T, z0, 0.0, 0.0, None, (1,), 0.0)
        certs = verify_bpb_correction(BpbInstance(T, z0, 0.4, 0.0),
                                      correction)
        failed = {c.name for c in certs if not c.passed}
        assert failed == {"corrected_operator_unit",
                          "operator_moved_below_epsilon"}

    def test_oracle_check_refuses_a_lower_bound(self):
        # one component, itself LpSpace(3, 3) +_1 R^1: an oracle that keeps
        # the normalized restriction returns a true pair, but the check of
        # |S_i - T_i/|T_i|| has only a lower bound, so it cannot pass
        class KeepingOracle(ComponentBpbOracle):
            def eta(self, s: float) -> float:
                return s ** 3 / 8.0

            def correct(self, T_hat, z_hat, s):
                return T_hat, z_hat

        inner = DirectSumSpace([LpSpace(3, 3.0), EuclideanSpace(1)],
                               LpLattice(2, 1.0))
        H = EuclideanSpace(2)
        space = DirectSumSpace([inner], LpLattice(1, 1.0))
        T = Operator([[0.1, 0.0, 0.1, 0.6], [0.0, 0.1, 0.0, 0.8]], space, H)
        with pytest.raises(OracleViolation, match="component 0.*inf"):
            correct_operator_l1sum([inner], H, T, [0.0, 0.0, 0.0, 1.0], 0.4,
                                   component_oracle=KeepingOracle())


class TestVerifyBpbCorrection:
    def make_valid(self):
        comps, H, space, T, z0 = euclidean_plane_instance(3, 0.4)
        corr = correct_operator_l1sum(comps, H, T, z0, 0.4)
        inst = BpbInstance(T, z0, 0.4, corr.cascade.t**2)
        return inst, corr

    def test_valid_correction_passes(self):
        inst, corr = self.make_valid()
        assert all_passed(verify_bpb_correction(inst, corr))

    def test_scaled_vector_fails_unit_check(self):
        inst, corr = self.make_valid()
        tampered = dataclasses.replace(corr, u=corr.u * 1.1)
        certs = verify_bpb_correction(inst, tampered)
        failed = {c.name for c in certs if not c.passed}
        assert "corrected_vector_unit" in failed

    def test_shrunk_operator_fails_attainment(self):
        inst, corr = self.make_valid()
        shrunk = Operator(corr.S.matrix * 0.9, corr.S.domain, corr.S.codomain)
        tampered = dataclasses.replace(corr, S=shrunk)
        certs = verify_bpb_correction(inst, tampered)
        failed = {c.name for c in certs if not c.passed}
        assert "corrected_norm_attained" in failed or "corrected_operator_unit" in failed
