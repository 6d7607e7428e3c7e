"""Normed coordinate spaces, direct sums, operators, and their JSON forms."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpbkit.absolute import AbsoluteNorm2, validate_absolute_norm
from bpbkit.errors import ConfigError, DegenerateInput, DimensionError, NotOnSphere
from bpbkit.lattices import Absolute2Lattice, LpLattice, WeightedL1Lattice
from bpbkit.spaces import (
    DirectSumSpace,
    EuclideanSpace,
    LatticeSpace,
    LpSpace,
    Operator,
    PlaneSpace,
    operator_norm,
    space_from_json,
    vector_from_json,
    vector_to_json,
)


def space_examples():
    return [
        EuclideanSpace(3),
        EuclideanSpace(2, scalar_field="complex"),
        LpSpace(3, 1.0),
        LpSpace(3, 3.0),
        LpSpace(3, math.inf),
        PlaneSpace(AbsoluteNorm2.from_table([(0.0, 1.0), (0.5, 10.0 / 11.0), (1.0, 1.0)])),
        LatticeSpace(WeightedL1Lattice([1.0, 2.0, 0.5])),
        DirectSumSpace([EuclideanSpace(2), LpSpace(2, 1.0)], LpLattice(2, 1.0)),
    ]


class TestNormsAndDuality:
    def test_norm_pins(self):
        assert EuclideanSpace(2).norm([3.0, 4.0]) == pytest.approx(5.0)
        assert LpSpace(2, 1.0).norm([3.0, -4.0]) == pytest.approx(7.0)
        assert LpSpace(2, math.inf).norm([3.0, -4.0]) == pytest.approx(4.0)
        assert EuclideanSpace(2, scalar_field="complex").norm([3.0 + 4.0j, 0.0]) == (
            pytest.approx(5.0)
        )

    def test_norming_functional_attains_with_dual_norm_one(self):
        for sp in space_examples():
            x = sp.coerce(np.linspace(0.4, 1.0, sp.dim))
            f = sp.norming_functional(x)
            assert complex(sp.pairing(f, x)).real == pytest.approx(sp.norm(x), rel=1e-9)
            assert sp.dual_norm(f) == pytest.approx(1.0, abs=1e-9)

    def test_attaining_vector_reaches_dual_norm(self):
        for sp in space_examples():
            f = sp.coerce(np.linspace(0.4, 1.0, sp.dim))
            v = sp.attaining_vector(f)
            assert sp.norm(v) == pytest.approx(1.0, abs=1e-9)
            assert complex(sp.pairing(f, v)).real == pytest.approx(
                sp.dual_norm(f), rel=1e-9
            )

    def test_complex_pairing_is_real_at_norming(self):
        sp = EuclideanSpace(2, scalar_field="complex")
        z = sp.coerce([1.0 + 1.0j, 0.3 - 0.2j])
        f = sp.norming_functional(z)
        val = complex(sp.pairing(f, z))
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real == pytest.approx(sp.norm(z), rel=1e-12)

    def test_unit_and_zero(self):
        sp = LpSpace(3, 2.0)
        assert sp.norm(sp.unit([3.0, 0.0, 4.0])) == pytest.approx(1.0)
        with pytest.raises(DegenerateInput):
            sp.unit(np.zeros(3))

    def test_sphere_check(self):
        sp = EuclideanSpace(2)
        sp.sphere_check(sp.coerce([0.6, 0.8]))
        with pytest.raises(NotOnSphere):
            sp.sphere_check(sp.coerce([0.5, 0.5]))

    def test_coerce_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            EuclideanSpace(3).coerce([1.0, 2.0])


class TestDirectSum:
    def setup_method(self):
        self.space = DirectSumSpace(
            [EuclideanSpace(2), LpSpace(2, 1.0)], LpLattice(2, 1.0)
        )

    def test_norm_is_combiner_of_block_norms(self):
        x = self.space.coerce([3.0, 4.0, 1.0, -1.0])
        np.testing.assert_allclose(self.space.profile(x), [5.0, 2.0])
        assert self.space.norm(x) == pytest.approx(7.0)

    def test_split_then_embed_round_trips(self):
        x = self.space.coerce([1.0, 0.0, 0.5, 0.5])
        blocks = self.space.split(x)
        assert len(blocks) == 2
        np.testing.assert_allclose(blocks[0], [1.0, 0.0])
        np.testing.assert_allclose(blocks[1], [0.5, 0.5])
        np.testing.assert_allclose(self.space.embed(blocks), x)

    def test_embed_wrong_block_count_rejected(self):
        with pytest.raises(DimensionError):
            self.space.embed([np.zeros(2)])

    def test_dual_profile_pairs_with_profile(self):
        x = self.space.coerce([3.0, 4.0, 1.0, -1.0])
        f = self.space.norming_functional(x)
        # Block dual norms assemble to a combiner-dual-unit profile.
        dp = self.space.dual_profile(f)
        assert self.space.combiner.dual_norm_of(dp) == pytest.approx(1.0, abs=1e-9)

    def test_norming_functional_is_zero_on_a_zero_block(self):
        # a valid table whose supporting functional at the profile (1, 0) is
        # (1 - 2e-11, 0.2): e*_2 = 0.2 on the zero block, so a zero block
        # that took the canonical unit's functional showed 0.2 there
        table = AbsoluteNorm2.from_table(
            [(0.0, 1.0), (1e-10, 1.0 - 1e-10 + 1e-19), (0.5, 0.6),
             (1.0, 1.0)])
        assert validate_absolute_norm(table).ok
        Z = DirectSumSpace([EuclideanSpace(2), LpSpace(2, 3.0)],
                           Absolute2Lattice(table))
        x = np.array([0.6, 0.8, 0.0, 0.0])
        assert Z.combiner.norming_of(Z.profile(x))[1] == pytest.approx(0.2)
        f = Z.norming_functional(x)
        np.testing.assert_array_equal(f[2:], [0.0, 0.0])
        np.testing.assert_array_equal(Z.norming_functionals(x[None])[0], f)
        assert Z.dual_norm(f) == pytest.approx(1.0, abs=1e-9)
        assert f @ x == pytest.approx(Z.norm(x), abs=1e-9)

    def test_max_combiner(self):
        sup = DirectSumSpace(
            [EuclideanSpace(2), EuclideanSpace(2)], LpLattice(2, math.inf)
        )
        x = sup.coerce([3.0, 4.0, 1.0, 0.0])
        assert sup.norm(x) == pytest.approx(5.0)

    def test_canonical_unit_is_on_sphere(self):
        for sp in space_examples():
            e = sp.canonical_unit()
            assert sp.norm(e) == pytest.approx(1.0, abs=1e-12)


class TestOperatorNorm:
    def test_euclidean_svd(self):
        r = operator_norm(Operator(np.diag([1.0, 3.0]), EuclideanSpace(2), EuclideanSpace(2)))
        assert r.value == pytest.approx(3.0, abs=1e-12)
        assert r.method == "svd" and r.exact

    def test_sum_norm_domain_column_rule(self):
        # From a sum-norm domain the operator norm is the largest column image.
        r = operator_norm(
            Operator(np.array([[0.5, 2.0, 1.0]]), LpSpace(3, 1.0), LpSpace(1, 1.0))
        )
        assert r.value == pytest.approx(2.0, abs=1e-12)
        assert r.method == "l1_columns" and r.exact

    def test_block_sum_domain_rule(self):
        space = DirectSumSpace(
            [EuclideanSpace(2), EuclideanSpace(2)], LpLattice(2, 1.0)
        )
        m = np.zeros((4, 4))
        m[:2, :2] = np.diag([1.0, 0.5])
        m[2:, 2:] = np.array([[0.0, 2.0], [0.0, 0.0]])
        r = operator_norm(Operator(m, space, space))
        assert r.value == pytest.approx(2.0, abs=1e-9)
        assert r.method == "l1_sum_blocks"

    def test_ascent_fallback_upper_and_witness_agree(self):
        op = Operator(np.array([[1.0, 1.0], [0.0, 1.0]]), LpSpace(2, 3.0), LpSpace(2, 3.0))
        r = operator_norm(op)
        assert r.method == "ascent"
        # The witness realises the reported value from below.
        attained = op.codomain.norm(op.apply(r.witness)) / op.domain.norm(r.witness)
        assert attained == pytest.approx(r.value, rel=1e-6)

    def test_witness_attains_reported_norm(self):
        for op in (
            Operator(np.diag([1.0, 3.0]), EuclideanSpace(2), EuclideanSpace(2)),
            Operator(np.array([[0.5, 2.0, 1.0]]), LpSpace(3, 1.0), LpSpace(1, 1.0)),
        ):
            r = operator_norm(op)
            attained = op.codomain.norm(op.apply(r.witness))
            assert attained == pytest.approx(r.value * op.domain.norm(r.witness), rel=1e-9)

    @given(
        entries=st.lists(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=40)
    def test_reported_norm_dominates_random_directions(self, entries):
        m = np.array(entries).reshape(2, 2)
        for dom, cod in (
            (LpSpace(2, 1.0), LpSpace(2, math.inf)),
            (EuclideanSpace(2), EuclideanSpace(2)),
            (LpSpace(2, 3.0), LpSpace(2, 1.5)),
        ):
            r = operator_norm(Operator(m, dom, cod))
            rng = np.random.default_rng(7)
            for _ in range(25):
                x = rng.standard_normal(2)
                nx = dom.norm(x)
                if nx < 1e-9:
                    continue
                assert cod.norm(m @ x) <= r.value * nx * (1.0 + 1e-7) + 1e-12

    def test_restrict_to_block_keeps_block_columns(self):
        space = DirectSumSpace(
            [EuclideanSpace(2), EuclideanSpace(2)], LpLattice(2, 1.0)
        )
        m = np.arange(16.0).reshape(4, 4)
        op = Operator(m, space, space)
        rb = op.restrict_to_block(space, 1)
        # The restriction maps the chosen component into the full codomain.
        assert rb.matrix.shape == (4, 2)
        np.testing.assert_allclose(rb.matrix, m[:, 2:])
        assert type(rb.domain) is EuclideanSpace and rb.domain.dim == 2
        assert rb.codomain is space


class TestJsonForms:
    def test_space_round_trips(self):
        for sp in space_examples():
            rebuilt = space_from_json(sp.to_json())
            assert type(rebuilt) is type(sp)
            assert rebuilt.dim == sp.dim
            probe = rebuilt.coerce(np.linspace(0.3, 1.1, sp.dim))
            assert rebuilt.norm(probe) == pytest.approx(sp.norm(probe.real))

    def test_vector_round_trip_real(self):
        sp = LpSpace(3, 1.0)
        x = sp.coerce([1.0, -2.0, 0.5])
        obj = vector_to_json(sp, x)
        assert obj["coords"] == [1.0, -2.0, 0.5]
        sp2, x2 = vector_from_json(obj)
        assert type(sp2) is LpSpace
        np.testing.assert_allclose(x2, x)

    def test_vector_round_trip_complex_pairs(self):
        sp = EuclideanSpace(2, scalar_field="complex")
        x = sp.coerce([1.0 + 2.0j, 3.0])
        obj = vector_to_json(sp, x)
        # Complex scalars serialize as [re, im] pairs.
        assert obj["coords"] == [[1.0, 2.0], [3.0, 0.0]]
        _, x2 = vector_from_json(obj)
        np.testing.assert_allclose(x2, x)

    def test_vector_json_is_json_serializable(self):
        sp = DirectSumSpace([EuclideanSpace(2), LpSpace(2, 1.0)], LpLattice(2, 1.0))
        obj = vector_to_json(sp, sp.coerce([1.0, 0.0, 0.5, 0.5]))
        parsed = json.loads(json.dumps(obj))
        _, x2 = vector_from_json(parsed)
        np.testing.assert_allclose(x2, [1.0, 0.0, 0.5, 0.5])

    def test_operator_round_trip(self):
        op = Operator(np.array([[1.0, 2.0], [3.0, 4.0]]), LpSpace(2, 1.0), EuclideanSpace(2))
        op2 = Operator.from_json(op.to_json())
        np.testing.assert_allclose(op2.matrix, op.matrix)
        assert type(op2.domain) is LpSpace and type(op2.codomain) is EuclideanSpace

    def test_bad_space_kind_rejected(self):
        with pytest.raises(ConfigError):
            space_from_json({"kind": "banach_of_mystery", "dim": 2, "params": {}})

    def test_complex_only_euclidean(self):
        with pytest.raises(ConfigError):
            space_from_json({"kind": "lp", "dim": 2, "params": {"p": 2.0, "field": "complex"}})
