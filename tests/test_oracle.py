"""Payoff oracle tests: normalization, ancilla rotation identities, and
readback inversion."""

import math

import numpy as np
import pytest

from spq.dqa import AnnealSchedule, RegisterLayout, build_dqa, expectation_HQ, run_dqa
from spq.model import (
    DiscreteDistribution,
    UnitCommitmentModel,
    cost_bound,
    generate_instance,
    model_from_instance,
    second_stage_cost,
)
from spq.oracle import (OracleKind, build_oracle, qbar, sin_oracle_readback,
                        target_amplitude)
from spq.statevector import (
    StateVector,
    apply_sequence,
    marginal_probability,
    register_distribution,
    sequence_to_matrix,
)


def worked_model():
    return UnitCommitmentModel(n_y=2, c_x=0.4, c=(0.1, 0.2), c_r=1.0, d=2)


def layout_with_ancilla(n_y):
    return RegisterLayout(n_y, n_y, include_ancilla=True)


class TestQbar:
    def test_endpoints(self):
        model = worked_model()
        assert qbar(model, 1, 0.0) == 0.0
        assert qbar(model, 1, 1.0) == 1.0

    def test_worked_value(self):
        # x=1: q_u = 1, so qbar is the identity on [0, 1]
        assert qbar(worked_model(), 1, 0.35) == pytest.approx(0.35)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            qbar(worked_model(), 1, 1.5)


class TestExactOracle:
    def test_zero_cost_branch_leaves_ancilla_down(self):
        model = worked_model()
        lay = layout_with_ancilla(2)
        seq = build_oracle(OracleKind("exact", cost_bound(model, 2)), model)
        sv = StateVector.basis_state(5, (0b11 << 2) | 0b00)   # y=0, any wind
        apply_sequence(sv, seq)
        assert marginal_probability(sv, lay.ancilla, 1) < 1e-14

    def test_max_cost_branch_flips_ancilla(self):
        model = worked_model()
        lay = layout_with_ancilla(2)
        seq = build_oracle(OracleKind("exact", cost_bound(model, 1)), model)
        sv = StateVector.basis_state(5, (0b01 << 2) | 0b10)   # turbine 1 on, no wind there
        apply_sequence(sv, seq)
        assert marginal_probability(sv, lay.ancilla, 1) == pytest.approx(1.0, abs=1e-12)

    def test_intermediate_branch_probability_is_qbar(self):
        model = worked_model()
        lay = layout_with_ancilla(2)
        x = 0
        seq = build_oracle(OracleKind("exact", cost_bound(model, x)), model)
        y, xi = 0b11, 0b01
        sv = StateVector.basis_state(5, (xi << 2) | y)
        apply_sequence(sv, seq)
        q = second_stage_cost(model, x, y, xi)
        assert marginal_probability(sv, lay.ancilla, 1) == \
            pytest.approx(qbar(model, x, q), abs=1e-12)

    def test_unitary(self):
        model = worked_model()
        lay = layout_with_ancilla(2)
        seq = build_oracle(OracleKind("exact", cost_bound(model, 1)), model)
        u = sequence_to_matrix(seq, 5)
        assert np.abs(u.conj().T @ u - np.eye(32)).max() < 1e-10

    def test_appendix_identity_on_converged_state(self):
        inst = generate_instance(3, 21)
        model, dist = model_from_instance(inst)
        lay = layout_with_ancilla(3)
        x = 1
        seq = build_dqa(model, x, dist, AnnealSchedule.linear(30))
        sv = run_dqa(seq, RegisterLayout(3, 3))
        q_u = cost_bound(model, x)
        hq = expectation_HQ(sv, model)
        svx = sv.extended(1)
        apply_sequence(svx, build_oracle(OracleKind("exact", q_u), model))
        p1 = marginal_probability(svx, lay.ancilla, 1)
        assert abs(p1 - hq / q_u) < 1e-9


class TestSinOracle:
    def test_total_rotation_angle_is_additive(self):
        # on any basis state the ancilla rotation equals angle_scale * q
        model = worked_model()
        lay = layout_with_ancilla(2)
        x = 0
        kind = OracleKind("sin", cost_bound(model, x))
        seq = build_oracle(kind, model)
        for y in range(4):
            for xi in range(4):
                sv = StateVector.basis_state(5, (xi << 2) | y)
                apply_sequence(sv, seq)
                q = sum(((y >> j) & 1) * (model.c[j] * ((xi >> j) & 1)
                                          + model.c_r * (1 - ((xi >> j) & 1)))
                        for j in range(2))
                expected = math.sin(kind.angle_scale * q / 2) ** 2
                p1 = marginal_probability(sv, lay.ancilla, 1)
                assert abs(p1 - expected) < 1e-10

    def test_registers_untouched(self):
        inst = generate_instance(3, 31)
        model, dist = model_from_instance(inst)
        problem_lay = RegisterLayout(3, 3)
        sv = run_dqa(build_dqa(model, 1, dist, AnnealSchedule.linear(8)), problem_lay)
        before = register_distribution(sv, list(range(6)))
        for kind in (OracleKind("exact", cost_bound(model, 1)),
                     OracleKind("sin", cost_bound(model, 1))):
            svx = sv.extended(1)
            apply_sequence(svx, build_oracle(kind, model))
            after = register_distribution(svx, list(range(6)))
            assert np.abs(before - after).max() < 1e-12

    def test_default_scale_avoids_aliasing(self):
        kind = OracleKind("sin", 3.0)
        assert kind.angle_scale * kind.q_u == pytest.approx(math.pi)


class TestTargetAmplitude:
    """target_amplitude checks the probabilities it receives and raises
    instead of renormalising them."""

    COSTS = np.array([0.0, 0.5, 1.0, 2.0])
    PROBS = np.array([0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("variant", ["exact", "sin"])
    def test_distribution_is_used_as_given(self, variant):
        kind = OracleKind(variant, 2.0)
        if variant == "exact":
            per_state = self.COSTS / 2.0
        else:
            per_state = np.sin(kind.angle_scale * self.COSTS / 2) ** 2
        assert target_amplitude(kind, self.PROBS, self.COSTS) == \
            pytest.approx(float(self.PROBS @ per_state), abs=1e-15)

    @pytest.mark.parametrize("variant", ["exact", "sin"])
    @pytest.mark.parametrize("scale", [0.5, 1.0 + 1e-6, 1.0 - 1e-6])
    def test_scaled_probabilities_rejected(self, variant, scale):
        with pytest.raises(ValueError, match="sum to"):
            target_amplitude(OracleKind(variant, 2.0), scale * self.PROBS, self.COSTS)

    @pytest.mark.parametrize("variant", ["exact", "sin"])
    def test_negative_probability_rejected(self, variant):
        probs = np.array([-0.1, 0.4, 0.3, 0.4])   # sums to 1
        with pytest.raises(ValueError, match="negative"):
            target_amplitude(OracleKind(variant, 2.0), probs, self.COSTS)


class TestReadback:
    def test_zero_maps_to_zero(self):
        kind = OracleKind("sin", 2.0)
        assert sin_oracle_readback(0.0, kind) == 0.0

    def test_single_branch_inversion_is_exact(self):
        # point-mass scenario with a converged decision: no mixture
        model = worked_model()
        dist = DiscreteDistribution.point_mass(2, 0b01)
        x = 1
        lay = layout_with_ancilla(2)
        kind = OracleKind("sin", cost_bound(model, x))
        problem_lay = RegisterLayout(2, 2)
        sv = run_dqa(build_dqa(model, x, dist, AnnealSchedule.linear(300)), problem_lay)
        svx = sv.extended(1)
        apply_sequence(svx, build_oracle(kind, model))
        a = marginal_probability(svx, lay.ancilla, 1)
        q_recovered = sin_oracle_readback(a, kind)
        # wind at turbine 0 only -> optimal decision costs c_0 = 0.1; the
        # state is converged to ~1e-5 mass elsewhere at this depth
        assert q_recovered == pytest.approx(0.1, abs=1e-4)

    def test_two_point_mixture_bias_formula(self):
        scale = math.pi / 2.0
        q_u = 2.0
        kind = OracleKind("sin", q_u)
        a_mix = 0.5 * (math.sin(scale * 0.0 / 2) ** 2
                       + math.sin(scale * q_u / 2) ** 2)
        got_bias = sin_oracle_readback(a_mix, kind) - q_u / 2
        expected_bias = (2 / scale) * math.asin(
            math.sqrt(math.sin(scale * q_u / 2) ** 2 / 2)) - q_u / 2
        assert got_bias == pytest.approx(expected_bias, abs=1e-12)

    def test_out_of_range_rejected(self):
        kind = OracleKind("sin", 1.0)
        with pytest.raises(ValueError):
            sin_oracle_readback(1.5, kind)

    def test_exact_kind_rejected(self):
        with pytest.raises(ValueError, match="sin"):
            sin_oracle_readback(0.5, OracleKind("exact", 1.0))
