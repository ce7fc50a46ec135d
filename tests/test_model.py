"""Classical model and brute-force solver tests.

The n_y=2 worked instance (d=2, c_x=0.4, c=[0.1, 0.2], c_r=1, uniform
wind) is enumerated by hand here and reused as a regression anchor.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from spq.model import (
    ConfigError,
    DiscreteDistribution,
    GenericDiagonalProblem,
    InfeasibleDecisionError,
    UnitCommitmentModel,
    cost_bound,
    brute_force_Q,
    cost_diagonal,
    expected_value_exact,
    feasible_decisions,
    generate_instance,
    load_instance,
    model_from_instance,
    objective_exact,
    save_instance,
    scenario_optima,
    second_stage_cost,
)
from spq.statevector import SimulationBudgetError


def worked_model():
    return UnitCommitmentModel(n_y=2, c_x=0.4, c=(0.1, 0.2), c_r=1.0, d=2)


def reference_cost(model, y, xi):
    """Independent evaluation of sum_j [c_j y_j xi_j - c_r y_j (xi_j - 1)]."""
    total = 0.0
    for j in range(model.n_y):
        yj = (y >> j) & 1
        xij = (xi >> j) & 1
        total += model.c[j] * yj * xij - model.c_r * yj * (xij - 1)
    return total


class TestSecondStageCost:
    def test_worked_example_turbine0_on_full_wind(self):
        # y has turbine 0 on, both winds blowing -> pay c_0 only
        assert second_stage_cost(worked_model(), x=1, y=0b01, xi=0b11) == pytest.approx(0.1)

    def test_all_zeros_decision_costs_nothing(self):
        model = worked_model()
        for xi in range(4):
            assert second_stage_cost(model, x=2, y=0, xi=xi) == 0.0

    def test_turbine_on_without_wind_pays_recourse(self):
        # turbine 1 on, no wind anywhere
        assert second_stage_cost(worked_model(), x=1, y=0b10, xi=0b00) == pytest.approx(1.0)

    def test_matches_reference_sum_exhaustively(self):
        model = UnitCommitmentModel(3, 0.4, (0.05, 0.1, 0.15), 1.0, 3)
        for x in range(4):
            for y in feasible_decisions(3, 3 - x):
                for xi in range(8):
                    assert second_stage_cost(model, x, int(y), xi) == \
                        pytest.approx(reference_cost(model, int(y), xi), abs=1e-12)

    def test_infeasible_weight_reported_distinctly(self):
        with pytest.raises(InfeasibleDecisionError):
            second_stage_cost(worked_model(), x=1, y=0b11, xi=0b00)


class TestBruteForce:
    def test_x_equals_d_unique_point(self):
        y_star, q_star = brute_force_Q(worked_model(), x=2, xi=0b10)
        assert (y_star, q_star) == (0, 0.0)

    def test_full_wind_selects_cheapest_turbines(self):
        model = UnitCommitmentModel(4, 0.5, (0.2, 0.05, 0.3, 0.1), 1.0, 4)
        y_star, q_star = brute_force_Q(model, x=2, xi=0b1111)
        assert y_star == 0b1010          # turbines 1 and 3, the two cheapest
        assert q_star == pytest.approx(0.15)

    def test_wind_at_turbine0_only(self):
        # scenario with wind at turbine 0 only: use turbine 0, pay c_0
        y_star, q_star = brute_force_Q(worked_model(), x=1, xi=0b01)
        assert y_star == 0b01
        assert q_star == pytest.approx(0.1)

    def test_tie_break_lowest_bitmask(self):
        model = UnitCommitmentModel(2, 0.5, (0.1, 0.1), 1.0, 2)
        y_star, _ = brute_force_Q(model, x=1, xi=0b11)   # both turbines equal
        assert y_star == 0b01

    def test_no_feasible_decision(self):
        with pytest.raises(InfeasibleDecisionError):
            brute_force_Q(worked_model(), x=3, xi=0)

    def test_matches_nested_loop_enumeration(self):
        model = UnitCommitmentModel(3, 0.4, (0.12, 0.04, 0.18), 1.0, 3)
        for x in range(4):
            for xi in range(8):
                got_y, got_q = brute_force_Q(model, x, xi)
                best = min((reference_cost(model, int(y), xi), int(y))
                           for y in feasible_decisions(3, 3 - x))
                assert got_q == pytest.approx(best[0], abs=1e-12)
                assert got_y == best[1]


def sort_optima(model, x, xis):
    """Per-scenario (y*, q*) by a stable sort, independent of the cost
    kernel: a turbine weighs c_j where the wind blows and c_r where it does
    not, and y* takes the d - x lightest, the lowest index first among
    equal weights, which makes y* the lowest bitmask among the optima.
    q* adds the wind terms of y* in turbine order, then c_r per turbine
    without wind, as ``second_stage_cost`` does."""
    bits = (xis[:, None] >> np.arange(model.n_y)) & 1
    weights = np.where(bits == 1, np.array(model.c), model.c_r)
    chosen = np.argsort(weights, axis=1, kind="stable")[:, :model.d - x]
    in_y = np.zeros(bits.shape, dtype=bool)
    np.put_along_axis(in_y, chosen, True, axis=1)
    y_star = (in_y * (1 << np.arange(model.n_y))).sum(axis=1)
    wind = np.zeros(xis.size)
    for j in range(model.n_y):
        wind += np.where(in_y[:, j] & (bits[:, j] == 1), model.c[j], 0.0)
    no_wind = (in_y & (bits == 0)).sum(axis=1)
    return y_star, wind + model.c_r * no_wind


class TestTieRule:
    """Ties go to the lowest y bitmask at every matrix shape: one scenario
    or all of them, any n_y."""

    @pytest.mark.parametrize("n_y", range(1, 13))
    def test_scenario_optima_match_a_stable_sort(self, n_y):
        for seed in (0, 1):
            model, dist = model_from_instance(generate_instance(n_y, seed))
            for costs in (model, dataclasses.replace(model, c=(0.1,) * n_y)):
                for x in range(costs.d + 1):
                    y_star, q_star = scenario_optima(costs, x, dist)
                    want_y, want_q = sort_optima(costs, x, dist.scenarios)
                    assert np.array_equal(y_star, want_y)
                    assert np.array_equal(q_star, want_q)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_scenario_equals_its_row_of_all(self, seed):
        model, dist = model_from_instance(generate_instance(10, seed))
        for x in range(model.d + 1):
            y_stars, q_stars = scenario_optima(model, x, dist)
            for xi, y_star, q_star in zip(dist.scenarios.tolist(), y_stars.tolist(),
                                          q_stars.tolist()):
                assert brute_force_Q(model, x, xi) == (y_star, q_star)


class TestExpectedValue:
    def test_worked_instance_phi_one(self):
        # scenarios 00,01,10,11 give minima 1.0, 0.1, 0.2, 0.1 -> mean 0.35
        model = worked_model()
        dist = DiscreteDistribution.uniform(2)
        assert expected_value_exact(model, 1, dist) == pytest.approx(0.35)

    def test_x_equals_d_gives_zero(self):
        assert expected_value_exact(worked_model(), 2,
                                    DiscreteDistribution.uniform(2)) == 0.0

    def test_point_mass_reduces_to_brute_force(self):
        model = worked_model()
        for xi in range(4):
            dist = DiscreteDistribution.point_mass(2, xi)
            _, q_star = brute_force_Q(model, 1, xi)
            assert expected_value_exact(model, 1, dist) == pytest.approx(q_star)

    def test_objective_worked_values(self):
        model = worked_model()
        dist = DiscreteDistribution.uniform(2)
        assert objective_exact(model, 2, dist) == pytest.approx(0.8)
        assert objective_exact(model, 1, dist) == pytest.approx(0.75)

    def test_argmin_matches_exhaustive_scan(self):
        inst = generate_instance(4, seed=11)
        model, dist = model_from_instance(inst)
        objs = [objective_exact(model, x, dist) for x in range(model.d + 1)]
        xs = int(np.argmin(objs))
        for x in range(model.d + 1):
            assert objs[xs] <= objs[x] + 1e-15

    def test_uniform_expectation_is_mean_of_minima(self):
        model = worked_model()
        dist = DiscreteDistribution.uniform(2)
        _, q_stars = scenario_optima(model, 1, dist)
        assert expected_value_exact(model, 1, dist) == pytest.approx(q_stars.mean())


class TestBoundsAndDiagonal:
    def test_bounds_hold_exhaustively(self):
        for n_y in (2, 4, 6, 8):
            inst = generate_instance(n_y, seed=n_y)
            model, _ = model_from_instance(inst)
            for x in range(model.d + 1):
                q_u = cost_bound(model, x)
                ys = feasible_decisions(n_y, model.d - x)
                # spot-check all scenarios for small n, a sample for n=8
                xis = range(2 ** n_y) if n_y <= 4 else range(0, 2 ** n_y, 37)
                for xi in xis:
                    for y in ys[:64]:
                        q = second_stage_cost(model, x, int(y), xi)
                        assert -1e-12 <= q <= q_u + 1e-12

    def test_bounds_formula(self):
        model = worked_model()
        assert cost_bound(model, 0) == pytest.approx(2.0)
        assert cost_bound(model, 1) == pytest.approx(1.0)

    def test_more_wind_never_costs_more(self):
        model = UnitCommitmentModel(3, 0.4, (0.02, 0.1, 0.19), 1.0, 3)
        diag = cost_diagonal(model).reshape(8, 8)   # [xi, y]
        for xi in range(8):
            for j in range(3):
                if not (xi >> j) & 1:
                    more_wind = xi | (1 << j)
                    assert np.all(diag[more_wind] <= diag[xi] + 1e-12)

    def test_diagonal_matches_second_stage_cost(self):
        model = worked_model()
        # basis index for y=0b01 (turbine 0 on), xi=0b11: xi<<2 | y
        idx = (0b11 << 2) | 0b01
        assert cost_diagonal(model)[idx] == pytest.approx(0.1)

    @pytest.mark.parametrize("n_y", [1, 2, 3, 4])
    def test_diagonal_equals_second_stage_cost_exactly(self, n_y):
        model, _ = model_from_instance(generate_instance(n_y, seed=10 + n_y))
        diag = cost_diagonal(model)
        for idx in range(4 ** n_y):
            y, xi = idx & (2 ** n_y - 1), idx >> n_y
            x = model.d - bin(y).count("1")
            assert diag[idx] == second_stage_cost(model, x, y, xi)

    def test_diagonal_defined_for_infeasible_y(self):
        model = worked_model()
        idx = (0b00 << 2) | 0b11     # both turbines on, no wind
        assert cost_diagonal(model)[idx] == pytest.approx(2.0)

    def test_zz_problem_diagonal(self):
        # cost +1 on aligned (y, xi), -1 on anti-aligned: the Z(x)Z(xi) table
        cost = np.array([[1.0, -1.0], [-1.0, 1.0]])
        problem = GenericDiagonalProblem(n_y=1, n_xi=1, cost=cost)
        assert list(cost_diagonal(problem)) == [1.0, -1.0, -1.0, 1.0]


class TestDistribution:
    def test_uniform_probabilities(self):
        dist = DiscreteDistribution.uniform(3)
        assert np.array_equal(dist.scenarios, np.arange(8))
        assert np.allclose(dist.probabilities, 1 / 8)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteDistribution(1, [0, 1], [0.5, 0.6])

    def test_duplicate_scenarios_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DiscreteDistribution(1, [0, 0], [0.5, 0.5])

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteDistribution(1, [0, 1], [1.5, -0.5])

    def test_nan_probability_rejected(self):
        nan = float("nan")
        for probabilities in ([nan, 1.0], [0.5, nan], [nan, nan]):
            with pytest.raises(ValueError, match="NaN"):
                DiscreteDistribution(1, [0, 1], probabilities)
        with pytest.raises(ValueError, match="sum"):
            DiscreteDistribution(1, [0], [float("inf")])

    def test_uniform_law_over_the_cap_refused_before_allocating(self):
        with pytest.raises(SimulationBudgetError, match="48 scenario qubits"):
            DiscreteDistribution.uniform(48)
        with pytest.raises(SimulationBudgetError, match="48 scenario qubits"):
            model_from_instance(generate_instance(48, 1))

    def test_scenario_must_fit_the_register(self):
        with pytest.raises(ValueError, match="does not fit in 1 bits"):
            DiscreteDistribution(1, [0, 2], [0.5, 0.5])

    @pytest.mark.parametrize("field, value", [("c_r", float("inf")), ("c_x", float("nan")),
                                              ("c", [0.1, float("-inf")])])
    def test_non_finite_instance_value_rejected(self, field, value):
        inst = {"n_y": 2, "c_x": 0.4, "c": [0.1, 0.2], "c_r": 1.0, "d": 2, field: value}
        with pytest.raises(ConfigError, match=f"{field}: expected a finite number"):
            model_from_instance(inst)

    @pytest.mark.parametrize("name", ["scenarios", "probabilities"])
    def test_arrays_are_built_once(self, name):
        dist = DiscreteDistribution.from_pmf(2, {1: 0.25, 3: 0.75})
        assert getattr(dist, name) is getattr(dist, name)

    @pytest.mark.parametrize("name", ["scenarios", "probabilities"])
    def test_arrays_are_read_only(self, name):
        array = getattr(DiscreteDistribution.uniform(2), name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0

    def test_equality_and_hash_are_by_value(self):
        a, b = DiscreteDistribution.uniform(3), DiscreteDistribution.uniform(3)
        assert a == b and hash(a) == hash(b)
        assert a != DiscreteDistribution.point_mass(3, 0)
        assert a != DiscreteDistribution.uniform(2)

    def test_pickle_round_trip(self):
        dist = DiscreteDistribution.from_pmf(2, {0: 0.5, 2: 0.5})
        back = pickle.loads(pickle.dumps(dist))
        assert back == dist and hash(back) == hash(dist)
        assert np.array_equal(back.scenarios, [0, 2])
        assert np.array_equal(back.probabilities, [0.5, 0.5])
        assert not back.scenarios.flags.writeable
        assert not back.probabilities.flags.writeable


class TestModelValidation:
    def test_turbine_cost_must_undercut_gas(self):
        with pytest.raises(ValueError, match="c_x"):
            UnitCommitmentModel(1, 0.4, (0.5,), 1.0, 1)

    def test_recourse_must_exceed_gas(self):
        with pytest.raises(ValueError, match="c_r"):
            UnitCommitmentModel(1, 0.4, (0.1,), 0.3, 1)


class TestInstanceFiles:
    def test_generation_is_seeded(self):
        a = generate_instance(5, seed=3)
        b = generate_instance(5, seed=3)
        c = generate_instance(5, seed=4)
        assert a == b
        assert a != c
        assert all(0.01 <= cj <= 0.2 for cj in a["c"])
        assert a["d"] == 5 and a["seed"] == 3

    def test_round_trip(self, tmp_path):
        inst = generate_instance(3, seed=9)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert load_instance(path) == inst
        model, dist = model_from_instance(inst)
        assert model.n_y == 3 and dist.is_uniform

    def test_explicit_distribution(self):
        inst = {"n_y": 2, "c_x": 0.4, "c": [0.1, 0.2], "c_r": 1.0, "d": 2,
                "distribution": {"type": "explicit",
                                 "entries": [{"scenario": 0, "p": 0.5},
                                             {"scenario": 3, "p": 0.5}]},
                "seed": 0}
        _, dist = model_from_instance(inst)
        assert dist == DiscreteDistribution(2, [0, 3], [0.5, 0.5])

    def test_explicit_distribution_binary_strings(self):
        inst = {"n_y": 2, "c_x": 0.4, "c": [0.1, 0.2], "c_r": 1.0, "d": 2,
                "distribution": {"type": "explicit",
                                 "entries": [{"scenario": "10", "p": 0.25},
                                             {"scenario": "01", "p": 0.75}]},
                "seed": 0}
        _, dist = model_from_instance(inst)
        # "10" = wind at turbine 1
        assert dist == DiscreteDistribution(2, [2, 1], [0.25, 0.75])
