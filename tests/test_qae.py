"""Amplitude estimation tests: QFT correctness, Grover rotation structure,
the closed-form readout law against simulated phase estimation, and the
Monte Carlo baseline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spq.dqa import (
    AnnealSchedule,
    RegisterLayout,
    build_dqa,
    expectation_HQ,
    per_scenario_optimal_block,
    prepare_distribution,
    prepare_per_scenario_optimal,
    run_dqa,
    run_dqa_fast,
)
from spq import qae
from spq.harness import _qae_point
from spq.model import (
    DiscreteDistribution,
    GenericDiagonalProblem,
    cost_bound,
    cost_diagonal,
    generate_instance,
    model_from_instance,
)
from spq.oracle import OracleKind, build_oracle, target_amplitude
from spq.qae import (
    QaeConfig,
    ancilla_marginal,
    build_A,
    build_grover,
    build_inverse_qft,
    build_qft,
    check_budget,
    error_bound_check,
    mc_estimate_batch,
    qae_from_amplitude,
    qpe_state,
    qpe_state_gates,
    readout_distribution,
    run_qae,
    sample_readout,
)
from spq.statevector import (
    KIND_DENSE,
    KIND_DIAGONAL,
    KIND_REFLECTION,
    OperatorSequence,
    SimulationBudgetError,
    StateVector,
    apply_sequence,
    register_distribution,
    ry,
    sample_register,
    sequence_to_matrix,
)


def bernoulli_A(a):
    """Single-qubit preparation with Pr[1] = a; the system is the ancilla."""
    theta = 2 * math.asin(math.sqrt(a))
    return OperatorSequence((ry(0, theta),), "bernoulli")


BERNOULLI_LAYOUT = RegisterLayout(0, 0, include_ancilla=True)  # the ancilla alone


def uc_pipeline(n_y, x, T, oracle, seed=7):
    """Gate-level A = oracle after DQA on a generated instance, with the
    oracle kind and the system layout (y, xi, ancilla)."""
    model, dist = model_from_instance(generate_instance(n_y, seed))
    lay = RegisterLayout(n_y, n_y, include_ancilla=True)
    schedule = AnnealSchedule.linear(T)
    dqa = build_dqa(model, x, dist, schedule)
    kind = OracleKind(oracle, cost_bound(model, x))
    A = build_A(dqa, build_oracle(kind, model))
    return model, dist, schedule, kind, lay, A


def estimate_marginal(state, lay, m):
    n_sys = lay.num_system_qubits
    return register_distribution(state, list(range(n_sys, n_sys + m)))


class TestQft:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_matches_dft_matrix(self, m):
        M = 2 ** m
        got = sequence_to_matrix(build_qft(tuple(range(m))), m)
        w = np.exp(2j * np.pi * np.outer(np.arange(M), np.arange(M)) / M) / math.sqrt(M)
        assert np.abs(got - w).max() < 1e-12

    @pytest.mark.parametrize("m", [4, 7, 10])
    def test_inverse_composes_to_identity(self, m):
        rng = np.random.default_rng(m)
        amps = rng.standard_normal(2 ** m) + 1j * rng.standard_normal(2 ** m)
        amps /= np.linalg.norm(amps)
        sv = StateVector(m, amps.copy())
        apply_sequence(sv, build_qft(tuple(range(m))))
        apply_sequence(sv, build_inverse_qft(tuple(range(m))))
        assert np.abs(sv.amplitudes - amps).max() < 1e-10


class TestGrover:
    def test_unitary_on_random_states(self):
        inst = generate_instance(2, 3)
        model, dist = model_from_instance(inst)
        lay = RegisterLayout(2, 2, include_ancilla=True)
        dqa = build_dqa(model, 1, dist, AnnealSchedule.linear(3))
        oracle = build_oracle(OracleKind("exact", cost_bound(model, 1)), model)
        grover = build_grover(build_A(dqa, oracle), lay)
        u = sequence_to_matrix(grover, 5)
        assert np.abs(u.conj().T @ u - np.eye(32)).max() < 1e-9

    def test_rotation_by_two_theta_on_reachable_subspace(self):
        # eigenphases of Q restricted to span{A|0>, ...} are +-2 theta_a
        a = 0.3173
        theta = math.asin(math.sqrt(a))
        lay = BERNOULLI_LAYOUT
        grover = build_grover(bernoulli_A(a), lay)
        u = sequence_to_matrix(grover, 1)
        eigenphases = np.sort(np.angle(np.linalg.eigvals(u)))
        assert np.allclose(np.abs(eigenphases), 2 * theta, atol=1e-10)

    def test_degenerate_rotation_at_zero_amplitude(self):
        lay = BERNOULLI_LAYOUT
        grover = build_grover(bernoulli_A(0.0), lay)
        sv = StateVector(1)
        apply_sequence(sv, grover)
        assert abs(abs(sv.amplitudes[0]) - 1.0) < 1e-12   # identity up to sign

    def test_A_then_adjoint_is_identity(self):
        inst = generate_instance(2, 9)
        model, dist = model_from_instance(inst)
        dqa = build_dqa(model, 1, dist, AnnealSchedule.linear(4))
        oracle = build_oracle(OracleKind("sin", cost_bound(model, 1)), model)
        A = build_A(dqa, oracle)
        sv = StateVector(5)
        apply_sequence(sv, A)
        apply_sequence(sv, A, "adjoint")
        assert abs(sv.amplitudes[0] - 1.0) < 1e-9

    def test_reference_circuits_hold_no_dense_matrix_above_4x4(self):
        # preparations, the exact oracle and the generic cost layer are
        # diagonals or reflections, so no circuit grows with 4^n
        n_y, x = 8, 1
        model, _ = model_from_instance(generate_instance(n_y, 5))
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.5, 1.5, size=20)
        dist = DiscreteDistribution.from_pmf(n_y, dict(zip(
            rng.choice(2 ** n_y, size=20, replace=False).tolist(),
            (weights / weights.sum()).tolist())))
        lay = RegisterLayout(n_y, n_y, include_ancilla=True)
        dqa = build_dqa(model, x, dist, AnnealSchedule.linear(2))
        oracles = [build_oracle(OracleKind(v, cost_bound(model, x)), model)
                   for v in ("exact", "sin")]
        psi_star = prepare_per_scenario_optimal(model, x, dist)
        generic = GenericDiagonalProblem(5, 5, rng.uniform(0.0, 1.0, (32, 32)))
        As = [build_A(prep, o) for prep in (dqa, psi_star) for o in oracles]
        seqs = [dqa, *oracles, psi_star, prepare_distribution(dist),
                build_dqa(generic, None, DiscreteDistribution.uniform(5),
                          AnnealSchedule.linear(2)),
                *As, *(build_grover(A, lay) for A in As)]
        kinds = {g.kind for seq in seqs for g in seq}
        assert {KIND_DIAGONAL, KIND_REFLECTION, KIND_DENSE} <= kinds
        for seq in seqs:
            for g in seq:
                assert g.kind != KIND_DENSE or g.matrix.shape[0] <= 4

    def test_register_mismatch_rejected(self):
        bad = OperatorSequence((ry(3, 0.2),))
        with pytest.raises(ValueError, match="mismatch|outside"):
            build_grover(bad, BERNOULLI_LAYOUT)


class TestQpeReadout:
    def test_fast_path_matches_gate_path(self):
        inst = generate_instance(2, 7)
        model, dist = model_from_instance(inst)
        lay = RegisterLayout(2, 2, include_ancilla=True)
        dqa = build_dqa(model, 1, dist, AnnealSchedule.linear(4))
        oracle = build_oracle(OracleKind("exact", cost_bound(model, 1)), model)
        A = build_A(dqa, oracle)
        cfg = QaeConfig(m=3)
        fast = qpe_state(A, cfg, lay)
        gates = qpe_state_gates(A, cfg, lay)
        assert np.abs(fast.amplitudes - gates.amplitudes).max() < 1e-9

    @pytest.mark.parametrize("k0", [0, 1, 5, 8])
    def test_on_grid_amplitude_reads_deterministically(self, k0):
        m = 4
        M = 2 ** m
        a = math.sin(math.pi * k0 / M) ** 2
        res = run_qae(bernoulli_A(a), QaeConfig(m=m, repetitions=50, rng_seed=3),
                      BERNOULLI_LAYOUT)
        assert res.b.shape == res.a_hat.shape == (50,)
        assert set(res.b.tolist()) <= {k0, (M - k0) % M}
        assert np.all(np.abs(res.a_hat - a) < 1e-12)
        assert np.all(error_bound_check(res.a_hat, a, M))

    def test_zero_amplitude_always_reads_zero(self):
        res = run_qae(bernoulli_A(0.0), QaeConfig(m=5, repetitions=30, rng_seed=1),
                      BERNOULLI_LAYOUT)
        assert res.b.shape == (30,)
        assert np.all(res.b == 0) and np.all(res.a_hat == 0.0)

    def test_estimates_live_on_sin_squared_grid(self):
        m = 4
        res = run_qae(bernoulli_A(0.2713), QaeConfig(m=m, repetitions=200, rng_seed=5),
                      BERNOULLI_LAYOUT)
        grid = {round(math.sin(math.pi * b / 2 ** m) ** 2, 12) for b in range(2 ** m)}
        assert res.a_hat.shape == (200,)
        assert {round(v, 12) for v in res.a_hat.tolist()} <= grid

    def test_reflection_symmetry_of_readout(self):
        m = 4
        for b in range(2 ** m):
            a1 = math.sin(math.pi * b / 2 ** m) ** 2
            a2 = math.sin(math.pi * ((2 ** m - b) % 2 ** m) / 2 ** m) ** 2
            assert a1 == pytest.approx(a2, abs=1e-15)

    def test_off_grid_pass_rate_exceeds_canonical_bound(self):
        m, a = 5, 0.2137
        res = run_qae(bernoulli_A(a), QaeConfig(m=m, repetitions=5000, rng_seed=11),
                      BERNOULLI_LAYOUT)
        within = error_bound_check(res.a_hat, a, 2 ** m)
        assert within.shape == (5000,)
        rate = np.mean(within)
        sigma = math.sqrt(0.81 * 0.19 / 5000)
        assert rate >= 8 / math.pi ** 2 - 3 * sigma

    def test_estimates_on_the_whole_grid(self, monkeypatch):
        # every readout b for m = 1..12, fed through the array readout, is
        # the scalar sin^2(pi b / M) to 1e-15
        for m in range(1, 13):
            M = 2 ** m
            monkeypatch.setattr(qae, "sample_readout",
                                lambda a, config, n_system_qubits: np.arange(M))
            res = qae_from_amplitude(0.3, QaeConfig(m=m), 1)
            assert res.b.tolist() == list(range(M))
            for b, a_hat in zip(range(M), res.a_hat.tolist()):
                assert abs(a_hat - math.sin(math.pi * b / M) ** 2) <= 1e-15

    def test_budget_guard(self):
        lay = RegisterLayout(7, 7, include_ancilla=True)
        with pytest.raises(SimulationBudgetError):
            qpe_state(OperatorSequence(()), QaeConfig(m=12), lay)

    def test_end_to_end_identity_with_uc_pipeline(self):
        # full build on the worked instance: the QPE target amplitude is
        # <H_Q> / q_u including residual temperature
        inst = generate_instance(2, 17)
        model, dist = model_from_instance(inst)
        x, m = 1, 6
        lay = RegisterLayout(2, 2, include_ancilla=True)
        problem_lay = RegisterLayout(2, 2)
        dqa = build_dqa(model, x, dist, AnnealSchedule.linear(6))
        q_u = cost_bound(model, x)
        oracle = build_oracle(OracleKind("exact", q_u), model)
        A = build_A(dqa, oracle)
        sv = run_dqa(dqa, problem_lay)
        a_true = expectation_HQ(sv, model) / q_u
        res = run_qae(A, QaeConfig(m=m, repetitions=400, rng_seed=2), lay)
        within = error_bound_check(res.a_hat, a_true, 2 ** m)
        assert within.shape == (400,)
        rate = np.mean(within)
        assert rate >= 8 / math.pi ** 2 - 3 * math.sqrt(0.81 * 0.19 / 400)


class TestReadoutLaw:
    """readout_distribution against the simulated phase-estimation
    circuits, and its properties as a distribution."""

    @pytest.mark.parametrize("oracle", ["exact", "sin"])
    @pytest.mark.parametrize("n_y", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_matches_qpe_state_marginal(self, n_y, m, oracle):
        _, _, _, _, lay, A = uc_pipeline(n_y, 1, 3, oracle)
        sim = estimate_marginal(qpe_state(A, QaeConfig(m=m), lay), lay, m)
        law = readout_distribution(ancilla_marginal(A, lay), m)
        assert np.abs(law - sim).max() <= 1e-12

    @pytest.mark.parametrize("oracle", ["exact", "sin"])
    @pytest.mark.parametrize("n_y, m", [(2, 6), (3, 4), (4, 2)])
    def test_matches_gate_level_qpe_marginal(self, n_y, m, oracle):
        _, _, _, _, lay, A = uc_pipeline(n_y, 1, 2, oracle)
        sim = estimate_marginal(qpe_state_gates(A, QaeConfig(m=m), lay), lay, m)
        law = readout_distribution(ancilla_marginal(A, lay), m)
        assert np.abs(law - sim).max() <= 1e-12

    @pytest.mark.parametrize("oracle", ["exact", "sin"])
    @pytest.mark.parametrize("n_y, x, T", [(2, 1, 3), (3, 0, 5), (4, 2, 4), (5, 1, 3),
                                           (7, 2, 4)])
    def test_fast_evolver_amplitude_matches_gate_level_marginal(self, n_y, x, T,
                                                                 oracle):
        model, dist, schedule, kind, lay, A = uc_pipeline(n_y, x, T, oracle)
        probs = run_dqa_fast(model, x, dist, schedule).probabilities()
        a = target_amplitude(kind, probs, cost_diagonal(model))
        assert abs(a - ancilla_marginal(A, lay)) <= 1e-12

    @pytest.mark.parametrize("n_y", [2, 3, 4, 5, 6, 7, 8])
    def test_converged_amplitude_matches_gate_level_marginal(self, n_y):
        # fig4's a, taken as fig4 takes it from the psi* block, against
        # A = exact oracle after the Householder preparation of psi*
        model, dist = model_from_instance(generate_instance(n_y, 11))
        lay = RegisterLayout(n_y, n_y, include_ancilla=True)
        for x in range(model.d + 1):
            kind = OracleKind("exact", cost_bound(model, x))
            A = build_A(prepare_per_scenario_optimal(model, x, dist),
                        build_oracle(kind, model))
            _, a = _qae_point(model, per_scenario_optimal_block(model, x, dist), "exact")
            assert abs(a - ancilla_marginal(A, lay)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.0, 1.0), m=st.integers(1, 10))
    def test_is_a_symmetric_distribution(self, a, m):
        law = readout_distribution(a, m)
        M = 2 ** m
        assert law.shape == (M,)
        assert law.min() >= 0.0
        assert abs(law.sum() - 1.0) <= 1e-12
        assert np.abs(law - law[-np.arange(M) % M]).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 10), data=st.data())
    def test_on_grid_amplitude_puts_all_mass_on_its_pair(self, m, data):
        M = 2 ** m
        k = data.draw(st.integers(0, M // 2))
        law = readout_distribution(math.sin(math.pi * k / M) ** 2, m)
        assert law[sorted({k, (M - k) % M})].sum() >= 1.0 - 1e-12

    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    def test_zero_and_one_are_exact(self, m):
        M = 2 ** m
        zero, one = np.zeros(M), np.zeros(M)
        zero[0] = 1.0
        one[M // 2] = 1.0
        assert np.array_equal(readout_distribution(0.0, m), zero)
        assert np.array_equal(readout_distribution(1.0, m), one)

    @pytest.mark.parametrize("a, m", [(-0.01, 3), (1.01, 3), (math.nan, 3), (0.3, 0)])
    def test_invalid_input_rejected(self, a, m):
        with pytest.raises(ValueError):
            readout_distribution(a, m)

    @pytest.mark.parametrize("oracle", ["exact", "sin"])
    def test_run_qae_draws_the_simulated_register_samples(self, oracle):
        _, _, _, kind, lay, A = uc_pipeline(3, 1, 4, oracle)
        m = 5
        cfg = QaeConfig(m=m, repetitions=2000, rng_seed=13)
        n_sys = lay.num_system_qubits
        simulated = sample_register(qpe_state(A, cfg, lay),
                                    list(range(n_sys, n_sys + m)), cfg.repetitions,
                                    np.random.default_rng(cfg.rng_seed))
        drawn = run_qae(A, cfg, lay).b
        assert drawn.tolist() == simulated.tolist()

    def test_budget_guard_without_simulation(self):
        n_sys = RegisterLayout(7, 7, include_ancilla=True).num_system_qubits
        with pytest.raises(SimulationBudgetError):
            sample_readout(0.3, QaeConfig(m=12), n_sys)
        with pytest.raises(SimulationBudgetError):
            qae_from_amplitude(0.3, QaeConfig(m=12), n_sys)
        assert sample_readout(0.3, QaeConfig(m=9), n_sys).shape == (1,)

    def test_budget_boundary_is_24_qubits(self):
        check_budget(12, 12)
        assert sample_readout(0.3, QaeConfig(m=12), 12).shape == (1,)
        for n_sys, m in ((13, 12), (24, 1)):
            with pytest.raises(SimulationBudgetError, match="25 qubits"):
                check_budget(n_sys, m)
            with pytest.raises(SimulationBudgetError):
                sample_readout(0.3, QaeConfig(m=m), n_sys)


class TestConfig:
    def test_m_range_enforced(self):
        with pytest.raises(ValueError):
            QaeConfig(m=0)
        with pytest.raises(ValueError):
            QaeConfig(m=13)

    def test_a_application_count(self):
        assert QaeConfig(m=3).a_applications == 15
        assert QaeConfig(m=8).a_applications == 511

    def test_bound_width_value(self):
        # pi/32 + pi^2/1024 at m=5 (0.1078 to four decimals)
        assert math.pi / 32 + math.pi ** 2 / 1024 == pytest.approx(0.1078131, abs=1e-7)

    def test_error_bound_check(self):
        assert error_bound_check(0.5, 0.5, 32)
        assert error_bound_check(0.5, 0.5 + 0.107, 32)
        assert not error_bound_check(0.5, 0.72, 32)

    def test_error_bound_check_is_elementwise(self):
        a_hat = np.array([0.5, 0.5 + 0.107, 0.72, 0.5 - 0.109])
        within = error_bound_check(a_hat, 0.5, 32)
        assert within.tolist() == [error_bound_check(float(v), 0.5, 32)
                                   for v in a_hat]
        assert within.tolist() == [True, True, False, False]


class TestMonteCarlo:
    def test_certain_amplitude(self):
        lay = BERNOULLI_LAYOUT
        rng = np.random.default_rng(0)
        assert mc_estimate_batch(bernoulli_A(1.0), 100, lay, rng, 1)[0] == 1.0

    def test_binomial_spread(self):
        lay = BERNOULLI_LAYOUT
        rng = np.random.default_rng(4)
        est = mc_estimate_batch(bernoulli_A(0.5), 100_000, lay, rng, 1)[0]
        assert abs(est - 0.5) < 0.01

    def test_batch_matches_binomial_std(self):
        lay = BERNOULLI_LAYOUT
        a, shots = 0.3, 256
        rng = np.random.default_rng(8)
        batch = mc_estimate_batch(bernoulli_A(a), shots, lay, rng, 20_000)
        expected_std = math.sqrt(a * (1 - a) / shots)
        assert batch.std() == pytest.approx(expected_std, rel=0.05)
        assert batch.mean() == pytest.approx(a, abs=4 * expected_std / math.sqrt(20_000))
