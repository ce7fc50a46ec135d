"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, printing a PASS line with the measured margin.

The experiment-backed criteria (4-7) run the shipped default
configurations; they take a few minutes combined at the sizes involved
(the annealing sweep reaches 2^20 amplitudes).
"""

import math
from pathlib import Path

import numpy as np
import pytest

from spq.dqa import (
    AnnealSchedule,
    RegisterLayout,
    build_dqa,
    expectation_HQ,
    per_scenario_optimal_block,
    residual_diagnostics,
    run_dqa,
    run_dqa_fast,
)
from spq.harness import (
    ExperimentSpec,
    derive_seed,
    experiment_fig3,
    experiment_fig4,
    experiment_fig5,
)
from spq.model import (
    DiscreteDistribution,
    GenericDiagonalProblem,
    UnitCommitmentModel,
    cost_bound,
    expected_value_exact,
    generate_instance,
    model_from_instance,
    objective_exact,
)
from spq.oracle import OracleKind, build_oracle, target_amplitude
from spq.qae import (
    build_A,
    build_grover,
    build_inverse_qft,
    build_qft,
    readout_distribution,
)
from spq.statevector import (
    StateVector,
    apply_sequence,
    fidelity,
    marginal_probability,
    sequence_to_matrix,
)
from tests.test_statevector import random_sequence, random_state

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def dqa_state_batch():
    """>= 50 random (instance, x, T) DQA states at n_y <= 4, with the
    book-keeping needed by criteria 1 and 2."""
    rng = np.random.default_rng(2024)
    batch = []
    while len(batch) < 50:
        n_y = int(rng.integers(2, 5))
        inst = generate_instance(n_y, int(rng.integers(0, 10_000)))
        model, dist = model_from_instance(inst)
        x = int(rng.integers(0, model.d + 1))
        T = int(rng.integers(0, 21))
        state = run_dqa_fast(model, x, dist, AnnealSchedule.linear(T))
        batch.append((model, dist, x, state))
    return batch


@pytest.fixture(scope="module")
def fig4_results(tmp_path_factory):
    spec = ExperimentSpec.from_json(CONFIG_DIR / "fig4.json")
    return experiment_fig4(spec, tmp_path_factory.mktemp("fig4"))


def test_criterion_1_appendix_b_identity(dqa_state_batch):
    worst = 0.0
    for model, dist, x, state in dqa_state_batch:
        q_u = cost_bound(model, x)
        layout = RegisterLayout(model.n_y, dist.n_xi, include_ancilla=True)
        oracle = build_oracle(OracleKind("exact", q_u), model)
        extended = state.extended(1)
        apply_sequence(extended, oracle)
        p1 = marginal_probability(extended, layout.ancilla, 1)
        a_bar = expectation_HQ(state, model) / q_u
        worst = max(worst, abs(p1 - a_bar))
        assert 0.0 - 1e-12 <= p1 <= 1.0 + 1e-12
    assert worst <= 1e-9
    print(f"\nACCEPTANCE 1 PASS: Appendix B identity, max deviation {worst:.2e} <= 1e-9")


def test_criterion_2_variational_bound_and_decomposition(dqa_state_batch):
    worst_delta = 0.0
    worst_mismatch = 0.0
    for model, dist, x, state in dqa_state_batch:
        diag = residual_diagnostics(state, model, x, dist)
        assert diag.delta >= -1e-9
        worst_delta = min(worst_delta, diag.delta)
        mismatch = abs(diag.delta_decomposed - diag.delta)
        worst_mismatch = max(worst_mismatch, mismatch)
    assert worst_mismatch <= 1e-9
    print(f"\nACCEPTANCE 2 PASS: delta >= {worst_delta:.2e} (>= -1e-9), "
          f"decomposition mismatch {worst_mismatch:.2e} <= 1e-9")


def test_criterion_3_zz_example():
    cost = np.array([[1.0, -1.0], [-1.0, 1.0]])   # Z x Z diagonal over (y, xi)
    problem = GenericDiagonalProblem(n_y=1, n_xi=1, cost=cost)
    dist = DiscreteDistribution.uniform(1)
    layout = RegisterLayout(1, 1)
    seq = build_dqa(problem, None, dist, AnnealSchedule.linear(20))
    state = run_dqa(seq, layout)
    target = np.zeros(4, dtype=complex)
    target[0b01] = target[0b10] = 1 / math.sqrt(2)
    f = fidelity(state, StateVector(2, target))
    assert f >= 0.99
    print(f"\nACCEPTANCE 3 PASS: ZZ coupled-register fidelity {f:.6f} >= 0.99 at T=20")


def test_criterion_4_annealing_time_trend(tmp_path):
    spec = ExperimentSpec.from_json(CONFIG_DIR / "fig3.json")
    out = experiment_fig3(spec, tmp_path, workers=2)
    med = {(s["n_y"], s["t_rule"], s["metric"]): s["median"] for s in out["summary"]}
    lines = []
    for n_y in spec.n_y_values:
        lin = med[(n_y, "linear", "rel_error_sum")]
        quad = med[(n_y, "quadratic", "rel_error_sum")]
        min_quad = med[(n_y, "quadratic", "minima_rel_error")]
        assert quad < lin, f"quadratic rule not below linear at n_y={n_y}"
        assert min_quad <= 0.05, f"minima error {min_quad} > 0.05 at n_y={n_y}"
        lines.append(f"n_y={n_y}: lin={lin:.3f} quad={quad:.3f} minima={min_quad:.4f}")
    print("\nACCEPTANCE 4 PASS: " + "; ".join(lines))


def test_criterion_5_qae_error_bound(fig4_results):
    row = next(s for s in fig4_results["summary"]
               if s["m"] == 8 and s["method"] == "qae")
    assert row["within_bound_rate"] >= 0.78
    print(f"\nACCEPTANCE 5 PASS: Pr[|a_hat - a| <= pi/256 + pi^2/65536] = "
          f"{row['within_bound_rate']:.4f} >= 0.78 over 10,000 samples")


def test_criterion_6_qae_beats_monte_carlo(fig4_results):
    summary = {(s["m"], s["method"]): s["rmse"] for s in fig4_results["summary"]}
    lines = []
    for m in (6, 7, 8):
        q, c = summary[(m, "qae")], summary[(m, "mc")]
        assert q < c, f"QAE RMSE {q} not below MC {c} at m={m}"
        lines.append(f"m={m}: qae={q:.5f} < mc={c:.5f}")
    for m in (5, 6, 7, 8):
        grid = {round(math.sin(math.pi * b / 2 ** m) ** 2, 12)
                for b in range(2 ** m)}
        got = {round(e["a_hat"], 12) for e in fig4_results["estimates"]
               if e["method"] == "qae" and e["m"] == m}
        assert got <= grid, f"off-grid estimate at m={m}"
    print("\nACCEPTANCE 6 PASS: " + "; ".join(lines) + "; support exactly on grid")


def test_fig4_batches_follow_their_exact_laws(fig4_results):
    # Each (m, method) batch is n i.i.d. draws from a closed-form law: the
    # QAE readout law of a (Brassard et al., Thm 11) pushed through
    # sin^2(pi b / M), and Binomial(2^(m+1), a) / 2^(m+1) for Monte Carlo.
    # By the DKW inequality with Massart's constant, the empirical CDF of
    # a correct batch leaves the band of half-width
    # sqrt(ln(2 / delta) / (2 n)) with probability at most delta.
    spec = ExperimentSpec.from_json(CONFIG_DIR / "fig4.json")
    model, dist = model_from_instance(
        generate_instance(spec.n_y, derive_seed(spec.master_seed, "fig4")))
    block = per_scenario_optimal_block(model, spec.x, dist)
    a = target_amplitude(OracleKind("exact", cost_bound(model, spec.x)),
                         block.probabilities().ravel(), block.costs.ravel())
    delta = 1e-6
    batches = {}
    for e in fig4_results["estimates"]:
        batches.setdefault((e["m"], e["method"]), []).append(e["a_hat"])
    lines = []
    for m in spec.m_values:
        M, shots = 2 ** m, 2 ** (m + 1)
        laws = {"qae": (np.sin(np.pi * np.arange(M) / M) ** 2,
                        readout_distribution(a, m)),
                "mc": (np.arange(shots + 1) / shots,
                       np.array([math.comb(shots, k) * a ** k * (1 - a) ** (shots - k)
                                 for k in range(shots + 1)]))}
        for method, (values, weights) in laws.items():
            assert abs(weights.sum() - 1.0) <= 1e-12
            support, inverse = np.unique(values, return_inverse=True)
            cdf = np.cumsum(np.bincount(inverse, weights=weights))
            sample = np.array(batches[(m, method)])
            idx = np.searchsorted(support, sample)
            assert np.array_equal(support[np.minimum(idx, support.size - 1)], sample)
            ecdf = np.cumsum(np.bincount(idx, minlength=support.size)) / sample.size
            gap = np.abs(ecdf - cdf).max()
            eps = math.sqrt(math.log(2 / delta) / (2 * sample.size))
            assert gap <= eps, f"{method} m={m}: CDF distance {gap:.4f} > {eps:.4f}"
            lines.append(f"{method} m={m}: {gap:.4f}")
    print(f"\nEXACT LAWS PASS: sup |F_n - F| <= {eps:.4f} (delta = {delta:g}); "
          + "; ".join(lines))


def test_criterion_7_full_pipeline(tmp_path):
    spec = ExperimentSpec.from_json(CONFIG_DIR / "fig5.json")
    out = experiment_fig5(spec, tmp_path)
    found = {}
    min_pearson = 1.0
    for s in out["summary"]:
        found.setdefault(s["config"], []).append(s["found_minimum"])
        assert s["pearson"] >= 0.9, \
            f"pearson {s['pearson']:.4f} < 0.9 (config {s['config']}, rep {s['rep']})"
        min_pearson = min(min_pearson, s["pearson"])
    counts = {c: sum(v) for c, v in found.items()}
    for config, n_found in counts.items():
        assert n_found >= 8, f"config {config} matched only {n_found}/10 minima"
    print(f"\nACCEPTANCE 7 PASS: minima found {counts} (each >= 8/10), "
          f"min pearson {min_pearson:.4f} >= 0.9")


def test_criterion_8_simulator_unit_properties():
    # QFT . QFT+ at the stated cap
    m = 10
    state = random_state(m, seed=80)
    ref = state.copy()
    apply_sequence(state, build_qft(tuple(range(m))))
    apply_sequence(state, build_inverse_qft(tuple(range(m))))
    qft_dev = np.abs(state.amplitudes - ref.amplitudes).max()
    assert qft_dev <= 1e-10

    # Grover operator unitarity on the worked pipeline
    inst = generate_instance(2, 123)
    model, dist = model_from_instance(inst)
    layout = RegisterLayout(2, 2, include_ancilla=True)
    dqa = build_dqa(model, 1, dist, AnnealSchedule.linear(4))
    oracle = build_oracle(OracleKind("exact", cost_bound(model, 1)), model)
    grover = build_grover(build_A(dqa, oracle), layout)
    u = sequence_to_matrix(grover, 5)
    grover_dev = np.abs(u.conj().T @ u - np.eye(32)).max()
    assert grover_dev <= 1e-9

    # forward then adjoint on random 100-gate sequences
    seq_dev = 0.0
    for seed in range(3):
        seq = random_sequence(8, 100, seed=seed)
        sv = random_state(8, seed=seed + 50)
        ref = sv.copy()
        apply_sequence(sv, seq, "forward")
        apply_sequence(sv, seq, "adjoint")
        seq_dev = max(seq_dev, np.abs(sv.amplitudes - ref.amplitudes).max())
    assert seq_dev <= 1e-9

    # mixer Hamming-weight leakage
    inst = generate_instance(4, 7)
    model, dist = model_from_instance(inst)
    pl = RegisterLayout(4, 4)
    state = run_dqa(build_dqa(model, 2, dist, AnnealSchedule.linear(10)), pl)
    probs = state.probabilities().reshape(16, 16)
    leak = sum(probs[:, y].sum() for y in range(16) if bin(y).count("1") != 2)
    assert leak <= 1e-10
    print(f"\nACCEPTANCE 8 PASS: qft={qft_dev:.2e}, grover={grover_dev:.2e}, "
          f"adjoint={seq_dev:.2e}, leakage={leak:.2e}")


def test_criterion_9_classical_regression():
    model = UnitCommitmentModel(n_y=2, c_x=0.4, c=(0.1, 0.2), c_r=1.0, d=2)
    dist = DiscreteDistribution.uniform(2)
    phi = expected_value_exact(model, 1, dist)
    obj = objective_exact(model, 1, dist)
    assert phi == pytest.approx(0.35, abs=1e-12)
    assert obj == pytest.approx(0.75, abs=1e-12)
    print(f"\nACCEPTANCE 9 PASS: phi(1) = {phi:.4f}, o(1) = {obj:.4f}")
