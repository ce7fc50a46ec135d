"""Annealing circuit tests: preparation, layer structure, convergence
diagnostics, and the fast feasible-subspace evolver."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spq
from spq import dqa, harness
from spq.dqa import (
    AnnealSchedule,
    FeasibleBlock,
    RegisterLayout,
    anneal_feasible_blocks,
    build_dqa,
    check_block,
    dicke_amplitudes,
    expectation_HQ,
    mixer_pair_angle,
    per_scenario_optimal_block,
    prepare_dicke,
    prepare_distribution,
    prepare_per_scenario_optimal,
    residual_diagnostics,
    run_dqa,
    run_dqa_fast,
    _mixer_unitary,
)
from spq.model import (
    ConfigError,
    DiscreteDistribution,
    GenericDiagonalProblem,
    InfeasibleDecisionError,
    UnitCommitmentModel,
    brute_force_Q,
    cost_diagonal,
    expected_value_exact,
    feasible_decisions,
    generate_instance,
    model_from_instance,
    scenario_optima,
    second_stage_cost,
)
from spq.statevector import (
    MAX_QUBITS,
    OperatorSequence,
    SimulationBudgetError,
    StateVector,
    apply_sequence,
    fidelity,
    hadamard,
    partial_swap,
    phase,
    register_distribution,
    sample_register,
    sequence_to_matrix,
)


def worked_model():
    return UnitCommitmentModel(n_y=2, c_x=0.4, c=(0.1, 0.2), c_r=1.0, d=2)


def zz_problem(n_xi=1):
    """Sign-flip family: cost +1 when the decision bit matches the scenario
    parity, -1 otherwise (reduces to the Z(y)Z(xi) example at n_xi=1)."""
    cost = np.zeros((2, 2 ** n_xi))
    for xi in range(2 ** n_xi):
        parity = bin(xi).count("1") & 1
        for y in (0, 1):
            cost[y, xi] = 1.0 if y == parity else -1.0
    return GenericDiagonalProblem(n_y=1, n_xi=n_xi, cost=cost)


class TestSchedule:
    def test_linear_endpoints(self):
        s = AnnealSchedule.linear(10)
        assert s.cost_angle(0) == 0.0
        assert s.mixer_angle(10) == 0.0
        assert s.cost_angle(10) == 1.0

    def test_zero_layers_allowed(self):
        assert AnnealSchedule.linear(0).T == 0

    def test_negative_layers_rejected(self):
        with pytest.raises(ValueError):
            AnnealSchedule.linear(-1)

    @pytest.mark.parametrize("T", [2.0, True, "3"])
    def test_non_integer_layers_rejected(self, T):
        # a config error (CLI exit 2), not a TypeError from mixer_angles
        with pytest.raises(ConfigError, match="T: expected an integer"):
            AnnealSchedule.linear(T)

    def test_numpy_integer_layers_become_int(self):
        schedule = AnnealSchedule.linear(np.int64(4))
        assert type(schedule.T) is int and len(schedule.mixer_angles()) == 4


class TestLayout:
    def test_standard_packing(self):
        lay = RegisterLayout(3, 3, include_ancilla=True)
        assert lay.y_register == (0, 1, 2)
        assert lay.xi_register == (3, 4, 5)
        assert lay.ancilla == 6
        assert lay.num_system_qubits == 7


class TestDickePreparation:
    def test_two_qubit_single_excitation(self):
        sv = apply_sequence(StateVector(2), prepare_dicke(2, 1))
        expected = np.zeros(4)
        expected[0b01] = expected[0b10] = 1 / math.sqrt(2)
        assert np.abs(sv.amplitudes - expected).max() < 1e-12

    def test_four_choose_two_uniform(self):
        sv = apply_sequence(StateVector(4), prepare_dicke(4, 2))
        support = feasible_decisions(4, 2)
        assert np.allclose(sv.amplitudes[support], 1 / math.sqrt(6))
        off = np.setdiff1d(np.arange(16), support)
        assert np.abs(sv.amplitudes[off]).max() < 1e-14

    def test_zero_weight_is_identity(self):
        sv = apply_sequence(StateVector(3), prepare_dicke(3, 0))
        assert abs(sv.amplitudes[0] - 1.0) < 1e-14

    def test_measurement_support_is_weight_k(self):
        sv = apply_sequence(StateVector(4), prepare_dicke(4, 2))
        for shot in range(200):
            outcome = int(sample_register(sv, [0, 1, 2, 3], 1, shot)[0])
            assert bin(outcome).count("1") == 2

    def test_invertible(self):
        seq = prepare_dicke(5, 2)
        sv = apply_sequence(StateVector(5), seq)
        apply_sequence(sv, seq, "adjoint")
        assert abs(sv.amplitudes[0] - 1.0) < 1e-12

    def test_out_of_range_weight(self):
        with pytest.raises(ValueError):
            dicke_amplitudes(3, 4)


class TestDistributionPreparation:
    def test_uniform_compiles_to_hadamards(self):
        dist = DiscreteDistribution.uniform(3)
        seq = prepare_distribution(dist)
        assert list(seq) == [hadamard(q) for q in range(3)]
        sv = apply_sequence(StateVector(3), seq)
        assert np.allclose(sv.amplitudes, 1 / math.sqrt(8))

    def test_point_mass_compiles_to_x(self):
        dist = DiscreteDistribution.point_mass(3, 0b101)
        sv = apply_sequence(StateVector(3), prepare_distribution(dist))
        assert abs(sv.amplitudes[0b101] - 1.0) < 1e-14

    def test_general_pmf_amplitudes(self):
        dist = DiscreteDistribution.from_pmf(2, {0b00: 0.5, 0b01: 0.25, 0b10: 0.25})
        sv = apply_sequence(StateVector(2), prepare_distribution(dist))
        probs = np.abs(sv.amplitudes) ** 2
        assert np.allclose(probs, [0.5, 0.25, 0.25, 0.0], atol=1e-12)

    def test_near_uniform_is_not_compiled_to_hadamards(self):
        # within np.allclose's default rtol of uniform, yet not uniform
        dist = DiscreteDistribution.from_pmf(1, {0: 0.500004, 1: 0.499996})
        assert not dist.is_uniform
        sv = apply_sequence(StateVector(1), prepare_distribution(dist))
        assert np.allclose(register_distribution(sv, [0]), [0.500004, 0.499996],
                           rtol=0, atol=1e-12)

    def test_offset_register(self):
        dist = DiscreteDistribution.uniform(2)
        sv = apply_sequence(StateVector(4), prepare_distribution(dist, (2, 3)))
        marg = register_distribution(sv, [2, 3])
        assert np.allclose(marg, 0.25)


class TestBuildDqa:
    def test_zero_layers_gives_initial_expectation(self):
        model = worked_model()
        dist = DiscreteDistribution.uniform(2)
        lay = RegisterLayout(2, 2)
        sv = run_dqa(build_dqa(model, 1, dist, AnnealSchedule.linear(0)), lay)
        # mean cost over the Dicke x distribution support, by enumeration
        expected = np.mean([second_stage_cost(model, 1, y, xi)
                            for y in (0b01, 0b10) for xi in range(4)])
        assert expectation_HQ(sv, model) == pytest.approx(expected, abs=1e-12)

    def test_zz_example_converges_to_paired_ground_states(self):
        problem = zz_problem(1)
        dist = DiscreteDistribution.uniform(1)
        lay = RegisterLayout(1, 1)
        seq = build_dqa(problem, None, dist, AnnealSchedule.linear(20))
        sv = run_dqa(seq, lay)
        target = np.zeros(4, dtype=complex)
        target[0b01] = target[0b10] = 1 / math.sqrt(2)   # y != xi (anti-aligned)
        assert fidelity(sv, StateVector(2, target)) >= 0.99

    def test_worked_instance_overlaps_converge(self):
        # The near-degenerate both-windy scenario (gap 0.1) needs a long
        # anneal; every scenario's optimal mass exceeds 0.9 by T=400.
        model = worked_model()
        dist = DiscreteDistribution.uniform(2)
        sv = run_dqa_fast(model, 1, dist, AnnealSchedule.linear(400))
        diag = residual_diagnostics(sv, model, 1, dist)
        assert all(v >= 0.9 for v in diag.per_scenario_overlap.values())

    def test_infeasible_x_rejected(self):
        model = worked_model()
        with pytest.raises(ValueError):
            build_dqa(model, 3, DiscreteDistribution.uniform(2),
                      AnnealSchedule.linear(2))

    def test_mixer_angle_normalization(self):
        assert mixer_pair_angle(0.8, 2) == pytest.approx(0.8)
        assert mixer_pair_angle(0.8, 6) == pytest.approx(0.16)


class TestRunDqa:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_xi_marginal_preserved(self, seed):
        inst = generate_instance(3, seed)
        model, dist = model_from_instance(inst)
        lay = RegisterLayout(3, 3)
        sv = run_dqa(build_dqa(model, 1, dist, AnnealSchedule.linear(9)), lay)
        marg = register_distribution(sv, list(lay.xi_register))
        assert np.abs(marg - 1 / 8).max() < 1e-10

    def test_nonuniform_xi_marginal_preserved(self):
        model = worked_model()
        dist = DiscreteDistribution.from_pmf(2, {0: 0.5, 1: 0.25, 2: 0.25})
        lay = RegisterLayout(2, 2)
        sv = run_dqa(build_dqa(model, 1, dist, AnnealSchedule.linear(12)), lay)
        marg = register_distribution(sv, list(lay.xi_register))
        assert np.abs(marg - [0.5, 0.25, 0.25, 0.0]).max() < 1e-10

    def test_hamming_weight_conserved_at_every_layer_prefix(self):
        model = worked_model()
        dist = DiscreteDistribution.uniform(2)
        lay = RegisterLayout(2, 2)
        seq = build_dqa(model, 1, dist, AnnealSchedule.linear(6))
        sv = StateVector(4)
        feasible = set(int(v) for v in feasible_decisions(2, 1))
        for i, gate in enumerate(seq):
            apply_sequence(sv, OperatorSequence((gate,)))
            if i == 0:
                continue   # distribution register loads after the Dicke gate
            probs = sv.probabilities().reshape(4, 4)   # [xi, y]
            leak = sum(probs[:, y].sum() for y in range(4) if y not in feasible)
            assert leak <= 1e-10

    def test_longer_anneal_reduces_residual(self):
        inst = generate_instance(4, 77)
        model, dist = model_from_instance(inst)
        phi = expected_value_exact(model, 2, dist)
        deltas = []
        for T in (4, 16):
            sv = run_dqa_fast(model, 2, dist, AnnealSchedule.linear(T))
            deltas.append(expectation_HQ(sv, model) - phi)
        assert deltas[1] < deltas[0]

    @pytest.mark.parametrize("n_y,x,T,seed", [(2, 1, 7, 0), (3, 1, 6, 1),
                                              (4, 2, 5, 2), (3, 3, 4, 3),
                                              (3, 0, 8, 4)])
    def test_fast_evolver_matches_gate_circuit(self, n_y, x, T, seed):
        inst = generate_instance(n_y, seed)
        model, dist = model_from_instance(inst)
        lay = RegisterLayout(n_y, n_y)
        ref = run_dqa(build_dqa(model, x, dist, AnnealSchedule.linear(T)), lay)
        fast = run_dqa_fast(model, x, dist, AnnealSchedule.linear(T))
        assert np.abs(ref.amplitudes - fast.amplitudes).max() < 1e-10

    @pytest.mark.parametrize("n_y,x,T,seed", [(5, 2, 10, 5), (6, 3, 8, 6),
                                              (6, 1, 5, 7)])
    def test_fast_evolver_pinned_to_gate_circuit(self, n_y, x, T, seed):
        model, dist = model_from_instance(generate_instance(n_y, seed))
        lay = RegisterLayout(n_y, n_y)
        ref = run_dqa(build_dqa(model, x, dist, AnnealSchedule.linear(T)), lay)
        fast = run_dqa_fast(model, x, dist, AnnealSchedule.linear(T))
        assert np.abs(ref.amplitudes - fast.amplitudes).max() <= 1e-12


class TestMixerUnitary:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n),
        st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))))
    def test_equals_weight_block_of_layer_gates(self, case):
        n_y, weight, beta = case
        angle = mixer_pair_angle(beta, n_y)
        layer = OperatorSequence(tuple(partial_swap(j, k, angle)
                                       for j in range(n_y - 1)
                                       for k in range(j + 1, n_y)))
        ys = feasible_decisions(n_y, weight)
        block = sequence_to_matrix(layer, n_y)[np.ix_(ys, ys)]
        u = _mixer_unitary(n_y, weight, beta)
        assert np.abs(u - block).max() <= 1e-12
        assert np.abs(u.conj().T @ u - np.eye(len(ys))).max() <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n),
        st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))))
    def test_complement_weight_is_permuted_unitary_bit_for_bit(self, case):
        # a block of weight above n_y/2 anneals in complement order under
        # the complement weight's unitary instead of building its own; that
        # order is the feasible rows reversed
        n_y, weight, beta = case
        perm = np.searchsorted(feasible_decisions(n_y, weight),
                               (2 ** n_y - 1) ^ feasible_decisions(n_y, n_y - weight))
        assert np.array_equal(perm, np.arange(len(perm))[::-1])
        u = _mixer_unitary(n_y, weight, beta)
        assert np.array_equal(u[np.ix_(perm, perm)],
                              _mixer_unitary(n_y, n_y - weight, beta))

    @pytest.mark.parametrize("n_y", [2, 4, 6, 8, 10])
    def test_half_build_equals_a_rotation_by_rotation_build(self, n_y):
        # at w = n_y / 2 the rotations build only the left half of U's
        # columns and the right half is taken from it by centrosymmetry; the
        # complement test above is circular there, so every layer of the
        # stack is pinned against each rotation applied in turn to all
        # columns of the identity, the products formed as the build forms
        # them
        weight = n_y // 2
        ys = feasible_decisions(n_y, weight)
        for T in sorted({3, n_y, n_y * n_y, 100}):
            betas = AnnealSchedule.linear(T).mixer_angles()
            stack = dqa._mixer_unitaries(n_y, weight, betas)
            for u, beta in zip(stack, betas, strict=True):
                angle = mixer_pair_angle(beta, n_y)
                c = np.complex128(math.cos(angle))
                s = np.float64(math.sin(angle))
                ref = np.eye(len(ys), dtype=complex)
                for j in range(n_y - 1):
                    for k in range(j + 1, n_y):
                        a = np.flatnonzero((ys >> j) & 1 & ~(ys >> k))
                        b = np.searchsorted(ys, ys[a] ^ (1 << j) ^ (1 << k))
                        ref_a, ref_b = ref[a], ref[b]
                        ref[a] = c * ref_a - 1j * s * ref_b
                        ref[b] = -1j * s * ref_a + c * ref_b
                assert u.tobytes() == ref.tobytes(), (n_y, T, beta)

    @pytest.mark.parametrize("n_y", [2, 5, 8])
    def test_zero_angle_is_exactly_the_identity(self, n_y):
        # so skipping the beta = 0 layer changes no amplitude
        for weight in range(n_y + 1):
            u = _mixer_unitary(n_y, weight, 0.0)
            assert np.array_equal(u, np.eye(len(u)))

    @pytest.mark.parametrize("n_y, weight", [(2, 1), (5, 2), (6, 3), (8, 5)])
    def test_built_in_used_buffers_equals_a_fresh_build(self, n_y, weight):
        # the anneal builds each chunk of layers as one stack, in the
        # buffers of an earlier chunk: chunks of 5 layers of a 12-layer
        # ramp cross two chunk boundaries, the last chunk short and ending
        # at beta = 0; every layer equals its one-layer build bit for bit.
        # The work space, sized for 5 layers, serves the short chunk too
        n = len(feasible_decisions(n_y, weight))
        scratch = dqa._mixer_scratch(n_y, weight, 5)
        out = np.full((5, n, n), np.nan + 1j)
        scratch[...] = np.nan
        betas = AnnealSchedule.linear(12).mixer_angles()
        for first in range(0, 12, 5):
            chunk = betas[first:first + 5]
            got = dqa._mixer_unitaries(n_y, weight, chunk, out[:len(chunk)], scratch)
            assert got.base is out
            for u, beta in zip(got, chunk, strict=True):
                assert np.array_equal(u, _mixer_unitary(n_y, weight, beta))
        assert np.array_equal(out[2:], np.stack(
            [_mixer_unitary(n_y, weight, beta) for beta in betas[7:10]]))

    @pytest.mark.parametrize("n_y", range(1, 9))
    def test_pairs_are_the_brute_force_enumeration(self, n_y):
        for weight in range(n_y + 1):
            ys = feasible_decisions(n_y, weight).tolist()
            for j in range(n_y - 1):
                for k in range(j + 1, n_y):
                    a_rows, b_rows = dqa._mixer_pairs(n_y, weight, j, k)
                    a = [i for i, y in enumerate(ys) if (y >> j) & 1 and not (y >> k) & 1]
                    b = [ys.index(ys[i] ^ (1 << j) ^ (1 << k)) for i in a]
                    assert a_rows.dtype == b_rows.dtype == np.int64
                    assert a_rows.tolist() == a and b_rows.tolist() == b

    def test_cached_rows_are_read_only(self):
        # feasible_decisions and _mixer_pairs are cached, and a block's ys
        # is the cached array itself: a write into any of them would
        # corrupt every later anneal in the process, so each raises
        model, dist = model_from_instance(generate_instance(4, 1))
        (annealed,) = anneal_xs(model, (1,), dist, AnnealSchedule.linear(3))
        psi_star = per_scenario_optimal_block(model, 1, dist)
        assert annealed.ys is psi_star.ys is feasible_decisions(4, 3)
        for array in (*dqa._mixer_pairs(4, 3, 0, 1), annealed.ys, psi_star.ys):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert feasible_decisions(4, 3).tolist() == [7, 11, 13, 14]
        assert [rows.tolist() for rows in dqa._mixer_pairs(4, 3, 0, 1)] == [[2], [3]]


# panels of at most 2^8 amplitudes split every block of more than one row
# at n_y = 6, so a test can force the helper on at that size
FORCED_PANEL_AMPS = 2 ** 8


def anneal_xs(model, xs, dist, schedule, value=None):
    """``anneal_feasible_blocks`` on the decisions ``xs`` of one model and law."""
    return anneal_feasible_blocks([(model, dist, x) for x in xs], schedule, value)


def weight_classes(model):
    """The decisions 0..d grouped by weight class min(w, n_y - w), w = d - x,
    the groups in the order of their first x."""
    groups = {}
    for x in range(model.d + 1):
        groups.setdefault(min(model.d - x, model.n_y - model.d + x), []).append(x)
    return [tuple(xs) for xs in groups.values()]


def class_anneals(model, xs, dist, schedule):
    """The blocks of one call on ``xs``, and the decisions of each class it
    anneals (``dqa._anneal_class``), in the order the classes run."""
    anneal_class, classes = dqa._anneal_class, []

    def recorded(requests, schedule):
        classes.append(tuple(x for _, _, x in requests))
        return anneal_class(requests, schedule)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dqa, "_anneal_class", recorded)
        return anneal_xs(model, xs, dist, schedule), classes


# the variables OpenBLAS reads its thread count from at start-up
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS",
                    "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def helper_may_share(_):
    """``dqa._helper_may_share()`` in the process that runs this."""
    return dqa._helper_may_share()


def force_helper(patch, on):
    """Force the helper on or off through its one seam,
    ``dqa._helper_may_share``; the block size still decides whether a
    block splits into panels."""
    patch.setattr(dqa, "_helper_may_share", lambda: on)


def run_spq(code, env):
    """stdout words of ``code`` run by a fresh interpreter on this spq,
    under ``os.environ`` with the BLAS thread variables replaced by ``env``."""
    src = str(Path(spq.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", code], timeout=120,
                          capture_output=True, text=True,
                          env=dict(base, PYTHONPATH=src, **env))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


# an n_y = 10 anneal that prints the BLAS thread count before and after it,
# whether it loaded an executor, and the sha256 of its blocks' bytes
ANNEAL_N10 = """import hashlib, sys
from spq import dqa
from spq.model import generate_instance, model_from_instance
model, dist = model_from_instance(generate_instance(10, 0))
get = dqa._BLAS_THREADS[0]
before = get()
blocks = dqa.anneal_feasible_blocks([(model, dist, x) for x in {xs}],
                                    dqa.AnnealSchedule.linear({T}))
print(before, get(), 'concurrent.futures' in sys.modules,
      hashlib.sha256(b''.join(b.amps.tobytes() for b in blocks)).hexdigest())
"""

needs_blas_threads = pytest.mark.skipif(
    dqa._BLAS_THREADS is None, reason="numpy's BLAS has no OpenBLAS thread-count calls")


class TestHelperThread:
    """Large blocks take each layer's mixer unitary from a helper thread,
    built one layer ahead, and the helper
    then claims column panels of the layer alongside the caller; the
    blocks are the inline loop's bit for bit and no thread outlives the
    anneal."""

    @staticmethod
    def anneal_on(monkeypatch, helper, model, xs, dist, schedule,
                  panels=None, panel_amps=None, both=False):
        """The blocks, and the threads that built the unitaries.  ``helper``
        True forces the helper on (its panels narrowed to ``panel_amps``,
        default ``FORCED_PANEL_AMPS``), False forces it off, and None leaves
        the block size rule alone to decide.
        ``panels``, if given, collects a (thread, columns) pair for each
        panel task run; ``panel_amps`` overrides the panel size.  With
        ``both``, the calling thread's first task waits for the helper's
        first, so both threads run panels however they are scheduled."""
        build_threads = set()
        build, panel = dqa._mixer_unitaries, dqa._layer_panel
        helper_ran = threading.Event()

        def recorded(*args, **kwargs):
            build_threads.add(threading.current_thread())
            return build(*args, **kwargs)

        def recorded_panel(phase, index, m, u, out):
            thread = threading.current_thread()
            if thread is not threading.main_thread():
                helper_ran.set()
            elif both:
                helper_ran.wait(timeout=60)
            if panels is not None:
                panels.append((thread, m.shape[1]))
            return panel(phase, index, m, u, out)

        with monkeypatch.context() as patch:
            patch.setattr(dqa, "_mixer_unitaries", recorded)
            patch.setattr(dqa, "_layer_panel", recorded_panel)
            force_helper(patch, helper is not False)
            if helper and panel_amps is None:
                panel_amps = FORCED_PANEL_AMPS
            if panel_amps is not None:
                patch.setattr(dqa, "_PANEL_AMPS", panel_amps)
            blocks = anneal_xs(model, xs, dist, schedule)
        return blocks, build_threads

    @pytest.mark.parametrize("n_y", [8, 10])
    @pytest.mark.parametrize("rule", ["linear", "quadratic"])
    def test_helper_and_inline_blocks_are_identical(self, monkeypatch, n_y, rule):
        # inline, and with the helper building ahead and both threads
        # claiming panels; at n_y = 8 the panels are narrowed in both modes,
        # so that each block is split as at n_y = 10, where they keep their size
        model, dist = model_from_instance(generate_instance(n_y, 7))
        schedule = AnnealSchedule.linear(n_y if rule == "linear" else n_y * n_y)
        panel_amps = 2 ** 11 if n_y == 8 else dqa._PANEL_AMPS
        for xs in ((2, n_y - 2), (n_y // 2,)):    # a pair of one class, weight n_y/2
            assert xs in weight_classes(model)
            inline_panels, panels = [], []
            inline, inline_threads = self.anneal_on(monkeypatch, False, model, xs,
                                                    dist, schedule, panels=inline_panels,
                                                    panel_amps=panel_amps)
            shared, shared_threads = self.anneal_on(
                monkeypatch, True, model, xs, dist, schedule,
                panels=panels, panel_amps=panel_amps, both=True)
            assert inline_threads == {threading.main_thread()}
            assert len(shared_threads) == 1
            assert threading.main_thread() not in shared_threads
            # both threads ran panel tasks; one panel width in both modes,
            # more than one panel per block
            assert {thread for thread, _ in panels} == (
                shared_threads | {threading.main_thread()})
            widths = {columns for _, columns in inline_panels}
            assert widths == {columns for _, columns in panels}
            assert len(widths) == 1 and max(widths) < 2 ** n_y
            for a, b in zip(inline, shared, strict=True):
                assert a.x == b.x
                assert np.array_equal(a.amps, b.amps)
                assert np.array_equal(a.costs, b.costs)

    def test_chunked_helper_anneal_equals_inline(self, monkeypatch):
        # n_y = 10, x = (2, 8) at T = 100: the 99 mixing layers of
        # U(10, 2), C(10, 2) = 45, build in chunks of 9 layers, the most
        # whose stack (45^2 amplitudes a layer) and work space (4 * 8 * 45)
        # hold at most _PANEL_AMPS amplitudes: 11 full chunks, all on the
        # helper, whose blocks equal the inline ones
        model, dist = model_from_instance(generate_instance(10, 7))
        schedule = AnnealSchedule.linear(100)
        build = dqa._mixer_unitaries
        chunks = []

        def recorded(n_y, weight, betas, *args):
            chunks.append((threading.current_thread(), weight, len(betas)))
            return build(n_y, weight, betas, *args)

        monkeypatch.setattr(dqa, "_mixer_unitaries", recorded)
        inline, _ = self.anneal_on(monkeypatch, False, model, (2, 8), dist, schedule)
        assert chunks == [(threading.main_thread(), 2, 9)] * 11
        chunks.clear()
        shared, threads = self.anneal_on(monkeypatch, True, model, (2, 8), dist,
                                         schedule, panel_amps=dqa._PANEL_AMPS)
        assert len(threads) == 1 and threading.main_thread() not in threads
        assert [(weight, n) for _, weight, n in chunks] == [(2, 9)] * 11
        for a, b in zip(inline, shared, strict=True):
            assert a.x == b.x
            assert np.array_equal(a.amps, b.amps)

    def test_concurrent_anneals_under_fast_switching(self, monkeypatch):
        # three callers, each with its own helper, on a shortened switch
        # interval: every block still equals its inline anneal, and the
        # BLAS thread count is the callers' again once all are done
        count = dqa._BLAS_THREADS[0] if dqa._BLAS_THREADS else lambda: None
        before = count()
        model, dist = model_from_instance(generate_instance(6, 4))
        schedule = AnnealSchedule.linear(20)
        groups = [(1, 5), (2, 4), (3,)]
        expected = {xs: self.anneal_on(monkeypatch, False, model, xs, dist,
                                       schedule)[0] for xs in groups}
        got = {}
        monkeypatch.setattr(dqa, "_PANEL_AMPS", FORCED_PANEL_AMPS)
        force_helper(monkeypatch, True)
        callers = [threading.Thread(target=lambda xs=xs: got.__setitem__(
                       xs, anneal_xs(model, xs, dist, schedule)))
                   for xs in groups]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert count() == before
        for xs in groups:
            for a, b in zip(expected[xs], got[xs], strict=True):
                assert np.array_equal(a.amps, b.amps)

    @needs_blas_threads
    def test_overlapping_anneals_restore_the_count_last(self):
        # an anneal in a second thread waits until the first has left; each
        # runs at one thread, and the caller's count is back after both
        get, set_threads = dqa._BLAS_THREADS
        before = get()
        inside, leave, counts = threading.Event(), threading.Event(), []

        def first():
            with dqa._one_blas_thread():
                counts.append(get())
                inside.set()
                leave.wait(timeout=60)

        def second():
            with dqa._one_blas_thread():
                counts.append(get())

        set_threads(2)
        try:
            threads = [threading.Thread(target=first), threading.Thread(target=second)]
            threads[0].start()
            assert inside.wait(timeout=60)
            threads[1].start()
            threads[1].join(timeout=0.2)
            assert threads[1].is_alive() and counts == [1]     # the second waits
            assert get() == 1
            leave.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert counts == [1, 1] and get() == 2
        finally:
            leave.set()
            set_threads(before)

    def test_size_rule(self, monkeypatch):
        # fig5's blocks (n_y <= 6) stay on the calling thread as one panel
        model, dist = model_from_instance(generate_instance(6, 1))
        for xs in weight_classes(model):
            panels = []
            _, threads = self.anneal_on(monkeypatch, None, model, xs, dist,
                                        AnnealSchedule.linear(36), panels=panels)
            assert threads <= {threading.main_thread()}
            assert {columns for _, columns in panels} == {2 ** 6}
            assert {thread for thread, _ in panels} == {threading.main_thread()}
        # at n_y = 10, every block splits into the widest power-of-two panels
        # of at most 2^15 amplitudes, with the helper or without: 128 columns
        # at C(10, 5) = 252 rows and 512 at C(10, 2) = 45.  Blocks of more
        # than 2^15 amplitudes take the helper; C(10, 1) * 2^10 amplitudes,
        # one panel, stay inline, and so does every block where the helper
        # may not share
        model, dist = model_from_instance(generate_instance(10, 1))
        for xs, columns in (((5,), 128), ((2, 8), 512), ((1, 9), 1024)):
            for helper in (False, None):
                panels = []
                _, threads = self.anneal_on(monkeypatch, helper, model, xs, dist,
                                            AnnealSchedule.linear(3), panels=panels)
                if helper is False or columns == 1024:
                    assert threads == {threading.main_thread()}
                else:
                    assert len(threads) == 1 and threading.main_thread() not in threads
                assert {c for _, c in panels} == {columns}

    def test_panel_failure_on_the_helper_reaches_the_caller(self, monkeypatch):
        model, dist = model_from_instance(generate_instance(6, 2))
        panel = dqa._layer_panel
        helper_failed = threading.Event()

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                helper_failed.set()
                raise FloatingPointError("panel GEMM failed")
            helper_failed.wait(timeout=60)      # leave the helper a panel
            return panel(*args)

        start = threading.active_count()
        monkeypatch.setattr(dqa, "_layer_panel", failing)
        monkeypatch.setattr(dqa, "_PANEL_AMPS", FORCED_PANEL_AMPS)
        force_helper(monkeypatch, True)
        with pytest.raises(FloatingPointError, match="panel GEMM failed"):
            anneal_xs(model, (1, 5), dist, AnnealSchedule.linear(8))
        assert helper_failed.is_set()
        assert threading.active_count() == start

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        # the 21 mixing layers of T = 22 build in 6 chunks, 5 of 4 and one,
        # at C(6, 1) = 6: 6^2 + 4 * 6 amplitudes a layer in 2^8
        model, dist = model_from_instance(generate_instance(6, 2))
        build = dqa._mixer_unitaries
        calls = []

        def failing(*args, **kwargs):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise FloatingPointError("build 3 failed")
            return build(*args, **kwargs)

        start = threading.active_count()
        monkeypatch.setattr(dqa, "_mixer_unitaries", failing)
        monkeypatch.setattr(dqa, "_PANEL_AMPS", FORCED_PANEL_AMPS)
        force_helper(monkeypatch, True)
        with pytest.raises(FloatingPointError, match="build 3 failed"):
            anneal_xs(model, (1, 5), dist, AnnealSchedule.linear(22))
        assert len(calls) == 3 and threading.main_thread() not in calls
        assert threading.active_count() == start

    @pytest.mark.parametrize("helper", [False, True])
    def test_no_thread_outlives_an_anneal(self, monkeypatch, helper):
        model, dist = model_from_instance(generate_instance(6, 3))
        schedule = AnnealSchedule.linear(12)
        start = threading.active_count()
        self.anneal_on(monkeypatch, helper, model, (3,), dist, schedule)
        assert threading.active_count() == start

        # the calling thread fails in layer 5's GEMM, with the helper alive
        class FailingUnitary:
            def __matmul__(self, *args, **kwargs):
                raise ZeroDivisionError("layer 5")

            __array_ufunc__ = __matmul__    # np.matmul(u, panel, out=...)

        build, layers = dqa._mixer_unitaries, []

        def failing(n_y, weight, betas, *args):
            stack = build(n_y, weight, betas, *args)
            first = len(layers)         # the chunk's first layer index
            layers.extend(betas)
            return [FailingUnitary() if first + i == 4 else u
                    for i, u in enumerate(stack)]

        monkeypatch.setattr(dqa, "_mixer_unitaries", failing)
        monkeypatch.setattr(dqa, "_PANEL_AMPS", FORCED_PANEL_AMPS)
        force_helper(monkeypatch, helper)
        with pytest.raises(ZeroDivisionError, match="layer 5"):
            anneal_xs(model, (3,), dist, schedule)
        assert threading.active_count() == start

    @pytest.mark.parametrize("T", [1, 2])
    def test_shortest_ramps(self, monkeypatch, T):
        # T = 1 has only beta = 0, so nothing is built or submitted; T = 2
        # builds one unitary, with no next build to submit
        model, dist = model_from_instance(generate_instance(6, 5))
        schedule = AnnealSchedule.linear(T)
        start = threading.active_count()
        for xs in ((1, 5), (3,)):               # a pair of one class, a lone x
            assert xs in weight_classes(model)
            inline, _ = self.anneal_on(monkeypatch, False, model, xs, dist, schedule)
            shared, threads = self.anneal_on(monkeypatch, True, model, xs, dist,
                                             schedule)
            assert threading.active_count() == start
            assert len(threads) == T - 1 and threading.main_thread() not in threads
            for a, b in zip(inline, shared, strict=True):
                assert np.array_equal(a.amps, b.amps)

    def test_pool_workers_leave_the_gemms_to_the_caller(self):
        # fig3's workers already fill the cores; the worker itself knows it
        # is one, with no initializer telling it
        assert harness._pool_map(helper_may_share, [0], 1) == [False]

    @needs_blas_threads
    @pytest.mark.parametrize("one_thread", [False, True])
    def test_the_helper_only_runs_where_it_shares(self, one_thread):
        # with the BLAS thread variables unset or at one thread alike, an
        # n_y = 10 block of one panel, C(10, 1) * 2^10 amplitudes, anneals
        # inline and loads no executor; the weight-5 block takes the helper
        env = {"OPENBLAS_NUM_THREADS": "1"} if one_thread else {}
        for xs, executor in (((9,), "False"), ((5,), "True")):
            assert run_spq(ANNEAL_N10.format(xs=xs, T=2), env)[2] == executor

    @needs_blas_threads
    def test_blocks_do_not_follow_the_blas_thread_count(self):
        # a pair of one class anneals, with the helper, to the bytes of the
        # in-process anneal at one and two BLAS threads and at OpenBLAS's
        # default, one thread per core, and gives the caller its count back;
        # before the anneal set its own count, the default gave other bytes
        model, dist = model_from_instance(generate_instance(10, 0))
        blocks = anneal_xs(model, (4, 6), dist, AnnealSchedule.linear(2))
        expected = hashlib.sha256(b"".join(b.amps.tobytes() for b in blocks)).hexdigest()
        runs = [run_spq(ANNEAL_N10.format(xs=(4, 6), T=2), env)
                for env in ({"OPENBLAS_NUM_THREADS": "1"},
                            {"OPENBLAS_NUM_THREADS": "2"}, {})]
        assert [(before, after) for before, after, _, _ in runs] == [
            ("1", "1"), ("2", "2"), (runs[2][0], runs[2][0])]
        assert [(executor, digest) for _, _, executor, digest in runs] == [
            ("True", expected)] * 3

    @needs_blas_threads
    def test_missing_thread_calls_leave_the_count_alone(self, monkeypatch):
        # where the lookup finds no OpenBLAS thread-count calls, an n_y = 10
        # block that would split anneals inline, at the caller's count
        get, set_threads = dqa._BLAS_THREADS
        with monkeypatch.context() as patch:
            patch.setattr(dqa.ctypes, "CDLL", lambda path: object())
            monkeypatch.setattr(dqa, "_BLAS_THREADS", dqa._blas_thread_calls())
        assert dqa._BLAS_THREADS is None
        model, dist = model_from_instance(generate_instance(10, 0))
        counts, panel = set(), dqa._layer_panel

        def recorded(*args):
            counts.add((threading.current_thread(), get()))
            return panel(*args)

        monkeypatch.setattr(dqa, "_layer_panel", recorded)
        start, before = threading.active_count(), get()
        set_threads(2)
        try:
            anneal_xs(model, (5,), dist, AnnealSchedule.linear(3))
            assert get() == 2
        finally:
            set_threads(before)
        assert threading.active_count() == start
        assert counts == {(threading.main_thread(), 2)}

    def test_importing_spq_starts_no_thread(self):
        # worker start-up is timed (perfbench setup_s), so the helper
        # thread and any executor start with an anneal, never at import
        code = ("import sys, threading\n"
                "import spq, spq.harness\n"
                "assert threading.active_count() == 1, threading.enumerate()\n"
                "assert 'concurrent.futures' not in sys.modules\n")
        src = str(Path(spq.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code], timeout=120,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr


def column_reference(model, x, xi, schedule):
    """Scenario column xi of x's anneal over sqrt(p(xi)), from the literal
    circuit on the y register alone.  The scenario register is only
    control, so with xi's bits as classical values turbine j's cost and
    penalty gates fuse into one phase(j, gamma * w_j), w_j = c_j where xi
    has wind at j and c_r where it has none; the mixer is the partial swaps
    in ``_uc_layer_gates`` order.  All 2^n_y amplitudes are returned."""
    n_y = model.n_y
    state = apply_sequence(StateVector(n_y), prepare_dicke(n_y, model.d - x))
    for t in range(1, schedule.T + 1):
        gamma = schedule.cost_angle(t)
        angle = mixer_pair_angle(schedule.mixer_angle(t), n_y)
        gates = [phase(j, gamma * (model.c[j] if (xi >> j) & 1 else model.c_r))
                 for j in range(n_y)]
        gates += [partial_swap(j, k, angle)
                  for j in range(n_y - 1) for k in range(j + 1, n_y)]
        apply_sequence(state, OperatorSequence(tuple(gates), "layer"))
    return state.amplitudes


class TestColumnReference:
    """The production anneal at the shipped sizes, pinned column by column
    to the literal circuit on the y register."""

    @pytest.mark.parametrize("n_y,T,explicit", [(2, 4, False), (3, 6, True),
                                                (4, 5, False), (4, 9, True)])
    def test_reference_equals_the_full_circuit(self, n_y, T, explicit):
        model, dist = model_from_instance(generate_instance(n_y, 30 + n_y))
        if explicit:
            probs = np.random.default_rng(T).dirichlet(np.ones(2 ** n_y - 1))
            dist = DiscreteDistribution(n_y, np.arange(1, 2 ** n_y), probs)
        schedule = AnnealSchedule.linear(T)
        p_xi = np.zeros(2 ** n_y)
        p_xi[dist.scenarios] = dist.probabilities
        for x in range(model.d + 1):
            full = run_dqa(build_dqa(model, x, dist, schedule),
                           RegisterLayout(n_y, n_y)).amplitudes
            for xi, column in enumerate(full.reshape(2 ** n_y, 2 ** n_y)):
                ref = column_reference(model, x, xi, schedule)
                assert np.abs(column - math.sqrt(p_xi[xi]) * ref).max() <= 1e-12

    @staticmethod
    def pin_columns(monkeypatch, model, dist, pick):
        """Pin columns of the blocks of one call on every x at both T rules,
        with the helper sharing panels (forced on at n_y = 8, where no block
        splits at the shipped panel size, by panels of at most 2^7
        amplitudes, so that every block splits): pick(p_xi) gives two
        scenario columns per weight class, the first pinned in the class's
        first block, the second in its last.  Returns the worst deviation."""
        n_y = model.n_y
        force_helper(monkeypatch, True)
        if n_y == 8:
            monkeypatch.setattr(dqa, "_PANEL_AMPS", 2 ** 7)
        p_xi = np.zeros(2 ** n_y)
        p_xi[dist.scenarios] = dist.probabilities
        classes = weight_classes(model)
        assert (n_y // 2,) in classes              # the lone C(n_y, n_y/2)-row block
        worst = 0.0
        for schedule in (AnnealSchedule.linear(n_y), AnnealSchedule.linear(n_y * n_y)):
            blocks = anneal_xs(model, range(model.d + 1), dist, schedule)
            for xs in classes:
                for xi, block in zip(pick(p_xi), (blocks[xs[0]], blocks[xs[-1]])):
                    ref = column_reference(model, block.x, xi, schedule)
                    expected = math.sqrt(p_xi[xi]) * ref[block.ys]
                    deviation = np.abs(block.amps[:, xi] - expected).max()
                    assert deviation <= 1e-12, (schedule.T, block.x, xi)
                    worst = max(worst, deviation)
        return worst

    @pytest.mark.parametrize("n_y", [8, 10])
    def test_blocks_at_the_shipped_sizes(self, monkeypatch, n_y):
        # T = n_y and n_y^2 on a generated instance; two scenario columns
        # per class, drawn from a fixed seed
        model, dist = model_from_instance(generate_instance(n_y, 0))
        rng = np.random.default_rng(1000 + n_y)
        worst = self.pin_columns(monkeypatch, model, dist,
                                 lambda _: rng.choice(2 ** n_y, 2, replace=False).tolist())
        print(f"\nn_y = {n_y}: worst column deviation {worst:.2e}")

    def test_blocks_under_a_sparse_law(self, monkeypatch):
        # an explicit non-uniform law at n_y = 8 on 160 of the 256 scenarios,
        # ten of them listed at probability 0; per group one column drawn from
        # the support and one from the zero-probability scenarios, whose
        # columns must stay empty
        model, _ = model_from_instance(generate_instance(8, 0))
        rng = np.random.default_rng(1008)
        scenarios = rng.choice(256, 160, replace=False)
        probs = np.concatenate([rng.dirichlet(np.ones(150)), np.zeros(10)])
        dist = DiscreteDistribution(8, scenarios, probs)
        worst = self.pin_columns(monkeypatch, model, dist, lambda p_xi: [
            int(rng.choice(np.flatnonzero(p_xi > 0))),
            int(rng.choice(np.flatnonzero(p_xi == 0)))])
        print(f"\nn_y = 8, sparse law: worst column deviation {worst:.2e}")


def scattered(block, n_y, n_xi):
    """A feasible block's amplitudes on the full (y, xi) register."""
    full = np.zeros((2 ** n_xi, 2 ** n_y), dtype=complex)
    full[:, block.ys] = block.amps.T
    return full.ravel()


class TestLockstepAnneal:
    """One anneal takes (model, law, x) requests and anneals them one weight
    class at a time; every block equals its lone anneal bit for bit, and its
    in-block <H_Q> the full-register one."""

    @staticmethod
    def assert_blocks_match_lone_runs(model, dist, schedule, xs):
        blocks = anneal_xs(model, xs, dist, schedule)
        assert [b.x for b in blocks] == list(xs)
        for block in blocks:
            lone = run_dqa_fast(model, block.x, dist, schedule)
            assert np.array_equal(scattered(block, model.n_y, dist.n_xi),
                                  lone.amplitudes)
            assert abs(block.expectation_hq()
                       - expectation_HQ(lone, model)) <= 1e-12

    @pytest.mark.parametrize("n_y", [4, 5, 6, 7, 8])
    def test_every_block_equals_the_lone_anneal(self, n_y):
        # one call on every x anneals (n_y + 1) // 2 complementary pairs
        model, dist = model_from_instance(generate_instance(n_y, 20 + n_y))
        schedule = AnnealSchedule.linear(n_y)
        _, classes = class_anneals(model, range(model.d + 1), dist, schedule)
        assert sorted(x for xs in classes for x in xs) == list(range(model.d + 1))
        assert sum(len(xs) == 2 for xs in classes) == (n_y + 1) // 2
        self.assert_blocks_match_lone_runs(model, dist, schedule, range(model.d + 1))

    def test_blocks_equal_the_lone_anneal_with_the_helper(self, monkeypatch):
        # n_y = 10 with the helper forced on, so both threads share the
        # GEMMs' column panels: the pair (2, 8), whose x = 2 block anneals in
        # complement order, and the lone x = 5, in one call
        force_helper(monkeypatch, True)
        model, dist = model_from_instance(generate_instance(10, 30))
        self.assert_blocks_match_lone_runs(model, dist, AnnealSchedule.linear(10),
                                           (2, 8, 5))

    @pytest.mark.parametrize("helper", [False, True])
    def test_three_instances_of_one_class(self, monkeypatch, helper):
        # x = 2 and 6 of three n_y = 8 instances, weights 6 and 2 of one
        # class, in one call, inline and with the helper sharing panels
        # narrowed to 2^11 amplitudes: each block has its lone anneal's bytes
        schedule = AnnealSchedule.linear(64)
        requests = [(model, dist, x) for seed in (1, 2, 3)
                    for model, dist in [model_from_instance(generate_instance(8, seed))]
                    for x in (2, 6)]
        lone = [anneal_feasible_blocks([request], schedule)[0] for request in requests]
        panel, threads = dqa._layer_panel, set()

        def recorded(*args):
            threads.add(threading.current_thread())
            return panel(*args)

        monkeypatch.setattr(dqa, "_layer_panel", recorded)
        force_helper(monkeypatch, helper)
        if helper:
            monkeypatch.setattr(dqa, "_PANEL_AMPS", 2 ** 11)
        together = anneal_feasible_blocks(requests, schedule)
        assert len(threads) == 1 + helper
        for a, b in zip(lone, together, strict=True):
            assert a.x == b.x
            assert np.array_equal(a.amps, b.amps)
            assert np.array_equal(a.costs, b.costs)

    @pytest.mark.parametrize("n_y,T", [(6, 36), (10, 25)])
    def test_one_unitary_per_class_layer(self, monkeypatch, n_y, T):
        # every x in one call builds the unitaries one lone anneal per class
        # builds: the same (weight, layers) chunks, in class order; a pair
        # that built its unitary twice would build twice the chunks
        model, dist = model_from_instance(generate_instance(n_y, 5))
        schedule = AnnealSchedule.linear(T)
        build, chunks = dqa._mixer_unitaries, []

        def recorded(n, weight, betas, *args):
            chunks.append((weight, len(betas)))
            return build(n, weight, betas, *args)

        monkeypatch.setattr(dqa, "_mixer_unitaries", recorded)
        anneal_xs(model, range(model.d + 1), dist, schedule)
        together = chunks[:]
        chunks.clear()
        for xs in weight_classes(model):
            anneal_xs(model, xs[:1], dist, schedule)
        assert together == chunks
        # each class builds T - 1 layers: one unitary per mixing layer
        for w in range(n_y // 2 + 1):
            assert sum(n for weight, n in together if weight == w) == T - 1

    @pytest.mark.parametrize("n_y", [6, 8, 10])
    def test_only_weights_up_to_half_build_a_unitary(self, monkeypatch, n_y):
        # a block of weight above n_y/2 anneals under its complement
        # weight's unitary, paired and alone, inline and with the helper
        # sharing panels; every returned block is C-contiguous
        model, dist = model_from_instance(generate_instance(n_y, 40 + n_y))
        schedule = AnnealSchedule.linear(3)
        build, weights = dqa._mixer_unitaries, []

        def recorded(n, weight, *args, **kwargs):
            weights.append(weight)
            return build(n, weight, *args, **kwargs)

        monkeypatch.setattr(dqa, "_mixer_unitaries", recorded)
        for helper in (False, True):
            force_helper(monkeypatch, helper)
            if helper:
                monkeypatch.setattr(dqa, "_PANEL_AMPS", 2 ** 7)
            for xs in (range(model.d + 1), (1,)):
                for block in anneal_xs(model, xs, dist, schedule):
                    assert block.amps.flags.c_contiguous, (helper, block.x)
            run_dqa_fast(model, 1, dist, schedule)    # weight n_y - 1, alone
        assert set(weights) == set(range(n_y // 2 + 1))

    def test_unpaired_weights_below_full_demand(self):
        # d = 4 < n_y = 6: weights 4..0 for x = 0..4; 4 and 2 pair, 3 is its
        # own complement, and the complements 5 and 6 of weights 1 and 0
        # exceed d
        model, dist = model_from_instance(generate_instance(6, 3))
        model = dataclasses.replace(model, d=4)
        schedule = AnnealSchedule.linear(9)
        _, classes = class_anneals(model, range(5), dist, schedule)
        assert classes == [(0, 2), (1,), (3,), (4,)]
        self.assert_blocks_match_lone_runs(model, dist, schedule, range(5))

    def test_groups_pair_exactly_the_complementary_weights(self):
        # one call on every x anneals each class once, the classes in the
        # order of their first x, a pair only of weights adding up to n_y
        for n_y in range(1, 8):
            dist = DiscreteDistribution.uniform(n_y)
            for d in range(0, n_y + 1):
                model = UnitCommitmentModel(n_y=n_y, c_x=0.4, c=(0.1,) * n_y,
                                            c_r=1.0, d=d)
                blocks, classes = class_anneals(model, range(d + 1), dist,
                                                AnnealSchedule.linear(0))
                assert [b.x for b in blocks] == list(range(d + 1))
                assert sorted(x for xs in classes for x in xs) == list(range(d + 1))
                assert [xs[0] for xs in classes] == sorted(xs[0] for xs in classes)
                for xs in classes:
                    weights = [d - x for x in xs]
                    partner = n_y - weights[0]
                    if len(xs) == 2:
                        assert sum(weights) == n_y and xs[0] < xs[1]
                    else:
                        assert partner == weights[0] or not 0 <= partner <= d

    def test_mixer_skipped_only_at_the_end_of_the_ramp(self):
        # the mixer is skipped at t = T only, and the pair still matches
        # the gate-level circuit, which applies every layer
        n_y, T = 4, 7
        sched = AnnealSchedule.linear(T)
        betas = sched.mixer_angles()
        assert betas[-1] == 0.0 and np.all(betas[:-1] != 0.0)
        model, dist = model_from_instance(generate_instance(n_y, 11))
        self.assert_blocks_match_lone_runs(model, dist, sched, range(model.d + 1))
        lay = RegisterLayout(n_y, n_y)
        for block in anneal_xs(model, (1, 3), dist, sched):
            ref = run_dqa(build_dqa(model, block.x, dist, sched), lay)
            assert np.abs(scattered(block, n_y, n_y) - ref.amplitudes).max() <= 1e-12

    def test_rejects_requests_of_another_width(self, monkeypatch):
        # a decision outside [0, d], a model of another n_y and a law of
        # another width each raise before any class anneals
        model, dist = model_from_instance(generate_instance(4, 2))
        other, other_dist = model_from_instance(generate_instance(5, 2))
        sched = AnnealSchedule.linear(3)

        def refuse(*args):
            raise AssertionError("annealed a class")

        monkeypatch.setattr(dqa, "_anneal_class", refuse)
        with pytest.raises(InfeasibleDecisionError):
            anneal_xs(model, (0, 5), dist, sched)
        with pytest.raises(ValueError, match="one n_y and n_xi"):
            anneal_feasible_blocks([(model, dist, 0), (other, other_dist, 2)], sched)
        with pytest.raises(ConfigError, match="5 scenario bits"):
            anneal_feasible_blocks([(model, dist, 0), (model, other_dist, 2)], sched)

    def test_no_requests_anneal_nothing(self):
        sched = AnnealSchedule.linear(3)
        assert anneal_feasible_blocks([], sched) == []
        assert anneal_feasible_blocks([], sched, FeasibleBlock.expectation_hq) == []

    def test_a_repeated_request_gives_two_equal_blocks(self):
        # x = 1 twice and x = 3, one class: three arrays, the repeated x's
        # two equal to each other and to the lone anneal
        model, dist = model_from_instance(generate_instance(4, 2))
        sched = AnnealSchedule.linear(8)
        first, second, third = anneal_xs(model, (1, 1, 3), dist, sched)
        (lone,) = anneal_xs(model, (1,), dist, sched)
        assert not np.shares_memory(first.amps, second.amps)
        assert np.array_equal(first.amps, second.amps)
        assert np.array_equal(first.amps, lone.amps) and third.x == 3


class TestAnnealFootprint:
    """The anneal's bytes are pinned, and it holds only its state: the
    phase lives on each block's cost table, the index on one panel per
    thread, and a block keeps its cost table, not a cost grid."""

    def test_amplitude_bytes_are_pinned(self):
        # every weight class at n_y = 2..8 under the uniform law and a
        # 4-scenario law (one of zero probability) at T = n_y and n_y^2,
        # one call per (instance, law, T) with the blocks requested class by
        # class, and two n_y = 10 classes, whose blocks split into panels,
        # at T = 3: 94 class anneals.  Like the fig5 pins, the digest also
        # depends on the GEMM kernel OpenBLAS picks for the CPU
        digest = hashlib.sha256()
        cases = []
        for n_y in range(2, 9):
            model, uniform = model_from_instance(generate_instance(n_y, n_y))
            scenarios = np.random.default_rng(n_y).permutation(2 ** n_y)[:4]
            sparse = DiscreteDistribution(n_y, scenarios, (0.0, 0.5, 0.3, 0.2))
            for dist in (uniform, sparse):
                for T in (n_y, n_y * n_y):
                    xs = [x for group in weight_classes(model) for x in group]
                    cases.append((model, xs, dist, T))
        model, dist = model_from_instance(generate_instance(10, 10))
        cases.append((model, (4, 6, 5), dist, 3))
        anneals = 0
        for model, xs, dist, T in cases:
            blocks, classes = class_anneals(model, xs, dist, AnnealSchedule.linear(T))
            anneals += len(classes)
            for block in blocks:
                digest.update(block.amps.tobytes())
        assert anneals == 94
        assert digest.hexdigest() == (
            "a5ba024f5f5a0ba6400193d0149e64370edf454c906c32a013be19a0e61fe773")

    @pytest.mark.parametrize("helper", [False, True])
    def test_traced_peak_below_1_7_times_the_blocks(self, monkeypatch, helper):
        # the anneal and <H_Q> of both blocks: the layers hold 16 B of state
        # per amplitude, annealed in the returned arrays, and an index panel
        # per thread; |amp|^2 forms no block-sized temporary and <H_Q>
        # gathers q one row range at a time: 1.36 times the blocks' bytes
        # inline, 1.60 with the helper.  An int32 index per amplitude and a
        # cost grid per block traced 1.79 times them, joining column panels
        # into fresh blocks 2.00-2.08 times, and a running phase and its
        # base per amplitude 3.4-3.7 times
        model, dist = model_from_instance(generate_instance(10, 0))
        force_helper(monkeypatch, helper)
        schedule = AnnealSchedule.linear(3)
        anneal_xs(model, (4, 6), dist, schedule)   # warm the caches
        tracemalloc.start()
        try:
            blocks = anneal_xs(model, (4, 6), dist, schedule)
            for block in blocks:
                block.expectation_hq()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.7 * sum(block.amps.nbytes for block in blocks)

    @pytest.mark.parametrize("helper", [False, True])
    def test_all_x_traced_peak_below_1_7_times_the_pair(self, monkeypatch, helper):
        # every x of an n_y = 10 instance in one call, reading <H_Q>: each
        # class's blocks are dropped before the next class anneals, so the
        # peak is the largest class's, the (4, 6) pair's: 1.38 times its
        # blocks inline, 1.60 with the helper.  An int32 index per
        # amplitude and a cost grid per block traced 1.79-1.81 times them,
        # and holding a class's last block into the next class 2.08 inline
        # and 2.20 with the helper
        model, dist = model_from_instance(generate_instance(10, 0))
        force_helper(monkeypatch, helper)
        schedule = AnnealSchedule.linear(3)
        xs = range(model.d + 1)
        expected = [b.expectation_hq() for b in anneal_xs(model, xs, dist, schedule)]
        pair = sum(block.amps.nbytes for block in anneal_xs(model, (4, 6), dist, schedule))
        tracemalloc.start()
        try:
            values = anneal_xs(model, xs, dist, schedule, FeasibleBlock.expectation_hq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values == expected
        assert peak < 1.7 * pair

    @pytest.mark.parametrize("helper", [False, True])
    def test_panels_are_views_of_the_returned_blocks(self, monkeypatch, helper):
        # every panel a task receives is a column range of a returned
        # block, annealed in place; the blocks come back C-contiguous, rows
        # in ascending y (scenario column 1 matches its literal circuit), for
        # a pair of one class whose second block anneals in complement order and
        # for the lone weight n_y/2
        model, dist = model_from_instance(generate_instance(10, 0))
        schedule = AnnealSchedule.linear(3)
        force_helper(monkeypatch, helper)
        layer_panel, panels = dqa._layer_panel, []

        def recorded(phase, index, panel, u, out):
            panels.append(panel)
            return layer_panel(phase, index, panel, u, out)

        monkeypatch.setattr(dqa, "_layer_panel", recorded)
        for xs in ((4, 6), (5,)):
            panels.clear()
            blocks = anneal_xs(model, xs, dist, schedule)
            assert len(panels) == 3 * sum(block.amps.shape[1] // 128 for block in blocks)
            for panel in panels:
                assert sum(np.shares_memory(panel, block.amps) for block in blocks) == 1
            for block in blocks:
                assert block.amps.flags.c_contiguous
                assert np.array_equal(block.ys, feasible_decisions(10, model.d - block.x))
                ref = column_reference(model, block.x, 1, schedule)[block.ys] / 32
                assert np.abs(block.amps[:, 1] - ref).max() <= 1e-12

    def test_each_cost_grid_is_built_once(self, monkeypatch):
        # an expectation-mode call on every x of an n_y = 10 instance,
        # inline and with the helper, builds no cost grid: no
        # _feasible_grid, and no gather of q larger than one row range.
        # Its layers gather the phase through intp index panels, at most
        # one per thread and class, never an index per block.  psi* builds
        # its grid once per x
        model, dist = model_from_instance(generate_instance(10, 2))
        feasible_grid, cost_grid = dqa._feasible_grid, dqa._cost_grid
        anneal_class, layer_panel = dqa._anneal_class, dqa._layer_panel
        built, gathered, indexes = [], [], []

        def recorded_grid(model, x, dist):
            built.append(x)
            return feasible_grid(model, x, dist)

        def recorded_gather(table, ys, cols):
            gathered.append(len(ys) * cols)
            return cost_grid(table, ys, cols)

        def recorded_class(requests, schedule):
            indexes.append([])          # the index panels of this class
            return anneal_class(requests, schedule)

        def recorded_panel(phase, index, panel, u, out):
            indexes[-1].append(index)
            return layer_panel(phase, index, panel, u, out)

        monkeypatch.setattr(dqa, "_feasible_grid", recorded_grid)
        monkeypatch.setattr(dqa, "_cost_grid", recorded_gather)
        monkeypatch.setattr(dqa, "_anneal_class", recorded_class)
        monkeypatch.setattr(dqa, "_layer_panel", recorded_panel)
        xs = range(model.d + 1)
        for helper in (False, True):
            for T in (0, 2):
                for record in (built, gathered, indexes):
                    record.clear()
                with monkeypatch.context() as patch:
                    force_helper(patch, helper)
                    anneal_xs(model, xs, dist, AnnealSchedule.linear(T),
                              FeasibleBlock.expectation_hq)
                assert built == [] and 0 < max(gathered) <= dqa._PANEL_AMPS
                assert len(indexes) == 6
                # layers * (two blocks of 1, 1, 2, 4 and 8 panels, and one of 8)
                assert sum(map(len, indexes)) == (0 if T == 0 else 2 * (
                    2 * (1 + 1 + 2 + 4 + 8) + 8))
                for panels in indexes:
                    assert len({id(index) for index in panels}) <= 1 + helper
                    for index in panels:
                        assert index.dtype == np.intp and index.size <= dqa._PANEL_AMPS
        built.clear()
        gathered.clear()
        for x in xs:
            per_scenario_optimal_block(model, x, dist)
        assert built == list(xs)
        assert gathered == [math.comb(10, model.d - x) * 1024 for x in xs]

    @pytest.mark.parametrize("panel_amps", [None, 2 ** 9])
    def test_costs_and_expectation_without_a_grid(self, monkeypatch, panel_amps):
        # every x of an n_y = 8 instance under the uniform law and a
        # 4-scenario law, annealed and psi*: costs is the grid of
        # _feasible_grid, and <H_Q>, gathered one row range at a time (2
        # rows of 256 columns where the ranges hold 2^9 amplitudes), is the
        # sum of |amp|^2 times that grid, bit for bit
        model, uniform = model_from_instance(generate_instance(8, 8))
        scenarios = np.random.default_rng(8).permutation(2 ** 8)[:4]
        sparse = DiscreteDistribution(8, scenarios, (0.0, 0.5, 0.3, 0.2))
        if panel_amps is not None:
            monkeypatch.setattr(dqa, "_PANEL_AMPS", panel_amps)
        xs = range(model.d + 1)
        for dist in (uniform, sparse):
            annealed = anneal_xs(model, xs, dist, AnnealSchedule.linear(8))
            psi_star = [per_scenario_optimal_block(model, x, dist) for x in xs]
            for block in annealed + psi_star:
                ys, table, grid = dqa._feasible_grid(model, block.x, dist)
                assert block.ys is ys and np.array_equal(block.table, table)
                assert np.array_equal(block.costs, grid)
                expected = float(np.sum(dqa._probabilities(block.amps) * grid))
                assert block.expectation_hq().hex() == expected.hex()


def full_register_psi_star(model, x, dist):
    """psi* over the full (y, xi) register: sqrt(p(xi)) at (y*(xi), xi)."""
    y_stars, _ = scenario_optima(model, x, dist)
    amps = np.zeros(2 ** (model.n_y + dist.n_xi))
    for scenario, p, y_star in zip(dist.scenarios.tolist(),
                                   dist.probabilities.tolist(), y_stars.tolist()):
        amps[(scenario << model.n_y) | y_star] = math.sqrt(p)
    return amps


def psi_star_cases(n_y):
    """(model, dist) pairs: a generated instance under the uniform
    distribution and under an explicit one with a zero-probability
    scenario, and the same instance with every turbine cost tied."""
    model, uniform = model_from_instance(generate_instance(n_y, 50 + n_y))
    order = np.random.default_rng(n_y).permutation(2 ** n_y)
    probs = (0.0, 1.0) if n_y == 1 else (0.0, 0.5, 0.3, 0.2)
    explicit = DiscreteDistribution(n_y, order[:len(probs)], probs)
    tied = dataclasses.replace(model, c=(0.1,) * n_y)
    return [(model, uniform), (model, explicit), (tied, uniform), (tied, explicit)]


class TestPerScenarioOptimalBlock:
    @pytest.mark.parametrize("n_y", [1, 2, 3, 4, 5, 6, 7])
    def test_scatter_equals_the_full_register_psi_star(self, n_y):
        for model, dist in psi_star_cases(n_y):
            for x in range(model.d + 1):
                block = per_scenario_optimal_block(model, x, dist)
                assert block.x == x and block.amps.dtype == np.float64
                assert np.array_equal(block.ys, feasible_decisions(n_y, model.d - x))
                full = block.scatter(n_y)
                assert full.dtype == np.float64
                assert np.array_equal(full, full_register_psi_star(model, x, dist))

    @pytest.mark.parametrize("n_y", [1, 3, 5, 7, 10])
    def test_ties_go_to_the_lowest_y(self, n_y):
        # the populated row of each scenario is brute_force_Q's y*, which
        # takes the lowest bitmask among equal costs
        for model, dist in psi_star_cases(n_y):
            for x in range(model.d + 1):
                block = per_scenario_optimal_block(model, x, dist)
                for scenario, p in zip(dist.scenarios.tolist(),
                                       dist.probabilities.tolist()):
                    rows = np.flatnonzero(block.amps[:, scenario])
                    if p == 0.0:
                        assert rows.size == 0
                    else:
                        assert block.ys[rows].tolist() == [
                            brute_force_Q(model, x, scenario)[0]]

    @pytest.mark.parametrize("n_y", [1, 2, 4, 6])
    def test_block_sums_match_the_full_register(self, n_y):
        # <H_Q> over the block is phi(x), and the costs are the cost
        # diagonal on the block's rows, at rounding level
        for model, dist in psi_star_cases(n_y):
            diag = cost_diagonal(model)
            for x in range(model.d + 1):
                block = per_scenario_optimal_block(model, x, dist)
                full = full_register_psi_star(model, x, dist)
                assert abs(block.expectation_hq() - float(full ** 2 @ diag)) <= 1e-12
                assert abs(block.expectation_hq()
                           - expected_value_exact(model, x, dist)) <= 1e-12
                grid = diag.reshape(2 ** dist.n_xi, 2 ** n_y)[:, block.ys].T
                assert np.abs(block.costs - grid).max() <= 1e-12
                assert np.array_equal(block.probabilities(), block.amps ** 2)

    def test_infeasible_x_rejected(self):
        model, dist = model_from_instance(generate_instance(3, 1))
        with pytest.raises(InfeasibleDecisionError):
            per_scenario_optimal_block(model, model.d + 1, dist)

    def test_scatter_keeps_an_annealed_block_complex(self):
        model, dist = model_from_instance(generate_instance(4, 9))
        for block in anneal_xs(model, (1, 3), dist, AnnealSchedule.linear(5)):
            full = block.scatter(4)
            assert full.dtype == np.complex128
            assert np.array_equal(full, scattered(block, 4, 4))
            assert np.abs(block.probabilities() - np.abs(block.amps) ** 2).max() <= 1e-15


class TestBlockBudget:
    """A feasible block may hold at most 2^MAX_QUBITS amplitudes, the
    largest statevector the simulator allows."""

    def test_boundary(self):
        # n_y = 14: C(14, 7) * 2^14 = 56,229,888 at x = 7, while x = 4 and
        # 10 still fit at C(14, 4) * 2^14 = 16,400,384
        model, dist = model_from_instance(generate_instance(14, 1))
        refused = []
        for x in range(model.d + 1):
            try:
                check_block(model, x, dist)
            except SimulationBudgetError:
                refused.append(x)
        assert refused == [5, 6, 7, 8, 9]
        # exactly 2^24 amplitudes fit; a point-mass scenario law keeps
        # n_xi = 24 cheap to build
        model = UnitCommitmentModel(24, 0.4, (0.1,) * 24, 1.0, 24)
        dist = DiscreteDistribution.point_mass(24, 0)
        assert math.comb(24, 0) * 2 ** 24 == 2 ** MAX_QUBITS
        check_block(model, 24, dist)
        with pytest.raises(SimulationBudgetError, match="402653184"):
            check_block(model, 23, dist)

    def test_x_outside_the_domain_is_infeasible(self):
        model, dist = model_from_instance(generate_instance(3, 1))
        for x in (-1, 4):
            with pytest.raises(InfeasibleDecisionError, match=f"x={x} outside"):
                check_block(model, x, dist)

    @pytest.mark.parametrize("n_xi", [2, 5])
    def test_distribution_must_match_the_model(self, n_xi):
        # a narrower law never blows at turbines 2 and 3; a wider one
        # carries a bit no turbine reads
        model, _ = model_from_instance(generate_instance(4, 3))
        dist = DiscreteDistribution.uniform(n_xi)
        sched = AnnealSchedule.linear(3)
        for build in (lambda: check_block(model, 2, dist),
                      lambda: anneal_xs(model, (2,), dist, sched),
                      lambda: per_scenario_optimal_block(model, 2, dist),
                      lambda: build_dqa(model, 2, dist, sched)):
            with pytest.raises(ConfigError, match=f"{n_xi} scenario bits"):
                build()

    def test_oversized_block_raises_before_building_it(self, monkeypatch):
        model, dist = model_from_instance(generate_instance(16, 1))

        def refuse(*args, **kwargs):
            raise AssertionError("built a feasible grid")

        monkeypatch.setattr(dqa, "feasible_decisions", refuse)
        monkeypatch.setattr(dqa, "_cost_matrix", refuse)
        sched = AnnealSchedule.linear(3)
        for xs in ((8,), (4, 12)):
            with pytest.raises(SimulationBudgetError):
                anneal_xs(model, xs, dist, sched)
        with pytest.raises(SimulationBudgetError):
            per_scenario_optimal_block(model, 8, dist)
        # a block within the budget reaches the refused builders
        with pytest.raises(AssertionError, match="feasible grid"):
            anneal_xs(model, (16,), dist, sched)
        with pytest.raises(AssertionError, match="feasible grid"):
            per_scenario_optimal_block(model, 16, dist)


class TestExpectation:
    def test_perfect_state_gives_phi_exactly(self):
        inst = generate_instance(3, 5)
        model, dist = model_from_instance(inst)
        lay = RegisterLayout(3, 3)
        for x in range(4):
            sv = run_dqa(prepare_per_scenario_optimal(model, x, dist), lay)
            phi = expected_value_exact(model, x, dist)
            assert expectation_HQ(sv, model) == pytest.approx(phi, abs=1e-12)

    def test_product_state_gives_single_cost(self):
        model = worked_model()
        idx = (0b11 << 2) | 0b01     # y = turbine 0, xi = both windy
        sv = StateVector.basis_state(4, idx)
        assert expectation_HQ(sv, model) == pytest.approx(0.1, abs=1e-14)

    def test_uniform_feasible_superposition_gives_mean(self):
        model = worked_model()
        amps = np.zeros(16)
        support = [(0b00 << 2) | 0b01, (0b00 << 2) | 0b10]
        amps[support] = 1 / math.sqrt(2)
        sv = StateVector(4, amps.astype(complex))
        assert expectation_HQ(sv, model) == pytest.approx(1.0, abs=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="qubits"):
            expectation_HQ(StateVector(3), worked_model())


class TestResidualDiagnostics:
    def test_perfect_state_has_zero_residual(self):
        inst = generate_instance(3, 6)
        model, dist = model_from_instance(inst)
        lay = RegisterLayout(3, 3)
        sv = run_dqa(prepare_per_scenario_optimal(model, 1, dist), lay)
        diag = residual_diagnostics(sv, model, 1, dist)
        assert abs(diag.delta) < 1e-10
        assert all(abs(v - 1.0) < 1e-10 for v in diag.per_scenario_overlap.values())

    def test_initial_state_residual_is_mean_minus_min(self):
        model = worked_model()
        dist = DiscreteDistribution.uniform(2)
        lay = RegisterLayout(2, 2)
        sv = run_dqa(build_dqa(model, 1, dist, AnnealSchedule.linear(0)), lay)
        diag = residual_diagnostics(sv, model, 1, dist)
        # brute force: mean over feasible y minus the minimum, per scenario
        expected = np.mean([
            np.mean([second_stage_cost(model, 1, y, xi) for y in (0b01, 0b10)])
            - brute_force_Q(model, 1, xi)[1]
            for xi in range(4)])
        assert diag.delta == pytest.approx(expected, abs=1e-12)

    def test_variational_bound_and_decomposition(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            n_y = int(rng.integers(2, 5))
            inst = generate_instance(n_y, int(rng.integers(0, 1000)))
            model, dist = model_from_instance(inst)
            x = int(rng.integers(0, n_y + 1))
            T = int(rng.integers(1, 12))
            sv = run_dqa_fast(model, x, dist, AnnealSchedule.linear(T))
            diag = residual_diagnostics(sv, model, x, dist)
            assert diag.delta >= -1e-9
            assert abs(diag.delta_decomposed - diag.delta) < 1e-9

    def test_zero_probability_scenario_reports_none(self):
        model = worked_model()
        dist = DiscreteDistribution(2, [0b00, 0b11, 0b01], [0.5, 0.5, 0.0])
        sv = run_dqa_fast(model, 1, dist, AnnealSchedule.linear(5))
        diag = residual_diagnostics(sv, model, 1, dist)
        assert diag.per_scenario_overlap[0b01] is None
        assert diag.per_scenario_overlap[0b00] is not None


class TestScenarioIndependence:
    def test_distribution_width_does_not_change_convergence(self):
        # Sign-flip subproblems: fixed decision width and depth, growing
        # scenario register; the worst per-scenario overlap stays put.
        T = 20
        worst = []
        for n_xi in (1, 2, 3, 4):
            problem = zz_problem(n_xi)
            dist = DiscreteDistribution.uniform(n_xi)
            lay = RegisterLayout(1, n_xi)
            sv = run_dqa(build_dqa(problem, None, dist, AnnealSchedule.linear(T)),
                         lay)
            probs = sv.probabilities().reshape(2 ** n_xi, 2)   # [xi, y]
            overlaps = []
            for xi in range(2 ** n_xi):
                y_star = 1 - (bin(xi).count("1") & 1)
                overlaps.append(probs[xi, y_star] / probs[xi].sum())
            worst.append(min(overlaps))
        assert max(worst) - min(worst) <= 0.05
