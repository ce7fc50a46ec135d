"""Simulator kernel tests: gate semantics, adjoints, controls, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spq.statevector import (
    KIND_DENSE,
    KIND_DIAGONAL,
    KIND_REFLECTION,
    Gate,
    OperatorSequence,
    SimulationBudgetError,
    StateVector,
    ancilla_phase_flip,
    apply,
    apply_controlled_sequence,
    apply_sequence,
    ccry,
    cphase,
    cx,
    dense,
    diagonal,
    hadamard,
    marginal_probability,
    partial_swap,
    pauli_x,
    phase,
    reflect_zero,
    reflection,
    register_distribution,
    ry,
    sample_register,
    sequence_to_matrix,
    swap_gates,
)


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


def random_sequence(n, n_gates, seed=0):
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(n_gates):
        kind = rng.integers(0, 7)
        q = int(rng.integers(0, n))
        ang = float(rng.uniform(-np.pi, np.pi))
        if kind == 0:
            gates.append(hadamard(q))
        elif kind == 1:
            gates.append(pauli_x(q))
        elif kind == 2:
            gates.append(ry(q, ang))
        elif kind == 3:
            gates.append(phase(q, ang))
        elif kind == 4 and n >= 2:
            r = int(rng.integers(0, n - 1))
            r += r >= q
            gates.append(partial_swap(q, r, ang))
        elif kind == 5 and n >= 2:
            r = int(rng.integers(0, n - 1))
            r += r >= q
            gates.append(cphase(r, q, ang))
        else:
            gates.append(reflect_zero(tuple(range(n))))
    return OperatorSequence(tuple(gates))


def hermitian_exponential(h, scale):
    """exp(1j * scale * h) for Hermitian h, by eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return v @ np.diag(np.exp(1j * scale * w)) @ v.conj().T


class TestGateSemantics:
    def test_hadamard_on_zero(self):
        sv = apply(StateVector(1), hadamard(0))
        assert np.allclose(sv.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_partial_swap_block_matches_exponential(self):
        # oracle: exponentiate (X X + Y Y) directly
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        h = np.kron(x, x) + np.kron(y, y)
        for beta in (0.3, np.pi / 2, -1.2):
            expected = hermitian_exponential(h, -beta / 2)
            got = sequence_to_matrix(OperatorSequence((partial_swap(0, 1, beta),)), 2)
            assert np.abs(got - expected).max() < 1e-12

    def test_partial_swap_half_pi_maps_01_to_minus_i_10(self):
        sv = StateVector.basis_state(2, 0b01)
        apply(sv, partial_swap(0, 1, np.pi / 2))
        expected = np.zeros(4, dtype=complex)
        expected[0b10] = -1j
        assert np.abs(sv.amplitudes - expected).max() < 1e-12

    def test_partial_swap_preserves_00_and_11(self):
        for idx in (0b00, 0b11):
            sv = StateVector.basis_state(2, idx)
            apply(sv, partial_swap(0, 1, 0.7))
            assert abs(sv.amplitudes[idx] - 1.0) < 1e-12

    def test_reflect_zero_flips_only_all_zeros(self):
        amps = np.zeros(4, dtype=complex)
        amps[0b00] = amps[0b01] = 1 / math.sqrt(2)
        sv = StateVector(2, amps)
        apply(sv, reflect_zero((0, 1)))
        assert abs(sv.amplitudes[0b00] + 1 / math.sqrt(2)) < 1e-12
        assert abs(sv.amplitudes[0b01] - 1 / math.sqrt(2)) < 1e-12

    def test_phase_convention_positive_exponent(self):
        sv = StateVector(1, np.array([0, 1], dtype=complex))
        apply(sv, phase(0, 0.5))
        assert abs(sv.amplitudes[1] - np.exp(0.5j)) < 1e-12

    def test_ancilla_phase_flip_hits_zero_branch(self):
        amps = np.ones(2, dtype=complex) / math.sqrt(2)
        sv = StateVector(1, amps)
        apply(sv, ancilla_phase_flip(0))
        assert abs(sv.amplitudes[0] + 1 / math.sqrt(2)) < 1e-12
        assert abs(sv.amplitudes[1] - 1 / math.sqrt(2)) < 1e-12

    def test_dense_matches_explicit_operator_on_scrambled_targets(self):
        rng = np.random.default_rng(5)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        sv1 = random_state(4, seed=3)
        sv2 = sv1.copy()
        apply(sv1, dense((2, 0), u))          # non-contiguous target order
        # oracle: place u explicitly (gate bit 0 <-> qubit 2, bit 1 <-> qubit 0)
        op = np.zeros((16, 16), dtype=complex)
        for i in range(16):
            for j in range(16):
                if (i >> 1) & 1 == (j >> 1) & 1 and (i >> 3) & 1 == (j >> 3) & 1:
                    row = ((i >> 2) & 1) | ((i & 1) << 1)
                    col = ((j >> 2) & 1) | ((j & 1) << 1)
                    op[i, j] = u[row, col]
        expected = op @ sv2.amplitudes
        assert np.abs(sv1.amplitudes - expected).max() < 1e-12

    def test_non_unitary_dense_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            dense((0,), np.array([[1, 0], [0, 2]], dtype=complex))

    def test_unitarity_checked_on_real_and_complex_matrices(self):
        # real and complex matrices are both checked with U+U at 1e-10
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((8, 8)))
        dense((0, 1, 2), q)
        dense((0, 1, 2), q * np.exp(0.7j))
        Gate(KIND_DENSE, (0, 1, 2), (), q)
        scaled = q.copy()
        scaled[:, 5] *= 1 + 1e-9
        # the real part is orthogonal, so only the imaginary part breaks it
        tilted = q + 1e-6j * np.eye(8)
        for bad in (scaled, scaled.astype(complex), tilted, tilted * np.exp(0.7j)):
            with pytest.raises(ValueError, match="unitary"):
                dense((0, 1, 2), bad)
        with pytest.raises(ValueError, match="unitary"):
            Gate(KIND_DENSE, (0, 1, 2), (), scaled)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply(StateVector(2), hadamard(5))

    def test_overlapping_targets_and_controls_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            ry(1, 0.3).controlled(1)

    def test_dense_matrix_of_wrong_shape_rejected(self):
        for targets, matrix in (((0, 1), np.eye(2)), ((0,), np.eye(4)),
                                ((0,), np.ones(2)), ((0, 1), np.eye(4)[:, :2])):
            with pytest.raises(ValueError, match="shape"):
                dense(targets, matrix)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("cz", (0,), (), np.eye(2))

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError, match="at least one target"):
            Gate(KIND_DIAGONAL, (), (), np.ones(1))

    def test_gate_without_matrix_rejected(self):
        for kind in (KIND_DENSE, KIND_DIAGONAL, KIND_REFLECTION):
            with pytest.raises(TypeError, match="matrix"):
                Gate(kind, (0,), ())
            with pytest.raises(ValueError, match="needs a matrix"):
                Gate(kind, (0,), (), None)

    @pytest.mark.parametrize("make", [diagonal, reflection])
    def test_vector_of_wrong_length_rejected(self, make):
        for values in (np.ones(2), np.ones(8), np.ones((4, 4))):
            with pytest.raises(ValueError, match="shape"):
                make((0, 1), values)

    def test_diagonal_entry_off_unit_circle_rejected(self):
        diagonal((0,), np.exp(1j * np.array([0.3, -1.1])))
        for bad in ([1.0, 1.0 + 1e-9], [1.0, 0.0], [1.0, np.nan]):
            with pytest.raises(ValueError, match="unit circle"):
                diagonal((0,), np.array(bad))

    def test_zero_reflection_vector_rejected(self):
        reflection((0, 1), np.array([0, 0, 1e-100, 0]))
        with pytest.raises(ValueError, match="nonzero"):
            reflection((0, 1), np.zeros(4))

    def test_qubit_budget(self):
        with pytest.raises(SimulationBudgetError):
            StateVector(25)

    def test_dense_gates_differing_in_matrix_are_distinct(self):
        c, s = math.cos(0.3), math.sin(0.3)
        a = dense((0, 1), np.eye(4))
        b = dense((0, 1), np.kron(np.eye(2), [[c, -s], [s, c]]))
        assert a != b
        assert len({a, b}) == 2
        same = dense((0, 1), np.eye(4))
        assert a == same and hash(a) == hash(same)
        assert a != dense((1, 0), np.eye(4))
        assert hadamard(0) == hadamard(0) and hadamard(0) != a

    @pytest.mark.parametrize("angle", [0.0, 0.3, -1.2, math.pi / 2, 2.5, -2 * math.pi])
    def test_named_gates_hold_their_matrices(self, angle):
        # each matrix written out entry by entry; bit i of a row or column
        # index is the value of targets[i]
        h = np.zeros((2, 2), dtype=complex)
        h[0, 0] = h[0, 1] = h[1, 0] = 1 / math.sqrt(2)
        h[1, 1] = -1 / math.sqrt(2)
        x = np.zeros((2, 2), dtype=complex)
        x[0, 1] = x[1, 0] = 1.0
        r = np.zeros((2, 2), dtype=complex)
        r[0, 0] = r[1, 1] = math.cos(angle / 2)
        r[1, 0] = math.sin(angle / 2)
        r[0, 1] = -math.sin(angle / 2)
        p = np.zeros((4, 4), dtype=complex)
        p[0b00, 0b00] = p[0b11, 0b11] = 1.0
        p[0b01, 0b01] = p[0b10, 0b10] = math.cos(angle)
        p[0b01, 0b10] = p[0b10, 0b01] = -1j * math.sin(angle)
        for gate, targets, u in ((hadamard(3), (3,), h), (pauli_x(3), (3,), x),
                                 (ry(3, angle), (3,), r),
                                 (partial_swap(3, 1, angle), (3, 1), p)):
            assert (gate.kind, gate.targets, gate.controls) == (KIND_DENSE, targets, ())
            assert np.abs(gate.matrix - u).max() <= 1e-15
        assert ccry(0, 1, 3, angle) == Gate(KIND_DENSE, (3,), ((0, 1), (1, 1)), r)
        assert cx(0, 3) == Gate(KIND_DENSE, (3,), ((0, 1),), x)


class TestSequences:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forward_then_adjoint_is_identity(self, seed):
        n = 6
        seq = random_sequence(n, 100, seed=seed)
        sv = random_state(n, seed=seed + 10)
        ref = sv.copy()
        apply_sequence(sv, seq, "forward")
        assert abs(sv.norm() - 1.0) < 1e-10
        apply_sequence(sv, seq, "adjoint")
        assert np.abs(sv.amplitudes - ref.amplitudes).max() < 1e-9

    def test_empty_sequence_is_identity(self):
        sv = random_state(3)
        ref = sv.copy()
        apply_sequence(sv, OperatorSequence(()))
        assert np.array_equal(sv.amplitudes, ref.amplitudes)

    def test_adjoint_of_ry_is_negated_angle(self):
        sv1 = random_state(2, seed=4)
        sv2 = sv1.copy()
        apply_sequence(sv1, OperatorSequence((ry(0, 0.8),)), "adjoint")
        apply(sv2, ry(0, -0.8))
        assert np.abs(sv1.amplitudes - sv2.amplitudes).max() < 1e-12

    def test_norm_preserved_by_every_gate(self):
        sv = random_state(5, seed=7)
        for g in random_sequence(5, 60, seed=8):
            apply(sv, g)
            assert abs(sv.norm() - 1.0) < 1e-10

    def test_swap_gates_exact(self):
        got = sequence_to_matrix(OperatorSequence(tuple(swap_gates(0, 1))), 2)
        expected = np.eye(4)[[0, 2, 1, 3]]
        assert np.abs(got - expected).max() < 1e-12


class TestControlledApplication:
    def test_control_off_leaves_state(self):
        seq = random_sequence(3, 20, seed=1)
        sv = random_state(4, seed=2)   # qubit 3 is |0> or |1> mixed in
        # force control qubit to |0>
        amps = np.zeros(16, dtype=complex)
        amps[:8] = sv.amplitudes[:8]
        amps /= np.linalg.norm(amps)
        sv = StateVector(4, amps)
        ref = sv.copy()
        apply_controlled_sequence(sv, seq, control_qubit=3)
        assert np.abs(sv.amplitudes - ref.amplitudes).max() < 1e-12

    def test_control_on_equals_plain_application(self):
        seq = random_sequence(3, 20, seed=3)
        rng = np.random.default_rng(11)
        lower = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        lower /= np.linalg.norm(lower)
        amps = np.zeros(16, dtype=complex)
        amps[8:] = lower                       # control qubit 3 in |1>
        sv = StateVector(4, amps)
        apply_controlled_sequence(sv, seq, control_qubit=3)
        direct = StateVector(3, lower.copy())
        apply_sequence(direct, seq)
        assert np.abs(sv.amplitudes[8:] - direct.amplitudes).max() < 1e-10
        assert np.abs(sv.amplitudes[:8]).max() == 0.0

    def test_two_repetitions_of_phase_compose(self):
        sv1 = random_state(2, seed=6)
        sv2 = sv1.copy()
        # force control |1> on qubit 1 not needed: compare plain composition
        seq = OperatorSequence((phase(0, np.pi / 4),))
        full = sv1.extended(1)
        # put the control in |1>
        amps = np.zeros(8, dtype=complex)
        amps[4:] = sv1.amplitudes
        full = StateVector(3, amps)
        apply_controlled_sequence(full, seq, control_qubit=2, repetitions=2)
        apply(sv2, phase(0, np.pi / 2))
        assert np.abs(full.amplitudes[4:] - sv2.amplitudes).max() < 1e-12

    def test_control_collision_rejected(self):
        seq = OperatorSequence((hadamard(0),))
        with pytest.raises(ValueError, match="collides"):
            apply_controlled_sequence(random_state(2), seq, control_qubit=0)

    def test_ccry_truth_table(self):
        # rotation fires only when both controls are |1>
        ang = 0.9
        for c1 in (0, 1):
            for c2 in (0, 1):
                idx = c1 | (c2 << 1)
                sv = StateVector.basis_state(3, idx)
                apply(sv, ccry(0, 1, 2, ang))
                p1 = marginal_probability(sv, 2, 1)
                expected = math.sin(ang / 2) ** 2 if c1 and c2 else 0.0
                assert abs(p1 - expected) < 1e-12


class TestMeasurement:
    def test_basis_state_is_certain(self):
        sv = StateVector.basis_state(3, 0b101)
        assert sample_register(sv, [0, 1, 2], 1, 0)[0] == 0b101
        # non-collapsing: the stored state is untouched
        assert abs(sv.amplitudes[0b101] - 1.0) < 1e-15

    def test_born_rule_frequencies(self):
        sv = apply(StateVector(1), hadamard(0))
        outcomes = sample_register(sv, [0], 100_000, np.random.default_rng(42))
        freq = outcomes.mean()
        assert abs(freq - 0.5) < 0.01

    def test_sampling_matches_marginal_within_4_sigma(self):
        sv = random_state(4, seed=9)
        shots = 40_000
        outcomes = sample_register(sv, [2], shots, np.random.default_rng(1))
        p = marginal_probability(sv, 2, 1)
        sigma = math.sqrt(p * (1 - p) / shots)
        assert abs(outcomes.mean() - p) < 4 * sigma

    def test_sampling_rejects_unnormalised_state(self):
        sv = random_state(3, seed=4)
        sv.amplitudes *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="sum to"):
            sample_register(sv, [0, 1], 10, np.random.default_rng(0))

    def test_register_distribution_sums_to_one(self):
        sv = random_state(5, seed=12)
        for qubits in ([0, 1], [3, 4], [1, 3]):
            dist = register_distribution(sv, qubits)
            assert abs(dist.sum() - 1.0) < 1e-12

    def test_marginal_of_uniform_two_qubit_state(self):
        sv = StateVector(2, np.full(4, 0.5, dtype=complex))
        for q in (0, 1):
            assert abs(marginal_probability(sv, q, 1) - 0.5) < 1e-12

    def test_ancilla_in_one_state(self):
        sv = StateVector.basis_state(1, 1)
        assert marginal_probability(sv, 0, 1) == 1.0

    def test_marginal_rejects_unnormalised_state(self):
        # scaled after construction, past the norm check: the marginal is
        # not clipped back into [0, 1]
        sv = StateVector.basis_state(2, 0b10)
        sv.amplitudes *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="outside"):
            marginal_probability(sv, 1, 1)
        # rounding-sized excess stays within PROB_SUM_TOL and reads as 1
        sv = StateVector.basis_state(2, 0b10)
        sv.amplitudes *= 1.0 + 1e-12
        assert marginal_probability(sv, 1, 1) == 1.0

    def test_measured_qubits_must_be_distinct(self):
        with pytest.raises(ValueError):
            register_distribution(random_state(3), [1, 1])


class TestStateVector:
    def test_length_is_power_of_two(self):
        sv = StateVector(4)
        assert sv.amplitudes.size == 16

    def test_norm_validated_on_construction(self):
        with pytest.raises(ValueError, match="norm"):
            StateVector(1, np.array([1.0, 1.0], dtype=complex))

    def test_extended_appends_zero_qubits(self):
        sv = random_state(2, seed=13)
        big = sv.extended(1)
        assert big.num_qubits == 3
        assert np.array_equal(big.amplitudes[:4], sv.amplitudes)
        assert np.abs(big.amplitudes[4:]).max() == 0.0

    def test_cx_matches_cnot_matrix(self):
        got = sequence_to_matrix(OperatorSequence((cx(0, 1),)), 2)
        expected = np.eye(4)[[0, 3, 2, 1]]
        assert np.abs(got - expected).max() < 1e-12


# -- whole-register reference ---------------------------------------------

def local_matrix(kind, k, matrix):
    """The gate's 2^k-square matrix, bit i of a row/column <-> targets[i],
    written out entry by entry."""
    if kind == KIND_DENSE:
        return matrix
    u = np.zeros((2 ** k, 2 ** k), dtype=complex)
    if kind == KIND_DIAGONAL:
        for r in range(2 ** k):
            u[r, r] = matrix[r]
    elif kind == KIND_REFLECTION:
        norm2 = sum(abs(w) ** 2 for w in matrix)
        for r in range(2 ** k):
            for c in range(2 ** k):
                u[r, c] = (r == c) - 2 * matrix[r] * matrix[c].conjugate() / norm2
    return u


def full_matrix(n, targets, controls, u):
    """2^n-square operator of ``u`` on ``targets`` under ``controls``, built
    by looping over basis indices."""
    dim = 2 ** n
    op = np.zeros((dim, dim), dtype=complex)
    tmask = sum(1 << t for t in targets)
    for j in range(dim):
        if any((j >> q) & 1 != pol for q, pol in controls):
            op[j, j] = 1.0
            continue
        col = sum(((j >> t) & 1) << b for b, t in enumerate(targets))
        for row in range(2 ** len(targets)):
            i = j & ~tmask
            for b, t in enumerate(targets):
                i |= ((row >> b) & 1) << t
            op[i, j] = u[row, col]
    return op


@st.composite
def gates_on_register(draw):
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from([KIND_DENSE, KIND_DIAGONAL, KIND_REFLECTION]))
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, n))
    targets = tuple(order[:k])
    n_controls = draw(st.integers(0, n - k))
    controls = tuple((q, draw(st.integers(0, 1))) for q in order[k:k + n_controls])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = 2 ** k
    if kind == KIND_DENSE:
        matrix, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                                 + 1j * rng.standard_normal((dim, dim)))
    elif kind == KIND_DIAGONAL:
        matrix = np.exp(1j * rng.uniform(-math.pi, math.pi, dim))
    else:
        matrix = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    gate = Gate(kind, targets, controls, matrix)
    return n, gate, draw(st.integers(0, 2 ** 32 - 1))


def brute_force_distribution(probs, qubits):
    idx = np.arange(probs.size)
    key = np.zeros(probs.size, dtype=np.int64)
    for bit, q in enumerate(qubits):
        key += ((idx >> q) & 1) << bit
    return np.bincount(key, weights=probs, minlength=2 ** len(qubits))


class TestAgainstFullMatrix:
    @settings(max_examples=300, deadline=None)
    @given(gates_on_register())
    def test_apply_matches_full_matrix(self, case):
        n, gate, seed = case
        sv = random_state(n, seed=seed)
        before = sv.amplitudes.copy()
        u = local_matrix(gate.kind, len(gate.targets), gate.matrix)
        expected = full_matrix(n, gate.targets, gate.controls, u) @ before
        apply(sv, gate)
        assert np.abs(sv.amplitudes - expected).max() <= 1e-12
        apply(sv, gate.adjoint())
        assert np.abs(sv.amplitudes - before).max() <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.permutations(range(n)), st.integers(0, n),
        st.integers(0, 2 ** 32 - 1))))
    def test_marginals_match_bincount(self, case):
        n, order, k, seed = case
        sv = random_state(n, seed=seed)
        qubits = list(order[:k])
        probs = np.abs(sv.amplitudes) ** 2
        got = register_distribution(sv, qubits)
        assert got.shape == (2 ** k,)
        assert np.abs(got - brute_force_distribution(probs, qubits)).max() <= 1e-12
        for q in range(n):
            ref = brute_force_distribution(probs, [q])
            for outcome in (0, 1):
                assert abs(marginal_probability(sv, q, outcome) - ref[outcome]) <= 1e-12
