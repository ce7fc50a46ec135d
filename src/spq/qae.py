"""Canonical quantum amplitude estimation.

State preparation A = oracle after DQA, the Grover operator
Q = A S0 A+ S_psi0, and m-qubit phase estimation with an exact inverse
QFT.  The measured integer b maps to the amplitude estimate
sin^2(pi b / 2^m), so estimates live on a fixed grid; b and 2^m - b yield
the same value.

The law of b depends on A only through a = Pr[ancilla = 1] of A|0>, and
has a closed form (``readout_distribution``); every estimate is drawn from
it.  The simulated phase-estimation circuits (``qpe_state``,
``qpe_state_gates``) are the references the law is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statevector import (
    MAX_QUBITS,
    PROB_SUM_TOL,
    OperatorSequence,
    SimulationBudgetError,
    StateVector,
    ancilla_phase_flip,
    apply,
    apply_controlled_sequence,
    apply_sequence,
    check_distribution,
    cphase,
    hadamard,
    marginal_probability,
    reflect_zero,
    swap_gates,
)


@dataclass(frozen=True)
class QaeConfig:
    """Estimate-register width and sampling plan.

    One run applies the Grover operator 2^m - 1 times, i.e. 2^(m+1) - 1
    applications of A counting both orientations.
    """

    m: int
    repetitions: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if not 1 <= self.m <= 12:
            raise ValueError(f"estimate qubits m={self.m} outside [1, 12]")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    @property
    def M(self) -> int:
        return 2 ** self.m

    @property
    def a_applications(self) -> int:
        return 2 ** (self.m + 1) - 1


@dataclass(frozen=True)
class QaeEstimates:
    """``repetitions`` amplitude-estimation readouts, as arrays in draw
    order: the integers ``b`` and the amplitude estimates
    a_hat = sin^2(pi b / M), never rescaled to a cost."""

    b: np.ndarray
    a_hat: np.ndarray


def build_qft(qubits: tuple[int, ...]) -> OperatorSequence:
    """QFT on the register: |k> -> M^{-1/2} sum_b e^{2 pi i k b / M} |b>,
    with bit i of k on qubits[i]."""
    m = len(qubits)
    gates = []
    for i in range(m - 1, -1, -1):
        gates.append(hadamard(qubits[i]))
        for j in range(i - 1, -1, -1):
            gates.append(cphase(qubits[j], qubits[i], math.pi / 2 ** (i - j)))
    for i in range(m // 2):
        gates.extend(swap_gates(qubits[i], qubits[m - 1 - i]))
    return OperatorSequence(tuple(gates), "qft")


def build_inverse_qft(qubits: tuple[int, ...]) -> OperatorSequence:
    return build_qft(qubits).adjoint()


def build_A(dqa_seq: OperatorSequence, oracle_seq: OperatorSequence) -> OperatorSequence:
    """State preparation: the oracle applied after the annealing circuit."""
    return OperatorSequence(dqa_seq.gates + oracle_seq.gates, "A")


def build_grover(A_seq: OperatorSequence, layout) -> OperatorSequence:
    """Q = A S0 A+ S_psi0.

    S0 reflects about all-zeros on the system qubits.  S_psi0 is realized
    as a phase flip on the ancilla-|0> subspace, which agrees with the
    rank-one reflection on the two-dimensional subspace reachable from
    A|0>; the rotation-by-2-theta test pins this.
    """
    if layout.ancilla is None:
        raise ValueError("Grover construction needs an ancilla in the layout")
    system = tuple(range(layout.num_system_qubits))
    extra = A_seq.qubits() - set(system)
    if extra:
        raise ValueError(f"A touches qubits {sorted(extra)} outside the system register")
    gates = (ancilla_phase_flip(layout.ancilla),)
    gates += A_seq.adjoint().gates
    gates += (reflect_zero(system),)
    gates += A_seq.gates
    return OperatorSequence(gates, "Q")


def check_budget(n_system_qubits: int, m: int) -> None:
    """Raise SimulationBudgetError when system qubits plus m estimate qubits
    exceed the simulator cap; callers run it before any anneal."""
    total = n_system_qubits + m
    if total > MAX_QUBITS:
        raise SimulationBudgetError(
            f"QAE needs {total} qubits, over the simulator cap of {MAX_QUBITS}")


def qpe_state(A_seq: OperatorSequence, config: QaeConfig, layout) -> StateVector:
    """Final phase-estimation state over (system, estimate) registers; a
    simulated reference for ``readout_distribution``.

    Computed by stacking Q^k A|0> for k = 0..M-1 and applying the inverse
    QFT as a discrete Fourier transform along the estimate axis; this is
    gate-for-gate equivalent to the controlled-power circuit (pinned by a
    test) at a fraction of the cost.
    """
    n_sys = layout.num_system_qubits
    check_budget(n_sys, config.m)
    grover = build_grover(A_seq, layout)
    M = config.M
    psi = StateVector(n_sys)
    apply_sequence(psi, A_seq)
    stack = np.empty((M, 2 ** n_sys), dtype=complex)
    for k in range(M):
        stack[k] = psi.amplitudes
        if k < M - 1:
            apply_sequence(psi, grover)
    final = np.fft.fft(stack, axis=0) / M
    return StateVector(n_sys + config.m, final.reshape(-1))


def qpe_state_gates(A_seq: OperatorSequence, config: QaeConfig, layout) -> StateVector:
    """Reference gate-level phase estimation: Hadamards on the estimate
    register, controlled Q^(2^j) per estimate qubit, exact inverse QFT."""
    n_sys = layout.num_system_qubits
    check_budget(n_sys, config.m)
    est = tuple(range(n_sys, n_sys + config.m))
    grover = build_grover(A_seq, layout)
    state = StateVector(n_sys + config.m)
    apply_sequence(state, A_seq)
    for q in est:
        apply(state, hadamard(q))
    for j, q in enumerate(est):
        apply_controlled_sequence(state, grover, q, repetitions=2 ** j)
    apply_sequence(state, build_inverse_qft(est))
    return state


def readout_distribution(a: float, m: int) -> np.ndarray:
    """Exact law of the m-qubit phase-estimation readout b for a state
    preparation with Pr[ancilla = 1] = a; entry b is Pr[b], b < M = 2^m.

    Brassard, Hoyer, Mosca and Tapp (quant-ph/0005055), Thm 11:
    Pr[b] = (F(b/M - theta) + F(b/M + theta)) / 2 with
    theta = asin(sqrt(a)) / pi and the Fejer kernel
    F(d) = sin^2(M pi d) / (M^2 sin^2(pi d)).  It holds for any A under
    ``build_grover``, because Q rotates the two-dimensional subspace
    reachable from A|0> by 2 pi theta.

    With M theta = k + r, k an integer and |r| <= 1/2, the numerator is
    sin^2(pi r) for every b, and offsets are reduced mod M before the sine.
    An on-grid amplitude (r = 0, which includes a = 0 and a = 1) thus puts
    mass 1/2 on b = k and 1/2 on b = -k mod M exactly.
    """
    if m < 1:
        raise ValueError(f"estimate qubits m={m} must be >= 1")
    if not -PROB_SUM_TOL <= a <= 1.0 + PROB_SUM_TOL:
        raise ValueError(f"amplitude {a!r} outside [0, 1]")
    M = 2 ** m
    phase = M * math.asin(math.sqrt(min(max(a, 0.0), 1.0))) / math.pi
    k = round(phase)
    r = phase - k
    if r == 0.0:
        law = np.zeros(M)
        law[k] += 0.5
        law[-k % M] += 0.5
        return law
    # each kernel is squared after the division, so a tiny r cannot underflow
    b = np.arange(M)
    numerator = math.sin(math.pi * r) / M
    below = numerator / np.sin(np.pi * (np.mod(b - k, M) - r) / M)
    above = numerator / np.sin(np.pi * (np.mod(b + k, M) + r) / M)
    return check_distribution(0.5 * (below * below + above * above))


def sample_readout(a: float, config: QaeConfig, n_system_qubits: int) -> np.ndarray:
    """Draw ``config.repetitions`` readouts b from the law of a.

    The generator seeded with ``config.rng_seed`` is consumed as
    ``sample_register`` consumes it on the simulated phase-estimation
    state, so both draw the same b.  The circuit is not simulated, but it
    is held to the simulator's qubit cap: system qubits plus m above
    MAX_QUBITS raise SimulationBudgetError.
    """
    check_budget(n_system_qubits, config.m)
    law = readout_distribution(a, config.m)
    return np.random.default_rng(config.rng_seed).choice(
        law.size, size=config.repetitions, p=law)


def ancilla_marginal(A_seq: OperatorSequence, layout) -> float:
    """Pr[ancilla = 1] of A|0> on the system register, prepared gate by gate."""
    state = StateVector(layout.num_system_qubits)
    apply_sequence(state, A_seq)
    return marginal_probability(state, layout.ancilla, 1)


def qae_from_amplitude(a: float, config: QaeConfig,
                       n_system_qubits: int) -> QaeEstimates:
    """Phase estimation on the Grover operator of any A whose ancilla
    marginal is ``a``: ``repetitions`` readouts and their amplitudes."""
    b = sample_readout(a, config, n_system_qubits)
    return QaeEstimates(b, (np.sin(np.pi * np.arange(config.M) / config.M) ** 2)[b])


def run_qae(A_seq: OperatorSequence, config: QaeConfig, layout) -> QaeEstimates:
    """Phase estimation on the Grover operator of A: prepares A|0> once and
    draws ``repetitions`` readouts from the law of its ancilla marginal."""
    return qae_from_amplitude(ancilla_marginal(A_seq, layout), config,
                              layout.num_system_qubits)


def mc_from_amplitude(a: float, shots: int, rng: np.random.Generator,
                      n_estimates: int) -> np.ndarray:
    """Batch of independent Monte Carlo estimates: the |1> frequency of
    ``shots`` ancilla measurements on a preparation with Pr[1] = a."""
    return rng.binomial(shots, a, size=n_estimates) / shots


def mc_estimate_batch(A_seq: OperatorSequence, shots: int, layout,
                      rng: np.random.Generator, n_estimates: int) -> np.ndarray:
    """Batch of independent Monte Carlo estimates from one prepared state
    (non-collapsing sampling is i.i.d.-equivalent to re-preparing)."""
    return mc_from_amplitude(ancilla_marginal(A_seq, layout), shots, rng, n_estimates)


def error_bound_check(a_hat, a_true, M: int):
    """|a_hat - a_true| <= pi/M + pi^2/M^2 (the canonical confidence box),
    elementwise: a bool for floats, a boolean array for arrays."""
    return abs(a_hat - a_true) <= math.pi / M + math.pi ** 2 / M ** 2
