"""Dense statevector simulation kernels: the gate-level reference that the
experiments' probability-vector and closed-form paths are tested against.

Qubit index 0 is the least-significant bit of the amplitude index
(little-endian).  Every gate goes through one kernel: the amplitudes are
viewed as a (2,)*n tensor with qubit q on axis n-1-q, the control axes are
narrowed to their polarities, and the gate acts on the k target axes of
that slice: by the 2^k-square matrix of a dense gate (H, X, RY and the
partial swap are dense gates), or in O(2^n) from the length-2^k vector of
a diagonal or reflection gate.  Marginals sum the probability
tensor over the unmeasured axes.  The kernel is written to be plainly
correct, not fast: no experiment applies a gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Hard cap on simulated register width (16 GiB of complex128 beyond this).
MAX_QUBITS = 24

# Largest deviation of a probability vector's sum from 1 that sampling
# accepts; a state or law further off is a bug upstream, not rounding.
PROB_SUM_TOL = 1e-9

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Gate kinds, one per operator structure.  "dense" holds the 2^k-square
# unitary of its k targets; "diagonal" holds the diagonal v of its operator
# and "reflection" a vector w for I - 2ww+/|w|^2, both of length 2^k.  H, X,
# RY and the partial swap are dense gates, a doubly controlled RY is a dense
# RY with two controls, and a phase gate, a controlled phase and the
# reflections about |0...0> are diagonal gates.
KIND_DENSE = "dense"
KIND_DIAGONAL = "diagonal"
KIND_REFLECTION = "reflection"

_KINDS = frozenset({KIND_DENSE, KIND_DIAGONAL, KIND_REFLECTION})


class SimulationBudgetError(RuntimeError):
    """Raised when a requested register exceeds the simulator qubit cap."""


@dataclass(frozen=True)
class Gate:
    """One primitive operation on a statevector.

    Args:
        kind: one of the KIND_* constants.
        targets: qubit indices the base operation acts on.
        controls: ``(qubit, polarity)`` pairs, possibly none; the base
            operation is applied only where every control qubit matches its
            polarity (1 = control on |1>, 0 = control on |0>).
        matrix: the 2^k-square unitary of a dense gate on k targets, the
            unit-modulus diagonal v of a diagonal gate or w of a reflection;
            bit i of a row or column index is the value of targets[i].
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...]
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not self.targets:
            raise ValueError(f"{self.kind} gate needs at least one target")
        tset = set(self.targets)
        if len(tset) != len(self.targets):
            raise ValueError(f"duplicate target qubits: {self.targets}")
        cset = {q for q, _ in self.controls}
        if len(cset) != len(self.controls):
            raise ValueError(f"duplicate control qubits: {self.controls}")
        if tset & cset:
            raise ValueError(
                f"targets {self.targets} and controls {self.controls} overlap"
            )
        for _, pol in self.controls:
            if pol not in (0, 1):
                raise ValueError(f"control polarity must be 0 or 1, got {pol}")
        dim = 2 ** len(self.targets)
        m = self.matrix
        shape = (dim, dim) if self.kind == KIND_DENSE else (dim,)
        if m is None or m.shape != shape:
            raise ValueError(f"{self.kind} gate on {len(self.targets)} qubits "
                             f"needs a matrix of shape {shape}")
        if self.kind == KIND_DENSE:
            err = np.abs(m.conj().T @ m - np.eye(dim)).max()
            if err > 1e-10:
                raise ValueError(f"dense matrix is not unitary (|U+U - I|max = {err:.3e})")
        elif self.kind == KIND_DIAGONAL:
            err = np.abs(np.abs(m) - 1.0).max()
            if not err <= 1e-10:
                raise ValueError(f"diagonal entries are off the unit circle by {err:.3e}")
        elif not np.vdot(m, m).real > 0.0:
            raise ValueError("reflection vector must be nonzero")

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        return ((self.kind, self.targets, self.controls)
                == (other.kind, other.targets, other.controls)
                and np.array_equal(self.matrix, other.matrix))

    def __hash__(self):
        return hash((self.kind, self.targets, self.controls, self.matrix.tobytes()))

    def adjoint(self) -> "Gate":
        if self.kind == KIND_REFLECTION:
            return self
        # .T keeps a diagonal's vector as is
        return Gate(self.kind, self.targets, self.controls,
                    np.ascontiguousarray(self.matrix.conj().T))

    def controlled(self, qubit: int, polarity: int = 1) -> "Gate":
        return Gate(self.kind, self.targets, self.controls + ((qubit, polarity),),
                    self.matrix)

    def qubits(self) -> set[int]:
        return set(self.targets) | {q for q, _ in self.controls}


# -- gate constructors --------------------------------------------------

def hadamard(q: int) -> Gate:
    return dense((q,), np.array([[1, 1], [1, -1]], dtype=complex) * _INV_SQRT2)


def pauli_x(q: int) -> Gate:
    return dense((q,), np.array([[0, 1], [1, 0]], dtype=complex))


def ry(q: int, angle: float) -> Gate:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return dense((q,), np.array([[c, -s], [s, c]], dtype=complex))


def phase(q: int, angle: float) -> Gate:
    """P(angle) = diag(1, e^{+i angle})."""
    return diagonal((q,), np.array([1.0, np.exp(1j * angle)]))


def cphase(control: int, target: int, angle: float) -> Gate:
    return phase(target, angle).controlled(control)


def ccry(control_a: int, control_b: int, target: int, angle: float) -> Gate:
    return ry(target, angle).controlled(control_a).controlled(control_b)


def cx(control: int, target: int) -> Gate:
    return pauli_x(target).controlled(control)


def partial_swap(q1: int, q2: int, angle: float) -> Gate:
    """exp(-i(angle/2)(XX+YY)): identity on |00>,|11>, the block
    [[cos a, -i sin a], [-i sin a, cos a]] on span{|01>,|10>}."""
    c, s = math.cos(angle), math.sin(angle)
    return dense((q1, q2), np.array([[1, 0, 0, 0], [0, c, -1j * s, 0],
                                     [0, -1j * s, c, 0], [0, 0, 0, 1]], dtype=complex))


def dense(targets: tuple[int, ...], matrix: np.ndarray) -> Gate:
    return Gate(KIND_DENSE, tuple(targets), (),
                np.ascontiguousarray(matrix, dtype=complex))


def diagonal(targets: tuple[int, ...], values: np.ndarray) -> Gate:
    """diag(values): basis state r of the targets is scaled by values[r]."""
    return Gate(KIND_DIAGONAL, tuple(targets), (),
                np.ascontiguousarray(values, dtype=complex))


def reflection(targets: tuple[int, ...], w: np.ndarray) -> Gate:
    """I - 2ww+/|w|^2: the Householder reflection through w's hyperplane."""
    return Gate(KIND_REFLECTION, tuple(targets), (),
                np.ascontiguousarray(w, dtype=complex))


def reflect_zero(targets: tuple[int, ...]) -> Gate:
    """I - 2|0...0><0...0| on the target register."""
    return diagonal(targets, np.concatenate(([-1.0], np.ones(2 ** len(targets) - 1))))


def ancilla_phase_flip(q: int) -> Gate:
    """Sign flip on the ancilla-|0> subspace (single-qubit reflect_zero)."""
    return reflect_zero((q,))


def swap_gates(q1: int, q2: int) -> list[Gate]:
    """Exact SWAP from three controlled-X gates."""
    return [cx(q1, q2), cx(q2, q1), cx(q1, q2)]


@dataclass(frozen=True)
class OperatorSequence:
    """Ordered gate program; invertible and controllable gate-by-gate."""

    gates: tuple[Gate, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))

    def __len__(self):
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)

    def adjoint(self) -> "OperatorSequence":
        return OperatorSequence(tuple(g.adjoint() for g in reversed(self.gates)),
                                self.label + "+")

    def qubits(self) -> set[int]:
        out: set[int] = set()
        for g in self.gates:
            out |= g.qubits()
        return out


class StateVector:
    """Dense complex amplitude array over ``num_qubits`` qubits."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray | None = None):
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        if num_qubits > MAX_QUBITS:
            raise SimulationBudgetError(
                f"{num_qubits} qubits exceeds the simulator cap of {MAX_QUBITS}")
        self.num_qubits = num_qubits
        if amplitudes is None:
            amplitudes = np.zeros(2 ** num_qubits, dtype=complex)
            amplitudes[0] = 1.0
        else:
            amplitudes = np.ascontiguousarray(amplitudes, dtype=complex)
            if amplitudes.shape != (2 ** num_qubits,):
                raise ValueError(
                    f"expected {2 ** num_qubits} amplitudes, got {amplitudes.shape}")
            nrm = np.linalg.norm(amplitudes)
            if abs(nrm - 1.0) > 1e-10:
                raise ValueError(f"state norm {nrm} deviates from 1 by more than 1e-10")
        self.amplitudes = amplitudes

    @classmethod
    def basis_state(cls, num_qubits: int, index: int) -> "StateVector":
        amps = np.zeros(2 ** num_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(num_qubits, amps)

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        a = self.amplitudes
        return (a.real * a.real + a.imag * a.imag)

    def extended(self, extra_qubits: int) -> "StateVector":
        """Append ``extra_qubits`` new qubits in |0>, as the new high bits."""
        if extra_qubits == 0:
            return self.copy()
        n = self.num_qubits + extra_qubits
        if n > MAX_QUBITS:
            raise SimulationBudgetError(
                f"{n} qubits exceeds the simulator cap of {MAX_QUBITS}")
        amps = np.zeros(2 ** n, dtype=complex)
        amps[: self.amplitudes.size] = self.amplitudes
        return StateVector(n, amps)


def fidelity(a: StateVector, b: StateVector) -> float:
    return abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2


# -- application kernel --------------------------------------------------

def apply(state: StateVector, gate: Gate) -> StateVector:
    """Apply one gate in place; returns the same StateVector.

    The amplitudes are viewed as a (2,)*n tensor with qubit q on axis
    n-1-q.  Each control axis is narrowed to its polarity, then the gate
    acts on the target axes of that slice."""
    n = state.num_qubits
    for q in gate.qubits():
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range for {n}-qubit state")
    psi = state.amplitudes.reshape((2,) * n)
    index = [slice(None)] * n
    for q, pol in gate.controls:
        index[n - 1 - q] = slice(pol, pol + 1)
    # target axes to the front, the matrix's leading bit (targets[k-1]) first
    axes = [n - 1 - t for t in reversed(gate.targets)]
    view = np.moveaxis(psi[tuple(index)], axes, range(len(axes)))
    flat = view.reshape(2 ** len(axes), -1)
    v = gate.matrix
    if gate.kind == KIND_DIAGONAL:
        out = v[:, None] * flat
    elif gate.kind == KIND_REFLECTION:
        out = flat - np.outer(v * (2.0 / np.vdot(v, v).real), v.conj() @ flat)
    else:
        out = v @ flat
    view[...] = out.reshape(view.shape)
    return state


def apply_sequence(state: StateVector, seq: OperatorSequence,
                   mode: str = "forward") -> StateVector:
    """Apply a sequence forward, or its conjugate transpose in reverse."""
    if mode == "forward":
        for g in seq.gates:
            apply(state, g)
    elif mode == "adjoint":
        for g in reversed(seq.gates):
            apply(state, g.adjoint())
    else:
        raise ValueError(f"mode must be 'forward' or 'adjoint', got {mode!r}")
    return state


def apply_controlled_sequence(state: StateVector, seq: OperatorSequence,
                              control_qubit: int, repetitions: int = 1) -> StateVector:
    """Apply seq ``repetitions`` times on the control=|1> subspace, gate by
    gate, by adding the control to every gate."""
    if control_qubit in seq.qubits():
        raise ValueError(f"control qubit {control_qubit} collides with the sequence")
    controlled = [g.controlled(control_qubit) for g in seq.gates]
    for _ in range(repetitions):
        for g in controlled:
            apply(state, g)
    return state


# -- measurement ---------------------------------------------------------

def register_distribution(state: StateVector, qubits: list[int]) -> np.ndarray:
    """Exact marginal over the listed qubits; entry r is the probability of
    the outcome whose bit i equals the value of qubits[i]."""
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"measured qubits must be distinct: {qubits}")
    n = state.num_qubits
    for q in qubits:
        if not 0 <= q < n:
            raise IndexError(f"qubit {q} out of range for {n}-qubit state")
    # measured axes to the front, the outcome's leading bit first, as in apply
    axes = [n - 1 - q for q in reversed(qubits)]
    p = np.moveaxis(state.probabilities().reshape((2,) * n), axes, range(len(axes)))
    return p.reshape(2 ** len(axes), -1).sum(axis=1)


def check_distribution(dist: np.ndarray) -> np.ndarray:
    """Return ``dist`` unchanged if it is a probability vector: no negative
    entry and a sum within PROB_SUM_TOL of 1.  Raises ValueError otherwise,
    instead of renormalising what is broken."""
    total = float(dist.sum())
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, off 1 by more "
                         f"than {PROB_SUM_TOL}")
    if dist.min() < 0.0:
        raise ValueError(f"negative probability {dist.min()!r}")
    return dist


def sample_register(state: StateVector, qubits: list[int], shots: int,
                    rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Draw ``shots`` outcomes from the register marginal without
    collapsing the stored state (i.i.d.-equivalent to re-preparing).

    Raises ValueError when the marginal fails ``check_distribution``, e.g.
    for a state that lost its normalisation."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    dist = check_distribution(register_distribution(state, qubits))
    return rng.choice(dist.size, size=shots, p=dist)


def marginal_probability(state: StateVector, qubit: int, outcome: int) -> float:
    """Exact probability of measuring ``outcome`` on one qubit.

    Raises ValueError when it lies outside [0, 1] by more than
    PROB_SUM_TOL, e.g. for a state that lost its normalisation; rounding
    within the tolerance is clipped to 1."""
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    p = float(register_distribution(state, [qubit])[outcome])
    if not -PROB_SUM_TOL <= p <= 1.0 + PROB_SUM_TOL:
        raise ValueError(f"marginal probability {p!r} outside [0, 1] by more "
                         f"than {PROB_SUM_TOL}")
    return min(p, 1.0)


def sequence_to_matrix(seq: OperatorSequence, num_qubits: int) -> np.ndarray:
    """Materialize a sequence as a dense matrix (small registers only)."""
    dim = 2 ** num_qubits
    if num_qubits > 12:
        raise SimulationBudgetError("sequence_to_matrix is for small registers")
    out = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        sv = StateVector.basis_state(num_qubits, col)
        apply_sequence(sv, seq)
        out[:, col] = sv.amplitudes
    return out
