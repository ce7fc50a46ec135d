"""Scenario-controlled digitized quantum annealing.

The circuit prepares a constrained superposition on the decision register
and the scenario distribution on its own register, then alternates cost,
penalty, and Hamming-weight-preserving mixer layers along a linear
annealing ramp.  The scenario register is only ever used as control logic,
so its probability marginal is preserved exactly.

Sign conventions: the unit-commitment phases use P(theta) = diag(1,
e^{+i theta}) with raw cost angles, and the mixer is the partial swap
exp(-i(beta/2)(XX+YY)); the generic-problem path uses the cost unitary
e^{-i gamma H} with mixer gates e^{+i beta X}.  Each pairing drives the
decision register toward the per-scenario cost minimum (the uniform
initial state is the mixer ground state); the worked two-qubit example in
the tests pins both conventions.

The gate-level circuits use one qubit packing (``RegisterLayout``): y on
the low qubits, xi above it, then the QAE ancilla.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cache

import numpy as np

from .model import (
    ConfigError,
    DiscreteDistribution,
    GenericDiagonalProblem,
    InfeasibleDecisionError,
    UnitCommitmentModel,
    as_integer,
    cost_diagonal,
    expected_value_exact,
    feasible_decisions,
    _cost_matrix,
    _cost_table,
)
from .statevector import (
    Gate,
    MAX_QUBITS,
    OperatorSequence,
    PROB_SUM_TOL,
    SimulationBudgetError,
    StateVector,
    apply_sequence,
    cphase,
    dense,
    diagonal,
    hadamard,
    partial_swap,
    pauli_x,
    reflection,
)


@dataclass(frozen=True)
class AnnealSchedule:
    """Layer count of the fixed linear ramp a(t) = t/T, b(t) = 1 - t/T.

    The time step is absorbed into the layer index, so layer t uses the
    cost and mixer angles (a(t), b(t)) for t = 1..T; a(0) = 0 and
    b(T) = 0.
    """

    T: int

    def __post_init__(self):
        object.__setattr__(self, "T", as_integer("T", self.T))
        if self.T < 0:
            raise ConfigError(f"annealing layer count T must be nonnegative, got {self.T}")

    @classmethod
    def linear(cls, T: int) -> "AnnealSchedule":
        return cls(T)

    def cost_angle(self, t: int) -> float:
        return t / self.T

    def mixer_angle(self, t: int) -> float:
        return 1.0 - t / self.T

    def mixer_angles(self) -> np.ndarray:
        return np.array([self.mixer_angle(t) for t in range(1, self.T + 1)])


@dataclass(frozen=True)
class RegisterLayout:
    """The circuit's one qubit packing: y on qubits [0, n_y), xi on
    [n_y, n_y + n_xi), then the QAE ancilla if included.  Phase estimation
    puts its estimate qubits above these (``qae.qpe_state``)."""

    n_y: int
    n_xi: int
    include_ancilla: bool = False

    @property
    def y_register(self) -> tuple[int, ...]:
        return tuple(range(self.n_y))

    @property
    def xi_register(self) -> tuple[int, ...]:
        return tuple(range(self.n_y, self.num_problem_qubits))

    @property
    def ancilla(self) -> int | None:
        return self.num_problem_qubits if self.include_ancilla else None

    @property
    def num_problem_qubits(self) -> int:
        return self.n_y + self.n_xi

    @property
    def num_system_qubits(self) -> int:
        return self.num_problem_qubits + self.include_ancilla


@dataclass
class DqaDiagnostics:
    """Energy bookkeeping for one prepared state."""

    expectation_hq: float
    phi_exact: float
    delta: float
    delta_decomposed: float
    per_scenario_overlap: dict[int, float | None]


# -- state preparation ----------------------------------------------------

def _column_prep(column: np.ndarray, qubits: tuple[int, ...],
                 label: str) -> OperatorSequence:
    """Sequence sending |0...0> to the given real unit vector v: the one
    Householder reflection with w = |0...0> - v, or no gate when v is
    |0...0> already."""
    w = -np.asarray(column, dtype=float)
    w[0] += 1.0
    if float(w @ w) < 1e-28:
        return OperatorSequence((), label)
    return OperatorSequence((reflection(qubits, w),), label)


def dicke_amplitudes(n: int, k: int) -> np.ndarray:
    """Uniform superposition of all weight-k bitstrings on n qubits."""
    if not 0 <= k <= n:
        raise ValueError(f"Hamming weight {k} out of range for {n} qubits")
    v = np.zeros(2 ** n)
    v[feasible_decisions(n, k)] = 1.0
    return v / np.linalg.norm(v)


def prepare_dicke(n: int, k: int, qubits: tuple[int, ...] | None = None) -> OperatorSequence:
    """Sequence mapping |0...0> to the Dicke state of weight k.

    Realized as one Householder reflection onto the target column (none
    for k = 0), which is its own adjoint and takes controls like any gate,
    as amplitude estimation needs.
    """
    if qubits is None:
        qubits = tuple(range(n))
    return _column_prep(dicke_amplitudes(n, k), qubits, "dicke")


def prepare_distribution(dist: DiscreteDistribution,
                         qubits: tuple[int, ...] | None = None) -> OperatorSequence:
    """Sequence loading sum_w sqrt(p(w)) |xi_w> from |0...0>.

    The uniform i.i.d. case compiles to Hadamards and a point mass to X
    gates; anything else becomes one Householder reflection.
    """
    if qubits is None:
        qubits = tuple(range(dist.n_xi))
    if len(qubits) != dist.n_xi:
        raise ValueError("qubit count does not match the distribution width")
    if dist.is_uniform:
        return OperatorSequence(tuple(hadamard(q) for q in qubits), "dist")
    if dist.scenarios.size == 1:
        scenario = int(dist.scenarios[0])
        gates = tuple(pauli_x(qubits[j]) for j in range(dist.n_xi)
                      if (scenario >> j) & 1)
        return OperatorSequence(gates, "dist")
    amps = np.zeros(2 ** dist.n_xi)
    amps[dist.scenarios] = np.sqrt(dist.probabilities)
    return _column_prep(amps, qubits, "dist")


def prepare_per_scenario_optimal(model: UnitCommitmentModel, x: int,
                                 dist: DiscreteDistribution) -> OperatorSequence:
    """Householder preparation of psi* (``per_scenario_optimal_block``)."""
    amps = per_scenario_optimal_block(model, x, dist).scatter(model.n_y)
    return _column_prep(amps, tuple(range(2 * model.n_y)), "psi_star")


# -- circuit assembly -----------------------------------------------------

def mixer_pair_angle(beta: float, n_y: int) -> float:
    """Per-pair partial-swap angle for one mixer layer.

    The layer applies a swap on every qubit pair, so each qubit is rotated
    by ~(n_y - 1) * angle per layer.  Normalizing by the degree keeps that
    total bounded as the register grows; with the raw interpolator value
    the digitized evolution stops converging (the residual temperature
    plateaus near 0.7 at n_y = 6 independent of depth).  At n_y = 2 this
    is the identity normalization.
    """
    return beta / max(n_y - 1, 1)


def _uc_layer_gates(model: UnitCommitmentModel, layout: RegisterLayout,
                    gamma: float, beta: float) -> list[Gate]:
    yq, xq = layout.y_register, layout.xi_register
    pair_angle = mixer_pair_angle(beta, model.n_y)
    gates: list[Gate] = []
    for j in range(model.n_y):                      # cost of using turbine j
        gates.append(cphase(xq[j], yq[j], gamma * model.c[j]))
    for j in range(model.n_y):                      # penalty: turbine on, no wind
        gates.append(pauli_x(xq[j]))
        gates.append(cphase(xq[j], yq[j], gamma * model.c_r))
        gates.append(pauli_x(xq[j]))
    for j in range(model.n_y - 1):                  # mixer on the y register only
        for k in range(j + 1, model.n_y):
            gates.append(partial_swap(yq[j], yq[k], pair_angle))
    return gates


def _generic_mixer_gate(qubit: int, beta: float) -> Gate:
    # exp(+i beta X): the uniform initial state is the mixer ground state
    c, s = math.cos(beta), math.sin(beta)
    return dense((qubit,), np.array([[c, 1j * s], [1j * s, c]]))


def _generic_layer_gates(problem: GenericDiagonalProblem, layout: RegisterLayout,
                         diag: np.ndarray, gamma: float, beta: float) -> list[Gate]:
    n = layout.num_problem_qubits
    phases = np.exp(-1j * gamma * diag)             # U(gamma) = e^{-i gamma H}
    gates = [diagonal(tuple(range(n)), phases)]
    for q in layout.y_register:
        gates.append(_generic_mixer_gate(q, beta))
    return gates


def build_dqa(problem, x: int | None, dist: DiscreteDistribution,
              schedule: AnnealSchedule) -> OperatorSequence:
    """Full annealing circuit on ``RegisterLayout(n_y, n_xi)``: constrained
    initialization, then T layers of cost, penalty, mixer (in that order
    within a layer).  A generic problem starts from Hadamards on every y."""
    layout = RegisterLayout(problem.n_y, problem.n_xi)
    if isinstance(problem, UnitCommitmentModel):
        check_block(problem, x, dist)
        gates = list(prepare_dicke(problem.n_y, problem.d - x, layout.y_register))
        gates += list(prepare_distribution(dist, layout.xi_register))
        for t in range(1, schedule.T + 1):
            gates += _uc_layer_gates(model=problem, layout=layout,
                                     gamma=schedule.cost_angle(t),
                                     beta=schedule.mixer_angle(t))
        return OperatorSequence(tuple(gates), "dqa")

    if isinstance(problem, GenericDiagonalProblem):
        gates = [hadamard(q) for q in layout.y_register]
        gates += list(prepare_distribution(dist, layout.xi_register))
        diag = cost_diagonal(problem)
        for t in range(1, schedule.T + 1):
            gates += _generic_layer_gates(problem, layout, diag,
                                          gamma=schedule.cost_angle(t),
                                          beta=schedule.mixer_angle(t))
        return OperatorSequence(tuple(gates), "dqa")

    raise TypeError(f"unsupported problem type {type(problem).__name__}")


def run_dqa(seq: OperatorSequence, layout: RegisterLayout) -> StateVector:
    """Run the annealing circuit from |0...0> over the problem registers."""
    state = StateVector(layout.num_problem_qubits)
    return apply_sequence(state, seq)


# -- fast restricted evolution ---------------------------------------------

@cache
def _mixer_pairs(n_y: int, weight: int, j: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The feasible rows a with bit j set and bit k clear, and the rows b
    their (j, k) swap reaches, both ascending in a."""
    ys = feasible_decisions(n_y, weight)
    a = np.flatnonzero((ys >> j) & 1 & ~(ys >> k))
    b = np.searchsorted(ys, ys[a] ^ (1 << j) ^ (1 << k))
    # cached: a write into either would corrupt every later mixer build
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _mixer_shapes(n_y: int, weight: int, layers: int):
    """The C(n_y, w)-square layer size, the (layers, rows, cols) shape of
    each of ``_mixer_unitaries``' four work-row buffers and the (layers, C,
    cols) shape of its half stack, or None.  Every pair rotation of the
    weight-w block touches C(n_y-2, w-1) rows; the rotations build the
    left cols = C/2 columns where w = n_y / 2, all C otherwise."""
    n = len(feasible_decisions(n_y, weight))
    rows = math.comb(n_y - 2, weight - 1) if 0 < weight < n_y else 0
    if 2 * weight == n_y > 0:
        return n, (layers, rows, n // 2), (layers, n, n // 2)
    return n, (layers, rows, n), None


def _mixer_scratch(n_y: int, weight: int, layers: int) -> np.ndarray:
    """Work space for ``_mixer_unitaries`` on up to ``layers`` layers, one
    flat buffer: the four work-row buffers, then the half stack, if any
    (``_mixer_shapes``)."""
    _, rows, half = _mixer_shapes(n_y, weight, layers)
    return np.empty(4 * math.prod(rows) + (math.prod(half) if half else 0),
                    dtype=complex)


def _mixer_unitaries(n_y: int, weight: int, betas: np.ndarray | list[float],
                     out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """Mixer layers as a stack of C(n_y, weight)-square unitaries on the
    feasible rows, ``out[i]`` the layer at ``betas[i]``.

    The partial swaps preserve Hamming weight, so a layer acts within the
    weight block.  Applying the same pair rotations, in the j < k order of
    ``_uc_layer_gates``, to the identity gives their product in gate order;
    each rotation is applied once to every layer of the stack, with its
    cos and sin as (layers, 1, 1) arrays.  The rotations mix rows, each
    column on its own.  At w = n_y / 2 the complement, which reverses the
    feasible rows, maps the block to itself and U is centrosymmetric bit
    for bit, so the rotations build only the left half of the columns, in
    a contiguous (layers, C, C/2) stack, and the right half is that stack
    with rows and columns reversed.  Given ``out`` and a ``_mixer_scratch``
    for at least as many layers, the stack is built in ``out``, allocating
    only the rotation entries and the diagonal index; the floats are the
    same either way, and the same whichever stack a layer is built in.
    """
    n, rows, half = _mixer_shapes(n_y, weight, len(betas))
    if out is None:
        out = np.empty((len(betas), n, n), dtype=complex)
    if scratch is None:
        scratch = _mixer_scratch(n_y, weight, len(betas))
    size = math.prod(rows)
    a, b, p, q = scratch[:4 * size].reshape(4, *rows)
    work = (out if half is None
            else scratch[4 * size:4 * size + math.prod(half)].reshape(half))
    work.fill(0.0)
    diag = np.arange(rows[2])
    work[:, diag, diag] = 1.0
    angles = [mixer_pair_angle(beta, n_y) for beta in betas]
    # c is held as the complex (cos, 0) each product would cast a float c
    # to, so that no product casts it
    c = np.array([math.cos(angle) for angle in angles], dtype=complex).reshape(-1, 1, 1)
    s = np.array([math.sin(angle) for angle in angles]).reshape(-1, 1, 1)
    i_s, minus_i_s = 1j * s, -1j * s
    for j in range(n_y - 1):
        for k in range(j + 1, n_y):
            a_rows, b_rows = _mixer_pairs(n_y, weight, j, k)
            if a_rows.size == 0:
                continue
            np.take(work, a_rows, axis=1, out=a, mode="clip")
            np.take(work, b_rows, axis=1, out=b, mode="clip")
            # c a - i s b and -i s a + c b, the products of the 2x2 rotation
            np.subtract(np.multiply(c, a, out=p),
                        np.multiply(i_s, b, out=q), out=p)
            work[:, a_rows] = p
            np.add(np.multiply(minus_i_s, a, out=p),
                   np.multiply(c, b, out=q), out=p)
            work[:, b_rows] = p
    if half is not None:
        out[:, :, :n // 2] = work
        out[:, :, n // 2:] = work[:, ::-1, ::-1]
    return out


def _mixer_unitary(n_y: int, weight: int, beta: float) -> np.ndarray:
    """One mixer layer's unitary, the one-layer stack of ``_mixer_unitaries``."""
    return _mixer_unitaries(n_y, weight, [beta])[0]


def _mixer_builder(n_y: int, weight: int, betas: np.ndarray, slots: int):
    """``build(t)``, layer t's unitary at ``betas[t]``, for t = 0, 1, ...
    in turn.  The layers come in chunks of L, the most whose stack and
    work space (``_mixer_shapes``: the four work-row buffers and the half
    stack) hold at most ``_PANEL_AMPS`` amplitudes, and at least one.
    Where layer t starts chunk k, ``build`` builds the chunk's stack (``_mixer_unitaries``) into
    the (k mod ``slots``)-th of ``slots`` reused buffers, so a buffer is
    overwritten ``slots`` chunks later; layer t reads row t mod L.  The
    buffers and the work space are allocated here, by the caller's thread,
    before any build, whichever thread then builds.
    """
    n, rows, half = _mixer_shapes(n_y, weight, 1)
    per_layer = n * n + 4 * math.prod(rows) + (math.prod(half) if half else 0)
    layers = max(1, min(len(betas), _PANEL_AMPS // per_layer))
    scratch = _mixer_scratch(n_y, weight, layers)
    buffers = [np.empty((layers, n, n), dtype=complex) for _ in range(slots)]
    stacks = [None] * slots

    def build(t):
        k, i = divmod(t, layers)
        if i == 0:
            chunk = betas[t:t + layers]
            stacks[k % slots] = _mixer_unitaries(n_y, weight, chunk,
                                                 buffers[k % slots][:len(chunk)],
                                                 scratch)
        return stacks[k % slots][i]

    return build


def _layer_panel(phase: np.ndarray, index: np.ndarray, panel: np.ndarray,
                 u: np.ndarray | None, out: np.ndarray) -> None:
    """One (block, panel) task of an anneal layer, in place: ``panel``, a
    column-range view of the block, times its entries of the block's
    running phase table, gathered through the thread's intp ``index`` of
    the panel's y & xi (all below the table's length, so ``clip`` clips
    none) into the thread's spare panel ``out``; then, where the layer
    mixes, ``u @`` that product written back into ``panel``."""
    phase.take(index, out=out, mode="clip")
    if u is None:
        np.multiply(panel, out, out=panel)
    else:
        np.matmul(u, np.multiply(panel, out, out=out), out=panel)


# Every anneal works on its blocks through column panels of at most
# _PANEL_AMPS amplitudes, which a helper thread may share
# (``anneal_feasible_blocks``), and each thread's spare and index panel;
# the same budget bounds a mixer chunk with its work space and each row
# range (``_row_ranges``) of |amp|^2 and <H_Q>.
_PANEL_AMPS = 2 ** 15


def _blas_thread_calls():
    """The (get, set) thread-count calls of the OpenBLAS that numpy's core
    extension links, found through its handle, or None where there are none."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            if hasattr(lib, f"{name}_get_num_threads{suffix}"):
                get = getattr(lib, f"{name}_get_num_threads{suffix}")
                set_threads = getattr(lib, f"{name}_set_num_threads{suffix}")
                get.argtypes, get.restype = (), ctypes.c_int
                set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
                return get, set_threads
    return None


_BLAS_THREADS = _blas_thread_calls()
# process-wide, as the thread count is
_blas_lock = threading.Lock()


@contextmanager
def _one_blas_thread():
    """BLAS at one thread for one anneal (``_BLAS_THREADS``), the caller's
    count restored after it; the lock held throughout makes an anneal in
    another thread wait its turn."""
    get, set_threads = _BLAS_THREADS
    with _blas_lock:
        saved = get()
        set_threads(1)
        try:
            yield
        finally:
            set_threads(saved)


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the OS
    reports one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _helper_may_share() -> bool:
    """Whether anneals set one BLAS thread and at least two cores are
    usable, outside ``multiprocessing`` children (fig3's workers fill the
    cores); asked per anneal, as workers import this early."""
    return (_BLAS_THREADS is not None and multiprocessing.parent_process() is None
            and usable_cores() >= 2)


def _row_ranges(rows: int, cols: int) -> list[slice]:
    """The row ranges of a (rows, cols) array, in order, each of at most
    ``_PANEL_AMPS`` amplitudes and at least one row."""
    step = max(1, _PANEL_AMPS // cols)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _probabilities(amps: np.ndarray) -> np.ndarray:
    """|amp|^2 of a (rows, cols) array, amps.real ** 2 + amps.imag ** 2
    elementwise; the imaginary squares are formed and added one row range
    (``_row_ranges``) at a time, so no block-sized temporary stands beside
    the result."""
    probs = amps.real ** 2
    for rows in _row_ranges(*probs.shape):
        probs[rows] += amps[rows].imag ** 2
    return probs


def _cost_grid(table: np.ndarray, ys: np.ndarray, cols: int) -> np.ndarray:
    """q(y, xi) = table[y & xi] (``_cost_table``) for each y of ``ys``
    (rows) and each xi < cols (columns)."""
    return table.take(ys[:, None] & np.arange(cols))


@dataclass
class FeasibleBlock:
    """One first-stage decision's state on its feasible rows.

    ``amps[i, s]`` is the amplitude of |y = ys[i]>|xi = s>; every other
    amplitude of the (y, xi) register is zero.  q(y, xi) = table[y & xi],
    ``table`` the 2^n_y-entry cost table of the block's weight
    (``_cost_table``); the block holds no grid of q.
    """

    x: int
    ys: np.ndarray
    amps: np.ndarray
    table: np.ndarray

    @property
    def costs(self) -> np.ndarray:
        """q(y, xi) on the block's grid, gathered from ``table``."""
        return _cost_grid(self.table, self.ys, self.amps.shape[1])

    def probabilities(self) -> np.ndarray:
        """|amp|^2 on the block's grid (``_probabilities``)."""
        return _probabilities(self.amps)

    def expectation_hq(self) -> float:
        """<H_Q> = sum |amp|^2 q over the block, without the full register;
        q is gathered one row range (``_row_ranges``) at a time, so the
        products and the sum are those of ``probabilities() * costs``."""
        probs = self.probabilities()
        for rows in _row_ranges(*probs.shape):
            probs[rows] *= _cost_grid(self.table, self.ys[rows], probs.shape[1])
        return float(np.sum(probs))

    def scatter(self, n_y: int) -> np.ndarray:
        """The amplitudes on the full (y, xi) register, in the block's dtype."""
        full = np.zeros((self.amps.shape[1], 2 ** n_y), dtype=self.amps.dtype)
        full[:, self.ys] = self.amps.T
        return full.ravel()


def check_block(model: UnitCommitmentModel, x: int,
                dist: DiscreteDistribution) -> None:
    """Raise unless dist has the model's n_xi scenario bits and x's
    feasible block fits the simulator (``check_block_size``)."""
    if dist.n_xi != model.n_xi:
        raise ConfigError(f"distribution has {dist.n_xi} scenario bits, "
                          f"the model has {model.n_xi} turbines")
    check_block_size(model, x)


def check_block_size(model: UnitCommitmentModel, x: int) -> None:
    """Raise unless the model's n_xi scenario qubits fit the simulator, x
    lies in [0, d] and its feasible block of C(n_y, d - x) * 2^n_xi
    amplitudes does too: at most 2^MAX_QUBITS, the largest statevector it
    allows.  The rule reads n_y, d and n_xi alone, so it can run before the
    scenario law is built."""
    if model.n_xi > MAX_QUBITS:
        raise SimulationBudgetError(
            f"{model.n_xi} scenario qubits exceed the simulator cap of {MAX_QUBITS}")
    if not 0 <= x <= model.d:
        raise InfeasibleDecisionError(f"x={x} outside [0, {model.d}]")
    size = math.comb(model.n_y, model.d - x) * 2 ** model.n_xi
    if size > 2 ** MAX_QUBITS:
        raise SimulationBudgetError(
            f"x={x} needs a feasible block of {size} amplitudes, over the "
            f"simulator cap of 2^{MAX_QUBITS}")


def _feasible_grid(model: UnitCommitmentModel, x: int, dist: DiscreteDistribution
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x's feasible rows, their weight's cost table (``_cost_table``) and
    q(y, xi) on its ``FeasibleBlock`` grid, after ``check_block``; psi*
    builds it, an anneal does not."""
    check_block(model, x, dist)
    ys = feasible_decisions(model.n_y, model.d - x)
    table = _cost_table(model, model.d - x)
    return ys, table, _cost_grid(table, ys, 2 ** dist.n_xi)


def per_scenario_optimal_block(model: UnitCommitmentModel, x: int,
                               dist: DiscreteDistribution) -> FeasibleBlock:
    """psi*, the T -> infinity surrogate: real amplitude sqrt(p(xi)) at
    (y*(xi), xi), y* the first, i.e. lowest, minimizing row of the block's
    cost grid, the y* of ``scenario_optima``."""
    ys, table, costs = _feasible_grid(model, x, dist)
    rows = np.argmin(costs, axis=0)[dist.scenarios]
    amps = np.zeros(costs.shape)
    amps[rows, dist.scenarios] = np.sqrt(dist.probabilities)
    return FeasibleBlock(x, ys, amps, table)


def anneal_feasible_blocks(requests: list, schedule: AnnealSchedule, value=None) -> list:
    """DQA confined to the feasible subspace, for a list of ``(model,
    dist, x)`` requests: ``value(block)`` of each request's annealed
    ``FeasibleBlock`` (the block itself where ``value`` is None), in
    request order.

    Every request passes ``check_block``, and all share one n_y and n_xi,
    or this raises before anything is allocated.  A layer's mixer unitary
    depends only on n_y, the weight class {w, n_y - w} of w = d - x and the
    layer, so the requests are annealed one class at a time, the classes
    in the order of their first request, each under one unitary per layer
    (``_anneal_class``); for x = 0..d of one model, each x anneals with the
    x' of complementary weight.  A class's blocks are dropped once
    ``value`` has read them, before the next class anneals, so with a
    ``value`` at most one class's blocks are live.
    """
    for model, dist, x in requests:
        check_block(model, x, dist)
    if len({(model.n_y, dist.n_xi) for model, dist, _ in requests}) > 1:
        raise ValueError("the requests of one anneal must share one n_y and n_xi")
    classes = {}        # weight class -> the positions of its requests
    for i, (model, _, x) in enumerate(requests):
        classes.setdefault(min(model.d - x, model.n_y - model.d + x), []).append(i)
    out = [None] * len(requests)
    for members in classes.values():
        # a comprehension, so that no name holds a block into the next class
        values = [block if value is None else value(block)
                  for block in _anneal_class([requests[i] for i in members], schedule)]
        for i, v in zip(members, values):
            out[i] = v
    return out


def _anneal_class(requests, schedule: AnnealSchedule) -> list[FeasibleBlock]:
    """The blocks of checked requests of one weight class, annealed
    together, in request order: C-contiguous (C(n_y, w), 2^n_xi) arrays of
    feasible y rows, ascending, by scenario columns.

    The cost and penalty layers are diagonal and the mixer keeps the
    weight block, so each layer is a phase product and a GEMM with the
    layer's fused mixer unitary per block.  The phase of (y, xi) is read
    from the block's cost table of 2^n_y entries at y & xi
    (``_cost_table``): on the ramp a(t) = t/T layer t's phase e^{i q t/T}
    is base^t with base = e^{i table/T}, so each layer multiplies each
    block's running table by its base, and each amplitude takes its entry
    at y & xi.  Complementing every bit commutes with the mixer and
    reverses the feasible rows, so U(n_y - w) is U(w) with rows and
    columns reversed, bit for bit: only the class's lower weight builds a
    unitary, a chunk of layers per call (``_mixer_builder``), and a block
    above weight n_y/2 anneals with its rows, and so its y column,
    reversed and is reversed back at the end.  The mixer is skipped where
    its angle is 0, at t = T.  Each block keeps its own GEMMs, so it has
    the bits of its lone anneal.

    Each block is annealed in place through column panels, views of the
    widest power-of-two column ranges of at most ``_PANEL_AMPS``
    amplitudes; a task is one panel of one block, whose y & xi the thread
    writes into its own intp index panel before ``_layer_panel`` gathers
    through it, so no block holds an index per amplitude.  Inline, the
    calling thread runs each layer's tasks, then builds the next layer's
    unitary.  Where T > 0, a block has more than one panel and
    ``_helper_may_share``, a one-worker thread pool builds layer t + 1's
    unitary and then claims layer t's tasks beside the caller from one
    shared iterator; the caller waits on that job before
    layer t + 1, so a failed build or panel raises there, and the pool is
    joined before this returns or raises.  A column of U @ M is the same
    bits whichever panel and thread computed it, so both modes agree.  The
    layers run at one BLAS thread (``_one_blas_thread``) where numpy's
    OpenBLAS has the thread-count calls, else inline at the caller's count.

    The stacks and the spare and index panels are dropped before the
    column check: the scenario register is only control, so sum_y |amp|^2
    must equal p(xi) within ``PROB_SUM_TOL`` in every column, or this
    raises ValueError; nothing is renormalised.  A block keeps its cost
    table, not a cost grid (``FeasibleBlock``).
    """
    n_y, n_xi = requests[0][0].n_y, requests[0][1].n_xi
    weights = [model.d - x for model, _, x in requests]
    # each block's row order in the anneal, -1 reversed above weight n_y/2
    steps = [-1 if 2 * w > n_y else 1 for w in weights]
    rows, cols, T = math.comb(n_y, weights[0]), 2 ** n_xi, schedule.T
    # the widest power-of-two column panels of at most _PANEL_AMPS amplitudes
    width = min(cols, 1 << max((_PANEL_AMPS // rows).bit_length() - 1, 0))
    spans = [slice(lo, lo + width) for lo in range(0, cols, width)]
    helper = T > 0 and len(spans) > 1 and _helper_may_share()

    tables = [_cost_table(model, w) for (model, _, _), w in zip(requests, weights)]
    p_xis = [np.zeros(cols) for _ in requests]
    ms = [np.empty((rows, cols), dtype=complex) for _ in requests]
    for p_xi, m, (_, dist, _) in zip(p_xis, ms, requests):
        p_xi[dist.scenarios] = dist.probabilities
        m[...] = np.sqrt(p_xi) / math.sqrt(rows)        # every row the start column

    if T > 0:
        # the fused cost+penalty layer is the diagonal phase e^{+i a(t) q}
        # (P(theta) has the +i convention), held on each block's cost table
        bases = np.exp(1j * (1 / T) * np.array(tables))
        phases = np.ones_like(bases)        # one row per block
        # each block's y column in its anneal's row order, and xi
        y_columns = [feasible_decisions(n_y, w)[::step, None]
                     for w, step in zip(weights, steps)]
        xis = np.arange(cols, dtype=np.intp)
        # each thread's spare panel and index panel
        spares = [np.empty((rows, width), dtype=complex) for _ in range(1 + helper)]
        indexes = [np.empty((rows, width), dtype=np.intp) for _ in range(1 + helper)]
        # beta is 0 only at the ramp's end, t = T: the layers before it mix
        betas = schedule.mixer_angles()[:T - 1]
        build = _mixer_builder(n_y, min(weights[0], n_y - weights[0]), betas,
                               2 if helper else 1)

        def mixer(t):       # layer t's unitary, None where it does not mix
            return build(t) if t < len(betas) else None

        tasks = [(j, p) for j in range(len(requests)) for p in range(len(spans))]
        claim = threading.Lock()

        def run(todo, u, k):        # thread k claims (block, panel) tasks until none is left
            while True:
                with claim:
                    task = next(todo, None)
                if task is None:
                    return
                j, p = task
                np.bitwise_and(y_columns[j], xis[spans[p]], out=indexes[k])
                _layer_panel(phases[j], indexes[k], ms[j][:, spans[p]], u, spares[k])

        def share(t, todo, u):      # build layer t + 1's unitary, then share t
            built = mixer(t + 1)
            run(todo, u, 1)
            return built

        if helper:
            # imported here so that importing spq loads no executor
            from concurrent.futures import ThreadPoolExecutor
        with _one_blas_thread() if _BLAS_THREADS else nullcontext(), \
                ThreadPoolExecutor(1, "spq-mixer") if helper else nullcontext() as pool:
            u = pool.submit(mixer, 0).result() if helper else mixer(0)
            for t in range(T):
                phases *= bases
                todo = iter(tasks)
                job = pool.submit(share, t, todo, u) if helper else None
                run(todo, u, 0)
                u = job.result() if helper else mixer(t + 1)
        # rows back to ascending y, one column range at a time
        for m, step in zip(ms, steps):
            if step == -1:
                for span in spans:
                    np.copyto(spares[0], m[::-1, span])
                    m[:, span] = spares[0]
        # the stacks and their work space live in build's closure
        del build, indexes, spares

    # the scenario register is only control, so each column keeps p(xi)
    for (_, _, x), p_xi, m in zip(requests, p_xis, ms):
        worst = float(np.abs(_probabilities(m).sum(axis=0) - p_xi).max())
        if not worst <= PROB_SUM_TOL:
            raise ValueError(f"x={x}: a scenario column's probability is off "
                             f"p(xi) by {worst!r}, more than {PROB_SUM_TOL}")
    return [FeasibleBlock(x, feasible_decisions(n_y, w), m, table)
            for (_, _, x), w, m, table in zip(requests, weights, ms, tables)]


def run_dqa_fast(model: UnitCommitmentModel, x: int, dist: DiscreteDistribution,
                 schedule: AnnealSchedule) -> StateVector:
    """Statevector-equivalent DQA run confined to the feasible subspace.

    ``anneal_feasible_blocks`` on x alone, scattered back to the full
    (y, xi) register.  The result reproduces run_dqa(build_dqa(...)) to
    rounding; tests pin the equivalence at 1e-12.
    """
    (block,) = anneal_feasible_blocks([(model, dist, x)], schedule)
    return StateVector(model.n_y + dist.n_xi, block.scatter(model.n_y))


# -- observables ------------------------------------------------------------

def expectation_HQ(state: StateVector, problem) -> float:
    """Exact <H_Q> = sum_i |amp_i|^2 q_i over the (y, xi) register."""
    n = problem.n_y + problem.n_xi
    if state.num_qubits != n:
        raise ValueError(f"state has {state.num_qubits} qubits, problem needs {n}")
    return float(state.probabilities() @ cost_diagonal(problem))


def residual_diagnostics(state: StateVector, model: UnitCommitmentModel, x: int,
                         dist: DiscreteDistribution) -> DqaDiagnostics:
    """Residual temperature delta = <H_Q> - phi(x), its per-scenario
    decomposition, and the conditional mass on each scenario's optimal set.

    Scenarios with zero probability report an overlap of None.
    """
    n_y, n_xi = model.n_y, dist.n_xi
    exp_hq = expectation_HQ(state, model)
    phi = expected_value_exact(model, x, dist)

    probs2 = state.probabilities().reshape(2 ** n_xi, 2 ** n_y)
    diag2 = cost_diagonal(model).reshape(2 ** n_xi, 2 ** n_y)
    ys, qmat = _cost_matrix(model, model.d - x, dist.scenarios)
    q_star = qmat.min(axis=1)

    overlaps: dict[int, float | None] = {}
    decomposed = 0.0
    for i, (scenario, p) in enumerate(zip(dist.scenarios.tolist(),
                                          dist.probabilities.tolist())):
        row = probs2[scenario]
        decomposed += float(row @ diag2[scenario]) - p * q_star[i]
        mass = row.sum()
        if p <= 0.0 or mass <= 0.0:
            overlaps[scenario] = None
            continue
        optimal = ys[np.abs(qmat[i] - q_star[i]) <= 1e-12]
        overlaps[scenario] = float(row[optimal].sum() / mass)

    return DqaDiagnostics(expectation_hq=exp_hq, phi_exact=phi,
                          delta=exp_hq - phi, delta_decomposed=decomposed,
                          per_scenario_overlap=overlaps)
