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
    return a, np.searchsorted(ys, ys[a] ^ (1 << j) ^ (1 << k))


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
    in turn.  The layers come in chunks of L, the most whose stack holds at
    most ``_PANEL_AMPS`` amplitudes and at least one.  Where layer t starts
    chunk k, ``build`` builds the chunk's stack (``_mixer_unitaries``) into
    the (k mod ``slots``)-th of ``slots`` reused buffers, so a buffer is
    overwritten ``slots`` chunks later; layer t reads row t mod L.  The
    buffers and the work space are allocated here, by the caller's thread,
    before any build, whichever thread then builds.
    """
    n = len(feasible_decisions(n_y, weight))
    layers = max(1, min(len(betas), _PANEL_AMPS // (n * n)))
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
                 u: np.ndarray | None, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One (block, panel) task of an anneal layer: the panel times its
    entries of the block's running phase table, read through the panel's
    int32 ``index`` (y & xi per amplitude), in place, then, where the layer
    mixes, ``u @ panel`` into the thread's spare panel ``out``.  Returns
    the panel's new array and the thread's spare one, swapped by the GEMM."""
    panel *= phase.take(index)
    if u is None:
        return panel, out
    np.matmul(u, panel, out=out)
    return out, panel


# Every anneal cuts its blocks into column panels of at most _PANEL_AMPS
# amplitudes, which a helper thread may share (``anneal_feasible_blocks``).
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
# process-wide, as the thread count is: a lock, anneals running, the count they replaced
_blas_lock, _blas_anneals, _blas_saved = threading.Lock(), 0, 0


@contextmanager
def _one_blas_thread():
    """BLAS at one thread while any anneal runs (``_BLAS_THREADS``): the
    first anneal in saves the count and sets one, the last one out restores it."""
    global _blas_anneals, _blas_saved
    get, set_threads = _BLAS_THREADS
    with _blas_lock:
        if _blas_anneals == 0:
            _blas_saved = get()
            set_threads(1)
        _blas_anneals += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_anneals -= 1
            if _blas_anneals == 0:
                set_threads(_blas_saved)


def _helper_may_share() -> bool:
    """Whether anneals set one BLAS thread, outside ``multiprocessing`` children
    (fig3's workers fill the cores); asked per anneal, as workers import this early."""
    return _BLAS_THREADS is not None and multiprocessing.parent_process() is None


@dataclass
class FeasibleBlock:
    """One first-stage decision's state on its feasible rows.

    ``amps[i, s]`` is the amplitude of |y = ys[i]>|xi = s>; every other
    amplitude of the (y, xi) register is zero.  ``costs`` holds q(y, xi)
    on the same grid.
    """

    x: int
    ys: np.ndarray
    amps: np.ndarray
    costs: np.ndarray

    def probabilities(self) -> np.ndarray:
        """|amp|^2 on the block's grid."""
        return self.amps.real ** 2 + self.amps.imag ** 2

    def expectation_hq(self) -> float:
        """<H_Q> = sum |amp|^2 q over the block, without the full register."""
        return float(np.sum(self.probabilities() * self.costs))

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


def _feasible_grid(model: UnitCommitmentModel, x: int,
                   dist: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    """x's feasible rows and q(y, xi) on its ``FeasibleBlock`` grid, after
    ``check_block``; every anneal and psi* builds it, so none skips it."""
    check_block(model, x, dist)
    ys, q = _cost_matrix(model, model.d - x, np.arange(2 ** dist.n_xi, dtype=np.int64))
    return ys, np.ascontiguousarray(q.T)


def per_scenario_optimal_block(model: UnitCommitmentModel, x: int,
                               dist: DiscreteDistribution) -> FeasibleBlock:
    """psi*, the T -> infinity surrogate: real amplitude sqrt(p(xi)) at
    (y*(xi), xi), y* the first, i.e. lowest, minimizing row of the block's
    cost grid, the y* of ``scenario_optima``."""
    ys, costs = _feasible_grid(model, x, dist)
    rows = np.argmin(costs, axis=0)[dist.scenarios]
    amps = np.zeros(costs.shape)
    amps[rows, dist.scenarios] = np.sqrt(dist.probabilities)
    return FeasibleBlock(x, ys, amps, costs)


def lockstep_groups(model: UnitCommitmentModel) -> list[tuple[int, ...]]:
    """The decisions 0..d grouped for ``anneal_feasible_blocks``.

    x (weight w = d - x) pairs with the x' of weight n_y - w when both
    weights lie in [0, d]; a weight without a partner, or its own
    complement, anneals alone.  Groups are ordered by their first x.
    """
    groups = []
    for x in range(model.d + 1):
        partner = model.d - (model.n_y - (model.d - x))
        if x < partner <= model.d:
            groups.append((x, partner))
        elif not 0 <= partner < x:          # else grouped with partner
            groups.append((x,))
    return groups


def anneal_feasible_blocks(model: UnitCommitmentModel, xs: tuple[int, ...],
                           dist: DiscreteDistribution,
                           schedule: AnnealSchedule) -> list[FeasibleBlock]:
    """DQA confined to the feasible subspace, for one x or for two whose
    weights d - x add up to n_y, annealed in lockstep.

    Each evolving state is a (C(n_y, d-x), 2^n_xi) block: feasible y rows,
    scenario columns.  The mixer never leaks out of the weight block and
    the cost and penalty layers are diagonal, so each layer is one
    elementwise phase product per block followed by one GEMM per block
    with the layer's fused mixer unitary.  The phase of amplitude (y, xi)
    depends on it only through q(y, xi) = table[y & xi], the block's cost
    table of 2^n_y entries (``_cost_table``).  On the linear ramp a(t) =
    t/T the layer-t phase e^{i q t/T} is base^t with base = e^{i table/T},
    so each layer multiplies the block's running phase table by the base,
    and each amplitude takes its entry through an int32 index of y & xi:
    the products a phase held per amplitude would form, on the same
    floats.  The XY mixer commutes with complementing every bit, which
    reverses the order of the feasible rows, so the unitary at weight
    n_y - w is the weight-w one with rows and columns reversed, bit for
    bit.  Only weights up to n_y/2 build one: a block of weight w above
    n_y/2, lone or paired, anneals with its rows (and index) reversed
    under U(n_y - w), and its rows are reversed back at the end; a pair
    builds its unitary once per layer.  The unitaries are built a chunk of
    L layers per call, as one stack (``_mixer_unitaries``), L the most
    layers whose stack holds at most ``_PANEL_AMPS`` amplitudes and at
    least one: every layer of the shipped fig5 anneals, 16 at C(10, 2) =
    45, one from C = 182 up.  The blocks keep separate GEMMs, so each one's
    sums run in the order of a lone anneal.  Where the mixer angle is
    exactly 0 (the last layer of the linear ramp) the unitary is the
    identity and is skipped.

    Every block is held as column panels, the widest power-of-two column
    ranges of at most ``_PANEL_AMPS`` = 2^15 amplitudes (128 columns at
    C(10, 5) = 252 rows, 512 at C(10, 2) = 45, the whole block up to 2^15
    amplitudes), each with its index, so the layers hold 16 B of state and
    4 B of index per amplitude.  A task is one panel of one block: its
    phase product, then its GEMM (``_layer_panel``) into its thread's spare
    panel, which then takes the multiplied panel's place.  The unitaries do
    not depend on the state.  Inline, the calling thread runs each layer's
    tasks, then, where layer t + 1 starts a chunk, builds the next chunk's
    stack.  Where T > 0, the block has more than one panel and
    ``_helper_may_share``, a one-worker thread pool (``concurrent.futures``)
    helps instead: its job for layer t first builds the next chunk's stack,
    where layer t + 1 starts one, into the buffer that the chunk before
    layer t's chunk has released, then claims layer t's tasks alongside the
    calling thread from one shared iterator.  The caller advances the phase
    tables before it submits layer t's job and waits on that job before it
    starts layer t + 1, so two stack buffers suffice, and a failed build or
    panel raises from that wait; the pool is joined before this returns or
    raises.  A column of U @ M is the same bits whichever panel holds it
    and whichever thread ran it, since each column's sums run in the same
    order, so both modes give the same bits.

    The layers run at one BLAS thread (``_one_blas_thread``), so their bits
    do not follow the caller's count and the two threads fit the cores;
    without OpenBLAS's thread-count calls they run inline at the caller's
    count.  fig3's pool workers fill the cores already, and up to 2^15
    amplitudes, one panel, the hand-over of the GIL costs more than it hides.

    Every x passes ``check_block`` before anything is allocated, and its
    cost grid (``_feasible_grid``) is built once, after the layers.  The
    scenario register is only control, so each scenario column keeps its
    probability: after the anneal, sum_y |amp|^2 must equal p(xi) within
    ``PROB_SUM_TOL`` in every column, or this raises ValueError; nothing
    is renormalised.  The blocks are returned C-contiguous, their rows in
    ascending y.
    """
    if len(xs) not in (1, 2):
        raise ValueError(f"anneal one or two first-stage decisions, got {len(xs)}")
    n_y, n_xi = model.n_y, dist.n_xi
    weights = [model.d - x for x in xs]
    if len(xs) == 2 and (weights[0] + weights[1] != n_y or xs[0] == xs[1]):
        raise ValueError(f"weights {weights} of x={xs} are not complementary "
                         f"on {n_y} qubits")
    for x in xs:
        check_block(model, x, dist)
    # each block's row order in the anneal, -1 reversed above weight n_y/2
    steps = [-1 if 2 * w > n_y else 1 for w in weights]
    rows, cols, T = math.comb(n_y, weights[0]), 2 ** n_xi, schedule.T
    # the widest power-of-two column panels of at most _PANEL_AMPS amplitudes
    width = min(cols, 1 << max((_PANEL_AMPS // rows).bit_length() - 1, 0))
    spans = [slice(lo, lo + width) for lo in range(0, cols, width)]
    helper = T > 0 and len(spans) > 1 and _helper_may_share()

    xi_amps = np.zeros(cols)
    xi_amps[dist.scenarios] = np.sqrt(dist.probabilities)
    column = xi_amps / math.sqrt(rows)
    ms = [[np.ascontiguousarray(np.broadcast_to(column[span], (rows, width)),
                                dtype=complex) for span in spans]
          for _ in xs]              # each block's column panels, in order

    if T > 0:
        # the fused cost+penalty layer is the diagonal phase e^{+i a(t) q}
        # (P(theta) has the +i convention), held on each block's cost table
        bases = np.exp(1j * (1 / T) * np.array([_cost_table(model, w) for w in weights]))
        phases = np.ones_like(bases)        # one row per block
        xis = np.arange(cols, dtype=np.int32)
        indexes = [[feasible_decisions(n_y, w)[::step, None].astype(np.int32) & xis[span]
                    for span in spans] for w, step in zip(weights, steps)]
        spares = [np.empty_like(ms[0][0]) for _ in range(1 + helper)]  # per thread
        # beta is 0 only at the ramp's end, t = T: the layers before it mix
        betas = schedule.mixer_angles()[:T - 1]
        build = _mixer_builder(n_y, min(weights[0], n_y - weights[0]), betas,
                               2 if helper else 1)

        def mixer(t):       # layer t's unitary, None where it does not mix
            return build(t) if t < len(betas) else None

        tasks = [(j, p) for j in range(len(xs)) for p in range(len(spans))]
        claim = threading.Lock()

        def run(todo, u, k):        # thread k claims (block, panel) tasks until none is left
            while True:
                with claim:
                    task = next(todo, None)
                if task is None:
                    return
                j, p = task
                ms[j][p], spares[k] = _layer_panel(phases[j], indexes[j][p], ms[j][p],
                                                   u, spares[k])

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
        del indexes, spares

    # each block one array, rows in ascending y, joined one block at a time
    for j, step in enumerate(steps):
        ms[j] = (ms[j][0] if len(spans) == 1 and step == 1
                 else np.concatenate([p[::step] for p in ms[j]], axis=1))
    # the scenario register is only control, so each column keeps p(xi)
    p_xi = np.zeros(cols)
    p_xi[dist.scenarios] = dist.probabilities
    for x, m in zip(xs, ms):
        worst = float(np.abs((m.real ** 2 + m.imag ** 2).sum(axis=0) - p_xi).max())
        if not worst <= PROB_SUM_TOL:
            raise ValueError(f"x={x}: a scenario column's probability is off "
                             f"p(xi) by {worst!r}, more than {PROB_SUM_TOL}")
    grids = (_feasible_grid(model, x, dist) for x in xs)     # one per x, after the layers
    return [FeasibleBlock(x, ys, m, q) for x, (ys, q), m in zip(xs, grids, ms)]


def run_dqa_fast(model: UnitCommitmentModel, x: int, dist: DiscreteDistribution,
                 schedule: AnnealSchedule) -> StateVector:
    """Statevector-equivalent DQA run confined to the feasible subspace.

    ``anneal_feasible_blocks`` on x alone, scattered back to the full
    (y, xi) register.  The result reproduces run_dqa(build_dqa(...)) to
    rounding; tests pin the equivalence at 1e-12.
    """
    (block,) = anneal_feasible_blocks(model, (x,), dist, schedule)
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
