"""Classical domain model and brute-force reference solvers.

Binary unit commitment: a gas generator committed at integer output x, wind
turbines y that must cover the remaining demand d - x, and a binary wind
scenario per turbine.  Bit j of a y or scenario integer refers to turbine j
throughout; scenario bit 1 means the wind blows at that turbine.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .statevector import MAX_QUBITS, SimulationBudgetError


class ConfigError(ValueError):
    """Invalid configuration or run argument (CLI exit code 2)."""


class InfeasibleDecisionError(ConfigError):
    """A first- or second-stage decision violates the demand constraint."""


def as_integer(name: str, value) -> int:
    """``value`` as an int; a float, even an integral one, or a bool is a
    config error rather than a crash or a silent truncation."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def as_float(name: str, value) -> float:
    """``value`` as a finite float; a bool or a string, even a numeric one,
    is a config error rather than a number read from it, and so are NaN,
    the infinities and integers beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class UnitCommitmentModel:
    """Problem instance: costs, demand, and turbine count."""

    n_y: int
    c_x: float
    c: tuple[float, ...]
    c_r: float
    d: int

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
        if self.n_y < 1:
            raise ValueError(f"n_y={self.n_y}: need at least one turbine")
        if len(self.c) != self.n_y:
            raise ValueError(f"expected {self.n_y} turbine costs, got {len(self.c)}")
        for cj in self.c:
            if not 0.0 < cj < self.c_x:
                raise ValueError(f"turbine cost {cj} must satisfy 0 < c_j < c_x={self.c_x}")
        if not self.c_x < self.c_r:
            raise ValueError(f"recourse cost c_r={self.c_r} must exceed c_x={self.c_x}")
        # every cost, and every objective, lies below 2 n_y c_r
        if not 2 * self.n_y * self.c_r <= sys.float_info.max:
            raise ValueError(f"recourse cost c_r={self.c_r} is too large: 2 n_y c_r, "
                             f"the bound on every cost, exceeds the float range")
        if not 0 <= self.d <= self.n_y or int(self.d) != self.d:
            raise ValueError(f"demand d={self.d} must be an integer in [0, n_y={self.n_y}]")

    @property
    def n_xi(self) -> int:
        return self.n_y


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Sample space with pmf: ``probabilities[i]`` is the probability of
    scenario bitmask ``scenarios[i]``.  Both are stored as read-only arrays;
    equality and hash go by value."""

    n_xi: int
    scenarios: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        try:
            scenarios = np.array(self.scenarios, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"a scenario does not fit in {self.n_xi} bits") from None
        probabilities = np.array(self.probabilities, dtype=float)
        outside = scenarios[(scenarios < 0) | (scenarios >= 2 ** self.n_xi)]
        if outside.size:
            raise ValueError(f"scenario {outside[0]} does not fit in {self.n_xi} bits")
        ordered = np.sort(scenarios)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size:
            raise ValueError(f"duplicate scenario {repeated[0]}")
        # written so that a NaN fails each check
        negative = scenarios[~(probabilities >= 0)]
        if negative.size:
            raise ValueError(f"negative or NaN probability for scenario {negative[0]}")
        total = float(probabilities.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")
        for name, array in (("scenarios", scenarios), ("probabilities", probabilities)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def _key(self) -> tuple[int, bytes, bytes]:
        return self.n_xi, self.scenarios.tobytes(), self.probabilities.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, DiscreteDistribution) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        # rebuild through __init__, so the unpickled arrays are read-only too
        return type(self), (self.n_xi, self.scenarios, self.probabilities)

    @classmethod
    def uniform(cls, n_xi: int) -> "DiscreteDistribution":
        # refused before its 2^n_xi entries are allocated
        if n_xi > MAX_QUBITS:
            raise SimulationBudgetError(
                f"a uniform law over {n_xi} scenario qubits exceeds the "
                f"simulator cap of {MAX_QUBITS}")
        n = 2 ** n_xi
        return cls(n_xi, np.arange(n, dtype=np.int64), np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n_xi: int, scenario: int) -> "DiscreteDistribution":
        return cls(n_xi, [scenario], [1.0])

    @classmethod
    def from_pmf(cls, n_xi: int, pmf: dict[int, float]) -> "DiscreteDistribution":
        scenarios = sorted(pmf)
        return cls(n_xi, scenarios, [pmf[s] for s in scenarios])

    @property
    def is_uniform(self) -> bool:
        # exactly 1/2^n_xi each, which a float holds: near-uniform is not
        return (self.scenarios.size == 2 ** self.n_xi
                and bool(np.all(self.probabilities == 1.0 / 2 ** self.n_xi)))


@dataclass(frozen=True)
class GenericDiagonalProblem:
    """Diagonal-cost problem over a y register and a scenario register.

    ``cost`` is the full (2^n_y, 2^n_xi) table; columns for scenarios
    outside the distribution support should be zero (the cost operator is a
    sum of per-scenario projectors, so it vanishes off support).  Every y
    is feasible.
    """

    n_y: int
    n_xi: int
    cost: np.ndarray

    def __post_init__(self):
        cost = np.asarray(self.cost, dtype=float)
        if cost.shape != (2 ** self.n_y, 2 ** self.n_xi):
            raise ValueError(f"cost table must be {(2 ** self.n_y, 2 ** self.n_xi)}, "
                             f"got {cost.shape}")
        if not np.all(np.isfinite(cost)):
            raise ValueError("cost table must be finite")
        object.__setattr__(self, "cost", cost)


# -- feasibility and costs ------------------------------------------------

@cache
def feasible_decisions(n_y: int, weight: int) -> np.ndarray:
    """All y bitmasks of the given Hamming weight, ascending, as a read-only
    array: it is cached, so a write would corrupt every later caller's."""
    ys = np.array(sorted(sum(1 << j for j in comb)
                         for comb in combinations(range(n_y), weight)),
                  dtype=np.int64)
    ys.flags.writeable = False
    return ys


def second_stage_cost(model: UnitCommitmentModel, x: int, y: int, xi: int) -> float:
    """sum_j [c_j y_j xi_j - c_r y_j (xi_j - 1)] for a feasible y: the wind
    terms added in turbine order, then c_r per turbine without wind, the
    same floats as ``_cost_table``."""
    if not 0 <= x <= model.d:
        raise InfeasibleDecisionError(f"x={x} outside [0, d={model.d}]")
    if bin(y).count("1") != model.d - x:
        raise InfeasibleDecisionError(
            f"y={y:0{model.n_y}b} has Hamming weight {bin(y).count('1')}, "
            f"demand requires {model.d - x}")
    wind = 0.0
    for j in range(model.n_y):
        if (y & xi) >> j & 1:
            wind += model.c[j]
    return wind + model.c_r * bin(y & ~xi).count("1")


def _cost_table(model: UnitCommitmentModel, k: int) -> np.ndarray:
    """The one second-stage cost kernel: q(y, xi) = table[y & xi] for every
    y of Hamming weight k, where table[w] = wind[w] + c_r (k - |w|) for
    each w < 2^n_y and wind[w] adds c_j over the bits of w in turbine order
    from 0.0.  Each entry is formed on its own, with no BLAS call, so equal
    costs are equal floats."""
    wind, count = np.zeros(1), np.zeros(1, dtype=np.int64)
    for cj in model.c:
        wind = np.concatenate((wind, wind + cj))
        count = np.concatenate((count, count + 1))
    return wind + model.c_r * (k - count)


def _cost_matrix(model: UnitCommitmentModel, k: int,
                 xis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The y of Hamming weight k, ascending, and q(y, xi) for every
    scenario in ``xis`` (rows) and every such y (columns), read from
    ``_cost_table``, so a lone row equals its row of a batch bit for bit.
    """
    ys = feasible_decisions(model.n_y, k)
    # int32 operands: the same indices as int64 at half the bytes, and the
    # gather through them about 3x faster at n_y = 10
    return ys, _cost_table(model, k)[xis.astype(np.int32)[:, None] & ys.astype(np.int32)]


def brute_force_Q(model: UnitCommitmentModel, x: int, xi: int) -> tuple[int, float]:
    """``scenario_optima`` for one scenario; ties go to the lowest y bitmask."""
    point_mass = DiscreteDistribution.point_mass(model.n_xi, xi)
    y_star, q_star = scenario_optima(model, x, point_mass)
    return int(y_star[0]), float(q_star[0])


def scenario_optima(model: UnitCommitmentModel, x: int,
                    dist: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Per-scenario (y*, q*) for every scenario in the distribution."""
    if x > model.d:
        raise InfeasibleDecisionError(f"no feasible y for x={x} > d={model.d}")
    ys, q = _cost_matrix(model, model.d - x, dist.scenarios)
    best = np.argmin(q, axis=1)  # the first, i.e. lowest, y of equal cost
    return ys[best], q[np.arange(q.shape[0]), best]


def expected_value_exact(model: UnitCommitmentModel, x: int,
                         dist: DiscreteDistribution) -> float:
    """phi(x): probability-weighted sum of per-scenario minima."""
    _, q_star = scenario_optima(model, x, dist)
    return float(dist.probabilities @ q_star)


def objective_exact(model: UnitCommitmentModel, x: int,
                    dist: DiscreteDistribution) -> float:
    return model.c_x * x + expected_value_exact(model, x, dist)


def cost_bound(model: UnitCommitmentModel, x: int) -> float:
    """q_u = c_r (d - x): every second-stage cost of x lies in [0, q_u].

    At x = d the second stage is identically zero and c_r (d - x)
    degenerates to 0; any positive bound then normalizes q = 0 to 0, so
    c_r is used as the scale.
    """
    return model.c_r * max(model.d - x, 1)


def cost_diagonal(problem) -> np.ndarray:
    """Diagonal of the cost operator over the full (y, xi) basis.

    Entry for basis index i is q(x, y, xi) with y the low n_y bits and xi
    the next n_xi bits, the packing of ``dqa.RegisterLayout``.  Defined for
    every basis state, including infeasible y: ``_cost_matrix`` fills it
    one Hamming weight of y at a time.
    """
    if isinstance(problem, GenericDiagonalProblem):
        return problem.cost.T.ravel()
    xis = np.arange(2 ** problem.n_xi, dtype=np.int64)
    table = np.empty((xis.size, 2 ** problem.n_y))
    for k in range(problem.n_y + 1):
        ys, q = _cost_matrix(problem, k, xis)
        table[:, ys] = q
    return table.ravel()


# -- instance files -------------------------------------------------------

# The benchmark family: gas cost, recourse cost and the range the turbine
# costs are drawn from; demand is d = n_y.
_FAMILY_C_X = 0.4
_FAMILY_C_R = 1.0
_FAMILY_C_RANGE = (0.01, 0.2)


def generate_instance(n_y: int, seed: int) -> dict:
    """Random instance of the benchmark family, seed recorded."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(*_FAMILY_C_RANGE, size=n_y)
    return {
        "n_y": n_y,
        "c_x": _FAMILY_C_X,
        "c": [float(v) for v in c],
        "c_r": _FAMILY_C_R,
        "d": n_y,
        "distribution": {"type": "uniform"},
        "seed": seed,
    }


def _instance_error(exc: Exception) -> ConfigError:
    """A missing field of an instance (``KeyError``), or one of the wrong
    shape, as a ``ConfigError``."""
    if isinstance(exc, KeyError):
        return ConfigError(f"instance: missing field {exc}")
    return ConfigError(f"malformed instance: {exc}")


def instance_model(inst: dict) -> UnitCommitmentModel:
    """The model of an instance file's contents, without its scenario law;
    a malformed instance raises ``ConfigError`` (a bad value ``ValueError``)."""
    if not isinstance(inst, dict):
        raise ConfigError("instance is not a JSON object")
    try:
        return UnitCommitmentModel(
            n_y=as_integer("n_y", inst["n_y"]), c_x=as_float("c_x", inst["c_x"]),
            c=tuple(as_float("c", v) for v in inst["c"]),
            c_r=as_float("c_r", inst["c_r"]), d=as_integer("d", inst["d"]))
    except (KeyError, TypeError, AttributeError) as exc:
        raise _instance_error(exc) from exc


def instance_law(inst: dict, model: UnitCommitmentModel) -> DiscreteDistribution:
    """The scenario law of an instance file's contents, on the n_xi bits of
    its model (``instance_model``); a malformed law raises ``ConfigError``
    (``distribution: ...`` for a bad value)."""
    try:
        spec = inst.get("distribution", {"type": "uniform"})
        if spec.get("type") == "uniform":
            return DiscreteDistribution.uniform(model.n_xi)
        if spec.get("type") == "explicit":
            entries = spec["entries"]
            return DiscreteDistribution(
                model.n_xi,
                [int(e["scenario"], 2) if isinstance(e["scenario"], str)
                 else as_integer("scenario", e["scenario"]) for e in entries],
                [as_float("p", e["p"]) for e in entries])
        raise ValueError(f"unknown type {spec.get('type')!r}")
    except ValueError as exc:
        raise ConfigError(f"distribution: {exc}") from exc
    except (KeyError, TypeError, AttributeError) as exc:
        raise _instance_error(exc) from exc


def model_from_instance(inst: dict) -> tuple[UnitCommitmentModel, DiscreteDistribution]:
    """The model (``instance_model``) and scenario law (``instance_law``) of
    an instance file's contents; a malformed instance raises ``ConfigError``
    (a bad value ``ValueError``)."""
    model = instance_model(inst)
    return model, instance_law(inst, model)


def load_instance(path) -> dict:
    """The parsed JSON of an instance file; text that is not JSON, or not
    in the file's encoding, raises ``ConfigError`` naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"cannot read instance {path}: {exc}") from exc


def save_instance(inst: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(inst, fh, indent=2, sort_keys=True)
        fh.write("\n")
