"""Classical domain model and brute-force reference solvers.

Binary unit commitment: a gas generator committed at integer output x, wind
turbines y that must cover the remaining demand d - x, and a binary wind
scenario per turbine.  Bit j of a y or scenario integer refers to turbine j
throughout; scenario bit 1 means the wind blows at that turbine.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np


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
    """``value`` as a float; a bool or a string, even a numeric one, is a
    config error rather than a number read from it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
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
            raise ValueError("need at least one turbine")
        if len(self.c) != self.n_y:
            raise ValueError(f"expected {self.n_y} turbine costs, got {len(self.c)}")
        for cj in self.c:
            if not 0.0 < cj < self.c_x:
                raise ValueError(f"turbine cost {cj} must satisfy 0 < c_j < c_x={self.c_x}")
        if not self.c_x < self.c_r:
            raise ValueError(f"recourse cost c_r={self.c_r} must exceed c_x={self.c_x}")
        if self.d < 0 or int(self.d) != self.d:
            raise ValueError("demand d must be a nonnegative integer")

    @property
    def n_xi(self) -> int:
        return self.n_y


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class DiscreteDistribution:
    """Sample space with pmf: entries are (scenario bitmask, probability)."""

    n_xi: int
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries",
                           tuple((int(s), float(p)) for s, p in self.entries))
        seen = set()
        total = 0.0
        for s, p in self.entries:
            if not 0 <= s < 2 ** self.n_xi:
                raise ValueError(f"scenario {s} does not fit in {self.n_xi} bits")
            if s in seen:
                raise ValueError(f"duplicate scenario {s}")
            seen.add(s)
            if p < 0:
                raise ValueError(f"negative probability for scenario {s}")
            total += p
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")

    @classmethod
    def uniform(cls, n_xi: int) -> "DiscreteDistribution":
        n = 2 ** n_xi
        return cls(n_xi, tuple((s, 1.0 / n) for s in range(n)))

    @classmethod
    def point_mass(cls, n_xi: int, scenario: int) -> "DiscreteDistribution":
        return cls(n_xi, ((scenario, 1.0),))

    @classmethod
    def from_pmf(cls, n_xi: int, pmf: dict[int, float]) -> "DiscreteDistribution":
        return cls(n_xi, tuple(sorted(pmf.items())))

    # Both arrays are built from ``entries`` on first access and kept,
    # read-only; ``__getstate__`` leaves them out of a pickle.
    @cached_property
    def scenarios(self) -> np.ndarray:
        return _read_only(np.array([s for s, _ in self.entries], dtype=np.int64))

    @cached_property
    def probabilities(self) -> np.ndarray:
        return _read_only(np.array([p for _, p in self.entries]))

    def __getstate__(self) -> dict:
        return {"n_xi": self.n_xi, "entries": self.entries}

    @property
    def is_uniform(self) -> bool:
        return (len(self.entries) == 2 ** self.n_xi
                and np.allclose(self.probabilities, 1.0 / 2 ** self.n_xi, atol=1e-15))


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

_FEASIBLE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def feasible_decisions(n_y: int, weight: int) -> np.ndarray:
    """All y bitmasks of the given Hamming weight, ascending."""
    key = (n_y, weight)
    hit = _FEASIBLE_CACHE.get(key)
    if hit is None:
        hit = np.array(sorted(sum(1 << j for j in comb)
                              for comb in combinations(range(n_y), weight)),
                       dtype=np.int64)
        _FEASIBLE_CACHE[key] = hit
    return hit


def second_stage_cost(model: UnitCommitmentModel, x: int, y: int, xi: int) -> float:
    """sum_j [c_j y_j xi_j - c_r y_j (xi_j - 1)] for a feasible y."""
    if not 0 <= x <= model.d:
        raise InfeasibleDecisionError(f"x={x} outside [0, d={model.d}]")
    if bin(y).count("1") != model.d - x:
        raise InfeasibleDecisionError(
            f"y={y:0{model.n_y}b} has Hamming weight {bin(y).count('1')}, "
            f"demand requires {model.d - x}")
    total = 0.0
    for j in range(model.n_y):
        yj = (y >> j) & 1
        xij = (xi >> j) & 1
        total += yj * (model.c[j] * xij + model.c_r * (1 - xij))
    return total


def _cost_matrix(model: UnitCommitmentModel, ys: np.ndarray,
                 xis: np.ndarray) -> np.ndarray:
    """q values for every (scenario, y) pair, shape (len(xis), len(ys))."""
    c = np.array(model.c)
    ybits = ((ys[:, None] >> np.arange(model.n_y)[None, :]) & 1).astype(float)
    xbits = ((xis[:, None] >> np.arange(model.n_y)[None, :]) & 1).astype(float)
    base = ybits @ np.full(model.n_y, model.c_r)          # all-recourse cost
    cross = xbits @ (ybits * (c - model.c_r)[None, :]).T  # wind replaces recourse
    return base[None, :] + cross


def brute_force_Q(model: UnitCommitmentModel, x: int, xi: int) -> tuple[int, float]:
    """Exhaustive second-stage minimum; ties go to the lowest y bitmask."""
    if x > model.d:
        raise InfeasibleDecisionError(f"no feasible y for x={x} > d={model.d}")
    ys = feasible_decisions(model.n_y, model.d - x)
    q = _cost_matrix(model, ys, np.array([xi], dtype=np.int64))[0]
    best = int(np.argmin(q))  # argmin returns the first, i.e. lowest, y
    return int(ys[best]), float(q[best])


def scenario_optima(model: UnitCommitmentModel, x: int,
                    dist: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Per-scenario (y*, q*) for every scenario in the distribution."""
    if x > model.d:
        raise InfeasibleDecisionError(f"no feasible y for x={x} > d={model.d}")
    ys = feasible_decisions(model.n_y, model.d - x)
    q = _cost_matrix(model, ys, dist.scenarios)
    best = np.argmin(q, axis=1)
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


def _uc_cost_table(model: UnitCommitmentModel) -> np.ndarray:
    """q(y, xi) for every y and scenario, shape (2^n_xi, 2^n_y).

    Turbine j adds c_j when its scenario bit is set and c_r otherwise,
    times y_j, summed in j order as in ``second_stage_cost``.
    """
    bits = np.arange(2 ** model.n_y, dtype=np.int64)
    table = np.zeros((bits.size, bits.size))
    for j in range(model.n_y):
        on = ((bits >> j) & 1).astype(bool)
        table += np.where(on, model.c[j], model.c_r)[:, None] * on[None, :]
    return table


def cost_diagonal(problem) -> np.ndarray:
    """Diagonal of the cost operator over the full (y, xi) basis.

    Entry for basis index i is q(x, y, xi) with y the low n_y bits and xi
    the next n_xi bits, the packing of ``dqa.RegisterLayout``.  Defined for
    every basis state, including infeasible y.
    """
    if isinstance(problem, GenericDiagonalProblem):
        return problem.cost.T.ravel()
    return _uc_cost_table(problem).ravel()


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


def model_from_instance(inst: dict) -> tuple[UnitCommitmentModel, DiscreteDistribution]:
    """The model and scenario law of an instance file's contents; a
    malformed instance raises ``ConfigError`` (a bad value ``ValueError``)."""
    if not isinstance(inst, dict):
        raise ConfigError("instance is not a JSON object")
    try:
        model = UnitCommitmentModel(
            n_y=as_integer("n_y", inst["n_y"]), c_x=as_float("c_x", inst["c_x"]),
            c=tuple(as_float("c", v) for v in inst["c"]),
            c_r=as_float("c_r", inst["c_r"]), d=as_integer("d", inst["d"]))
        spec = inst.get("distribution", {"type": "uniform"})
        if spec.get("type") == "uniform":
            dist = DiscreteDistribution.uniform(model.n_xi)
        elif spec.get("type") == "explicit":
            entries = tuple((int(e["scenario"], 2) if isinstance(e["scenario"], str)
                             else as_integer("scenario", e["scenario"]),
                             as_float("p", e["p"]))
                            for e in spec["entries"])
            dist = DiscreteDistribution(model.n_xi, entries)
        else:
            raise ValueError(f"unknown distribution type {spec.get('type')!r}")
    except KeyError as exc:
        raise ConfigError(f"instance: missing field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed instance: {exc}") from exc
    return model, dist


def load_instance(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def save_instance(inst: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(inst, fh, indent=2, sort_keys=True)
        fh.write("\n")
