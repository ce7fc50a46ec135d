"""Payoff oracles: the normalized cost q / q_u written onto the QAE ancilla.

Two constructions: an exact per-basis-state rotation (one diagonal
between Hadamard and S gates on the ancilla) and the small-angle product
of doubly controlled RY gates, whose per-branch rotation angle is additive
in the cost terms and scaled by pi / q_u, so that it stays in [0, pi]
where sin^2 is invertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dqa import RegisterLayout
from .model import ConfigError, UnitCommitmentModel, cost_bound, cost_diagonal
from .statevector import (Gate, OperatorSequence, ccry, check_distribution,
                          diagonal, hadamard, pauli_x, phase)

ORACLES = ("exact", "sin")


def check_oracle(oracle: str) -> None:
    """Raise ``ConfigError`` unless ``oracle`` names one of ``ORACLES``."""
    if oracle not in ORACLES:
        names = " or ".join(map(repr, ORACLES))
        raise ConfigError(f"oracle must be {names}, got {oracle!r}")


@dataclass(frozen=True)
class OracleKind:
    """Which oracle to build for one x, whose costs lie in [0, ``q_u``].

    The exact variant writes Pr[1] = q / q_u.  The sin variant rotates the
    ancilla by ``angle_scale`` = pi / q_u radians per unit of cost.  The
    scale is worked out from q_u, never set: a branch's total angle is at
    most pi, so sin^2 stays invertible.
    """

    variant: str
    q_u: float

    def __post_init__(self):
        check_oracle(self.variant)

    @property
    def angle_scale(self) -> float:
        return math.pi / self.q_u


def qbar(model: UnitCommitmentModel, x: int, q: float) -> float:
    """Cost normalized to [0, 1] by the certified bound, q / q_u."""
    q_u = cost_bound(model, x)
    if q < -1e-12 or q > q_u + 1e-12:
        raise ValueError(f"cost {q} outside certified bounds [0, {q_u}]")
    return min(max(q / q_u, 0.0), 1.0)


def _exact_oracle_gates(model: UnitCommitmentModel, q_u: float,
                        ancilla: int) -> tuple[Gate, ...]:
    """RY(t) = S H e^{-itZ/2} H S+ on the ancilla per (y, xi) basis state,
    t = 2 arcsin sqrt(qbar): the diagonal holds e^{-it/2} = sqrt(1 - qbar)
    - i sqrt(qbar) on ancilla |0> and its conjugate on |1>."""
    diag = cost_diagonal(model)
    # Infeasible y values can exceed q_u; they carry no amplitude after
    # the constraint-preserving evolution, so their angles are clamped.
    qb = np.clip(diag / q_u, 0.0, 1.0)
    half = np.sqrt(1.0 - qb) - 1j * np.sqrt(qb)
    targets = tuple(range(2 * model.n_y)) + (ancilla,)
    return (phase(ancilla, -math.pi / 2), hadamard(ancilla),
            diagonal(targets, np.concatenate([half, half.conj()])),
            hadamard(ancilla), phase(ancilla, math.pi / 2))


def build_oracle(kind: OracleKind, model: UnitCommitmentModel) -> OperatorSequence:
    """Oracle sequence on ``RegisterLayout(n_y, n_xi, include_ancilla=True)``."""
    layout = RegisterLayout(model.n_y, model.n_xi, include_ancilla=True)
    anc = layout.ancilla
    if kind.variant == "exact":
        return OperatorSequence(_exact_oracle_gates(model, kind.q_u, anc), "F_exact")

    yq, xq = layout.y_register, layout.xi_register
    scale = kind.angle_scale
    gates = []
    for j in range(model.n_y):
        gates.append(ccry(xq[j], yq[j], anc, scale * model.c[j]))
        gates.append(pauli_x(xq[j]))
        gates.append(ccry(xq[j], yq[j], anc, scale * model.c_r))
        gates.append(pauli_x(xq[j]))
    return OperatorSequence(tuple(gates), "F_sin")


def target_amplitude(kind: OracleKind, probabilities: np.ndarray,
                     costs: np.ndarray) -> float:
    """Pr[ancilla = 1] after the oracle acts on a (y, xi) state, from the
    probabilities and costs q(y, xi) of its basis states in one order (a
    ``dqa.FeasibleBlock`` grid: states left out have zero probability),
    without building or applying the oracle.

    Every basis state rotates the ancilla on its own: the exact oracle to
    Pr[1] = q / q_u clipped to [0, 1], the sin oracle to
    sin^2(angle_scale * q / 2), as its RY angles add up to angle_scale * q.
    ``probabilities`` must pass ``check_distribution`` (no negative entry,
    a sum within PROB_SUM_TOL of 1), or this raises ValueError.
    """
    probabilities = check_distribution(probabilities)
    if kind.variant == "exact":
        per_state = np.clip(costs / kind.q_u, 0.0, 1.0)
    else:
        per_state = np.sin(kind.angle_scale * costs / 2) ** 2
    return float(probabilities @ per_state)


def sin_oracle_readback(a_hat: float, kind: OracleKind) -> float:
    """Invert the per-branch relation Pr[1] = sin^2(angle_scale * q / 2).

    Exact for a concentrated state; a mixture of sin^2 values is not the
    sin^2 of the mixture, so mixed states carry a convexity bias (the
    worked two-point formula is pinned in the tests).
    """
    if kind.variant != "sin":
        raise ValueError("readback inversion applies to the sin oracle")
    if not 0.0 <= a_hat <= 1.0:
        raise ValueError(f"estimate {a_hat} outside [0, 1]")
    return (2.0 / kind.angle_scale) * math.asin(math.sqrt(a_hat))
