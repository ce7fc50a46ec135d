"""Payoff oracles: cost-dependent amplitude written onto the QAE ancilla.

Two constructions: an exact per-basis-state rotation (brute-force dense,
demonstration scale only) and the small-angle product of doubly controlled
RY gates, whose per-branch rotation angle is additive in the cost terms and
scaled by pi / q_u, so that it stays in [0, pi] where sin^2 is invertible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dqa import RegisterLayout
from .model import Bounds, UnitCommitmentModel, bounds_for, cost_diagonal
from .statevector import Gate, OperatorSequence, ccry, dense, pauli_x

_EXACT_ORACLE_MAX_NY = 5  # dense 2^(2*n_y + 1) matrix; demonstration scale


@dataclass(frozen=True)
class OracleKind:
    """Which oracle to build, for the certified cost bounds of one x.

    The sin variant rotates the ancilla by ``angle_scale`` = pi / q_u
    radians per unit of cost.  The scale is worked out from the bounds,
    never set: a branch's total angle is at most pi, so sin^2 stays
    invertible.
    """

    variant: str
    bounds: Bounds

    def __post_init__(self):
        if self.variant not in ("exact", "sin"):
            raise ValueError(f"unknown oracle variant {self.variant!r}")

    @property
    def angle_scale(self) -> float:
        return math.pi / self.bounds.q_u

    @classmethod
    def exact(cls, bounds: Bounds) -> "OracleKind":
        return cls("exact", bounds)

    @classmethod
    def sin_approx(cls, bounds: Bounds) -> "OracleKind":
        return cls("sin", bounds)


def qbar(model: UnitCommitmentModel, x: int, q: float) -> float:
    """Cost normalized to [0, 1] by the certified bounds."""
    b = bounds_for(model, x)
    if q < b.q_l - 1e-12 or q > b.q_u + 1e-12:
        raise ValueError(f"cost {q} outside certified bounds [{b.q_l}, {b.q_u}]")
    return min(max((q - b.q_l) / b.width, 0.0), 1.0)


def _exact_oracle_gate(model: UnitCommitmentModel, x: int, bounds: Bounds,
                       ancilla: int) -> Gate:
    """Block-diagonal RY(2 arcsin sqrt(qbar)) per (y, xi) basis state."""
    n = 2 * model.n_y
    diag = cost_diagonal(model)
    # Infeasible y values can exceed q_u; they carry no amplitude after
    # the constraint-preserving evolution, so their angles are clamped.
    qb = np.clip((diag - bounds.q_l) / bounds.width, 0.0, 1.0)
    s = np.sqrt(qb)
    c = np.sqrt(1.0 - qb)
    dim = 2 ** n
    u = np.zeros((2 * dim, 2 * dim), dtype=complex)
    idx = np.arange(dim)
    u[idx, idx] = c
    u[dim + idx, idx] = s
    u[idx, dim + idx] = -s
    u[dim + idx, dim + idx] = c
    return dense(tuple(range(n)) + (ancilla,), u)


def build_oracle(kind: OracleKind, model: UnitCommitmentModel,
                 x: int) -> OperatorSequence:
    """Oracle sequence on ``RegisterLayout(n_y, n_xi, include_ancilla=True)``."""
    layout = RegisterLayout(model.n_y, model.n_xi, include_ancilla=True)
    anc = layout.ancilla
    if kind.variant == "exact":
        if model.n_y > _EXACT_ORACLE_MAX_NY:
            raise ValueError(f"exact oracle is brute-force dense; "
                             f"capped at n_y <= {_EXACT_ORACLE_MAX_NY}")
        return OperatorSequence((_exact_oracle_gate(model, x, kind.bounds, anc),),
                                "F_exact")

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
    Pr[1] = qbar clipped to [0, 1], the sin oracle to
    sin^2(angle_scale * q / 2), as its RY angles add up to angle_scale * q.
    """
    if kind.variant == "exact":
        per_state = np.clip((costs - kind.bounds.q_l) / kind.bounds.width, 0.0, 1.0)
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
