"""Statevector simulator and experiment harness for hybrid estimation of
two-stage stochastic objectives: scenario-controlled digitized annealing
prepares per-scenario optima, amplitude estimation reads out the
expectation, and brute-force solvers provide ground truth."""

__version__ = "0.1.0"

from .model import (
    DiscreteDistribution,
    GenericDiagonalProblem,
    InfeasibleDecisionError,
    UnitCommitmentModel,
    brute_force_Q,
    expected_value_exact,
    generate_instance,
    model_from_instance,
    objective_exact,
    second_stage_cost,
)
from .dqa import (
    AnnealSchedule,
    DqaDiagnostics,
    RegisterLayout,
    build_dqa,
    expectation_HQ,
    prepare_dicke,
    prepare_distribution,
    residual_diagnostics,
    run_dqa,
    run_dqa_fast,
)
from .oracle import OracleKind, build_oracle, qbar, sin_oracle_readback
from .qae import (
    QaeConfig,
    QaeEstimates,
    build_A,
    build_grover,
    build_inverse_qft,
    build_qft,
    error_bound_check,
    run_qae,
)
from .statevector import (
    Gate,
    OperatorSequence,
    SimulationBudgetError,
    StateVector,
    apply,
    apply_controlled_sequence,
    apply_sequence,
    marginal_probability,
)
