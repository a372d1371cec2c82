"""Fluid-model toolkit for polling systems under binomial-exhaustive service.

The package models a single server visiting K queues along a fixed table,
serving a binomially thinned share of the polled queue at each visit.  It
computes the fluid periodic equilibrium and its contraction properties,
optimises the repetition count and per-stage service ratios against a
nondecreasing cost, and validates the fluid predictions with a matched
discrete-event simulator.
"""

from __future__ import annotations

from .cost import (
    CostFunction,
    CustomCost,
    LinearScalar,
    PiecewiseLinearScalar,
    PolynomialScalar,
    SeparableCost,
    linear_cost,
    pe_average_cost,
    piecewise_linear_cost,
    polynomial_cost,
)
from .des import (
    CycleRecord,
    ScaledPath,
    SimulationResult,
    long_run_cost,
    polling_epoch_stats,
    run,
)
from .distributions import (
    Deterministic,
    Distribution,
    Exponential,
    Gamma,
    LogNormal,
    ScaledSystem,
    Uniform,
    make_distribution,
    scaled_system,
)
from .fluid import (
    FluidTrajectory,
    NoConvergence,
    PECandidate,
    VisitRecursion,
    convergence_distance,
    cycle_map,
    pe_from_params,
    simulate_fluid,
    spectral_radius,
    stage_map,
    visit_busy_shares,
)
from .model import (
    AugmentedTable,
    ControlParams,
    InfeasibleParameters,
    InvalidControl,
    MismatchedDimensions,
    NonCoveringTable,
    SystemParameters,
    augment,
    cycle_length,
    traffic_intensity,
    validate,
)
from .rfcp import (
    RFCPSolution,
    RepetitionSearch,
    StartOutcome,
    control_cost,
    exhaustive_shortcut,
    project_to_compact,
    relaxation_bound_cyclic,
    solve_rfcp,
)
from .stats import batch_means, ratio_ci

__version__ = "0.1.0"

__all__ = [
    "AugmentedTable",
    "ControlParams",
    "CostFunction",
    "CustomCost",
    "CycleRecord",
    "Deterministic",
    "Distribution",
    "Exponential",
    "FluidTrajectory",
    "Gamma",
    "InfeasibleParameters",
    "InvalidControl",
    "LinearScalar",
    "LogNormal",
    "MismatchedDimensions",
    "NoConvergence",
    "NonCoveringTable",
    "PECandidate",
    "PiecewiseLinearScalar",
    "PolynomialScalar",
    "RFCPSolution",
    "RepetitionSearch",
    "ScaledPath",
    "ScaledSystem",
    "SeparableCost",
    "SimulationResult",
    "StartOutcome",
    "SystemParameters",
    "Uniform",
    "VisitRecursion",
    "augment",
    "batch_means",
    "control_cost",
    "convergence_distance",
    "cycle_length",
    "cycle_map",
    "exhaustive_shortcut",
    "linear_cost",
    "long_run_cost",
    "make_distribution",
    "pe_average_cost",
    "pe_from_params",
    "piecewise_linear_cost",
    "polling_epoch_stats",
    "polynomial_cost",
    "project_to_compact",
    "ratio_ci",
    "relaxation_bound_cyclic",
    "run",
    "scaled_system",
    "simulate_fluid",
    "solve_rfcp",
    "spectral_radius",
    "stage_map",
    "traffic_intensity",
    "validate",
    "visit_busy_shares",
]
