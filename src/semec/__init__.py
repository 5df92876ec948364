"""Min-max delay resource allocation for semantic-aware mobile edge computing."""

from .baselines import solve_local_only, solve_no_semantic
from .bench import (
    Scenario,
    ScenarioError,
    SweepResult,
    SweepSpec,
    dump_scenario,
    emit_csv,
    load_scenario,
    run_sweep,
    reference_scenario,
)
from .model import Allocation, DeviceTable, SystemConfig, TerminalDevice, generate_channel_gains
from .oracle import GridSpec, default_grid_bounds, grid_optimum, perturbation_certify
from .solver import (
    ConstraintResiduals,
    FeasibilityCause,
    FeasibilityError,
    SolverReport,
    delay_breakdown,
    log_domain_residuals,
    optimal_beta,
    optimal_local_rate,
    remote_rate_bisection,
    solve,
    transmit_bisection,
)

__all__ = [
    "Allocation",
    "ConstraintResiduals",
    "DeviceTable",
    "FeasibilityCause",
    "FeasibilityError",
    "GridSpec",
    "Scenario",
    "ScenarioError",
    "SolverReport",
    "SweepResult",
    "SweepSpec",
    "SystemConfig",
    "TerminalDevice",
    "default_grid_bounds",
    "delay_breakdown",
    "dump_scenario",
    "emit_csv",
    "generate_channel_gains",
    "grid_optimum",
    "load_scenario",
    "log_domain_residuals",
    "optimal_beta",
    "optimal_local_rate",
    "perturbation_certify",
    "remote_rate_bisection",
    "run_sweep",
    "solve",
    "solve_local_only",
    "solve_no_semantic",
    "reference_scenario",
    "transmit_bisection",
]

__version__ = "0.1.0"
