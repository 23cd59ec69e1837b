"""Variational integration and parameter identification for constrained
mechanical systems.

The package simulates forced, holonomically constrained Lagrangian
systems with a midpoint variational integrator, differentiates the
discrete flow exactly, and recovers unknown stiffness parameters from
measured trajectories by adjoint-gradient descent.

Layout:

* :mod:`varid.types` - time grids, states, trajectories, parameters
* :mod:`varid.model` - model interface and midpoint discretization
* :mod:`varid.models` - pendulum, open chain, closed-loop chain
* :mod:`varid.integrator` - implicit stepper, rollouts, energies, I/O
* :mod:`varid.linearization` - exact step and trajectory sensitivities
* :mod:`varid.estimation` - costs, adjoint gradient, descent, forcing
* :mod:`varid.checks` - finite-difference verification oracles
"""

from .errors import (
    ConfigError,
    InfeasibleStartError,
    IngestionError,
    NewtonConvergenceError,
    SingularKKTError,
    SolverError,
    VaridError,
)
from .types import (
    DiscreteState,
    ParameterVector,
    TimeGrid,
    Trajectory,
)
from .model import (
    DiscreteSlotDerivatives,
    ForcedModel,
    GeneralizedForce,
    LagrangianBundle,
    MechanicalModel,
    discrete_force_minus,
    discrete_lagrangian,
    slot_derivatives,
)
from .models import (
    ChainModel,
    ClosedLoopModel,
    PendulumModel,
    StiffnessGrouping,
    forward_kinematics,
    forward_kinematics_jacobian,
    load_model,
    model_config,
    project_to_constraint,
    regular_closed_loop,
)
from .integrator import (
    SolverSettings,
    StepResult,
    constraint_residuals,
    continuous_oracle,
    discrete_energy,
    read_trajectory_csv,
    rollout,
    simulate,
    step,
    trajectory_energies,
    write_trajectory_csv,
    write_trajectory_json,
)
from .linearization import (
    StepSensitivity,
    accumulate_param_sensitivity,
    linearize_step,
    linearize_trajectory,
    state_transition,
)
from .estimation import (
    CoordinateObservation,
    CostSpec,
    DescentSettings,
    FeedbackForce,
    IdentificationResult,
    LinkPositionObservation,
    Observation,
    adjoint_gradient,
    cost,
    identify,
    ingest_series,
    read_series_csv,
    write_series_csv,
)
from .checks import (
    CheckResult,
    check_adjoint_gradient,
    check_slot_derivatives,
    check_step_linearization,
    finite_difference_jacobian,
    relative_error,
    run_derivative_checks,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "VaridError",
    "ConfigError",
    "IngestionError",
    "SolverError",
    "NewtonConvergenceError",
    "SingularKKTError",
    "InfeasibleStartError",
    # types
    "TimeGrid",
    "DiscreteState",
    "ParameterVector",
    "Trajectory",
    # model interface
    "LagrangianBundle",
    "MechanicalModel",
    "GeneralizedForce",
    "ForcedModel",
    "DiscreteSlotDerivatives",
    "discrete_lagrangian",
    "discrete_force_minus",
    "slot_derivatives",
    # bundled models
    "PendulumModel",
    "StiffnessGrouping",
    "ChainModel",
    "ClosedLoopModel",
    "forward_kinematics",
    "forward_kinematics_jacobian",
    "project_to_constraint",
    "regular_closed_loop",
    "load_model",
    "model_config",
    # integrator
    "SolverSettings",
    "StepResult",
    "step",
    "rollout",
    "simulate",
    "discrete_energy",
    "trajectory_energies",
    "constraint_residuals",
    "continuous_oracle",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "write_trajectory_json",
    # linearization
    "StepSensitivity",
    "linearize_step",
    "linearize_trajectory",
    "accumulate_param_sensitivity",
    "state_transition",
    # estimation
    "Observation",
    "CoordinateObservation",
    "LinkPositionObservation",
    "CostSpec",
    "cost",
    "adjoint_gradient",
    "DescentSettings",
    "IdentificationResult",
    "identify",
    "FeedbackForce",
    "read_series_csv",
    "write_series_csv",
    "ingest_series",
    # checks
    "CheckResult",
    "finite_difference_jacobian",
    "relative_error",
    "check_slot_derivatives",
    "check_step_linearization",
    "check_adjoint_gradient",
    "run_derivative_checks",
]
