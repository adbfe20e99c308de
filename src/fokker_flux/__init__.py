"""1D drift-diffusion models with in- and outflow of mass.

Three model variants on the unit interval: boundary influx/outflux (A),
bulk exchange (B) and crowding-limited bulk exchange (C), with closed-form
and numeric stationary solutions, an explicit conservative scheme plus an
implicit entropy-variable scheme, relative-entropy diagnostics and Robin
eigenvalue rate predictions.
"""

from .domain import (
    DensityField,
    Discretization,
    Grid,
    InitialSpec,
    ModelSpec,
    PotentialSpec,
    build_grid,
    build_initial,
    discretize,
    eval_potential,
    node_average,
    trapezoid,
)
from .entropy import (
    RatePrediction,
    RateReport,
    ck_check,
    ck_constant,
    default_fit_window,
    default_kind,
    entropy,
    fit_exponential_rate,
    k1_bound,
    l1_distance,
    phi_lemma,
    predicted_rate,
)
from .errors import (
    ConfigError,
    DivergenceError,
    EntropyDomainError,
    FitError,
    FokkerFluxError,
    InvalidGridError,
    InvalidInitialError,
    InvalidModelError,
    IterationError,
    RootNotFoundError,
    ShapeError,
    StabilityError,
    StepFailureError,
    UndefinedConstantError,
)
from .experiments import (
    MassEvolutionReport,
    RunConfig,
    RunSummary,
    SweepRow,
    config_from_dict,
    execute,
    gamma_sweep,
    mass_evolution,
    preset_config,
    run,
)
from .spectral import EigenResult, discrete_min_rayleigh, friedrichs_k, symmetric_k
from .stationary import (
    StationarySolution,
    nodal_residual,
    slotboom_system,
    stationary_closed,
    stationary_numeric,
)
from .transient import (
    FluxField,
    SolverConfig,
    Trajectory,
    flux_field,
    residual_stationary,
    run_transient,
    step_explicit,
    step_implicit_entropy,
)

__version__ = "0.1.0"
