"""1D drift-diffusion models with in- and outflow of mass.

Three model variants on the unit interval: boundary influx/outflux (A),
bulk exchange (B) and crowding-limited bulk exchange (C), with closed-form
and numeric stationary solutions, an explicit conservative scheme plus an
implicit entropy-variable scheme, relative-entropy diagnostics and Robin
eigenvalue rate predictions.
"""

import os

# The package's dense products (the A/B propagator, the model-C chord) are
# small: at n = 200 one takes well under a millisecond on one core.
# OpenBLAS starts one thread per core when numpy loads, and on shared cores
# those threads only wait for each other inside every product: on a 2-core
# VM with one busy process beside it, an entropy-A run took 26-260 ms with
# the default threads and 22-38 ms with one. OpenBLAS reads its thread count
# once, when it loads, so numpy is loaded here on one thread unless the
# caller has chosen a count, and the variable is removed again so that child
# processes inherit nothing. If numpy is already loaded, its count stays.
if not any(name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                           "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    del numpy
del os

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
