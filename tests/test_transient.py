import math

import numpy as np
import pytest

from fokker_flux import (
    DensityField,
    DivergenceError,
    InitialSpec,
    InvalidInitialError,
    InvalidModelError,
    ModelSpec,
    PotentialSpec,
    SolverConfig,
    StabilityError,
    StepFailureError,
    build_grid,
    build_initial,
    discretize,
    entropy,
    execute,
    flux_field,
    preset_config,
    residual_stationary,
    run_transient,
    stationary_closed,
    stationary_numeric,
    step_explicit,
    step_implicit_entropy,
    trapezoid,
)
import fokker_flux.transient as transient
from fokker_flux.transient import _ExplicitStepper, _ImplicitStepper
from fokker_flux.tridiag import solve_tridiagonal

from sampled import run_sampled

LINEAR = PotentialSpec("linear")
ZERO = PotentialSpec("zero")
MODEL_A = ModelSpec("A", 1.0, 0.9, LINEAR)
MODEL_B = ModelSpec("B", 1.0, 0.9, LINEAR)
MODEL_C = ModelSpec("C", 1.0, 0.9, LINEAR)


def constant_field(grid, c):
    return DensityField(np.full(grid.n, c), grid)


# ---------------------------------------------------------------- face flux

def test_face_flux_constant_density_drift_only():
    g = build_grid(50)
    f = constant_field(g, 0.7)
    for i in (0, 10, 48):
        assert flux_field(f, discretize(MODEL_A, g)).values[i + 1] == pytest.approx(0.7)


def test_face_flux_zero_potential():
    g = build_grid(50)
    f = constant_field(g, 0.7)
    m = ModelSpec("A", 1.0, 1.0, ZERO)
    assert flux_field(f, discretize(m, g)).values[6] == 0.0


def test_face_flux_crowded_mobility():
    g = build_grid(50)
    f = constant_field(g, 0.25)
    assert flux_field(f, discretize(MODEL_C, g)).values[4] == pytest.approx(0.25 * 0.75)


def test_face_flux_on_stationary_profile_is_influx_rate():
    # the steady flux is exactly alpha; the discrete face value differs by
    # a second-order truncation term, checked by grid refinement
    worst = []
    for n in (100, 200):
        d = discretize(MODEL_A, build_grid(n))
        sol = stationary_closed(d)
        ff = flux_field(sol.field, d)
        worst.append(np.max(np.abs(ff.values[1:-1] - 1.0)))
    assert worst[0] < 25 * (1.0 / 99) ** 2
    assert 3.5 < worst[0] / worst[1] < 4.5


def test_flux_field_boundary_faces():
    g = build_grid(20)
    f = constant_field(g, 0.5)
    ff = flux_field(f, discretize(MODEL_A, g))
    assert ff.values[0] == MODEL_A.alpha
    assert ff.values[-1] == MODEL_A.beta * 0.5
    for m in (MODEL_B, MODEL_C):
        ffm = flux_field(f, discretize(m, g))
        assert ffm.values[0] == 0.0 and ffm.values[-1] == 0.0


# ------------------------------------------------------------------- CFL

def test_cfl_zero_potential():
    g = build_grid(200)
    m = ModelSpec("A", 1.0, 1.0, ZERO)
    assert discretize(m, g).max_dt == pytest.approx(g.dx**2 / 2.0)
    assert discretize(m, g).max_dt == pytest.approx(1.263e-5, rel=1e-3)


def test_cfl_linear_potential_and_reference_step():
    g = build_grid(200)
    bound = discretize(MODEL_A, g).max_dt
    assert bound == pytest.approx(g.dx**2 / (2.0 + g.dx))
    assert 5e-6 < bound  # the reference time step passes the check


def test_cfl_empirical_no_blowup_at_half_bound():
    g = build_grid(60)
    m = ModelSpec("A", 1.0, 1.0, ZERO)
    init = build_initial(InitialSpec("affine", a=-0.1, b=1.2), g, m)
    d = discretize(m, g)
    cfg = SolverConfig(dt=0.5 * d.max_dt, t_end=0.05, observe_every=50)
    traj = run_transient(d, init, cfg)
    assert np.all(np.isfinite(traj.final.values))
    assert traj.max_value < 10.0


# ----------------------------------------------------------- explicit step

def test_step_explicit_rejects_unstable_dt():
    g = build_grid(100)
    f = constant_field(g, 1.0)
    with pytest.raises(StabilityError):
        step_explicit(f, discretize(MODEL_A, g), 1e-3)


def test_step_explicit_checks_the_positivity_certificate(monkeypatch):
    # at max_dt the outflow of model A's half cell at x = 1 outweighs the
    # drift: one step would turn rho_7 = 5 into -1.18
    g = build_grid(8)
    d = discretize(ModelSpec("A", 0.1, 2.0, PotentialSpec("scaled-linear", gamma=-3.0)), g)
    rho = DensityField(5.0 * np.eye(8)[7], g)
    with pytest.raises(StabilityError) as in_run:
        run_transient(d, rho, SolverConfig(dt=d.max_dt, t_end=d.max_dt))
    assert "T[7, 7] = -2.353e-01" in str(in_run.value)

    def dense(*args):
        raise AssertionError("one step builds no dense step matrix")

    monkeypatch.setattr(_ExplicitStepper, "affine_matrix", dense)
    with pytest.raises(StabilityError) as in_step:
        step_explicit(rho, d, d.max_dt)
    assert str(in_step.value) == str(in_run.value)
    for model in (MODEL_A, MODEL_B):  # a dt inside the certificate steps as before
        d = discretize(model, build_grid(200))
        state = build_initial(InitialSpec("affine", a=-0.1, b=1.2), d.grid, model)
        expected = state.values.copy()
        _ExplicitStepper(d).step(expected, 5e-6)
        assert step_explicit(state, d, 5e-6).values.tobytes() == expected.tobytes()


def test_step_explicit_fixed_point_model_B():
    g = build_grid(200)
    d = discretize(MODEL_B, g)
    sol = stationary_closed(d)
    dt = 5e-6
    out = step_explicit(sol.field, d, dt)
    dev = np.abs(out.values - sol.field.values)
    # interior truncation is O(dx^2); the half-cell boundary rows are O(dx)
    assert dev[1:-1].max() < dt * g.dx**2
    assert dev.max() < dt * g.dx


def test_step_explicit_divergence_detected():
    g = build_grid(10)
    bad = DensityField(np.array([1.0] * 9 + [np.inf]), g)
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(DivergenceError):
        step_explicit(bad, discretize(MODEL_A, g), 1e-5)


def test_discrete_mass_balance_per_step():
    # trapezoid mass obeys M' - M = dt (alpha - beta rho(1)) exactly
    g = build_grid(200)
    m = MODEL_A
    f = build_initial(InitialSpec("affine", a=-0.1, b=1.2), g, m)
    d = discretize(m, g)
    dt = 5e-6
    state = f
    worst = 0.0
    for _ in range(400):
        m_before = trapezoid(state.values, g.dx)
        out_density = state.values[-1]
        state = step_explicit(state, d, dt)
        m_after = trapezoid(state.values, g.dx)
        gap = abs((m_after - m_before) - dt * (m.alpha - m.beta * out_density))
        worst = max(worst, gap)
    assert worst < 1e-12


def test_positivity_preserved_for_linear_models():
    g = build_grid(200)
    m = MODEL_A
    f = build_initial(InitialSpec("mass2"), g, m)  # touches zero
    cfg = SolverConfig(dt=1e-5, t_end=0.02, observe_every=500)
    traj = run_transient(discretize(m, g), f, cfg)
    assert traj.min_value >= -1e-12


def test_box_preserved_for_crowded_model():
    g = build_grid(200)
    f = build_initial(InitialSpec("parabola"), g, MODEL_C)
    cfg = SolverConfig(dt=1e-5, t_end=0.05, observe_every=1000)
    traj = run_transient(discretize(MODEL_C, g), f, cfg)
    assert traj.min_value >= -1e-12
    assert traj.max_value <= 1.0 + 1e-12


# ----------------------------------------------------------- implicit step

def test_implicit_step_fixed_point():
    g = build_grid(200)
    d = discretize(MODEL_C, g)
    sol = stationary_closed(d)
    out = step_implicit_entropy(sol.field, d, 1e-3)
    assert np.max(np.abs(out.values - sol.field.values)) < 1e-10


def test_implicit_step_stays_in_open_box():
    g = build_grid(100)
    rng = np.random.default_rng(3)
    vals = np.clip(rng.uniform(0.02, 0.98, g.n), 0.02, 0.98)
    out = step_implicit_entropy(DensityField(vals, g), discretize(MODEL_C, g), 5e-3)
    assert out.values.min() > 0.0 and out.values.max() < 1.0


def test_implicit_step_requires_open_box():
    g = build_grid(10)
    with pytest.raises(InvalidInitialError):
        step_implicit_entropy(constant_field(g, 1.0), discretize(MODEL_C, g), 1e-3)


def test_implicit_step_rejects_linear_models():
    g = build_grid(10)
    with pytest.raises(InvalidModelError):
        step_implicit_entropy(constant_field(g, 0.5), discretize(MODEL_B, g), 1e-3)


def test_implicit_entropy_dissipation_per_step():
    # discrete analogue of the entropy inequality: E(new) + dt D <= E(old)
    # with D the flux dissipation plus the sign-definite reaction part
    g = build_grid(200)
    d = discretize(MODEL_C, g)
    ref = stationary_closed(d)
    f = build_initial(InitialSpec("parabola"), g, MODEL_C)
    state = DensityField(np.clip(f.values, 0.01, 0.99), g)
    dt = 1e-3
    u_inf = math.log(MODEL_C.alpha / MODEL_C.beta)
    vol = np.full(g.n, g.dx)
    vol[0] = vol[-1] = 0.5 * g.dx
    e_prev = entropy("two-species", state, ref.field)
    for _ in range(25):
        state = step_implicit_entropy(state, d, dt)
        e_new = entropy("two-species", state, ref.field)
        r = state.values
        u = np.log(r / (1.0 - r)) - g.nodes
        mean = 0.5 * (r[:-1] + r[1:])
        du = u[1:] - u[:-1]
        flux_part = float(np.sum(mean * (1.0 - mean) * du * du / g.dx))
        react_part = float(
            np.sum(vol * (u - u_inf) * (MODEL_C.beta * r * np.exp(-g.nodes) - MODEL_C.alpha * (1.0 - r)))
        )
        assert flux_part >= 0.0 and react_part >= -1e-12
        assert e_new <= e_prev + 1e-12
        assert e_new + dt * (flux_part + react_part) <= e_prev + 1e-10
        e_prev = e_new


def reference_newton(stepper, rho_old, dt):
    """Damped Newton evaluating G afresh at every iterate; None on failure."""

    def norm_of(G):
        return float(np.max(np.abs(G / stepper.vol)))

    u = np.log(rho_old / (1.0 - rho_old)) - stepper.v
    coef, base = stepper._balance(rho_old, dt)
    for _ in range(transient.NEWTON_MAX_ITER):
        G, rho = stepper._residual(u, rho_old, coef, base)
        norm = norm_of(G)
        if norm < transient.NEWTON_TOLERANCE:
            return stepper._logistic(u + stepper.v)
        delta = solve_tridiagonal(*stepper._jacobian(u, rho, coef), -G)
        damping = 1.0
        for _ in range(transient.NEWTON_MAX_BACKTRACKS):
            trial, _ = stepper._residual(u + damping * delta, rho_old, coef, base)
            if norm_of(trial) < norm:
                break
            damping *= 0.5
        u = u + damping * delta
    G, _ = stepper._residual(u, rho_old, coef, base)
    return stepper._logistic(u + stepper.v) if norm_of(G) < transient.NEWTON_TOLERANCE else None


@pytest.mark.parametrize(
    "dt, newton",
    [
        (1e-3, {}),
        (5.0, {}),
        (5.0, {"NEWTON_MAX_BACKTRACKS": 0}),
        # fails
        (5.0, {"NEWTON_MAX_ITER": 2, "NEWTON_TOLERANCE": 1e-14, "NEWTON_MAX_BACKTRACKS": 1}),
    ],
)
def test_implicit_step_equals_reference_newton(dt, newton, monkeypatch):
    for name, value in newton.items():  # Newton's limits, read at each solve
        monkeypatch.setattr(transient, name, value)
    g = build_grid(60)
    rng = np.random.default_rng(11)
    rho_old = rng.uniform(0.02, 0.98, g.n)
    stepper = _ImplicitStepper(discretize(MODEL_C, g))
    calls = {"_residual": 0, "_jacobian": 0}
    for name in calls:
        original = getattr(_ImplicitStepper, name)

        def counted(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(_ImplicitStepper, name, counted)
    want = reference_newton(stepper, rho_old, dt)
    reference_calls = dict(calls)
    calls.update(_residual=0, _jacobian=0)
    if want is None:
        with pytest.raises(StepFailureError):
            stepper.step(rho_old, dt)
        return
    assert np.array_equal(stepper.step(rho_old, dt), want)
    assert calls["_jacobian"] == reference_calls["_jacobian"]
    if transient.NEWTON_MAX_BACKTRACKS:
        # an accepted trial is the next iterate: its G is not evaluated again
        saved = reference_calls["_jacobian"]
    else:
        saved = 0
    assert calls["_residual"] == reference_calls["_residual"] - saved


def cell_balance(g, rho_old, u, dt, model):
    """The implicit scheme's cell balances at ``u``, term by term, and the
    largest magnitude among the terms summed (the scale of their roundoff)."""
    vol = np.full(g.n, g.dx)
    vol[[0, -1]] = 0.5 * g.dx
    rho = 1.0 / (1.0 + np.exp(-(u + g.nodes)))
    mean = 0.5 * (rho[:-1] + rho[1:])
    flux = -mean * (1.0 - mean) * (u[1:] - u[:-1]) / g.dx
    div = np.append(flux, 0.0) - np.insert(flux, 0, 0.0)
    react = model.alpha * (1.0 - rho) - model.beta * rho * np.exp(-g.nodes)
    terms = (vol * rho / dt, vol * rho_old / dt, flux, vol * react)
    return vol * (rho - rho_old) / dt + div - vol * react, max(np.max(np.abs(t)) for t in terms)


@pytest.mark.parametrize("n", [3, 60, 200])
@pytest.mark.parametrize("dt", [1e-3, 5.0])
def test_implicit_residual_is_the_cell_balance(n, dt):
    g = build_grid(n)
    stepper = _ImplicitStepper(discretize(MODEL_C, g))
    rng = np.random.default_rng(n)
    for _ in range(10):
        rho_old = rng.uniform(0.02, 0.98, n)
        u = rng.normal(0.0, 2.0, n)
        G, rho = stepper._residual(u, rho_old, *stepper._balance(rho_old, dt))
        want, scale = cell_balance(g, rho_old, u, dt, MODEL_C)
        assert np.max(np.abs(G - want)) <= 1e-13 * scale
        assert np.array_equal(rho, _ImplicitStepper._logistic(u + g.nodes))


def test_implicit_residual_time_term_is_exactly_zero_at_the_old_density():
    # the balance keeps the difference rho - rho_old: at rho == rho_old the
    # time term is 0 for every dt, so its roundoff does not grow like 1/dt
    g = build_grid(60)
    stepper = _ImplicitStepper(discretize(MODEL_C, g))
    u = np.random.default_rng(5).normal(0.0, 2.0, g.n)
    rho_old = _ImplicitStepper._logistic(u + g.nodes)
    balances = [
        stepper._residual(u, rho_old, *stepper._balance(rho_old, dt))[0]
        for dt in (1e-9, 1e-3, 1.0)
    ]
    for G in balances[1:]:
        assert np.array_equal(G, balances[0])


def test_implicit_residual_returns_arrays_no_later_call_overwrites():
    g = build_grid(60)
    stepper = _ImplicitStepper(discretize(MODEL_C, g))
    rng = np.random.default_rng(3)
    rho_old = rng.uniform(0.02, 0.98, g.n)
    balance = stepper._balance(rho_old, 1e-2)
    first = stepper._residual(rng.normal(0.0, 2.0, g.n), rho_old, *balance)
    kept = [a.copy() for a in first]
    again = stepper._residual(rng.normal(0.0, 2.0, g.n), rho_old, *balance)
    stepper._norm(again[0])
    for array, copy in zip(first, kept):
        assert np.array_equal(array, copy)
        for later in again:
            assert not np.shares_memory(array, later)


# ------------------------------------------------------------ run_transient

def test_run_zero_time_returns_initial_only():
    g = build_grid(50)
    f = build_initial(InitialSpec("affine"), g, MODEL_A)
    traj = run_transient(discretize(MODEL_A, g), f, SolverConfig(dt=1e-5, t_end=0.0))
    assert traj.times.size == 1 and traj.times[0] == 0.0
    assert np.array_equal(traj.final.values, f.values)


def test_run_rejects_unstable_dt():
    g = build_grid(50)
    f = build_initial(InitialSpec("affine"), g, MODEL_A)
    with pytest.raises(StabilityError):
        run_transient(discretize(MODEL_A, g), f, SolverConfig(dt=1e-2, t_end=0.1))


def test_run_mass_balance_telescopes_across_samples():
    g = build_grid(100)
    f = build_initial(InitialSpec("affine", a=-0.1, b=1.2), g, MODEL_A)
    cfg = SolverConfig(dt=2e-5, t_end=0.002, observe_every=1)
    traj = run_transient(discretize(MODEL_A, g), f, cfg)
    gaps = np.diff(traj.mass) - cfg.dt * (
        MODEL_A.alpha - MODEL_A.beta * traj.outflow_density[:-1]
    )
    assert np.max(np.abs(gaps)) < 1e-12


def test_run_observer_layout_and_snapshots():
    g = build_grid(50)
    f = build_initial(InitialSpec("affine"), g, MODEL_A)
    cfg = SolverConfig(dt=1e-5, t_end=0.001, observe_every=20)
    traj = run_transient(discretize(MODEL_A, g), f, cfg, snapshot_times=[0.0, 0.0005, 0.001])
    assert np.all(np.diff(traj.times) > 0.0)
    assert traj.times.size == 6  # steps 0, 20, 40, 60, 80, 100
    assert [t for t, _ in traj.snapshots] == [0.0, 0.0005, 0.001]
    assert traj.entropy.size == traj.mass.size == traj.times.size


def test_run_snapshot_beyond_end_rejected():
    from fokker_flux import ConfigError

    g = build_grid(50)
    f = build_initial(InitialSpec("affine"), g, MODEL_A)
    with pytest.raises(ConfigError):
        run_transient(
            discretize(MODEL_A, g), f, SolverConfig(dt=1e-5, t_end=0.001), snapshot_times=[0.01]
        )


def test_solver_config_validation():
    from fokker_flux import ConfigError

    with pytest.raises(ConfigError):
        SolverConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ConfigError):
        SolverConfig(dt=1e-5, t_end=-1.0)
    with pytest.raises(ConfigError):  # t_end / dt overflows to inf
        SolverConfig(dt=1e-320, t_end=6.0)
    with pytest.raises(ConfigError):
        SolverConfig(dt=1e-5, t_end=1.0, observe_every=0)
    with pytest.raises(ConfigError):
        SolverConfig(dt=1e-5, t_end=1.0, scheme="magic")


def test_solver_config_keeps_step_indices_within_int64():
    from fokker_flux import ConfigError

    with pytest.raises(ConfigError, match=r"below 2\*\*63"):
        SolverConfig(dt=1e-5, t_end=1.0, observe_every=2**63)
    with pytest.raises(ConfigError, match=r"below 2\*\*63"):
        SolverConfig(dt=1.0, t_end=2.0**63)  # a finite step count past int64
    SolverConfig(dt=1e-5, t_end=1.0, observe_every=2**63 - 1)
    SolverConfig(dt=1.0, t_end=2.0**63 - 1024)  # the largest double below 2**63


def test_positivity_and_box_at_exact_stability_bound():
    # the invariants are stated for every dt up to the bound itself
    g = build_grid(200)
    f = build_initial(InitialSpec("mass2"), g, MODEL_A)
    d = discretize(MODEL_A, g)
    traj = run_transient(d, f, SolverConfig(dt=d.max_dt, t_end=0.05, observe_every=1000))
    assert traj.min_value >= -1e-12
    fc = build_initial(InitialSpec("parabola"), g, MODEL_C)
    dc = discretize(MODEL_C, g)
    trajc = run_transient(dc, fc, SolverConfig(dt=dc.max_dt, t_end=0.05, observe_every=1000))
    assert trajc.min_value >= -1e-12 and trajc.max_value <= 1.0 + 1e-12


def test_implicit_run_matches_stationary_long_time():
    g = build_grid(100)
    f = build_initial(InitialSpec("parabola"), g, MODEL_C)
    cfg = SolverConfig(dt=0.02, t_end=12.0, observe_every=10, scheme="implicit-entropy")
    d = discretize(MODEL_C, g)
    traj = run_transient(d, f, cfg)
    ref = stationary_closed(d)
    assert np.max(np.abs(traj.final.values - ref.field.values)) < 5e-4
    assert np.all(np.diff(traj.entropy) <= 1e-12)


def test_implicit_run_failure_carries_time(monkeypatch):
    from fokker_flux import StepFailureError

    monkeypatch.setattr(transient, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(transient, "NEWTON_TOLERANCE", 1e-14)
    monkeypatch.setattr(transient, "NEWTON_MAX_BACKTRACKS", 1)
    g = build_grid(60)
    f = build_initial(InitialSpec("parabola"), g, MODEL_C)
    cfg = SolverConfig(dt=5.0, t_end=10.0, scheme="implicit-entropy")
    with pytest.raises(StepFailureError) as excinfo:
        run_transient(discretize(MODEL_C, g), f, cfg)
    assert excinfo.value.time == pytest.approx(5.0)
    assert excinfo.value.residual > 0.0


# initial data whose smallest (bump) or largest (dip) value over the run is
# reached at a step off the strides 7 and 1000: steps 40 and 1 (explicit and
# implicit) for the bump, 38 and 1 for the dip, at n = 40
EXTREMUM_OFF_THE_STRIDE = {
    "bump": lambda x: 0.3 + 0.4 * np.exp(-80.0 * (x - 0.5) ** 2),
    "dip": lambda x: 0.8 - 0.5 * np.exp(-80.0 * (x - 0.5) ** 2),
}


@pytest.mark.parametrize("stride", [7, 1000])
@pytest.mark.parametrize(
    "scheme, dt, t_end", [("explicit", 2.2e-4, 0.44), ("implicit-entropy", 1e-2, 2.0)]
)
@pytest.mark.parametrize("shape", list(EXTREMUM_OFF_THE_STRIDE))
def test_model_c_extrema_range_over_unsampled_steps(shape, scheme, dt, t_end, stride):
    g = build_grid(40)
    f = DensityField(EXTREMUM_OFF_THE_STRIDE[shape](g.nodes), g)
    d = discretize(MODEL_C, g)
    # step by step: the run observed at every step keeps every state
    every, fields = run_sampled(
        d, f, SolverConfig(dt=dt, t_end=t_end, observe_every=1, scheme=scheme)
    )
    states = np.array([field.values for field in fields])
    assert len(states) == every.steps + 1
    lo, hi = float(states.min()), float(states.max())
    sampled = np.vstack([states[::stride], states[-1:]])
    assert (lo, hi) != (sampled.min(), sampled.max())  # the samples alone miss one
    traj = run_transient(
        d, f, SolverConfig(dt=dt, t_end=t_end, observe_every=stride, scheme=scheme)
    )
    assert np.array_equal(traj.final.values, every.final.values)
    assert (traj.min_value, traj.max_value) == (lo, hi)
    assert (every.min_value, every.max_value) == (lo, hi)


def test_implicit_run_guards_the_extrema_against_non_finite_states(monkeypatch):
    g = build_grid(40)
    f = build_initial(InitialSpec("parabola"), g, MODEL_C)
    original = _ImplicitStepper.solve

    calls = []

    def poisoned(self, rho_old, dt, guess=None):
        rho, u = original(self, rho_old, dt, guess)
        calls.append(None)
        if len(calls) == 5:  # the last step: no later solve sees it
            rho[5] = np.nan
        return rho, u

    monkeypatch.setattr(_ImplicitStepper, "solve", poisoned)
    config = SolverConfig(dt=1e-2, t_end=0.05, observe_every=1, scheme="implicit-entropy")
    with pytest.raises(DivergenceError, match="non-finite"):
        run_transient(discretize(MODEL_C, g), f, config)


def test_residual_stationary_of_numeric_solution():
    d = discretize(MODEL_A, build_grid(200))
    sol = stationary_numeric(d)
    assert residual_stationary(sol.field.values[None], d)[0] < 1e-10


def test_transient_order_of_accuracy():
    # doubling n and quartering dt cuts the sup error against the closed
    # form by about 4 at a fixed time
    errs = []
    for n, dt in ((50, 1e-4), (100, 2.5e-5)):
        g = build_grid(n)
        d = discretize(MODEL_A, g)
        closed = stationary_closed(d)
        init = DensityField(closed.field.values.copy(), g)
        cfg = SolverConfig(dt=dt, t_end=2.0, observe_every=10**9)
        traj = run_transient(d, init, cfg, reference=closed)
        errs.append(np.max(np.abs(traj.final.values - closed.field.values)))
    assert 3.5 < errs[0] / errs[1] < 4.5


# ------------------------------------------- affine propagator (A and B)

LINEAR_PRESETS = (
    "evolution-A", "entropy-A", "entropy-A-gamma0", "evolution-B", "entropy-B", "mass1", "mass2",
)


@pytest.mark.parametrize("stride", [1, 7, 333, 1000])  # 333 does not divide 2000 steps
@pytest.mark.parametrize("name", LINEAR_PRESETS)
def test_propagator_matches_stepping(name, stride):
    config = preset_config(name)
    d, initial, dt = config.d, config.initial, config.solver.dt
    snap_time = 0.0037  # step 740, on no observer stride
    traj, got_fields = run_sampled(
        d, initial, SolverConfig(dt=dt, t_end=0.01, observe_every=stride),
        snapshot_times=[snap_time],
    )
    # reference: the explicit stepper applied one step at a time
    stepper = _ExplicitStepper(d)
    rho = initial.values.copy()
    steps = int(round(0.01 / dt))
    sampled, fields = [0], [rho.copy()]
    snap = None
    for k in range(1, steps + 1):
        stepper.step(rho, dt)
        if k == int(round(snap_time / dt)):
            snap = rho.copy()
        if k % stride == 0 or k == steps:
            sampled.append(k)
            fields.append(rho.copy())
    assert traj.steps == steps
    assert np.array_equal(traj.times, np.array(sampled) * dt)
    assert len(got_fields) == len(fields)
    for got, want in zip(got_fields, fields):
        assert np.max(np.abs(got.values - want)) <= 1e-10
    assert np.max(np.abs(traj.final.values - rho)) <= 1e-10
    assert [t for t, _ in traj.snapshots] == [snap_time]
    assert np.max(np.abs(traj.snapshots[0][1].values - snap)) <= 1e-10


def test_positivity_certificate_rejects_gamma0_at_stability_bound():
    # V' = 0: the bound leaves out the outflow term of the half cell at x = 1,
    # so T[n-1, n-1] = -beta dx there
    limit = preset_config("entropy-A-gamma0", {"t_end": 0.001}).d.max_dt
    with pytest.raises(StabilityError, match=r"T >= 0.*T\[199, 199\] = -5\.0"):
        execute(preset_config("entropy-A-gamma0", {"t_end": 0.001, "dt": limit}))
    summary, traj = execute(preset_config("entropy-A-gamma0", {"t_end": 0.001, "dt": "auto"}))
    assert summary.dt == 0.5 * limit
    assert traj.min_value >= 0.0


def test_divergence_reported_at_the_step_it_happens(monkeypatch):
    g = build_grid(40)
    f = build_initial(InitialSpec("parabola"), g, MODEL_C)
    original = _ExplicitStepper.step
    calls = []

    def poisoned(self, rho, dt):
        original(self, rho, dt)
        calls.append(None)
        if len(calls) == 3:
            rho[5] = np.nan

    monkeypatch.setattr(_ExplicitStepper, "step", poisoned)
    dt = 1e-4
    with pytest.raises(DivergenceError) as excinfo:
        run_transient(discretize(MODEL_C, g), f, SolverConfig(dt=dt, t_end=0.2, observe_every=1000))
    assert excinfo.value.step == 3
    assert excinfo.value.time == 3 * dt


def test_divergence_reported_at_jump_endpoint(monkeypatch):
    g = build_grid(40)
    f = build_initial(InitialSpec("affine"), g, MODEL_A)
    original = _ExplicitStepper.affine_matrix

    def poisoned(self, dt):
        out = original(self, dt)
        out[7, 7] = np.inf
        return out

    monkeypatch.setattr(_ExplicitStepper, "affine_matrix", poisoned)
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as excinfo:
        run_transient(
            discretize(MODEL_A, g), f, SolverConfig(dt=1e-4, t_end=0.2, observe_every=300)
        )
    assert excinfo.value.step == 300
