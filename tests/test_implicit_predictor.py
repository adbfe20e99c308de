"""The implicit scheme's extrapolated Newton start against a constant start.

``constant_start_step`` is the step of the implicit scheme as it was before
runs extrapolated Newton's start in time: damped Newton from the entropy
variable of the previous state, with the line search that accepts the trial
point as the next iterate. A run made with it is the reference.
"""

import numpy as np
import pytest

import fokker_flux.transient as transient
from fokker_flux import (
    IterationError,
    SolverConfig,
    StepFailureError,
    build_grid,
    build_initial,
    execute,
    preset_config,
    run_transient,
)
from fokker_flux.cli import main
from fokker_flux.domain import InitialSpec, ModelSpec, PotentialSpec, discretize
from fokker_flux.transient import _ImplicitStepper

MODEL_C = ModelSpec("C", 1.0, 0.9, PotentialSpec("linear"))


def constant_start_step(stepper, rho_old, dt):
    u = np.log(rho_old / (1.0 - rho_old)) - stepper.v
    coef, base = stepper._balance(rho_old, dt)
    G, rho = stepper._residual(u, rho_old, coef, base)
    norm = stepper._norm(G)
    for _ in range(transient.NEWTON_MAX_ITER):
        if norm < transient.NEWTON_TOLERANCE:
            return rho
        delta = transient.solve_tridiagonal(*stepper._jacobian(u, rho, coef), -G)
        damping = 1.0
        for _ in range(transient.NEWTON_MAX_BACKTRACKS + 1):
            trial = u + damping * delta
            trial_G, trial_rho = stepper._residual(trial, rho_old, coef, base)
            trial_norm = stepper._norm(trial_G)
            if trial_norm < norm:
                break
            damping *= 0.5
        u, G, rho, norm = trial, trial_G, trial_rho, trial_norm
    assert norm < transient.NEWTON_TOLERANCE
    return rho


def implicit_config(dt, n, t_end):
    return preset_config("entropy-C", {
        "scheme": "implicit-entropy", "dt": dt, "n": n, "t_end": t_end, "observe_every": 1,
    })


def run_constant_start(config, monkeypatch):
    with monkeypatch.context() as patch:
        def solve(self, rho_old, dt, guess=None):
            rho = constant_start_step(self, rho_old, dt)
            return rho, self.entropy_variable(rho)

        patch.setattr(_ImplicitStepper, "solve", solve)
        return execute(config)


@pytest.mark.parametrize(
    "dt, n, t_end", [(1e-3, 200, 0.5), (2e-2, 100, 12.0), (1e-4, 200, 0.05)]
)
def test_extrapolated_start_agrees_with_constant_start(dt, n, t_end, monkeypatch):
    config = implicit_config(dt, n, t_end)
    summary, traj = execute(config)
    ref_summary, ref = run_constant_start(config, monkeypatch)
    assert traj.steps == ref.steps
    assert np.array_equal(traj.times, ref.times)
    assert np.max(np.abs(traj.final.values - ref.final.values)) <= 1e-10
    assert np.max(np.abs(traj.entropy - ref.entropy)) <= 1e-10
    assert np.max(np.abs(traj.l1 - ref.l1)) <= 1e-10
    assert summary.fitted_rate == pytest.approx(ref_summary.fitted_rate, rel=1e-6)
    # the entropy falls at every step; at dt 2e-2 it reaches roundoff (~1e-17)
    # near t = 12, where either start moves it by an ulp either way
    rises = np.diff(traj.entropy)
    above_roundoff = traj.entropy[1:] > 1e-14
    assert np.all(rises[above_roundoff] <= 0.0)
    assert np.all(rises <= 1e-15)


def test_newton_counts(monkeypatch):
    solves = []
    thomas = transient.solve_tridiagonal

    def counted(*args):
        solves.append(1)
        return thomas(*args)

    monkeypatch.setattr(transient, "solve_tridiagonal", counted)
    # the steps of the initial layer (t < 0.1) take about two solves each,
    # so the ratio is taken over the whole decay to t = 3.7
    _, traj = execute(implicit_config(1e-3, 200, 3.7))
    assert traj.newton_iterations == len(solves)
    assert traj.newton_iterations / traj.steps <= 1.1
    assert 1 <= traj.newton_max_per_step < len(solves)
    _, explicit = execute(preset_config("entropy-C", {"n": 40, "t_end": 0.01}))
    assert explicit.newton_iterations == explicit.newton_max_per_step == 0


def test_extrapolate_is_exact_for_polynomials_in_time():
    rng = np.random.default_rng(9)
    coefficients = rng.normal(0.0, 1.0, (5, 50))  # u(t) = sum_j c_j t^j at 50 nodes
    dt = 1e-3

    def u(k, degree):
        t = k * dt
        return sum(coefficients[j] * t**j for j in range(degree + 1))

    # two to four entries: the polynomial through them; eight: the least-squares quartic
    for k in (3, 100, 3700):
        for step, degree in ((2, 1), (3, 2), (4, 3), (8, 4)):
            weights = transient.START_WEIGHTS[step]
            assert weights.sum() == 1.0
            entries = len(weights)
            history = [u(k - entries + 1 + i, degree) for i in range(entries)]
            want = u(k + 1, degree)
            assert np.max(np.abs(np.dot(weights, history) - want)) <= 1e-13 * np.max(np.abs(want))


def test_two_and_three_entry_starts_are_the_linear_and_quadratic_ones():
    rows = transient.START_WEIGHTS
    assert len(rows) == 9 and rows[0] is rows[1] is None
    assert np.array_equal(rows[2], [-1.0, 2.0])
    assert np.array_equal(rows[3], [1.0, -3.0, 3.0])
    for step in (4, 5, 6, 7):
        assert np.array_equal(rows[step], [-1.0, 4.0, -6.0, 4.0])
    assert rows[8] is transient.QUARTIC_START


def test_run_starts_each_step_from_its_row_and_the_last_accepted_iterates(monkeypatch):
    # 20 steps: every row of the table, and the ring of the last eight
    # iterates wraps around twice
    config = implicit_config(1e-3, 40, 0.02)
    iterates = [_ImplicitStepper(config.d).entropy_variable(config.initial.values)]
    starts = []
    solve = _ImplicitStepper.solve

    def recorded(self, rho_old, dt, guess=None):
        starts.append(None if guess is None else guess.copy())
        rho, u = solve(self, rho_old, dt, guess)
        iterates.append(u.copy())
        return rho, u

    monkeypatch.setattr(_ImplicitStepper, "solve", recorded)
    _, traj = execute(config)
    assert traj.steps == len(starts) == 20
    for k, start in enumerate(starts, 1):
        weights = transient.START_WEIGHTS[min(k, 8)]
        if weights is None:
            assert start is None
        else:
            assert np.array_equal(start, np.dot(weights, iterates[k - len(weights) : k])), k


def test_run_with_starts_in_held_buffers_is_the_run_with_fresh_ones(monkeypatch):
    # at dt 2e-2 the start meets the tolerance outright at some steps late
    # in the run: the accepted iterate is then the held start itself
    config = implicit_config(2e-2, 100, 12.0)
    accepted_starts = []
    solve = _ImplicitStepper.solve

    def recorded(self, rho_old, dt, guess=None):
        rho, u = solve(self, rho_old, dt, guess)
        accepted_starts.append(guess is not None and u is guess)
        return rho, u

    monkeypatch.setattr(_ImplicitStepper, "solve", recorded)
    _, traj = execute(config)
    assert sum(accepted_starts) > 0

    def fresh(self, rho_old, dt, guess=None):
        return solve(self, rho_old, dt, None if guess is None else guess.copy())

    monkeypatch.setattr(_ImplicitStepper, "solve", fresh)
    _, ref = execute(config)
    assert np.array_equal(traj.final.values, ref.final.values)
    assert np.array_equal(traj.entropy, ref.entropy)
    assert traj.chord_iterations == ref.chord_iterations


def test_cubic_start_counts_on_the_benchmark_configuration(monkeypatch):
    residuals = []
    original = _ImplicitStepper._residual

    def counted(self, *args):
        residuals.append(1)
        return original(self, *args)

    monkeypatch.setattr(_ImplicitStepper, "_residual", counted)
    config = preset_config("entropy-C", {
        "scheme": "implicit-entropy", "dt": 1e-3, "n": 200, "t_end": 3.7, "observe_every": 1,
        "initial": {"kind": "affine", "a": 0.05, "b": 0.5},
    })
    _, traj = execute(config)
    assert traj.chord_iterations / traj.steps <= 1.2
    assert traj.newton_iterations / traj.steps <= 1.1
    assert len(residuals) / traj.steps <= 2.1


@pytest.mark.parametrize("seed, a, b", [(0, -0.059457, 0.415828), (1, 0.090785, 0.46041)])
def test_quartic_start_counts_on_the_benchmark_configuration(seed, a, b, monkeypatch):
    # the implicit-C benchmark workload's initial data at seeds 0 and 1; the
    # cubic start took 2.11 / 2.02 residuals and 1.10 / 1.01 chord iterations
    # per step on them, the quartic 1.92 and 0.92 on both. The affine data
    # 0.5 + 0.05 x of the cubic's count test gain nothing (2.02 -> 2.03).
    residuals = []
    original = _ImplicitStepper._residual

    def counted(self, *args):
        residuals.append(1)
        return original(self, *args)

    monkeypatch.setattr(_ImplicitStepper, "_residual", counted)
    config = preset_config("entropy-C", {
        "scheme": "implicit-entropy", "dt": 1e-3, "n": 200, "t_end": 3.7, "observe_every": 1,
        "initial": {"kind": "affine", "a": a, "b": b},
    })
    _, traj = execute(config)
    assert traj.chord_iterations / traj.steps <= 0.95
    assert traj.newton_iterations / traj.steps <= 1.1
    assert len(residuals) / traj.steps <= 1.95


def test_failed_extrapolated_start_is_retried_from_previous_state(monkeypatch):
    g = build_grid(60)
    rho_old = np.random.default_rng(4).uniform(0.02, 0.98, g.n)
    stepper = _ImplicitStepper(discretize(MODEL_C, g))
    want = constant_start_step(stepper, rho_old, 1e-2)
    thomas = transient.solve_tridiagonal
    calls = []

    def singular_first(*args):
        calls.append(1)
        if len(calls) == 1:
            raise IterationError("zero pivot in tridiagonal elimination at row 7")
        return thomas(*args)

    monkeypatch.setattr(transient, "solve_tridiagonal", singular_first)
    guess = stepper.entropy_variable(rho_old) + 0.1
    rho, u = stepper.solve(rho_old, 1e-2, guess)
    assert np.array_equal(rho, want)
    assert np.array_equal(rho, stepper._logistic(u + stepper.v))
    assert stepper.solves == len(calls) >= 2


def test_run_with_failing_predictor_is_the_constant_start_run(monkeypatch):
    # every extrapolated start fails (a NaN guess never converges), so every
    # step is retried from the previous state: the run made without a guess
    config = implicit_config(1e-2, 40, 0.1)
    ref_summary, ref = run_constant_start(config, monkeypatch)
    nan_rows = [None if w is None else np.full_like(w, np.nan) for w in transient.START_WEIGHTS]
    monkeypatch.setattr(transient, "START_WEIGHTS", tuple(nan_rows))
    _, traj = execute(config)
    assert np.array_equal(traj.final.values, ref.final.values)
    assert np.array_equal(traj.entropy, ref.entropy)
    max_iter = transient.NEWTON_MAX_ITER
    assert traj.newton_max_per_step > max_iter
    assert traj.newton_iterations > (traj.steps - 1) * max_iter


def test_singular_jacobian_in_a_run_carries_the_time():
    g = build_grid(200)
    initial = build_initial(InitialSpec("parabola"), g, MODEL_C)
    config = SolverConfig(dt=0.1, t_end=20.0, scheme="implicit-entropy")
    with pytest.raises(StepFailureError, match="t=0.1: singular Newton Jacobian") as excinfo:
        run_transient(discretize(MODEL_C, g), initial, config)
    assert excinfo.value.time == pytest.approx(0.1)
    assert np.isfinite(excinfo.value.residual) and excinfo.value.residual > 0.0
    assert isinstance(excinfo.value.__cause__.__cause__, IterationError)


def test_cli_singular_jacobian_exits_3_with_the_time(tmp_path, capsys):
    code = main([
        "preset", "entropy-C", "--out", str(tmp_path / "out"),
        "--set", 'scheme="implicit-entropy"', "--set", "dt=0.1", "--set", "t_end=20.0",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "t=0.1" in err and "zero pivot" in err


def branched_logistic(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_logistic_equals_the_branched_form():
    rng = np.random.default_rng(8)
    for scale in np.logspace(-3, 2, 20):
        z = scale * rng.standard_normal(500)
        z[:3] = (0.0, -0.0, scale)
        assert np.array_equal(_ImplicitStepper._logistic(z), branched_logistic(z))


def plain_newton(stepper, u, rho_old, dt):
    """Damped Newton from ``u`` with no chord iterations: the new density
    and the accepted iterate, as the implicit step made them before it held
    a Jacobian inverse."""
    coef, base = stepper._balance(rho_old, dt)
    G, rho = stepper._residual(u, rho_old, coef, base)
    norm = stepper._norm(G)
    for _ in range(transient.NEWTON_MAX_ITER):
        if norm < transient.NEWTON_TOLERANCE:
            return rho, u
        delta = transient.solve_tridiagonal(*stepper._jacobian(u, rho, coef), -G)
        damping = 1.0
        for _ in range(transient.NEWTON_MAX_BACKTRACKS + 1):
            trial = u + damping * delta
            trial_G, trial_rho = stepper._residual(trial, rho_old, coef, base)
            trial_norm = stepper._norm(trial_G)
            if trial_norm < norm:
                break
            damping *= 0.5
        u, G, rho, norm = trial, trial_G, trial_rho, trial_norm
    if norm < transient.NEWTON_TOLERANCE:
        return rho, u
    raise StepFailureError(f"no convergence (residual {norm:.3e})", residual=norm)


def plain_solve(self, rho_old, dt, guess=None):
    if guess is not None:
        try:
            return plain_newton(self, guess, rho_old, dt)
        except StepFailureError:
            pass
    return plain_newton(self, self.entropy_variable(rho_old), rho_old, dt)


@pytest.mark.parametrize(
    "dt, n, t_end", [(1e-3, 200, 0.5), (2e-2, 100, 12.0), (1e-4, 200, 0.05)]
)
def test_chord_run_agrees_with_plain_newton_run(dt, n, t_end, monkeypatch):
    config = implicit_config(dt, n, t_end)
    summary, traj = execute(config)
    with monkeypatch.context() as patch:
        patch.setattr(transient, "CHORD_MAX_N", 0)  # the stepper never holds an inverse
        ref_summary, ref = execute(config)
    assert ref.chord_iterations == 0 < traj.chord_iterations
    assert traj.newton_iterations < ref.newton_iterations
    assert traj.chord_iterations + traj.newton_iterations >= traj.steps
    assert np.array_equal(traj.times, ref.times)
    assert np.max(np.abs(traj.final.values - ref.final.values)) <= 1e-10
    assert np.max(np.abs(traj.entropy - ref.entropy)) <= 1e-10
    assert np.max(np.abs(traj.l1 - ref.l1)) <= 1e-10
    assert summary.fitted_rate == pytest.approx(ref_summary.fitted_rate, rel=1e-6)
    # the same allowance as for the extrapolated start: an ulp either way at
    # roundoff-level entropy
    rises = np.diff(traj.entropy)
    above_roundoff = traj.entropy[1:] > 1e-14
    assert np.all(rises[above_roundoff] <= 0.0)
    assert np.all(rises <= 1e-15)


def test_bad_held_inverse_falls_back_to_newton():
    g = build_grid(60)
    dt = 1e-2
    rho_old = np.random.default_rng(6).uniform(0.02, 0.98, g.n)
    stepper = _ImplicitStepper(discretize(MODEL_C, g))
    guess = stepper.entropy_variable(rho_old) + 0.05
    coef, base = stepper._balance(rho_old, dt)
    G, rho = stepper._residual(guess, rho_old, coef, base)
    inverse = transient.invert_tridiagonal(*stepper._jacobian(guess, rho, coef))
    stepper.inverse, stepper.inverse_dt = 2.0 * inverse, dt  # the chord step overshoots 2x
    rho, u = stepper.solve(rho_old, dt, guess)
    assert stepper.chord_iterations == 1  # the one trial, discarded
    assert stepper.solves >= 1
    assert stepper._norm(stepper._residual(u, rho_old, coef, base)[0]) < transient.NEWTON_TOLERANCE
    # Newton continued from the guess, and its first Jacobian is the one at the guess
    want_rho, want_u = plain_newton(stepper, guess, rho_old, dt)
    assert np.array_equal(rho, want_rho) and np.array_equal(u, want_u)
    assert np.array_equal(stepper.inverse, inverse)


def test_run_above_the_chord_bound_is_the_plain_newton_run(monkeypatch):
    config = preset_config("entropy-C", {
        "scheme": "implicit-entropy", "dt": 1e-3, "n": transient.CHORD_MAX_N + 1,
        "t_end": 0.02, "observe_every": 1, "initial": {"kind": "affine", "a": 0.1, "b": 0.45},
    })
    summary, traj = execute(config)
    monkeypatch.setattr(_ImplicitStepper, "solve", plain_solve)
    ref_summary, ref = execute(config)
    assert traj.chord_iterations == 0 and traj.newton_iterations > 0
    assert np.array_equal(traj.final.values, ref.final.values)
    for series in ("entropy", "mass", "l1", "residual"):
        assert np.array_equal(getattr(traj, series), getattr(ref, series))
    assert summary.fitted_rate == ref_summary.fitted_rate


def test_retry_and_step_without_guess_take_no_chord_iterations():
    g = build_grid(60)
    dt = 1e-2
    rho_old = np.random.default_rng(7).uniform(0.02, 0.98, g.n)
    stepper = _ImplicitStepper(discretize(MODEL_C, g))
    start = stepper.entropy_variable(rho_old)
    want_rho, want_u = plain_newton(stepper, start, rho_old, dt)
    coef, base = stepper._balance(rho_old, dt)
    G, rho = stepper._residual(start, rho_old, coef, base)
    stepper.inverse = transient.invert_tridiagonal(*stepper._jacobian(start, rho, coef))
    stepper.inverse_dt = dt
    assert np.array_equal(stepper.step(rho_old, dt), want_rho)
    assert stepper.chord_iterations == 0
    # a NaN guess fails after one chord trial; the retry from the previous
    # state is plain Newton
    rho, u = stepper.solve(rho_old, dt, np.full(g.n, np.nan))
    assert stepper.chord_iterations == 1
    assert np.array_equal(rho, want_rho) and np.array_equal(u, want_u)


def test_stepper_across_step_sizes_is_a_fresh_stepper_at_each():
    g = build_grid(60)
    d = discretize(MODEL_C, g)
    rho = np.random.default_rng(8).uniform(0.02, 0.98, g.n)
    stepper = _ImplicitStepper(d)
    for dt in (1e-2, 3e-3, 1e-2):
        want = _ImplicitStepper(d).step(rho, dt)
        rho = stepper.step(rho, dt)
        assert np.array_equal(rho, want)
        assert np.array_equal(stepper._balance(rho, dt)[0], d.volumes / dt + stepper.vol_decay)
    # coef is formed once per step size: the same array while dt stays
    assert stepper._balance(rho, 1e-2)[0] is stepper._balance(0.5 * rho, 1e-2)[0]
