"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy trajectories are computed once in module-scoped fixtures and shared.
Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from fokker_flux import (
    DensityField,
    InitialSpec,
    ModelSpec,
    PotentialSpec,
    SolverConfig,
    build_grid,
    build_initial,
    config_from_dict,
    ck_check,
    discrete_min_rayleigh,
    discretize,
    entropy,
    execute,
    friedrichs_k,
    mass_evolution,
    phi_lemma,
    preset_config,
    run_transient,
    stationary_closed,
    stationary_numeric,
    step_explicit,
    symmetric_k,
    trapezoid,
)

LINEAR = PotentialSpec("linear")


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ----------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def run_a_fine():
    # alpha = beta = 1, V(x) = x, rho0 = -0.1 x + 1.2, n = 200, dt = 5e-6
    return execute(preset_config("entropy-A"), keep_fields=True)


@pytest.fixture(scope="module")
def run_a_coarse():
    return execute(preset_config("entropy-A", {"n": 100, "dt": 2e-5}))


@pytest.fixture(scope="module")
def run_a_gamma0():
    return execute(preset_config("entropy-A-gamma0", {"dt": 1e-5}))


@pytest.fixture(scope="module")
def run_b():
    cfg = config_from_dict({
        "model": "B", "alpha": 1.0, "beta": 0.9, "potential": "linear",
        "initial": {"kind": "affine", "a": -0.1, "b": 1.2},
        "n": 200, "dt": 1e-5, "t_end": 8.0, "observe_every": 1000,
    })
    return execute(cfg, keep_fields=True)


@pytest.fixture(scope="module")
def run_c():
    return execute(preset_config("entropy-C", {"dt": 1e-5}), keep_fields=True)


@pytest.fixture(scope="module")
def mass_reports():
    return mass_evolution("mass1"), mass_evolution("mass2")


# ---------------------------------------------------------------- criteria

def test_criterion_1_stationary_oracle_equivalence():
    started = time.perf_counter()
    grid = build_grid(200)
    model = ModelSpec("A", 1.0, 0.9, LINEAR)
    d = discretize(model, grid)
    closed = stationary_closed(d)
    numeric = stationary_numeric(d)
    gap = float(np.max(np.abs(closed.field.values - numeric.field.values)))
    equilibrium_mass = trapezoid(numeric.field.values, grid.dx)
    elapsed = time.perf_counter() - started
    ok = gap < 1e-6 and abs(equilibrium_mass - 1.0703) < 2e-3 and elapsed < 1.0
    assert report(
        1, ok,
        f"sup|closed-numeric| = {gap:.3e} (< 1e-6), equilibrium mass "
        f"{equilibrium_mass:.5f} (1.0703 +- 0.002), runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_model_A_decay_rate_fine(run_a_fine):
    summary, _ = run_a_fine
    fitted = summary.fitted_rate
    ok = abs(fitted - 2.33) <= 0.05 * 2.33
    assert report(
        2, ok,
        f"fine mode (n=200, dt=5e-6): fitted slope {fitted:.4f} (2.33 +- 5%)",
    )


def test_criterion_2_model_A_decay_rate_coarse(run_a_coarse):
    summary, _ = run_a_coarse
    fitted = summary.fitted_rate
    ok = abs(fitted - 2.33) <= 0.10 * 2.33
    assert report(
        2, ok,
        f"coarse mode (n=100, dt=2e-5): fitted slope {fitted:.4f} (2.33 +- 10%)",
    )


def test_criterion_3_spectral_values():
    friedrichs_k(0.5, 0.5)  # warm up before timing
    started = time.perf_counter()
    fried = friedrichs_k(0.5, 0.5)
    sym = symmetric_k(1.0)
    elapsed = time.perf_counter() - started
    ok = (
        abs(fried.k - 0.9602) < 1e-3
        and abs(fried.rate - 1.8439) < 2e-3
        and abs(sym.k - 0.8603) < 1e-3
        and abs(sym.rate - 1.4802) < 2e-3
        and elapsed < 0.01
    )
    assert report(
        3, ok,
        f"friedrichs k={fried.k:.5f} rate={fried.rate:.5f}; "
        f"symmetric k={sym.k:.5f} rate={sym.rate:.5f}; runtime {elapsed * 1e3:.2f}ms (< 10ms)",
    )


def test_criterion_4_zero_drift_consistency(run_a_gamma0):
    summary, _ = run_a_gamma0
    fitted = summary.fitted_rate
    target = symmetric_k(1.0).rate
    ok = abs(fitted - target) <= 0.05 * target
    assert report(
        4, ok,
        f"gamma=0: fitted slope {fitted:.4f} within 5% of 2k^2 = {target:.4f}",
    )


def test_criterion_5_model_B_decay(run_b):
    summary, _ = run_b
    fitted = summary.fitted_rate
    predicted = summary.predicted_rate
    ok = abs(fitted - 1.04) <= 0.10 * 1.04 and fitted >= predicted - 1e-9
    assert report(
        5, ok,
        f"fitted slope {fitted:.4f} (1.04 +- 10%), predicted lower bound "
        f"{predicted:.4f} respected",
    )


def test_criterion_6_model_C_decay(run_c):
    summary, trajectory = run_c
    fitted = summary.fitted_rate
    c_tilde = 0.3311
    ok = (
        fitted >= c_tilde - 1e-9
        and summary.min_value >= -1e-12
        and summary.max_value <= 1.0 + 1e-12
        and summary.final_sup_distance < 1e-2
        and abs(trajectory.times[-1] - 3.7) < 1e-9
    )
    assert report(
        6, ok,
        f"fitted slope {fitted:.4f} >= {c_tilde}, iterates in "
        f"[{summary.min_value:.2e}, {summary.max_value:.8f}], final sup distance "
        f"{summary.final_sup_distance:.3e} (< 1e-2) at t=3.7",
    )


def test_criterion_7_nonmonotone_mass(mass_reports):
    r1, r2 = mass_reports
    ok1 = (
        r1.extremum_kind == "maximum"
        and abs(r1.initial_mass - 1.1863) < 0.01
        and abs(r1.final_mass - 1.0703) < 0.01
        and r1.extremum_value > max(r1.initial_mass, r1.final_mass)
    )
    ok2 = (
        r2.extremum_kind == "minimum"
        and abs(r2.initial_mass - 1.0711) < 0.01
        and abs(r2.final_mass - 1.0696) < 0.01
        and r2.extremum_value < min(r2.initial_mass, r2.final_mass)
    )
    assert report(
        7, ok1 and ok2,
        f"mass1: {r1.initial_mass:.4f} -> {r1.final_mass:.4f} with interior "
        f"maximum {r1.extremum_value:.4f} at t={r1.extremum_time:.3f}; "
        f"mass2: {r2.initial_mass:.4f} -> {r2.final_mass:.4f} with interior "
        f"minimum {r2.extremum_value:.4f} at t={r2.extremum_time:.3f}",
    )


def test_criterion_8_property_suites(run_a_fine, run_a_gamma0, run_b, run_c):
    details = []

    # discrete mass balance, exact per explicit step
    grid = build_grid(200)
    model = ModelSpec("A", 1.0, 0.9, LINEAR)
    state = build_initial(InitialSpec("affine", a=-0.1, b=1.2), grid, model)
    d = discretize(model, grid)
    dt = 5e-6
    worst = 0.0
    for _ in range(2000):
        before = trapezoid(state.values, grid.dx)
        boundary = state.values[-1]
        state = step_explicit(state, d, dt)
        after = trapezoid(state.values, grid.dx)
        worst = max(worst, abs((after - before) - dt * (model.alpha - model.beta * boundary)))
    balance_ok = worst < 1e-12
    details.append(f"mass balance gap {worst:.2e}")

    # entropy monotone along every acceptance run
    increases = []
    for _, trajectory in (run_a_fine, run_a_gamma0, run_b, run_c):
        diffs = np.diff(trajectory.entropy)
        increases.append(float(diffs.max(initial=-np.inf)))
    monotone_ok = all(inc <= 1e-10 for inc in increases)
    details.append(f"max entropy per-step increase {max(increases):.2e}")

    # Csiszar-Kullback and the L1-vs-quadratic-entropy bound at every sample
    ck_ok = True
    l1_ok = True
    for _, trajectory in (run_a_fine, run_b, run_c):
        ref = trajectory.reference.field
        ref_max = float(ref.values.max())
        for idx, field in enumerate(trajectory.sampled_fields):
            if not ck_check(field, ref):
                ck_ok = False
            quad = entropy("quadratic", field, ref)
            if trajectory.l1[idx] ** 2 > 2.0 * ref_max * quad + 1e-12:
                l1_ok = False
    details.append(f"CK {'ok' if ck_ok else 'violated'}, L1 bound {'ok' if l1_ok else 'violated'}")

    # phi limits
    phi_ok = all(abs(phi_lemma(y, y) - 2.0) < 1e-5 for y in (0.2, 1.0, 5.0))
    phi_ok = phi_ok and all(abs(phi_lemma(1e-12, y) - 1.0) < 1e-5 for y in (0.5, 1.0, 2.0))
    details.append("phi limits ok" if phi_ok else "phi limits violated")

    # elementary inequality on 10^4 random pairs
    rng = np.random.default_rng(2024)
    a = rng.uniform(1e-6, 1e3, 10_000)
    b = rng.uniform(1e-6, 1e3, 10_000)
    elem_ok = bool(
        np.all((a - b) * (np.log(a) - np.log(b)) >= 4.0 * (np.sqrt(a) - np.sqrt(b)) ** 2 - 1e-9)
    )
    details.append("elementary inequality ok" if elem_ok else "elementary inequality violated")

    ok = balance_ok and monotone_ok and ck_ok and l1_ok and phi_ok and elem_ok
    assert report(8, ok, "; ".join(details))


def test_criterion_9_convergence_order():
    model = ModelSpec("A", 1.0, 0.9, LINEAR)
    errors = []
    for n, dt in ((50, 1e-4), (100, 2.5e-5), (200, 6.25e-6)):
        grid = build_grid(n)
        d = discretize(model, grid)
        closed = stationary_closed(d)
        init = build_initial(
            InitialSpec("tabulated", values=closed.field.values.copy()), grid, model
        )
        cfg = SolverConfig(dt=dt, t_end=4.0, observe_every=10**9)
        trajectory = run_transient(d, init, cfg, reference=closed)
        errors.append(float(np.max(np.abs(trajectory.final.values - closed.field.values))))
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    ok = 3.5 < r1 < 4.5 and 3.5 < r2 < 4.5
    assert report(
        9, ok,
        f"sup errors {errors[0]:.3e} / {errors[1]:.3e} / {errors[2]:.3e}, "
        f"reduction factors {r1:.2f}, {r2:.2f} (within [3.5, 4.5])",
    )


def test_spectral_rayleigh_cross_check():
    # companion check: the discrete quotient minimizer agrees with the root
    lam = discrete_min_rayleigh(build_grid(2000), 0.5, 0.5)
    assert abs(lam - friedrichs_k(0.5, 0.5).eigenvalue) < 1e-4
