import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fokker_flux import (
    DensityField,
    EntropyDomainError,
    FitError,
    ModelSpec,
    PotentialSpec,
    UndefinedConstantError,
    build_grid,
    discretize,
    execute,
    ck_check,
    ck_constant,
    default_fit_window,
    default_kind,
    entropy,
    fit_exponential_rate,
    k1_bound,
    l1_distance,
    node_average,
    phi_lemma,
    predicted_rate,
    preset_config,
    stationary_closed,
    trapezoid,
)
from fokker_flux.entropy import _xlogx_ratio

GRID = build_grid(101)


def const(c, grid=GRID):
    return DensityField(np.full(grid.n, float(c)), grid)


# ------------------------------------------------------------- entropies

@pytest.mark.parametrize("kind", ["quadratic", "logarithmic", "two-species"])
def test_entropy_vanishes_at_reference(kind):
    ref = const(0.5)
    assert entropy(kind, ref, ref) == 0.0


def test_quadratic_entropy_closed_value():
    # (1/2) Int (2 - 1)^2 / 1 = 1/2, exact under the trapezoid rule
    assert entropy("quadratic", const(2.0), const(1.0)) == pytest.approx(0.5, abs=1e-15)


def test_logarithmic_entropy_closed_value():
    expected = 2.0 * math.log(2.0) - 1.0
    assert entropy("logarithmic", const(2.0), const(1.0)) == pytest.approx(expected, rel=1e-14)


def test_two_species_entropy_closed_value():
    expected = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
    assert entropy("two-species", const(0.25), const(0.5)) == pytest.approx(expected, rel=1e-14)


def test_entropy_nonnegative_on_random_fields():
    rng = np.random.default_rng(11)
    for _ in range(200):
        rho = DensityField(rng.uniform(0.0, 3.0, GRID.n), GRID)
        ref = DensityField(rng.uniform(0.1, 3.0, GRID.n), GRID)
        assert entropy("quadratic", rho, ref) >= 0.0
        assert entropy("logarithmic", rho, ref) >= 0.0
        boxed = DensityField(rng.uniform(0.0, 1.0, GRID.n), GRID)
        boxed_ref = DensityField(rng.uniform(0.05, 0.95, GRID.n), GRID)
        assert entropy("two-species", boxed, boxed_ref) >= 0.0


def test_entropy_zero_only_at_reference():
    rng = np.random.default_rng(5)
    ref = DensityField(rng.uniform(0.2, 0.8, GRID.n), GRID)
    near = DensityField(ref.values + 1e-3, GRID)
    for kind in ("quadratic", "logarithmic", "two-species"):
        assert entropy(kind, near, ref) > 1e-12
        assert entropy(kind, ref, ref) <= 1e-15


def test_entropy_handles_exact_zeros():
    # 0 log 0 is extended by 0: a density touching zero is fine
    vals = np.linspace(0.0, 1.0, GRID.n)
    rho = DensityField(vals, GRID)
    assert math.isfinite(entropy("logarithmic", rho, const(0.5)))
    assert math.isfinite(entropy("two-species", rho, const(0.5)))


def masked_xlogx_ratio(a, b):
    """``a log(a/b)`` as taken with boolean indexing before ``where=``."""
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros_like(a)
    pos = ~(a <= 0.0)
    out[pos] = a[pos] * np.log(a[pos] / b[pos])
    return out


def test_xlogx_ratio_equals_the_masked_form():
    rng = np.random.default_rng(12)
    b = rng.uniform(0.05, 0.95, 200)
    for shape in [(200,), (1, 200), (7, 200), (64, 200)]:
        for zeros in (0.0, 0.1, 0.9):
            a = rng.uniform(0.0, 1.0, shape) ** rng.uniform(1.0, 40.0, shape)  # down to ~1e-40
            a[rng.random(shape) < zeros] = 0.0
            a.reshape(-1)[:4] = (np.nan, -0.0, -1e-13, 5e-324)
            got = _xlogx_ratio(a, b)
            assert np.array_equal(got, masked_xlogx_ratio(a, b), equal_nan=True)
            assert np.all(got[a <= 0.0] == 0.0)  # 0, -0 and negatives
            assert np.all(np.isnan(got[np.isnan(a)]))


def test_entropy_tolerates_roundoff_negatives_only():
    dirty = np.full(GRID.n, 0.5)
    dirty[3] = -1e-13
    assert entropy("logarithmic", DensityField(dirty, GRID), const(0.5)) >= 0.0
    worse = dirty.copy()
    worse[3] = -1e-9
    with pytest.raises(EntropyDomainError):
        entropy("logarithmic", DensityField(worse, GRID), const(0.5))


def test_block_quadratic_entropy_and_l1_equal_their_formulas():
    # written into one work array each, bit for bit the expressions below;
    # the undershoot is clamped, values already inside are used as they are
    rng = np.random.default_rng(5)
    ref = DensityField(rng.uniform(0.2, 2.0, GRID.n), GRID)
    block = rng.uniform(0.0, 2.0, (6, GRID.n))
    block[1, 3] = -1e-13
    block[4] = 0.0
    for rows in (block, block[2:3], block[1], np.delete(block, 1, axis=0)):
        clamped = np.maximum(rows, 0.0)
        want = trapezoid(0.5 * (clamped - ref.values) ** 2 / ref.values, GRID.dx)
        assert np.array_equal(entropy("quadratic", rows, ref), want)
        want = trapezoid(np.abs(rows - ref.values), GRID.dx)
        assert np.array_equal(l1_distance(rows, ref), want)


@pytest.mark.parametrize("kind", ["quadratic", "logarithmic", "two-species"])
def test_a_nan_does_not_hide_a_density_outside_the_domain(kind):
    # the extrema of a block with a NaN are NaN: the node mask still decides
    block = np.full((3, GRID.n), 0.5)
    block[0, 4] = np.nan
    block[2, 7] = -0.25
    with pytest.raises(EntropyDomainError, match=r"negative density -0\.25 at node 7"):
        entropy(kind, block, const(0.5))
    if kind == "two-species":
        block[2, 7] = 1.5
        with pytest.raises(EntropyDomainError, match=r"density 1\.5 above 1 at node 7"):
            entropy(kind, block, const(0.5))


@pytest.mark.parametrize("kind", ["quadratic", "logarithmic", "two-species"])
def test_a_row_with_a_nan_has_a_nan_entropy(kind):
    block = np.full((3, GRID.n), 0.5)
    block[1, 4] = np.nan
    got = entropy(kind, block, const(0.25))
    assert np.isnan(got[1])
    assert np.all(np.isfinite(got[[0, 2]]))
    assert np.isnan(entropy(kind, DensityField(block[1], GRID), const(0.25)))


def test_xlogx_ratio_of_interior_blocks_is_the_masked_one():
    # no entry 0, negative or NaN: the unmasked operations, the same values
    rng = np.random.default_rng(13)
    ref = rng.uniform(0.01, 0.99, 200)
    for block in (rng.uniform(1e-12, 1.0 - 1e-12, (64, 200)), rng.uniform(0.3, 0.7, (1, 200))):
        for a, b in ((block, ref), (1.0 - block, 1.0 - ref)):
            assert np.array_equal(_xlogx_ratio(a, b), masked_xlogx_ratio(a, b))
    # a zero or negative entry gives 0, a NaN entry NaN; the others as without them
    block = rng.uniform(0.1, 0.9, (3, 200))
    block[0, 5], block[1, 7], block[2, 9] = 0.0, -1e-17, np.nan
    got = _xlogx_ratio(block, ref)
    assert got[0, 5] == got[1, 7] == 0.0 and np.isnan(got[2, 9])
    assert np.array_equal(got, masked_xlogx_ratio(block, ref), equal_nan=True)
    assert _xlogx_ratio(np.empty((0, 200)), ref).shape == (0, 200)


def test_entropy_domain_errors():
    with pytest.raises(EntropyDomainError):
        entropy("quadratic", const(1.0), const(0.0))
    with pytest.raises(EntropyDomainError):
        entropy("two-species", const(0.5), const(1.0))
    with pytest.raises(EntropyDomainError):
        entropy("two-species", const(1.5), const(0.5))
    with pytest.raises(EntropyDomainError):
        entropy("unknown", const(1.0), const(1.0))


def test_default_kinds():
    assert default_kind(ModelSpec("A", 1, 1)) == "quadratic"
    assert default_kind(ModelSpec("B", 1, 1)) == "logarithmic"
    assert default_kind(ModelSpec("C", 1, 1)) == "two-species"


# ------------------------------------------------------------ observables

def test_mass_of_unit_density():
    assert trapezoid(const(1.0).values, GRID.dx) == pytest.approx(1.0, abs=1e-15)
    assert node_average(const(1.0).values) == pytest.approx(1.0, abs=1e-15)


def test_l1_distance_zero_at_reference():
    ref = const(0.7)
    assert l1_distance(ref, ref) == 0.0
    assert l1_distance(const(1.0), const(0.0)) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------- Csiszar-Kullback

def test_ck_constant_unit_masses():
    assert ck_constant(const(1.0), const(1.0)) == pytest.approx(0.5, rel=1e-14)


def test_ck_equality_case():
    ref = const(0.8)
    assert ck_check(ref, ref)


def test_ck_two_vs_one():
    # both sides in closed form: 2 log 2 - 1 >= (3/8) * 1
    lhs = entropy("logarithmic", const(2.0), const(1.0))
    k4 = ck_constant(const(2.0), const(1.0))
    assert k4 == pytest.approx(0.375, rel=1e-14)
    assert lhs >= k4 * l1_distance(const(2.0), const(1.0)) ** 2
    assert ck_check(const(2.0), const(1.0))


def test_ck_undefined_for_zero_masses():
    with pytest.raises(UndefinedConstantError):
        ck_constant(const(0.0), const(0.0))


def test_ck_random_fields():
    rng = np.random.default_rng(23)
    for _ in range(100):
        rho = DensityField(rng.uniform(0.0, 2.5, GRID.n), GRID)
        ref = DensityField(rng.uniform(0.1, 2.5, GRID.n), GRID)
        assert ck_check(rho, ref)


# ------------------------------------------------------------- phi lemma

def test_phi_diagonal_is_two():
    assert phi_lemma(1.0, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert phi_lemma(3.7, 3.7) == pytest.approx(2.0, abs=1e-12)


def test_phi_limit_at_zero():
    assert phi_lemma(0.0, 1.0) == 1.0
    assert phi_lemma(1e-12, 1.0) == pytest.approx(1.0, abs=1e-5)


def test_phi_four_one():
    assert phi_lemma(4.0, 1.0) == pytest.approx(4.0 * math.log(4.0) - 3.0, rel=1e-14)


def test_phi_series_consistent_with_direct_formula():
    y = 1.3
    for h in (2e-5, -2e-5):
        x = y * (1.0 + h) ** 2  # sqrt(x/y) = 1 + h, just outside the series branch
        direct = (x / y * math.log(x / y) - x / y + 1.0) / h**2
        assert phi_lemma(x, y) == pytest.approx(direct, rel=1e-9)


def test_phi_monotone_on_lattice():
    xs = np.linspace(0.05, 10.0, 40)
    for y in np.linspace(0.05, 10.0, 17):
        vals = [phi_lemma(float(x), float(y)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for x in np.linspace(0.05, 10.0, 17):
        vals = [phi_lemma(float(x), float(y)) for y in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_phi_grows_like_log():
    # leading-order asymptotics phi(x, 1) ~ log x; the ratio creeps up to 1
    ratios = [phi_lemma(x, 1.0) / math.log(x) for x in (1e6, 1e8, 1e10)]
    assert all(0.9 < r < 1.0 for r in ratios)
    assert ratios[0] < ratios[1] < ratios[2]


def test_phi_rejects_bad_arguments():
    with pytest.raises(EntropyDomainError):
        phi_lemma(1.0, 0.0)
    with pytest.raises(EntropyDomainError):
        phi_lemma(-1.0, 1.0)


def test_k1_bound():
    # phi stays above 1 for positive arguments, so the max binds only at 0
    assert k1_bound(0.0, 1.0) == 1.0
    assert k1_bound(0.5, 1.0) == pytest.approx(phi_lemma(0.5, 1.0), rel=1e-14)
    assert k1_bound(4.0, 1.0) == pytest.approx(4.0 * math.log(4.0) - 3.0, rel=1e-14)
    with pytest.raises(EntropyDomainError):
        k1_bound(1.0, 0.0)


def test_elementary_log_sqrt_inequality():
    # (a - b)(log a - log b) >= 4 (sqrt a - sqrt b)^2
    rng = np.random.default_rng(41)
    a = rng.uniform(1e-6, 1e3, 10_000)
    b = rng.uniform(1e-6, 1e3, 10_000)
    lhs = (a - b) * (np.log(a) - np.log(b))
    rhs = 4.0 * (np.sqrt(a) - np.sqrt(b)) ** 2
    assert np.all(lhs >= rhs - 1e-9)


# --------------------------------------------------------- predicted rates

def test_predicted_rate_model_C_linear_potential():
    g = build_grid(200)
    m = ModelSpec("C", 1.0, 0.9, PotentialSpec("linear"))
    d = discretize(m, g)
    ref = stationary_closed(d)
    pred = predicted_rate(d, ref.field)
    # (1 - rho_inf)/rho_inf = (beta/alpha) e^{-V}, minimized at x = 1
    assert pred.value == pytest.approx(0.9 * math.exp(-1.0), rel=1e-12)
    assert pred.value == pytest.approx(0.33110, abs=5e-5)
    assert pred.provenance == "model-C-formula"


def test_predicted_rate_model_C_trivial():
    g = build_grid(50)
    d = discretize(ModelSpec("C", 1.0, 1.0, PotentialSpec("zero")), g)
    pred = predicted_rate(d, stationary_closed(d).field)
    assert pred.value == pytest.approx(1.0, rel=1e-12)


def test_predicted_rate_model_A_is_spectral():
    g = build_grid(50)
    d = discretize(ModelSpec("A", 1.0, 1.0, PotentialSpec("zero")), g)
    pred = predicted_rate(d, stationary_closed(d).field)
    assert pred.value == pytest.approx(1.4802, abs=2e-3)
    assert pred.provenance == "spectral"


def test_predicted_rate_model_B_formula():
    g = build_grid(200)
    m = ModelSpec("B", 1.0, 0.9, PotentialSpec("linear"))
    d = discretize(m, g)
    ref = stationary_closed(d)
    rho0 = DensityField(-0.1 * g.nodes + 1.2, g)
    pred = predicted_rate(d, ref.field, rho0=rho0)
    # oracle assembled from the ingredients directly
    big_l = max(ref.field.values.max(), 1.2)
    k2 = math.exp(-1.0)
    k1 = max(1.0, phi_lemma(big_l, float(ref.field.values.min())))
    assert pred.value == pytest.approx(4.0 * 0.9 * k2 / k1, rel=1e-12)
    assert pred.provenance == "model-B-formula"
    assert pred.value < 1.04  # the theorem bounds the observed decay from below


def test_predicted_rate_model_B_needs_bound():
    g = build_grid(50)
    m = ModelSpec("B", 1.0, 0.9, PotentialSpec("linear"))
    d = discretize(m, g)
    ref = stationary_closed(d)
    with pytest.raises(UndefinedConstantError):
        predicted_rate(d, ref.field)


# ------------------------------------------------------------ rate fitting

def test_fit_recovers_synthetic_exponential():
    t = np.linspace(0.0, 10.0, 200)
    v = 0.22 * np.exp(-1.04 * t)
    report = fit_exponential_rate(t, v, (0.0, 10.0))
    assert report.fitted_slope == pytest.approx(1.04, abs=1e-9)
    assert report.intercept == pytest.approx(0.22, rel=1e-9)
    assert report.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_window_validation():
    t = np.linspace(0.0, 1.0, 50)
    v = np.exp(-t)
    with pytest.raises(FitError):
        fit_exponential_rate(t, v, (0.0, 2.0))
    with pytest.raises(FitError):
        fit_exponential_rate(t, v, (0.0, 0.05))  # too few samples
    v_bad = v.copy()
    v_bad[10] = 0.0
    with pytest.raises(FitError):
        fit_exponential_rate(t, v_bad, (0.0, 1.0))


def test_fit_rejects_roundoff_plateau():
    t = np.linspace(0.0, 100.0, 400)
    v = np.maximum(np.exp(-t), 2e-16)  # floors at machine scale
    with pytest.raises(FitError, match="plateau"):
        fit_exponential_rate(t, v, (0.0, 100.0))


def test_default_window_excludes_roundoff_plateau():
    t = np.linspace(0.0, 20.0, 401)
    v = np.maximum(np.exp(-2.0 * t), 1e-14)  # floors near t = 16
    lo, hi = default_fit_window(t, v)
    assert lo == pytest.approx(2.0)
    assert hi < 14.0
    report = fit_exponential_rate(t, v, (lo, hi))
    assert report.fitted_slope == pytest.approx(2.0, rel=1e-9)


def exact_centered_slope(t, y):
    """sum (t - mean t)(y - mean y) / sum (t - mean t)^2 in exact rational arithmetic."""
    ts, ys = [Fraction(x) for x in t], [Fraction(x) for x in y]
    t_mean, y_mean = sum(ts) / len(ts), sum(ys) / len(ys)
    num = sum((a - t_mean) * (b - y_mean) for a, b in zip(ts, ys))
    return num / sum((a - t_mean) ** 2 for a in ts)


def assert_exact_slope(times, values, window):
    report = fit_exponential_rate(times, values, window)
    sel = (times >= window[0]) & (times <= window[1])
    exact = -exact_centered_slope(times[sel], np.log(values[sel]))
    assert abs(Fraction(report.fitted_slope) - exact) <= Fraction(4e-16) * abs(exact)


@pytest.mark.parametrize("seed", range(6))
def test_fit_slope_is_the_exact_centered_formula(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(10, 3000))
    t = np.sort(rng.uniform(0.0, 8.0, size))
    v = 0.3 * np.exp(-1.3 * t + 0.01 * rng.standard_normal(size))
    assert_exact_slope(t, v, (float(t[0]), float(t[-1])))


@pytest.mark.parametrize("name, overrides", [
    ("entropy-A", {"n": 3, "t_end": 0.02, "observe_every": 7}),
    ("entropy-A", {"n": 200, "t_end": 0.02, "observe_every": 7}),
    ("mass1", {"t_end": 0.02, "observe_every": 1}),
    ("entropy-C", {"scheme": "implicit-entropy", "dt": 1e-3, "t_end": 0.05, "observe_every": 1}),
], ids=["entropy-A-n3", "entropy-A-n200", "mass1", "implicit-entropy-C"])
def test_fit_slope_of_a_run_is_the_exact_centered_formula(name, overrides):
    summary, trajectory = execute(preset_config(name, overrides))
    times, values = trajectory.times, trajectory.entropy
    assert summary.fitted_rate is not None
    assert_exact_slope(times, values, default_fit_window(times, values))


@pytest.mark.parametrize("where", [[2], [20, 30]], ids=["before-the-window", "in-the-window"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_rejects_a_non_finite_sample_by_name(bad, where):
    # a NaN before the window made the roundoff floor NaN and hid the plateau
    t = np.linspace(0.0, 1.0, 50)
    v = np.maximum(np.exp(-40.0 * t), 1e-300)
    v[where] = bad
    first = where[0]
    with pytest.raises(FitError, match=rf"value {bad} of sample {first} \(t={t[first]}\)"):
        fit_exponential_rate(t, v, (0.1, 1.0))


def test_fit_rejects_times_that_do_not_spread():
    with pytest.raises(FitError, match="do not spread"):
        fit_exponential_rate(np.zeros(20), np.ones(20), (0.0, 0.0))


def test_fit_of_200001_samples_holds_at_most_four_window_arrays():
    size = 200_001
    t = np.linspace(0.0, 1.0, size)
    v = np.exp(-2.0 * t) + 1e-3
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fit_exponential_rate(t, v, (0.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * size
