"""Relative entropies, inequality constants, observables and rate fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import DensityField, Discretization, FloatArray, ModelSpec, trapezoid
from .errors import EntropyDomainError, FitError, UndefinedConstantError
from .spectral import symmetric_k

ENTROPY_KINDS = ("quadratic", "logarithmic", "two-species")

# Iterates of a stable explicit run may undershoot the constraints by
# roundoff; values inside this guard are clamped instead of rejected.
ROUNDOFF_GUARD = 1e-12

_EPS_FLOOR = 1e-12  # absolute entropy floor used by the default fit window


def default_kind(model: ModelSpec) -> str:
    """Entropy naturally paired with each model."""
    return {"A": "quadratic", "B": "logarithmic", "C": "two-species"}[model.model]


def _clamped(values: FloatArray, *, box: bool) -> FloatArray:
    """Clamp roundoff undershoot (and overshoot of 1 with ``box``).

    ``values`` is one field or an ``(m, n)`` block of fields; larger
    violations raise, naming a node of the first offending field. The
    extrema are checked first; the mask that names the node is built only
    when they fail (or are NaN), and values already inside are returned as
    they are.
    """
    lo = values.min()
    hi = values.max() if box else 0.0
    if not (lo >= -ROUNDOFF_GUARD and hi <= 1.0 + ROUNDOFF_GUARD):
        bad = values < -ROUNDOFF_GUARD
        if box:
            bad |= values > 1.0 + ROUNDOFF_GUARD
        if np.any(bad):
            first = int(np.argmax(np.atleast_2d(bad).any(axis=-1)))
            _reject(np.atleast_2d(values)[first])
    if lo >= 0.0 and hi <= 1.0:
        return values
    return np.clip(values, 0.0, 1.0) if box else np.maximum(values, 0.0)


def _reject(row: FloatArray) -> None:
    """Raise for the offending field ``row``, naming a negative node first."""
    negative = row < -ROUNDOFF_GUARD
    if np.any(negative):
        i = int(np.argmax(negative))
        raise EntropyDomainError(f"negative density {row[i]} at node {i}")
    i = int(np.argmax(row > 1.0 + ROUNDOFF_GUARD))
    raise EntropyDomainError(f"density {row[i]} above 1 at node {i}")


def _xlogx_ratio(a: FloatArray, b: FloatArray) -> FloatArray:
    """a * log(a / b) with the continuous extension 0 log 0 = 0: an entry of
    ``a`` that is 0 or negative gives exactly 0, a NaN entry gives NaN.
    Without such entries (``min(a) > 0``, false at a NaN) the same operations
    run unmasked, which is faster and gives the same values."""
    if a.min(initial=math.inf) > 0.0:
        out = np.divide(a, b)
        np.log(out, out=out)
        return np.multiply(a, out, out=out)
    pos = ~(a <= 0.0)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    np.divide(a, b, out=out, where=pos)
    np.log(out, out=out, where=pos)
    np.multiply(a, out, out=out, where=pos)
    return out


def _values(rho) -> FloatArray:
    """Nodal values of a DensityField; an array (one field or a block) as is."""
    return rho.values if isinstance(rho, DensityField) else rho


def entropy(kind: str, rho, rho_inf: DensityField):
    """Relative entropy of ``rho`` with respect to ``rho_inf``.

    * ``quadratic``    (1/2) Int (rho - rho_inf)^2 / rho_inf
    * ``logarithmic``  Int rho log(rho/rho_inf) - (rho - rho_inf)
    * ``two-species``  Int rho log(rho/rho_inf) + (1-rho) log((1-rho)/(1-rho_inf))

    All three are Bregman distances, hence nonnegative and zero exactly at
    ``rho = rho_inf``. Integrals use the trapezoid rule. ``rho`` is a
    DensityField (the result is a float) or an ``(m, n)`` block of nodal
    values on the grid of ``rho_inf`` (one entropy per row).
    """
    if kind not in ENTROPY_KINDS:
        raise EntropyDomainError(f"unknown entropy kind {kind!r}")
    ref = rho_inf.values
    if np.any(ref <= 0.0):
        i = int(np.argmax(ref <= 0.0))
        raise EntropyDomainError(f"reference must be strictly positive; node {i} is {ref[i]}")
    if kind == "two-species" and np.any(ref >= 1.0):
        i = int(np.argmax(ref >= 1.0))
        raise EntropyDomainError(f"reference must stay below 1; node {i} is {ref[i]}")
    vals = _clamped(_values(rho), box=kind == "two-species")
    if kind == "quadratic":  # 0.5 (vals - ref)^2 / ref in one work array
        integrand = np.subtract(vals, ref)
        np.square(integrand, out=integrand)
        integrand *= 0.5
        integrand /= ref
    elif kind == "logarithmic":
        integrand = _xlogx_ratio(vals, ref) - (vals - ref)
    else:
        integrand = _xlogx_ratio(vals, ref) + _xlogx_ratio(1.0 - vals, 1.0 - ref)
    return trapezoid(integrand, rho_inf.grid.dx)


def l1_distance(rho, rho_inf: DensityField):
    """Trapezoid integral of |rho - rho_inf|; ``rho`` as in :func:`entropy`."""
    work = np.subtract(_values(rho), rho_inf.values)
    return trapezoid(np.abs(work, out=work), rho_inf.grid.dx)


def ck_constant(rho: DensityField, rho_inf: DensityField) -> float:
    """Constant 3 / (2 ||rho||_1 + 4 ||rho_inf||_1) of the Csiszar-Kullback bound."""
    m1 = trapezoid(np.abs(rho.values), rho.grid.dx)
    m2 = trapezoid(np.abs(rho_inf.values), rho_inf.grid.dx)
    denom = 2.0 * m1 + 4.0 * m2
    if denom == 0.0:
        raise UndefinedConstantError("both fields have zero mass")
    return 3.0 / denom


def ck_check(rho: DensityField, rho_inf: DensityField, slack: float = 1e-12) -> bool:
    """Csiszar-Kullback inequality: E_log >= K4 ||rho - rho_inf||_1^2."""
    k4 = ck_constant(rho, rho_inf)
    lhs = entropy("logarithmic", rho, rho_inf)
    rhs = k4 * l1_distance(rho, rho_inf) ** 2
    return lhs >= rhs - slack


def phi_lemma(x: float, y: float) -> float:
    """phi(x, y) = [x (log x - log y) - (x - y)] / (sqrt(x) - sqrt(y))^2.

    Continuously extended by phi(y, y) = 2 and phi(0, y) = 1. Increasing in
    x, decreasing in y, and asymptotically log x for large x. Requires
    y > 0 (the expression diverges as y -> 0) and x >= 0.
    """
    x = float(x)
    y = float(y)
    if not (y > 0.0 and math.isfinite(y)):
        raise EntropyDomainError(f"phi needs y > 0, got y={y}")
    if not (x >= 0.0 and math.isfinite(x)):
        raise EntropyDomainError(f"phi needs finite x >= 0, got x={x}")
    if x == 0.0:
        return 1.0
    u = math.sqrt(x / y)
    h = u - 1.0
    if abs(h) < 1e-5:
        # series of [2 u^2 log u - u^2 + 1] / (u - 1)^2 about u = 1
        return 2.0 + (2.0 / 3.0) * h - h * h / 6.0
    t = x / y
    return (t * math.log(t) - t + 1.0) / (h * h)


def k1_bound(upper_bound: float, rho_inf_min: float) -> float:
    """max{1, phi(L, min rho_inf)}: the entropy-vs-L2 comparison constant.

    ``phi(L, 0)`` diverges, so the strictly positive minimum of the
    stationary solution replaces the zero argument.
    """
    if rho_inf_min <= 0.0:
        raise EntropyDomainError("stationary minimum must be positive")
    return max(1.0, phi_lemma(upper_bound, rho_inf_min))


@dataclass(frozen=True)
class RatePrediction:
    """An analytic decay-rate value and which formula produced it."""

    value: float
    provenance: str  # "spectral", "model-B-formula" or "model-C-formula"


def predicted_rate(
    d: Discretization,
    rho_inf: DensityField,
    rho0: DensityField | None = None,
) -> RatePrediction:
    """Analytic decay rate of the relative entropy of the model of ``d``.

    * model A: 2 k^2 from the symmetric Robin eigenvalue (a lower bound on
      the observed decay once drift is present),
    * model B: 4 beta K2 / K1 with K2 = inf exp(-V) and
      K1 = max{1, phi(L, min rho_inf)}, L = max(sup rho_inf, sup rho0),
    * model C: alpha * min{1, inf (1 - rho_inf) / rho_inf}.

    Model B needs ``rho0`` for L. ``rho_inf`` and ``rho0`` must lie on
    ``d.grid`` (ShapeError otherwise), for every model.
    """
    model = d.model
    ref = DensityField(rho_inf.values, d.grid).values
    if rho0 is not None:
        rho0 = DensityField(rho0.values, d.grid)
    if model.model == "A":
        return RatePrediction(symmetric_k(model.beta).rate, "spectral")
    if model.model == "B":
        if rho0 is None:
            raise UndefinedConstantError(
                "model B prediction needs the initial field to bound the density"
            )
        upper_bound = max(float(ref.max()), float(rho0.values.max()))
        k2 = float(d.exp_neg_v.min())
        k1 = k1_bound(upper_bound, float(ref.min()))
        return RatePrediction(4.0 * model.beta * k2 / k1, "model-B-formula")
    ratio = (1.0 - ref) / ref
    return RatePrediction(model.alpha * min(1.0, float(ratio.min())), "model-C-formula")


@dataclass(frozen=True)
class RateReport:
    """Least-squares slope of log(value) against time."""

    fitted_slope: float  # decay reported as a positive number
    intercept: float  # value of the fit at t = 0
    fit_window: tuple[float, float]
    r_squared: float


def default_fit_window(times: FloatArray, values: FloatArray) -> tuple[float, float]:
    """Window [0.1 t_end, t*], t* the last sample above the entropy floor.

    Cuts the initial transient and the roundoff plateau, which is how a
    slope is read off a log plot.
    """
    t_end = float(times[-1])
    above = np.nonzero(values > _EPS_FLOOR)[0]
    t_hi = float(times[above[-1]]) if above.size else t_end
    return 0.1 * t_end, t_hi


def fit_exponential_rate(
    times: FloatArray,
    values: FloatArray,
    window: tuple[float, float] | None = None,
) -> RateReport:
    """Fit ``value ~ intercept * exp(-slope * t)`` on a window by least squares.

    Requires a finite series and at least 10 samples in the window, all
    strictly positive. The line through ``y = log value`` is the closed
    form with both coordinates centered: ``slope = -sum(tc yc) / sum(tc^2)`` for
    ``tc = t - mean(t)`` and ``yc = y - mean(y)``, and ``intercept =
    exp(mean(y) + slope mean(t))``. The products are summed pairwise by
    ``np.sum``, not by a BLAS dot product, whose partial sums depend on the
    BLAS thread count: the fit gives the same bits whichever count numpy's
    OpenBLAS started with.
    The window's times, its logarithms and one work array are all it holds.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if window is None:
        window = default_fit_window(times, values)
    lo, hi = window
    if not (times[0] <= lo <= hi <= times[-1] + 1e-15):
        raise FitError(f"window [{lo}, {hi}] outside the series range")
    sel = (times >= lo) & (times <= hi)
    t = times[sel]
    y = values[sel]
    if t.size < 10:
        raise FitError(f"window holds {t.size} samples; at least 10 are needed")
    peak = float(values.max())  # NaN or inf when a value is, which the floor cannot take
    if not (math.isfinite(peak) and math.isfinite(values.min())):
        k = int(np.argmin(np.isfinite(values)))
        raise FitError(f"cannot fit a rate through the value {values[k]} of sample {k} "
                       f"(t={times[k]})")
    smallest = float(y.min())
    if smallest <= 0.0:
        raise FitError("cannot fit a rate through nonpositive values")
    floor = 1e3 * np.finfo(np.float64).eps * peak
    if smallest <= floor:
        raise FitError(
            f"window reaches the roundoff plateau (value {smallest:.3e} below "
            f"{floor:.3e}); shrink the window"
        )
    np.log(y, out=y)
    t_mean, y_mean = float(np.mean(t)), float(np.mean(y))
    t -= t_mean
    y -= y_mean
    work = np.multiply(t, t)
    spread = float(np.sum(work))
    if not spread > 0.0:  # equal or non-finite times
        raise FitError(f"the window's times do not spread: sum of squared deviations {spread}")
    gradient = float(np.sum(np.multiply(t, y, out=work))) / spread  # of the line, -slope
    ss_tot = float(np.sum(np.multiply(y, y, out=work)))
    resid = np.multiply(t, gradient, out=work)
    np.subtract(y, resid, out=resid)
    ss_res = float(np.sum(np.multiply(resid, resid, out=resid)))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return RateReport(
        fitted_slope=-gradient,
        intercept=math.exp(y_mean - gradient * t_mean),
        fit_window=(float(lo), float(hi)),
        r_squared=r2,
    )
