"""Stationary solutions: closed forms and the Slotboom-variable direct solve.

The closed forms and the numeric solve are deliberately independent routes
to the same fields; tests cross-check one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DensityField, Discretization, FloatArray, ModelSpec
from .errors import InvalidModelError
from .tridiag import solve_refined

_BOX_CLIP = 1e-15  # keeps logit finite on fields touching the box boundary


@dataclass(frozen=True)
class StationarySolution:
    """A stationary field together with how it was obtained."""

    field: DensityField
    method: str  # "closed-form" or "numeric"
    model: ModelSpec
    residual: float


def _cumulative_exp_neg(d: Discretization) -> FloatArray:
    """Integral of exp(-V) from 0 to each node.

    Exact for the linear kinds; trapezoid cumulative sums otherwise.
    """
    grid, emv = d.grid, d.exp_neg_v
    if d.model.potential.kind != "tabulated":
        g = d.model.potential.slope
        return grid.nodes.copy() if abs(g) < 1e-14 else (1.0 - emv) / g
    cum = np.empty(grid.n)
    cum[0] = 0.0
    np.cumsum(0.5 * grid.dx * (emv[:-1] + emv[1:]), out=cum[1:])
    return cum


def _solution(d: Discretization, values: FloatArray, method: str) -> StationarySolution:
    """The solution, checked to lie where the relative entropies against it
    are defined: finite and positive at every node, and below 1 for model C
    (rates past double precision leave it)."""
    bad = ~(np.isfinite(values) & (values > 0.0))
    if d.model.crowded:
        bad |= values >= 1.0
    if np.any(bad):
        i = int(np.argmax(bad))
        box = " and below 1" if d.model.crowded else ""
        raise InvalidModelError(
            f"stationary density must be finite, positive{box}; node {i} is {values[i]} "
            f"(alpha={d.model.alpha}, beta={d.model.beta})"
        )
    residual = float(np.max(np.abs(nodal_residual(d, values))))
    return StationarySolution(DensityField(values, d.grid), method, d.model, residual)


def stationary_closed(d: Discretization) -> StationarySolution:
    """Closed-form stationary solution of the model of ``d`` on its grid.

    * A: the steady flux equals ``alpha`` everywhere, which integrates to
      ``rho(x) = (C - alpha * int_0^x exp(-V)) * exp(V)`` with
      ``C = alpha * (exp(-V(1))/beta + int_0^1 exp(-V))``; the outflow value
      is then ``rho(1) = alpha / beta`` exactly.
    * B: ``(alpha/beta) e^V``.
    * C: always inside (0, 1), evaluated as the logistic
      ``1 / (1 + (beta/alpha) exp(-V))``, which stays stable for large
      potentials.
    """
    model = d.model
    alpha, beta = model.alpha, model.beta
    if model.model == "A":
        cum = _cumulative_exp_neg(d)
        c = alpha * (d.exp_neg_v[-1] / beta + cum[-1])
        values = (c - alpha * cum) * d.exp_v
    elif model.model == "B":
        values = (alpha / beta) * d.exp_v
    else:
        values = 1.0 / (1.0 + (beta / alpha) * d.exp_neg_v)
    return _solution(d, values, "closed-form")


def slotboom_system(d: Discretization):
    """Assemble the steady tridiagonal system in the variable u = rho e^{-V}.

    Rows are flux balances over node cells (half cells at the boundary).
    Face coefficients are ``exp(V)`` at face midpoints, so the matrix is
    symmetric; the outflow row of model A adds ``beta exp(V(1))`` on the
    diagonal, and model B adds the lumped absorption ``vol_i * beta``.

    Returns ``(lower, diag, upper, rhs)``.
    """
    model, n = d.model, d.grid.n
    if model.model not in ("A", "B"):
        raise InvalidModelError("the Slotboom solve covers the linear models A and B")
    w = d.exp_v_faces / d.grid.dx
    diag = np.zeros(n)
    rhs = np.zeros(n)
    lower = -w.copy()
    upper = -w.copy()
    diag[:-1] += w
    diag[1:] += w
    if model.model == "A":
        rhs[0] = model.alpha
        diag[-1] += model.beta * d.exp_v[-1]
    else:
        diag += d.volumes * model.beta
        rhs[:] = d.volumes * model.alpha
    return lower, diag, upper, rhs


def stationary_numeric(d: Discretization) -> StationarySolution:
    """Stationary solution on ``d`` from the symmetric Slotboom solve (models A, B).

    One round of iterative refinement follows the direct elimination.
    For model C the steady equation reduces to the pointwise identity
    ``alpha (1 - rho) = beta rho e^{-V}``, so the closed form already *is*
    the exact nodal solution and is returned as such.
    """
    if d.model.model == "C":
        return stationary_closed(d)
    u = solve_refined(*slotboom_system(d))
    return _solution(d, u * d.exp_v, "numeric")


def nodal_residual(d: Discretization, rho: FloatArray) -> FloatArray:
    """Nodal residual of the discrete steady equation at ``rho``: one field,
    or an ``(m, n)`` block row by row.

    Face fluxes use the symmetrizing variable of each model: the Slotboom
    variable ``rho e^{-V}`` for A and B, the entropy variable
    ``log(rho/(1-rho)) - V`` (with mobility at the face mean) for C.
    Boundary faces carry the imposed fluxes; boundary rows balance over
    half cells, which makes them first-order while interior rows are
    second-order accurate.
    """
    model, dx = d.model, d.grid.dx
    # every step below runs over whole contiguous (..., n) arrays: column j of
    # ``flux`` holds the face j + 1/2 and the last column no face
    if model.model in ("A", "B"):
        u = rho * d.exp_neg_v
        flux = _neighbours(np.subtract, u)
        flux *= np.append(-d.exp_v_faces, 0.0)
    else:
        rho = np.ascontiguousarray(rho)
        u = np.clip(rho, _BOX_CLIP, 1.0 - _BOX_CLIP)
        u /= 1.0 - u
        np.log(u, out=u)
        u -= d.v
        flux = _neighbours(np.add, rho)
        flux *= 0.5  # the face mean
        flux *= 1.0 - flux
        np.negative(flux, out=flux)
        flux *= _neighbours(np.subtract, u)
    flux /= dx
    # the divergence over each cell: the interior rows, then the two half
    # cells with the boundary faces (imposed fluxes) over their volumes
    out = _neighbours(np.subtract, flux, shift=1)
    if model.model == "A":
        inflow, outflow = model.alpha, model.beta * rho[..., -1]
    else:
        inflow = outflow = 0.0
    np.subtract(flux[..., 0], inflow, out=out[..., 0])
    np.subtract(outflow, flux[..., -2], out=out[..., -1])
    out /= d.volumes
    if model.model == "B":
        out -= model.alpha - model.beta * rho * d.exp_neg_v
    elif model.model == "C":
        out -= model.alpha * (1.0 - rho) - model.beta * rho * d.exp_neg_v
    return out


def _neighbours(op, x: FloatArray, shift: int = 0) -> FloatArray:
    """``op(x[..., j + 1], x[..., j])`` of a C-contiguous ``x`` in column
    ``j + shift`` of a new array of x's shape, computed in one pass over the
    flattened arrays (faster than over the rows of an ``(m, n)`` block); the
    column left over holds zero (``shift`` 0: the last, 1: the first)."""
    out = np.empty(x.shape)
    flat, xs = out.reshape(-1), x.reshape(-1)
    op(xs[1:], xs[:-1], out=flat[shift : flat.size - 1 + shift])
    out[..., -1 + shift] = 0.0
    return out
