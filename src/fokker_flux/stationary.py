"""Stationary solutions: closed forms and the Slotboom-variable direct solve.

The closed forms and the numeric solve are deliberately independent routes
to the same fields; tests cross-check one against the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import (
    DensityField,
    FloatArray,
    Grid,
    ModelSpec,
    PotentialSpec,
    eval_potential,
    trapezoid,
)
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


def _check_rates(alpha: float, beta: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise InvalidModelError(f"closed form needs alpha > 0, got {alpha}")
    if not (math.isfinite(beta) and beta > 0.0):
        raise InvalidModelError(f"closed form needs beta >= beta_0 > 0, got {beta}")


def _cumulative_exp_neg(potential: PotentialSpec, grid: Grid):
    """Cumulative integral of exp(-V) from 0 to each node, plus exp(-V(1)).

    Exact for the linear kinds; trapezoid cumulative sums otherwise.
    """
    pv = eval_potential(potential, grid)
    if potential.kind in ("linear", "zero", "scaled-linear"):
        g = potential.slope
        x = grid.nodes
        if abs(g) < 1e-14:
            cum = x.copy()
        else:
            cum = (1.0 - np.exp(-g * x)) / g
        return cum, float(np.exp(-g)), pv
    emv = np.exp(-pv.nodes)
    cum = np.empty(grid.n)
    cum[0] = 0.0
    np.cumsum(0.5 * grid.dx * (emv[:-1] + emv[1:]), out=cum[1:])
    return cum, float(emv[-1]), pv


def stationary_modelA_closed(
    alpha: float, beta: float, potential: PotentialSpec, grid: Grid
) -> StationarySolution:
    """Closed-form steady state of the boundary in/outflow model.

    The steady flux equals ``alpha`` everywhere, which integrates to
    ``rho(x) = (C - alpha * int_0^x exp(-V)) * exp(V)`` with
    ``C = alpha * (exp(-V(1))/beta + int_0^1 exp(-V))``. The outflow value
    is then ``rho(1) = alpha / beta`` exactly.
    """
    _check_rates(alpha, beta)
    cum, emv1, pv = _cumulative_exp_neg(potential, grid)
    c = alpha * (emv1 / beta + cum[-1])
    values = (c - alpha * cum) * np.exp(pv.nodes)
    model = ModelSpec("A", alpha, beta, potential)
    field = DensityField(values, grid)
    return StationarySolution(field, "closed-form", model, _sup_residual(field, model))


def stationary_modelB_closed(
    alpha: float, beta: float, potential: PotentialSpec, grid: Grid
) -> StationarySolution:
    """Closed-form steady state of the bulk-exchange model: (alpha/beta) e^V."""
    _check_rates(alpha, beta)
    pv = eval_potential(potential, grid)
    values = (alpha / beta) * np.exp(pv.nodes)
    model = ModelSpec("B", alpha, beta, potential)
    field = DensityField(values, grid)
    return StationarySolution(field, "closed-form", model, _sup_residual(field, model))


def stationary_modelC_closed(
    alpha: float, beta: float, potential: PotentialSpec, grid: Grid
) -> StationarySolution:
    """Closed-form steady state of the crowded model, always inside (0, 1).

    Evaluated as a logistic, ``1 / (1 + (beta/alpha) exp(-V))``, which stays
    stable for large potentials.
    """
    _check_rates(alpha, beta)
    pv = eval_potential(potential, grid)
    values = 1.0 / (1.0 + (beta / alpha) * np.exp(-pv.nodes))
    model = ModelSpec("C", alpha, beta, potential)
    field = DensityField(values, grid)
    return StationarySolution(field, "closed-form", model, _sup_residual(field, model))


def stationary_closed(model: ModelSpec, grid: Grid) -> StationarySolution:
    """Closed-form stationary solution for the given model."""
    fn = {
        "A": stationary_modelA_closed,
        "B": stationary_modelB_closed,
        "C": stationary_modelC_closed,
    }[model.model]
    return fn(model.alpha, model.beta, model.potential, grid)


def slotboom_system(model: ModelSpec, grid: Grid):
    """Assemble the steady tridiagonal system in the variable u = rho e^{-V}.

    Rows are flux balances over node cells (half cells at the boundary).
    Face coefficients are ``exp(V)`` at face midpoints, so the matrix is
    symmetric; the outflow row of model A adds ``beta exp(V(1))`` on the
    diagonal, and model B adds the lumped absorption ``vol_i * beta``.

    Returns ``(lower, diag, upper, rhs)``.
    """
    if model.model not in ("A", "B"):
        raise InvalidModelError("the Slotboom solve covers the linear models A and B")
    n = grid.n
    pv = eval_potential(model.potential, grid)
    w = np.exp(pv.faces) / grid.dx
    diag = np.zeros(n)
    rhs = np.zeros(n)
    lower = -w.copy()
    upper = -w.copy()
    diag[:-1] += w
    diag[1:] += w
    if model.model == "A":
        rhs[0] = model.alpha
        diag[-1] += model.beta * np.exp(pv.nodes[-1])
    else:
        vol = np.full(n, grid.dx)
        vol[0] = vol[-1] = 0.5 * grid.dx
        diag += vol * model.beta
        rhs[:] = vol * model.alpha
    return lower, diag, upper, rhs


def stationary_numeric(
    model: ModelSpec, grid: Grid, guess: FloatArray | None = None
) -> StationarySolution:
    """Stationary solution from the symmetric Slotboom solve (models A, B).

    One round of iterative refinement follows the direct elimination; an
    optional ``guess`` seeds the refinement without changing the answer.
    For model C the steady equation reduces to the pointwise identity
    ``alpha (1 - rho) = beta rho e^{-V}``, so the closed form already *is*
    the exact nodal solution and is returned as such.
    """
    if model.model == "C":
        return stationary_modelC_closed(model.alpha, model.beta, model.potential, grid)
    lower, diag, upper, rhs = slotboom_system(model, grid)
    u = solve_refined(lower, diag, upper, rhs, guess=guess)
    pv = eval_potential(model.potential, grid)
    field = DensityField(u * np.exp(pv.nodes), grid)
    return StationarySolution(field, "numeric", model, _sup_residual(field, model))


class SteadyEquation:
    """The discrete steady equation of one model on one grid.

    Face fluxes use the symmetrizing variable of each model: the Slotboom
    variable ``rho e^{-V}`` for A and B, the entropy variable
    ``log(rho/(1-rho)) - V`` (with mobility at the face mean) for C.
    Boundary faces carry the imposed fluxes; boundary rows balance over
    half cells, which makes them first-order while interior rows are
    second-order accurate. ``exp(-V)``, ``exp(V)`` at the faces and the cell
    volumes are built once, so a run evaluates it on every observer block
    without rebuilding them.
    """

    def __init__(self, model: ModelSpec, grid: Grid):
        pv = eval_potential(model.potential, grid)
        self.model = model
        self.grid = grid
        self.v = pv.nodes
        self.emv = np.exp(-pv.nodes)
        self.neg_ev_faces = -np.exp(pv.faces)
        self.vol = np.full(grid.n, grid.dx)
        self.vol[0] = self.vol[-1] = 0.5 * grid.dx

    def residual(self, rho: FloatArray) -> FloatArray:
        """Nodal residual at ``rho``: one field, or an ``(m, n)`` block row by row."""
        model, dx = self.model, self.grid.dx
        if model.model in ("A", "B"):
            u = rho * self.emv
            flux = self.neg_ev_faces * (u[..., 1:] - u[..., :-1]) / dx
        else:
            clipped = np.clip(rho, _BOX_CLIP, 1.0 - _BOX_CLIP)
            u = np.log(clipped / (1.0 - clipped)) - self.v
            mean = 0.5 * (rho[..., :-1] + rho[..., 1:])
            flux = -(mean * (1.0 - mean)) * (u[..., 1:] - u[..., :-1]) / dx
        faces = np.empty(rho.shape[:-1] + (self.grid.n + 1,))
        faces[..., 1:-1] = flux
        if model.model == "A":
            faces[..., 0] = model.alpha
            faces[..., -1] = model.beta * rho[..., -1]
            reaction = 0.0
        else:
            faces[..., 0] = faces[..., -1] = 0.0
            if model.model == "B":
                reaction = model.alpha - model.beta * rho * self.emv
            else:
                reaction = model.alpha * (1.0 - rho) - model.beta * rho * self.emv
        return (faces[..., 1:] - faces[..., :-1]) / self.vol - reaction


def steady_residual(field: DensityField, model: ModelSpec) -> FloatArray:
    """Nodal residual of the discrete steady equation, in symmetrized form.

    See :class:`SteadyEquation` for the discretization.
    """
    return SteadyEquation(model, field.grid).residual(field.values)


def _sup_residual(field: DensityField, model: ModelSpec) -> float:
    return float(np.max(np.abs(steady_residual(field, model))))


def stationary_mass(solution: StationarySolution) -> float:
    """Trapezoid mass of a stationary field."""
    return trapezoid(solution.field.values, solution.field.grid.dx)
