"""Robin eigenvalue problems that predict decay rates for model A.

Two transcendental characteristic equations (from separation of variables
on -phi'' = lambda phi with Robin boundary weights) plus an independent
discrete Rayleigh-quotient minimizer used as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Grid
from .errors import IterationError, RootNotFoundError
from .tridiag import apply_tridiagonal, solve_tridiagonal


@dataclass(frozen=True)
class EigenResult:
    """Smallest positive root of a Robin characteristic equation."""

    k: float
    eigenvalue: float  # k^2
    rate: float  # 2 k^2, the entropy decay rate this eigenvalue predicts
    equation_tag: str  # "friedrichs" or "symmetric"
    root_residual: float


def _bisect(g, a: float, b: float) -> float:
    """Bisection of a bracket with ``g(a) > 0 > g(b)`` to the last
    representable midpoint."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        fm = g(mid)
        if fm == 0.0:
            return mid
        if fm < 0.0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def _solve(g, lo: float, tag: str) -> EigenResult:
    """The smallest positive root of ``g``, the only one in (0, pi).

    Both equations have ``g > 0`` on (0, k) and ``g < 0`` on (k, pi): the
    first Robin eigenvalue lies below the Dirichlet one, pi^2, and the
    second at or above the Neumann one, pi^2. ``lo`` lies below the root.
    Bisection runs on ``[lo, float pi]``. ``g(float pi) >= 0`` happens
    only for the Friedrichs equation with both weights above 2.6e16,
    because ``sin(float pi) > 0``; the root then lies between float pi and
    pi, and float pi, its nearest double, is returned. Any other sign
    pattern, a NaN included, raises.
    """
    hi = math.pi
    g_hi = g(hi)
    if not g(lo) > 0.0 or math.isnan(g_hi):
        raise RootNotFoundError(f"no sign change of the {tag} equation in [{lo:g}, pi]")
    k = hi if g_hi >= 0.0 else _bisect(g, lo, hi)
    return EigenResult(
        k=k,
        eigenvalue=k * k,
        rate=2.0 * k * k,
        equation_tag=tag,
        root_residual=abs(g(k)),
    )


def friedrichs_k(w0: float, w1: float) -> EigenResult:
    """Smallest eigenvalue of -phi'' = k^2 phi with Robin weights w0, w1.

    The boundary conditions ``w0 phi(0) - phi'(0) = 0`` and
    ``w1 phi(1) + phi'(1) = 0`` lead, for phi = a sin(kx) + b cos(kx), to

        (w0 w1 - k^2) sin k + k (w0 + w1) cos k = 0.

    For w0 = w1 = 1/2 this is ``2k cos k + (1/2 - 2k^2) sin k = 0`` up to a
    factor 2, with smallest root near 0.9602. The equation is normalized by
    ``max(1, w0 w1, w0 + w1)`` so the root residual stays meaningful when
    the weights are large (the Dirichlet limit k -> pi). Where ``w0 w1``
    overflows, the division by it is carried out term by term instead.
    """
    if not (0.0 < w0 < math.inf and 0.0 < w1 < math.inf):
        raise RootNotFoundError(f"boundary weights must be positive and finite, got {w0}, {w1}")
    scale = max(1.0, w0 * w1, w0 + w1)
    if math.isinf(scale):  # w0 w1 overflows
        inv_sum = 1.0 / w0 + 1.0 / w1

        def g(k: float) -> float:
            return (1.0 - (k / w0) * (k / w1)) * math.sin(k) + k * inv_sum * math.cos(k)

    else:

        def g(k: float) -> float:
            return ((w0 * w1 - k * k) * math.sin(k) + k * (w0 + w1) * math.cos(k)) / scale

    # the root is near sqrt(w0 w1 + w0 + w1) when that is small
    return _solve(g, min(1e-8, 0.5 * math.sqrt(w0 * w1 + w0 + w1)), "friedrichs")


def symmetric_k(beta: float) -> EigenResult:
    """Smallest eigenvalue of the drift-free symmetric part of model A.

    Eigenfunctions are cos(kx) with ``k tan k = beta``; for beta = 1 the
    smallest root is near 0.8603 and the predicted decay rate 2 k^2 is
    about 1.4802.
    """
    if not beta > 0.0:
        raise RootNotFoundError(f"outflux rate must be positive, got {beta}")
    scale = max(1.0, beta)

    def g(k: float) -> float:
        return (beta * math.cos(k) - k * math.sin(k)) / scale

    # the root is near sqrt(beta) when beta is small
    return _solve(g, min(1e-8, 0.5 * math.sqrt(beta)), "symmetric")


def discrete_min_rayleigh(
    grid: Grid, w0: float, w1: float, tol: float = 1e-12, max_iter: int = 500
) -> float:
    """Minimum of the discrete Robin Rayleigh quotient on the grid.

    Minimizes ``(sum (phi')^2 dx + w0 phi(0)^2 + w1 phi(1)^2) / sum phi^2 dx``
    by inverse power iteration on the pencil K phi = lambda M phi, where K is
    the piecewise-linear stiffness matrix plus the boundary weights and M the
    lumped (trapezoid) mass matrix. Stops when successive eigenvalue
    estimates differ by less than ``tol``; stagnation raises.

    Best used with n >= 50; the gap to the transcendental root shrinks like
    dx^2. For w0 = w1 = 0 the constants annihilate the quotient and the
    minimum is exactly zero.
    """
    if w0 < 0.0 or w1 < 0.0:
        raise RootNotFoundError("boundary weights must be nonnegative")
    if w0 == 0.0 and w1 == 0.0:
        return 0.0
    n = grid.n
    dx = grid.dx
    diag = np.full(n, 2.0 / dx)
    diag[0] = diag[-1] = 1.0 / dx
    diag[0] += w0
    diag[-1] += w1
    off = np.full(n - 1, -1.0 / dx)
    lumped = grid.volumes
    phi = np.ones(n)
    lam_old = math.inf
    for _ in range(max_iter):
        phi = solve_tridiagonal(off, diag, off, lumped * phi)
        phi /= math.sqrt(float(np.sum(lumped * phi * phi)))
        k_phi = apply_tridiagonal(off, diag, off, phi)
        lam = float(phi @ k_phi) / float(np.sum(lumped * phi * phi))
        if abs(lam - lam_old) < tol:
            return lam
        lam_old = lam
    raise IterationError(
        f"inverse power iteration stagnated after {max_iter} iterations "
        f"(last eigenvalue {lam_old})"
    )
