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

SCAN_STEP = 1e-3
SCAN_MAX = 4.0 * math.pi


@dataclass(frozen=True)
class EigenResult:
    """Smallest positive root of a Robin characteristic equation."""

    k: float
    eigenvalue: float  # k^2
    rate: float  # 2 k^2, the entropy decay rate this eigenvalue predicts
    equation_tag: str  # "friedrichs" or "symmetric"
    root_residual: float


def _first_bracket(g, lo: float = 1e-8) -> tuple[float, float]:
    """Scan upward in steps of SCAN_STEP for the first sign change of g."""
    a = lo
    fa = g(a)
    while a < SCAN_MAX:
        b = min(a + SCAN_STEP, SCAN_MAX)
        fb = g(b)
        if fa == 0.0:
            return a, a
        if fa * fb <= 0.0:
            return a, b
        a, fa = b, fb
    raise RootNotFoundError(f"no sign change in (0, {SCAN_MAX:.6f}]")


def _bisect(g, a: float, b: float) -> float:
    """Bisection to the last representable midpoint."""
    fa = g(a)
    if a == b or fa == 0.0:
        return a
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        fm = g(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _solve(g, tag: str) -> EigenResult:
    a, b = _first_bracket(g)
    k = _bisect(g, a, b)
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
    the weights are large (the Dirichlet limit k -> pi).
    """
    if not (w0 > 0.0 and w1 > 0.0):
        raise RootNotFoundError(f"boundary weights must be positive, got {w0}, {w1}")
    scale = max(1.0, w0 * w1, w0 + w1)

    def g(k: float) -> float:
        return ((w0 * w1 - k * k) * math.sin(k) + k * (w0 + w1) * math.cos(k)) / scale

    return _solve(g, "friedrichs")


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

    return _solve(g, "symmetric")


def no_smaller_root(g, k: float, lo: float = 1e-8, hi_margin: float = 1e-8) -> bool:
    """Re-scan (lo, k - hi_margin) and confirm the function keeps its sign."""
    ks = np.arange(lo, k - hi_margin, SCAN_STEP)
    if ks.size < 2:
        return True
    vals = np.array([g(t) for t in ks])
    return bool(np.all(vals > 0) or np.all(vals < 0))


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
