"""Reference values computed without the package's stationary and spectral code.

Everything here uses numpy alone and the formulas of the model description,
so a fault in ``fokker_flux.stationary`` or ``fokker_flux.spectral`` cannot
hide itself by also moving the value it is checked against.
"""

from __future__ import annotations

import math

import numpy as np


def nodes(n: int) -> np.ndarray:
    """Grid ``x_i = i / (n - 1)`` on the unit interval."""
    return np.arange(n, dtype=np.float64) / (n - 1)


def cell_volumes(n: int) -> np.ndarray:
    """Control volumes of the vertex-centred grid: half cells at both ends."""
    dx = 1.0 / (n - 1)
    vol = np.full(n, dx)
    vol[0] = vol[-1] = 0.5 * dx
    return vol


def discrete_gap_model_a(n: int, beta: float, slope: float) -> float:
    """Entropy decay rate ``2 lambda_1`` of the discrete model-A operator.

    In the Slotboom variable ``u = rho e^{-V}`` with ``V = slope * x`` the
    linearised steady operator is the symmetric tridiagonal stiffness
    matrix ``K`` with face weights ``e^{V(face)} / dx`` plus the outflow
    term ``beta e^{V(1)}`` on the last diagonal entry; the time derivative
    carries the mass matrix ``M = diag(vol e^{V})``. The quadratic entropy
    decays like ``exp(-2 lambda_1 t)`` with ``lambda_1`` the smallest
    eigenvalue of the pencil ``(K, M)``, found here by a dense symmetric
    eigensolve of ``M^{-1/2} K M^{-1/2}``.
    """
    x = nodes(n)
    dx = 1.0 / (n - 1)
    weights = np.exp(slope * 0.5 * (x[:-1] + x[1:])) / dx
    stiffness = np.zeros((n, n))
    idx = np.arange(n - 1)
    stiffness[idx, idx] += weights
    stiffness[idx + 1, idx + 1] += weights
    stiffness[idx, idx + 1] = -weights
    stiffness[idx + 1, idx] = -weights
    stiffness[-1, -1] += beta * math.exp(slope)
    scale = 1.0 / np.sqrt(cell_volumes(n) * np.exp(slope * x))
    lam = np.linalg.eigvalsh(scale[:, None] * stiffness * scale[None, :])
    return 2.0 * float(lam[0])


def robin_rate(beta: float) -> float:
    """``2 k^2`` with ``k`` the smallest positive root of ``k tan k = beta``.

    ``k tan k`` rises from 0 to infinity on ``(0, pi/2)``, so the root is
    bracketed there and found by bisection to the last representable bit.
    """
    lo, hi = 0.0, 0.5 * math.pi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid * math.sin(mid) - beta * math.cos(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 2.0 * lo * lo


def steady_state_a(n: int, alpha: float, beta: float, slope: float) -> np.ndarray:
    """Closed-form steady state of model A with ``V = slope * x``.

    ``rho(x) = (C - alpha int_0^x e^{-V}) e^{V}`` with
    ``C = alpha (e^{-V(1)} / beta + int_0^1 e^{-V})``.
    """
    x = nodes(n)
    if slope == 0.0:
        integral = x
    else:
        integral = (1.0 - np.exp(-slope * x)) / slope
    c = alpha * (math.exp(-slope) / beta + float(integral[-1]))
    return (c - alpha * integral) * np.exp(slope * x)


def steady_state_c(n: int, alpha: float, beta: float, slope: float) -> np.ndarray:
    """Closed-form steady state of model C: ``r e^V / (1 + r e^V)``, ``r = alpha/beta``."""
    ev = (alpha / beta) * np.exp(slope * nodes(n))
    return ev / (1.0 + ev)


def c_tilde(alpha: float, beta: float, slope: float) -> float:
    """Model-C rate bound ``alpha min(1, inf (1 - rho_inf) / rho_inf)``.

    ``(1 - rho_inf) / rho_inf = (beta / alpha) e^{-V}`` is smallest where
    ``V`` is largest, at ``x = 1`` for a nonnegative slope.
    """
    return alpha * min(1.0, (beta / alpha) * math.exp(-max(slope, 0.0)))
