"""Explicit time stepping for the three models, plus the implicit
entropy-variable scheme for the crowded model.

Space is discretized in conservative flux form on the node-centered grid:
every node owns a cell of width dx (half cells at the two boundary nodes),
interior faces carry

    J_{i+1/2} = -(rho_{i+1} - rho_i)/dx + f(mean(rho_i, rho_{i+1})) V'_{i+1/2}

with f the identity (models A, B) or f(r) = r (1 - r) (model C), and the
two boundary faces carry the imposed fluxes (alpha and beta rho for model
A, zero otherwise). With the half cells, the trapezoid mass obeys the
discrete balance  M^{k+1} - M^k = dt (alpha - beta rho_{n-1})  exactly for
model A; this is the ghost-node construction written so that the balance
telescopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .blas import serial_blas
from .domain import DensityField, Discretization, FloatArray, Grid, node_average, trapezoid
from .entropy import default_kind, entropy, l1_distance
from .errors import (
    ConfigError,
    DivergenceError,
    InvalidModelError,
    IterationError,
    StabilityError,
    StepFailureError,
)
from .stationary import StationarySolution, nodal_residual, stationary_numeric
from .tridiag import invert_tridiagonal, solve_tridiagonal


# step indices are int64 (``np.arange(first, end) * stride``): the step
# count and the stride stay below this
_STEP_LIMIT = 2**63


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping parameters.

    ``observe_every`` is the step stride of the observer samples; the
    explicit scheme additionally requires ``dt <= Discretization.max_dt``
    and, for models A and B, a step matrix ``T >= 0`` (the positivity
    certificate), for model C the checks of ``_check_cfl``. The implicit
    scheme's Newton settings are the module's ``NEWTON_*`` constants.
    """

    dt: float
    t_end: float
    observe_every: int = 1000
    scheme: str = "explicit"

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ConfigError(f"time step must be positive, got {self.dt}")
        if not 0.0 <= self.t_end / self.dt < _STEP_LIMIT:
            raise ConfigError(
                f"final time must be nonnegative and t_end / dt finite and below 2**63, got "
                f"t_end={self.t_end}, dt={self.dt}"
            )
        if not 1 <= self.observe_every < _STEP_LIMIT:
            raise ConfigError(
                f"observer stride must be at least 1 and below 2**63, got {self.observe_every}"
            )
        if self.scheme not in ("explicit", "implicit-entropy"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class FluxField:
    """Face fluxes J_{i+1/2} for i = -1 .. n-1, boundary faces included."""

    values: FloatArray
    grid: Grid


@dataclass(frozen=True)
class Trajectory:
    """Sampled observables and snapshots of one run.

    ``times`` is strictly increasing with one row of observables per
    sample. ``min_value`` / ``max_value`` range over the iterates the run
    materialises: every step for model C; for models A and B, which compute
    their samples a block at a time with powers of the affine step matrix,
    step 0, the samples, the snapshots and the final step (the extrema of a
    block are taken once). Nonnegativity of every A/B iterate follows from
    the certificate checked when the propagator is built (see
    :meth:`_ExplicitStepper.step_band`). ``newton_iterations``
    counts the Thomas solves of the implicit scheme's Newton iterations,
    ``newton_max_per_step`` the most in one step, and ``chord_iterations``
    its chord iterations (one product with a held Jacobian inverse each,
    discarded trials included); all are 0 when explicit.
    """

    times: FloatArray
    entropy: FloatArray
    mass: FloatArray
    node_mass: FloatArray
    l1: FloatArray
    residual: FloatArray
    outflow_density: FloatArray
    snapshots: tuple
    final: DensityField
    reference: StationarySolution
    entropy_kind: str
    min_value: float
    max_value: float
    steps: int
    dt: float
    newton_iterations: int = 0
    newton_max_per_step: int = 0
    chord_iterations: int = 0


_ROUNDOFF = 1e-15  # negative step-matrix entries tolerated as roundoff

# Rows of the block of states a scheme hands the run loop at once: at n = 200
# one row is 1.6 kB, the block 102 kB. Models A and B compute their samples
# in the block (a power of two: the first block doubles up to it, see
# _strided_blocks) and add the snapshots and the final step off the stride;
# model C copies in the state of each sample, snapshot and final step. 128
# rows ran no faster and raised the peak memory of an explicit-A benchmark
# round by 0.9 MB.
OBSERVER_BLOCK = 64

# The implicit scheme holds a dense Jacobian inverse (8 n^2 bytes) for its
# chord iterations only up to this n. On one thread of a 2-core x86 VM a
# product with it took 10 / 33 / 443 us against 113 / 247 / 665 us for a
# Thomas solve at n = 200 / 400 / 1024, but a run takes about 2.3 products
# per step in its first 1500 steps, and the inverse costs 1.3 ms at n = 200.
# Over those steps (entropy-C, dt 1e-3) the chord run took 0.53-0.67 s
# against 0.76-0.83 s at n = 400, and 0.84-0.94 s against 0.79-0.94 s at
# n = 500.
CHORD_MAX_N = 400
# A chord trial is kept when it meets the tolerance or cuts the residual
# sup-norm to this fraction or less; otherwise damped Newton takes over and
# refreshes the inverse. Over the 3700 steps of an entropy-C run at n = 200,
# dt 1e-3 (affine data 0.5 + 0.05 x), 0.01 / 0.02 / 0.03 / 0.05 took
# 15 / 9 / 6 / 4 refreshes (1.3 ms each) and 0.98 / 1.01 / 1.02 / 1.05
# chord iterations (about 27 us each) per step; the run times (medians of 11
# interleaved runs, 0.32-0.34 s) differed by less than their spread.
CHORD_CONTRACTION = 0.02
# Damped Newton: at most NEWTON_MAX_ITER iterations (chord ones included) to bring
# sup|G/vol| below NEWTON_TOLERANCE, each halving its step at most NEWTON_MAX_BACKTRACKS times.
NEWTON_MAX_ITER = 50
NEWTON_TOLERANCE = 1e-10
NEWTON_MAX_BACKTRACKS = 8
# The start from the last eight entropy variables (oldest first): their
# least-squares quartic in time, one step on. Exact for quartics, it scales the
# iterates' convergence error by 4.69 (root sum of squares), the cubic by 8.31.
QUARTIC_START = np.array([35.0, -85.0, 5.0, 81.0, 45.0, -75.0, -125.0, 175.0]) / 56.0
# Newton's start at step k is START_WEIGHTS[min(k, 8)] times the last accepted
# entropy variables, oldest first, one step on in time: none at steps 0 and 1
# (step 1 starts from the previous state), the linear and the quadratic
# extrapolation at steps 2 and 3, the cubic at steps 4 to 7, and from step 8,
# with eight iterates u^0 .. u^7, QUARTIC_START.
START_WEIGHTS = (None, None, np.array([-1.0, 2.0]), np.array([1.0, -3.0, 3.0]),
                 *[np.array([-1.0, 4.0, -6.0, 4.0])] * 4, QUARTIC_START)


def _check_peclet(d: Discretization, failure: str) -> None:
    """Raise StabilityError, after ``failure``, if the mesh Peclet number
    ``dx |V'| / 2`` exceeds 1 at a face: an off-diagonal entry of the
    explicit step is then negative at every dt. For the linear kinds the
    error names the smallest n that passes."""
    peclet = 0.5 * d.grid.dx * np.abs(d.slope)
    f = int(np.argmax(peclet))
    if not peclet[f] > 1.0:
        return
    slope = abs(float(d.slope[f]))
    n = math.ceil(slope / 2.0) + 1
    while 0.5 * (1.0 / (n - 1)) * slope > 1.0:  # as the faces compute it
        n += 1
    raise StabilityError(
        f"{failure}the mesh Peclet number dx*|V'|/2 = {peclet[f]:.6g} between nodes {f} "
        f"and {f + 1} is above 1, so no dt keeps the explicit step positive; "
        + ("tabulate V on a finer grid" if d.model.potential.kind == "tabulated"
           else f"refine the grid to n >= {n}")
    )


def _check_cfl(d: Discretization, dt: float) -> None:
    """``dt <= d.max_dt``; for model C, which has no step-matrix certificate,
    also the mesh Peclet condition and the reaction bound ``dt max(d.decay) <= 1``."""
    if d.model.crowded:
        _check_peclet(d, "")
    if dt > d.max_dt:
        raise StabilityError(
            f"dt={dt} exceeds the explicit stability bound {d.max_dt:.6e}; "
            "lower dt (run configurations accept dt='auto' for half the bound)"
        )
    if d.model.crowded:
        _check_reaction(d, dt)


def _check_reaction(d: Discretization, dt: float) -> None:
    """Raise StabilityError if ``dt max(d.decay) > 1`` (models B and C)."""
    rate = float(d.decay.max())
    if dt * rate > 1.0:
        raise StabilityError(
            f"dt={dt} breaks the reaction bound dt*max({'alpha + ' if d.model.crowded else ''}"
            f"beta*exp(-V)) <= 1 of model {d.model.model}; lower dt to {1.0 / rate:.6e}")


def flux_field(rho: DensityField, d: Discretization) -> FluxField:
    """All face fluxes at ``rho`` on ``d``, with the imposed boundary values
    at the two ends; ``rho`` must lie on ``d.grid``.

    The faces the explicit step computes (:meth:`_ExplicitStepper.fluxes`).
    """
    faces = _ExplicitStepper(d).fluxes(DensityField(rho.values, d.grid).values).copy()
    faces.setflags(write=False)
    return FluxField(faces, d.grid)


def residual_stationary(rows: FloatArray, d: Discretization) -> FloatArray:
    """Sup-norm of the discrete steady-state equation at each row of an
    ``(m, n)`` block of nodal values on the run's discretization ``d``.

    See :func:`fokker_flux.stationary.nodal_residual` for the exact form
    (symmetrized fluxes, half-cell boundary rows).
    """
    residual = nodal_residual(d, rows)
    return np.max(np.abs(residual, out=residual), axis=-1)


class _ExplicitStepper:
    """Preallocated one-step kernel shared by step_explicit, run_transient and flux_field."""

    def __init__(self, d: Discretization):
        self.model = d.model
        self.d = d
        n = d.grid.n
        self.inv_dx = 1.0 / d.grid.dx
        self.inv_vol = 1.0 / d.volumes
        self.faces = np.zeros(n + 1)
        self.mean = np.empty(n - 1)
        self.tmp = np.empty(n - 1)
        self.div = np.empty(n)
        self.react = None if d.decay is None else np.empty(n)

    def fluxes(self, rho: FloatArray) -> FloatArray:
        """Face fluxes at ``rho``, boundary faces included, written into ``faces``.

        Interior faces carry ``-(rho_{i+1} - rho_i)/dx + f(mean) V'``.
        """
        faces = self.faces
        np.add(rho[:-1], rho[1:], out=self.mean)
        self.mean *= 0.5
        if self.model.crowded:
            np.multiply(self.mean, self.mean, out=self.tmp)
            np.subtract(self.mean, self.tmp, out=self.mean)
        np.multiply(self.mean, self.d.slope, out=self.mean)
        np.subtract(rho[:-1], rho[1:], out=self.tmp)
        self.tmp *= self.inv_dx
        np.add(self.tmp, self.mean, out=faces[1:-1])
        if self.model.model == "A":
            faces[0] = self.model.alpha
            faces[-1] = self.model.beta * rho[-1]
        return faces

    def step(self, rho: FloatArray, dt: float) -> None:
        """Advance ``rho`` in place by one explicit step."""
        faces = self.fluxes(rho)
        np.subtract(faces[1:], faces[:-1], out=self.div)
        self.div *= self.inv_vol
        self.div *= dt
        rho -= self.div
        if self.react is not None:
            np.multiply(rho, self.d.decay, out=self.react)
            np.subtract(np.float64(self.model.alpha), self.react, out=self.react)
            self.react *= dt
            rho += self.react

    def step_band(self, dt: float) -> tuple[FloatArray, FloatArray]:
        """The step ``rho -> T rho + c`` of model A or B as ``(band, c)``:
        row i of the ``(n, 3)`` array ``band`` holds ``T[i, i-1]``, ``T[i, i]``
        and ``T[i, i+1]`` (``band[0, 0]`` and ``band[n-1, 2]`` lie outside ``T``
        and are 0).

        ``c = step(0)`` and column j of ``T`` is ``step(e_j) - c``, read off
        :meth:`step` itself, so model B's Lie splitting of transport and
        reaction is reproduced as stepped. Four steps give all of ``T``
        (Curtis, Powell & Reid 1974): the zero field, and the three combs
        with ones at the nodes ``j = r (mod 3)``. Node i of a step reads
        only nodes i-1, i and i+1 (the reaction is pointwise, the outflow
        face at x = 1 reads only the last node), so ``T`` is tridiagonal,
        and row i of ``step(comb_r) - c`` is entry ``(i, j)`` of the one
        tooth j in {i-1, i, i+1}: teeth 3 apart never reach the same row.
        That entry is computed from the same three inputs as in
        ``step(e_j)``, so ``T`` is the column-by-column matrix bit for bit.

        Raises StabilityError unless ``T >= 0`` entrywise (up to roundoff)
        and ``c >= 0``: with that certificate every iterate of nonnegative
        data is nonnegative. The error names a broken Peclet or reaction bound.
        """
        n = self.d.grid.n
        band = np.empty((n, 3))
        c = np.zeros(n)
        self.step(c, dt)
        rows = np.arange(n)
        comb = np.empty(n)
        for r in range(3):
            comb.fill(0.0)
            comb[r::3] = 1.0
            self.step(comb, dt)
            comb -= c
            band[rows, (r + 1 - rows) % 3] = comb  # the tooth each row reads
        if not (band.min() >= -_ROUNDOFF and c.min() >= 0.0):
            i, k = divmod(int(np.argmin(band)), 3)
            j = i + k - 1
            if k != 1 and band[i, k] < -_ROUNDOFF:
                _check_peclet(self.d, f"the off-diagonal entry T[{i}, {j}] = "
                                      f"{band[i, k]:.3e} of the explicit step is negative: ")
            if self.d.decay is not None:
                _check_reaction(self.d, dt)
            raise StabilityError(
                f"dt={dt} breaks the positivity bound T >= 0 (to -{_ROUNDOFF:g}), c >= 0 "
                f"of the explicit step rho -> T rho + c: T[{i}, {j}] = {band[i, k]:.3e}, "
                f"min c = {c.min():.3e} (stability bound {self.d.max_dt:.6e}); "
                "lower dt (run configurations accept dt='auto' for half the bound)"
            )
        return band, c

    def affine_matrix(self, dt: float) -> FloatArray:
        """Augmented step matrix ``P = [[T, c], [0, 1]]`` of model A or B, from
        :meth:`step_band` (which checks the positivity certificate).

        One explicit step of a linear model is the affine map
        ``rho -> T rho + c``; ``P`` applied to ``(rho, 1)`` performs it, and
        ``P^m`` performs m steps.
        """
        band, c = self.step_band(dt)
        n = len(c)
        out = np.zeros((n + 1, n + 1))
        i = np.arange(n)
        out[i, i] = band[:, 1]
        out[i[:-1], i[1:]] = band[:-1, 2]
        out[i[1:], i[:-1]] = band[1:, 0]
        out[:n, n] = c
        out[n, n] = 1.0
        return out

    def jump_matrices(self, dt: float, jumps: set) -> dict:
        """``P^m`` for every jump length m, ``P`` the :meth:`affine_matrix`.

        One pass of binary powering serves every m: ``P`` is squared in
        turn, and each square ``P^(2^j)`` with bit j set in m is multiplied
        into the partial product of m. Only the running square and one
        partial product per m stay alive, never the list of all squares.
        """
        powers: dict[int, FloatArray] = {}
        square = self.affine_matrix(dt)
        bit, top = 1, max(jumps)
        while True:
            for m in jumps:
                if m & bit:
                    powers[m] = powers[m] @ square if m in powers else square
            bit <<= 1
            if bit > top:
                return powers
            square = square @ square


def _strided_blocks(rho: FloatArray, power: Optional[FloatArray], count: int):
    """The states at steps 0, s, 2s, .. (``count`` of them) with a trailing 1,
    in blocks of ``OBSERVER_BLOCK`` rows, ``power`` being ``P^s``, handed
    over: with no other reference held, the first squaring frees it.

    The first block doubles: rows ``h .. 2h-1`` are rows ``0 .. h-1`` times
    ``(P^(s h))^T``, squared while more samples are wanted. Each later block
    is the one before times ``(P^(s B))^T``, written into the other of two
    buffers (a product in place copies its operand first); a block stays
    valid until the next one is yielded.
    """
    block = np.ones((min(OBSERVER_BLOCK, count), rho.size + 1))
    block[0, :-1] = rho
    have = 1
    while have < len(block):
        h = min(have, len(block) - have)
        np.matmul(block[:h], power.T, out=block[have : have + h])
        have += h
        if have < count:
            power = power @ power
    yield block
    spare = np.empty_like(block) if have < count else None
    while have < count:
        rows = min(len(block), count - have)
        spare, block = block, np.matmul(block[:rows], power.T, out=spare[:rows])
        have += rows
        yield block


def step_explicit(rho: DensityField, d: Discretization, dt: float) -> DensityField:
    """One explicit step of ``rho``, a field on ``d.grid``; requires ``dt <= d.max_dt``
    and, for models A and B, the positivity certificate of
    :meth:`_ExplicitStepper.step_band` (StabilityError otherwise)."""
    work = DensityField(rho.values, d.grid).values.copy()
    _check_cfl(d, dt)
    stepper = _ExplicitStepper(d)
    if not d.model.crowded:  # the positivity certificate, as in a run
        stepper.step_band(dt)
    stepper.step(work, dt)
    if not np.all(np.isfinite(work)):
        raise DivergenceError("non-finite values after one explicit step")
    return DensityField(work, d.grid)


class _ImplicitStepper:
    """Backward Euler in the entropy variable u = log(rho/(1-rho)) - V.

    The density is recovered through the logistic rho = 1/(1 + e^{-(u+V)}),
    which keeps every iterate strictly inside (0, 1). Face fluxes are
    -f(mean rho) (u_{i+1} - u_i)/dx, reactions as in the crowded model, and
    the nonlinear system is solved by damped Newton on the cell balances;
    ``solves`` counts the Newton iterations (one Thomas solve each).

    The terms of the balances that depend only on ``(rho_old, dt)`` are
    formed once per Newton solve (:meth:`_balance`), and the one that
    depends only on ``dt`` once per step size: one evaluation of ``G``
    (:meth:`_residual`) takes 18 numpy calls and its norm 3, and a run's
    step with one chord iteration 50, its start (one product), the copy of
    its iterate and the run's running extrema included (61 when each
    evaluation formed those terms itself; README, cost model of an implicit
    step).

    Up to ``n = CHORD_MAX_N`` the stepper also holds ``inverse``, the dense
    inverse of a recent Newton Jacobian, formed for the step size
    ``inverse_dt``. A solve from an extrapolated guess first takes chord
    iterations ``u <- u - inverse G(u)`` (counted in ``chord_iterations``)
    and falls back to damped Newton, refreshing the inverse, when one
    stops contracting (see :meth:`_newton`).
    """

    def __init__(self, d: Discretization):
        if d.model.model != "C":
            raise InvalidModelError("the entropy-variable scheme applies to model C")
        self.dx = d.grid.dx
        self.v, self.vol = d.v, d.volumes
        # the reaction alpha - rho decay, times vol
        self.vol_alpha = self.vol * d.model.alpha
        self.vol_decay = self.vol * d.decay
        n = d.grid.n
        # work arrays; what _residual returns is fresh, so a discarded trial
        # never overwrites the kept iterate
        self.z, self.ez, self.scaled = (np.empty(n) for _ in range(3))
        self.s, self.du, self.flux = (np.empty(n - 1) for _ in range(3))
        self.solves = self.most_solves = 0  # most_solves: the most in one step of a run
        self.chord = n <= CHORD_MAX_N
        self.inverse = self.inverse_dt = None
        self.chord_iterations = 0
        self.coef = self.coef_dt = None  # see _balance

    @staticmethod
    def _logistic(z: FloatArray, work: FloatArray | None = None) -> FloatArray:
        """``1/(1 + e^{-z})`` without overflow, as a new array: ``e^{min(z, 0)}
        / (1 + e^{-|z|})``. ``work``, an array of z's shape other than z,
        takes the intermediate ``e^{-|z|}``."""
        rho = np.minimum(z, 0.0)
        np.exp(rho, out=rho)
        ez = np.copysign(z, -1.0, out=work)
        np.exp(ez, out=ez)
        ez += 1.0
        rho /= ez
        return rho

    def entropy_variable(self, rho: FloatArray) -> FloatArray:
        return np.log(rho / (1.0 - rho)) - self.v

    def _balance(self, rho_old: FloatArray, dt: float):
        """The terms of the cell balances that depend only on ``(rho_old, dt)``:
        ``coef = vol/dt + vol decay`` and ``base = vol alpha - vol decay rho_old``,
        with ``decay = Discretization.decay``. ``coef`` is held with the ``dt``
        it was formed for (``coef_dt``) and formed again only for another
        ``dt``; ``base`` is new in every call."""
        if self.coef_dt != dt:
            self.coef = self.vol / dt
            self.coef += self.vol_decay
            self.coef_dt = dt
        base = np.multiply(rho_old, self.vol_decay)
        np.subtract(self.vol_alpha, base, out=base)
        return self.coef, base

    def _residual(self, u: FloatArray, rho_old: FloatArray, coef: FloatArray, base: FloatArray):
        """Cell balances ``G(u)`` and the density, both new arrays; ``coef`` and
        ``base`` from :meth:`_balance`.

        ``G = (rho - rho_old) coef - base + div(flux)``, which is
        ``vol (rho - rho_old)/dt + div(flux) - vol (alpha - rho decay)``; the
        time term keeps the difference ``rho - rho_old``, exact while the two
        are within a factor 2, so that its roundoff does not grow like 1/dt.
        With ``s = rho_i + rho_{i+1}`` the face flux ``-mean (1 - mean) du/dx``
        is ``s (2 - s) du (-1/(4 dx))``.
        """
        rho = self._logistic(np.add(u, self.v, out=self.z), self.ez)
        s = np.add(rho[:-1], rho[1:], out=self.s)
        flux = np.subtract(2.0, s, out=self.flux)
        flux *= s
        flux *= np.subtract(u[1:], u[:-1], out=self.du)
        flux *= -0.25 / self.dx
        G = np.subtract(rho, rho_old)
        G *= coef
        G -= base
        G[:-1] += flux
        G[1:] -= flux
        return G, rho

    def _jacobian(self, u: FloatArray, rho: FloatArray, coef: FloatArray):
        """Tridiagonal Jacobian ``(lower, diag, upper)`` of ``G`` in u at ``u``,
        ``rho`` its density and ``coef`` from :meth:`_balance`."""
        dx = self.dx
        sig = rho * (1.0 - rho)
        mean = 0.5 * (rho[:-1] + rho[1:])
        mob = mean * (1.0 - mean)
        dmob = 1.0 - 2.0 * mean
        du = u[1:] - u[:-1]
        dflux_left = (-dmob * 0.5 * sig[:-1] * du + mob) / dx
        dflux_right = (-dmob * 0.5 * sig[1:] * du - mob) / dx
        diag = sig * coef  # d/du of rho coef: the time and reaction terms
        diag[0] += dflux_left[0]
        diag[1:-1] += dflux_left[1:] - dflux_right[:-1]
        diag[-1] -= dflux_right[-1]
        return -dflux_left, diag, dflux_right

    def _norm(self, G: FloatArray) -> float:
        scaled = np.divide(G, self.vol, out=self.scaled)
        return float(np.maximum.reduce(np.abs(scaled, out=scaled)))

    def _newton(self, u: FloatArray, rho_old: FloatArray, dt: float, chord: bool = False):
        """Damped Newton from ``u``: the new density and the accepted iterate.

        A line-search trial evaluates only ``G``; the accepted trial point is
        the next Newton iterate, so its ``G`` is not evaluated again.

        With ``chord``, chord iterations with the held inverse come first
        when it was formed for this ``dt``. A chord trial is kept only if it
        meets the tolerance or cuts the residual norm by
        ``CHORD_CONTRACTION``; the first that does neither is discarded, and
        damped Newton continues from the last kept iterate, its first
        Jacobian replacing the inverse. Chord and Newton iterations share
        ``NEWTON_MAX_ITER``; the settings are read at each call.
        """
        coef, base = self._balance(rho_old, dt)
        G, rho = self._residual(u, rho_old, coef, base)
        norm = self._norm(G)
        iterations = 0
        if chord and self.inverse_dt == dt:
            while iterations < NEWTON_MAX_ITER and not norm < NEWTON_TOLERANCE:
                iterations += 1
                self.chord_iterations += 1
                trial = u - self.inverse @ G
                trial_G, trial_rho = self._residual(trial, rho_old, coef, base)
                trial_norm = self._norm(trial_G)
                if not (trial_norm < NEWTON_TOLERANCE or trial_norm <= CHORD_CONTRACTION * norm):
                    break
                u, G, rho, norm = trial, trial_G, trial_rho, trial_norm
        for _ in range(NEWTON_MAX_ITER - iterations):
            if norm < NEWTON_TOLERANCE:
                return rho, u
            self.solves += 1
            jacobian = self._jacobian(u, rho, coef)
            try:
                delta = solve_tridiagonal(*jacobian, -G)
                if chord:
                    self.inverse, self.inverse_dt = invert_tridiagonal(*jacobian), dt
                    chord = False
            except IterationError as err:
                raise StepFailureError(
                    f"singular Newton Jacobian ({err}; residual {norm:.3e})", residual=norm
                ) from err
            damping = 1.0
            # NEWTON_MAX_BACKTRACKS trials; without a decrease the next, smaller step is taken as is
            for _ in range(NEWTON_MAX_BACKTRACKS + 1):
                trial = u + damping * delta
                trial_G, trial_rho = self._residual(trial, rho_old, coef, base)
                trial_norm = self._norm(trial_G)
                if trial_norm < norm:
                    break
                damping *= 0.5
            u, G, rho, norm = trial, trial_G, trial_rho, trial_norm
        if norm < NEWTON_TOLERANCE:
            return rho, u
        raise StepFailureError(
            f"Newton did not reach {NEWTON_TOLERANCE} within {NEWTON_MAX_ITER} iterations "
            f"(residual {norm:.3e})",
            residual=norm,
        )

    def solve(self, rho_old: FloatArray, dt: float, guess: FloatArray | None = None):
        """One backward-Euler step: the new density and its entropy variable.

        Newton starts from ``guess``, or without one from the entropy
        variable of ``rho_old`` (in a run, the last accepted iterate up to
        roundoff); a failure from ``guess`` is retried once from there, the
        start of a step without a guess. ``solves`` counts the iterations
        of both attempts. Only the attempt from ``guess`` takes chord
        iterations and forms the inverse (while ``n <= CHORD_MAX_N``); the
        retry and a solve without a guess are plain damped Newton. The
        entropy variable returned is ``guess`` itself when ``guess`` meets
        ``NEWTON_TOLERANCE``.
        """
        if guess is not None:
            try:
                return self._newton(guess, rho_old, dt, self.chord)
            except StepFailureError:
                pass
        return self._newton(self.entropy_variable(rho_old), rho_old, dt)

    def step(self, rho_old: FloatArray, dt: float) -> FloatArray:
        """One backward-Euler step from ``rho_old``: the new density."""
        return self.solve(rho_old, dt)[0]


def step_implicit_entropy(rho: DensityField, d: Discretization, dt: float) -> DensityField:
    """One backward-Euler step of the entropy-variable scheme (model C) on ``d``.

    The previous state must lie on ``d.grid`` and strictly inside (0, 1);
    the returned state does so by construction.
    """
    field_ = DensityField(rho.values, d.grid)
    field_.validate_for_model(d.model, strict_box=True)
    stepper = _ImplicitStepper(d)
    return DensityField(stepper.step(field_.values, dt), d.grid)


def _propagated(rho: FloatArray, stepper: _ExplicitStepper, dt: float, stride: int, events):
    """Models A and B: the states at step 0, every ``stride`` steps and the
    ``events`` (increasing steps, the last one final), a block of
    ``OBSERVER_BLOCK`` samples at a time, with the extrema of the states so far.

    The samples on the stride come from :func:`_strided_blocks`. An event
    off the stride is advanced from the sample before it
    (:meth:`_ExplicitStepper.jump_matrices`) and follows it in its block.
    """
    strided = events[-1] // stride + 1  # samples on the stride, step 0 included
    jumps = {k % stride for k in events} - {0}  # events off the stride
    if strided > 1:
        jumps.add(stride)
    try:
        powers = stepper.jump_matrices(dt, jumps) if jumps else {}
    except MemoryError as err:
        raise ConfigError(
            f"cannot allocate the dense {rho.size + 1}x{rho.size + 1} step matrix of the "
            f"propagator at n={rho.size}; lower n"
        ) from err
    first, lo, hi = 0, math.inf, -math.inf  # first: sample index of the block's first row
    for block in _strided_blocks(rho, powers.pop(stride, None), strided):
        end = first + len(block)
        off = [k for k in events if k % stride and first <= k // stride < end]
        at = [k // stride - first + 1 for k in off]  # each directly after its base sample
        ks = np.arange(first, end) * stride
        if off:
            jumped = [powers[k % stride] @ block[j - 1] for k, j in zip(off, at)]
            ks, block = np.insert(ks, at, off), np.insert(block, at, jumped, axis=0)
        # a contiguous copy: the extrema and the observers run faster on it
        # than on the strided rows of the block
        rows = np.ascontiguousarray(block[:, :-1])
        # the new extremum first: min(nan, lo) is nan, but min(lo, nan) is lo
        lo, hi = min(float(rows.min()), lo), max(float(rows.max()), hi)
        yield ks, rows, lo, hi
        first = end


def _event_steps(stride: int, events):
    """Step 0, the multiples of ``stride`` below the last of ``events`` and
    ``events`` (increasing steps) in order, each once."""
    k = 0  # the next multiple of stride
    for event in events:
        while k < event:
            yield k
            k += stride
        yield event
        if k == event:
            k += stride


def _stepped(rho: FloatArray, stepper, dt: float, stride: int, events):
    """Model C from event to event: the states at step 0, every ``stride``
    steps and the ``events`` (increasing steps, the last one final),
    ``OBSERVER_BLOCK`` at a time, with the extrema of every state so far.

    The explicit scheme checks each state's min and max and hands over its
    first non-finite state at once. The implicit one keeps the elementwise
    extrema of its states and reduces them once per block; each Newton
    solve starts from one product of a row of ``START_WEIGHTS`` with the
    last accepted entropy variables (the cubic from step 4, the quartic
    from step 8 on), read from a ring of the last eight, and up to
    ``n = CHORD_MAX_N`` takes chord iterations with a held Jacobian inverse
    first (:meth:`_ImplicitStepper._newton`).
    """
    steps, implicit = events[-1], isinstance(stepper, _ImplicitStepper)
    block = np.empty((OBSERVER_BLOCK, rho.size))
    ks, k = [], 0
    lo, hi = float(rho.min()), float(rho.max())
    if implicit:
        # u^j in rows j % 8 and j % 8 + 8: the last m <= 8 end at row (k - 1) % 8 + 8
        # before step k, one (m, n) view in time order
        ring = np.empty((16, rho.size))
        ring[::8] = stepper.entropy_variable(rho)
        start = np.empty(rho.size)
        low, high = rho.copy(), rho.copy()
    for event in _event_steps(stride, events):
        while k < event and math.isfinite(lo) and math.isfinite(hi):
            k += 1
            if not implicit:
                stepper.step(rho, dt)
                lo, hi = min(float(rho.min()), lo), max(float(rho.max()), hi)  # as in _propagated
                continue
            solves = stepper.solves
            weights, end = START_WEIGHTS[min(k, 8)], (k - 1) % 8 + 9
            guess = None
            if weights is not None:
                guess = np.dot(weights, ring[end - len(weights) : end], out=start)
            try:
                rho, u = stepper.solve(rho, dt, guess)
            except StepFailureError as err:
                raise StepFailureError(
                    f"implicit step failed at t={k * dt:.6g}: {err}",
                    residual=err.residual,
                    time=k * dt,
                ) from err
            stepper.most_solves = max(stepper.most_solves, stepper.solves - solves)
            ring[k % 8 :: 8] = u
            np.minimum(low, rho, out=low)
            np.maximum(high, rho, out=high)
        block[len(ks)] = rho
        ks.append(k)
        if k == event < steps and len(ks) < len(block):  # not final, full or non-finite
            continue
        if implicit:  # the running extrema, reduced once per block
            lo, hi = float(np.minimum.reduce(low)), float(np.maximum.reduce(high))
        yield np.array(ks), block[: len(ks)], lo, hi
        ks = []


def run_transient(
    d: Discretization,
    initial: DensityField,
    config: SolverConfig,
    reference: Optional[StationarySolution] = None,
    snapshot_times: Sequence[float] = (),
) -> Trajectory:
    """Step the model of ``d`` from ``initial``, a field on ``d.grid``, to
    ``t_end`` and sample observers along the way.

    Observers (model-appropriate relative entropy, trapezoid and
    node-average mass, L1 distance, steady residual) are computed against
    ``reference`` (on ``d.grid``, else ShapeError; the numeric stationary
    solution when omitted) at step 0, every ``observe_every`` steps, and at
    the final step. Snapshots are taken at the steps nearest the requested
    times (to keep every sample, ask for a snapshot at each sample time).
    Step errors propagate with the failing time attached; a
    non-finite value raises DivergenceError at the step of the first
    non-finite state the scheme hands over.

    Each scheme hands over the states of its events (samples, snapshots and
    the final step) in blocks of about ``OBSERVER_BLOCK``, with the extrema
    of the states it has computed: models A and B on the explicit scheme
    with powers of the affine step matrix (:func:`_propagated`), model C
    step by step (:func:`_stepped`), on one BLAS thread. Each observer runs
    once per block, on all its samples at once. A series too long to
    allocate is a ConfigError, and so is a step matrix too large to
    allocate.
    """
    model, grid = d.model, d.grid
    implicit = config.scheme == "implicit-entropy"
    DensityField(initial.values, grid).validate_for_model(model, strict_box=implicit)
    if reference is None:
        reference = stationary_numeric(d)
    kind = default_kind(model)

    dt = config.dt
    steps = int(round(config.t_end / dt))
    if implicit:
        stepper = _ImplicitStepper(d)
    else:
        _check_cfl(d, dt)
        stepper = _ExplicitStepper(d)

    snap_lookup: dict[int, float] = {}
    for t_req in snapshot_times:
        if t_req < 0 or t_req > config.t_end + 1e-12:
            raise ConfigError(f"snapshot time {t_req} outside [0, {config.t_end}]")
        snap_lookup.setdefault(min(steps, int(round(t_req / dt))), float(t_req))

    rho = initial.values.copy()
    stride = config.observe_every
    count = (steps - 1) // stride + 2  # step 0, the strides below steps, steps
    try:
        times, ent, mass_tz, mass_na, l1s, resid, outflow = (np.empty(count) for _ in range(7))
    except (MemoryError, ValueError) as err:  # too many samples to hold
        raise ConfigError(
            f"cannot allocate the {count:.3g} observer samples of {steps:.3g} steps at "
            f"observe_every={stride}; raise observe_every or dt"
        ) from err
    snapshots = []
    ref_field = DensityField(reference.field.values, grid)  # ShapeError off the grid
    done = 0  # samples evaluated

    generate = _stepped if implicit or model.crowded else _propagated
    # small dense products (the propagator, the implicit scheme's chord
    # iterations): more BLAS threads only wait for each other (blas.py)
    with serial_blas():
        for ks, rows, lo, hi in generate(rho, stepper, dt, stride, sorted({*snap_lookup, steps})):
            sampled = (ks % stride == 0) | (ks == steps)
            bad = len(ks)  # the first row with a non-finite value
            if not (math.isfinite(lo) and math.isfinite(hi)):
                # the last row when no earlier one is non-finite, even if it is finite
                bad = int(np.argmin(np.append(np.isfinite(rows[:-1]).all(axis=1), False)))
                sampled[bad:] = False
            states = rows if sampled.all() else rows[sampled]  # samples only: in place
            if len(states):  # an observer error of an earlier sample comes first
                span = slice(done, done + len(states))
                times[span] = ks[sampled] * dt
                ent[span] = entropy(kind, states, ref_field)
                mass_tz[span] = trapezoid(states, grid.dx)
                mass_na[span] = node_average(states)
                l1s[span] = l1_distance(states, ref_field)
                resid[span] = residual_stationary(states, d)
                outflow[span] = states[:, -1]
                done += len(states)
            if bad < len(ks):
                k = int(ks[bad])
                raise DivergenceError(
                    f"non-finite values at step {k}, t={k * dt:.6g}", step=k, time=k * dt
                )
            if snap_lookup:
                for i, k in enumerate(ks.tolist()):
                    if k in snap_lookup:
                        snapshots.append((snap_lookup[k], DensityField(rows[i].copy(), grid)))

    for series in (times, ent, mass_tz, mass_na, l1s, resid, outflow):
        series.setflags(write=False)
    return Trajectory(
        times=times,
        entropy=ent,
        mass=mass_tz,
        node_mass=mass_na,
        l1=l1s,
        residual=resid,
        outflow_density=outflow,
        snapshots=tuple(snapshots),
        final=DensityField(rows[-1].copy(), grid),
        reference=reference,
        entropy_kind=kind,
        min_value=lo,
        max_value=hi,
        steps=steps,
        dt=dt,
        newton_iterations=stepper.solves if implicit else 0,
        newton_max_per_step=stepper.most_solves if implicit else 0,
        chord_iterations=stepper.chord_iterations if implicit else 0,
    )
