"""Grids, potentials, model specifications and initial conditions.

All values are dimensionless; the spatial domain is the unit interval
[0, 1]. Objects constructed here are immutable (arrays are marked
read-only), so they can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidGridError, InvalidInitialError, InvalidModelError, ShapeError

FloatArray = NDArray[np.float64]

MODELS = ("A", "B", "C")
POTENTIAL_KINDS = ("linear", "zero", "scaled-linear", "tabulated")
INITIAL_KINDS = ("affine", "parabola", "mass1", "mass2", "tabulated")


def _readonly(a: np.ndarray) -> FloatArray:
    out = np.asarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def _per_field(total: np.ndarray):
    """A float for one field, the array of per-row values for a block."""
    return float(total) if total.ndim == 0 else total


def trapezoid(values: FloatArray, dx: float):
    """Trapezoid-rule integral of nodal values over a uniform grid.

    Reduces over the last axis: a float for one field of nodal values, one
    integral per row for an ``(m, n)`` block of fields.
    """
    return _per_field(dx * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1])))


def node_average(values: FloatArray):
    """Integral estimate that weights every node equally (mean of nodes).

    First-order quadrature that gives boundary nodes the same weight as
    interior ones; kept alongside :func:`trapezoid` because the reference
    mass tabulations reproduced by the mass-evolution experiments use it.
    Reduces over the last axis, like :func:`trapezoid`.
    """
    return _per_field(values.mean(axis=-1))


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [0, 1] with ``n`` nodes, ``x_i = i / (n - 1)``."""

    n: int
    dx: float
    nodes: FloatArray

    @property
    def faces(self) -> FloatArray:
        """Midpoints between adjacent nodes (n - 1 interior faces)."""
        return _readonly(0.5 * (self.nodes[:-1] + self.nodes[1:]))

    @property
    def volumes(self) -> FloatArray:
        """Width of the cell each node owns: dx, and dx/2 for the two boundary half cells."""
        vol = np.full(self.n, self.dx)
        vol[0] = vol[-1] = 0.5 * self.dx
        return _readonly(vol)


def build_grid(n: int) -> Grid:
    """Build the uniform grid with ``n >= 3`` nodes.

    Node coordinates are integer-indexed (``i / (n - 1)``), which keeps the
    spacing uniform to within one ulp and the endpoints exactly 0 and 1.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InvalidGridError(f"node count must be an integer, got {n!r}")
    if n < 3:
        raise InvalidGridError(f"grid needs at least 3 nodes, got n={n}")
    try:
        nodes = np.arange(n, dtype=np.float64) / (n - 1)
    except (MemoryError, ValueError) as err:  # more nodes than memory or than numpy indexes
        raise InvalidGridError(f"cannot allocate a grid of n={n} nodes; lower n") from err
    return Grid(n=int(n), dx=1.0 / (n - 1), nodes=_readonly(nodes))


@dataclass(frozen=True)
class PotentialSpec:
    """Potential V on [0, 1].

    kinds:
      * ``linear``        V(x) = x
      * ``zero``          V = 0
      * ``scaled-linear`` V(x) = gamma * x
      * ``tabulated``     nodal values, linearly interpolated at faces
    """

    kind: str = "linear"
    gamma: float = 1.0
    values: Optional[FloatArray] = None

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise InvalidModelError(f"unknown potential kind {self.kind!r}")
        if not math.isfinite(self.gamma):
            raise InvalidModelError("potential scaling factor must be finite")
        if self.kind == "tabulated":
            if self.values is None:
                raise InvalidModelError("tabulated potential needs nodal values")
            vals = np.asarray(self.values, dtype=np.float64)
            if not np.all(np.isfinite(vals)):
                raise InvalidModelError("tabulated potential values must be finite")
            object.__setattr__(self, "values", _readonly(vals))

    @property
    def slope(self) -> float:
        """Constant slope for the linear kinds (V' = gamma, or 0)."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "linear":
            return 1.0
        if self.kind == "scaled-linear":
            return self.gamma
        raise InvalidModelError("tabulated potential has no constant slope")


def eval_potential(spec: PotentialSpec, grid: Grid) -> tuple[FloatArray, FloatArray, FloatArray]:
    """V at the nodes, V at the face midpoints and V' at the face midpoints.

    For the linear kinds the face values are exact; a tabulated potential is
    interpolated linearly, so its face value is the mean of the neighbours
    and its face slope the divided difference.
    """
    x = grid.nodes
    xf = grid.faces
    if spec.kind == "tabulated":
        vals = spec.values
        if vals.shape != (grid.n,):
            raise ShapeError(f"tabulated potential needs shape ({grid.n},), got {vals.shape}")
        nodes = vals
        faces = 0.5 * (vals[:-1] + vals[1:])
        face_slope = (vals[1:] - vals[:-1]) / grid.dx
    else:
        g = spec.slope
        nodes = g * x
        faces = g * xf
        face_slope = np.full(grid.n - 1, g)
    return _readonly(nodes), _readonly(faces), _readonly(face_slope)


@dataclass(frozen=True)
class ModelSpec:
    """One of the three in/outflow models.

    * ``A``: linear transport, boundary influx ``alpha`` at x=0 and outflux
      ``beta * rho`` at x=1.
    * ``B``: linear transport, no-flux boundaries, bulk exchange
      ``alpha - beta * rho * exp(-V)``.
    * ``C``: crowding-limited transport (mobility ``rho * (1 - rho)``),
      no-flux boundaries, bulk exchange ``alpha (1 - rho) - beta rho exp(-V)``.
    """

    model: str
    alpha: float
    beta: float
    potential: PotentialSpec = field(default_factory=PotentialSpec)

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidModelError(f"model must be one of {MODELS}, got {self.model!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise InvalidModelError(
                f"influx rate must satisfy alpha >= alpha_0 > 0, got alpha={self.alpha}"
            )
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise InvalidModelError(
                f"outflux rate must satisfy beta >= beta_0 > 0, got beta={self.beta}"
            )

    @property
    def crowded(self) -> bool:
        return self.model == "C"


@dataclass(frozen=True)
class Discretization:
    """One model on one grid: every array the schemes read that depends on V.

    Built by :func:`discretize`, once per run, and passed to every function
    of the run path: the stationary solves, the steppers, the flux field,
    the steady residual, the time step and the rate prediction all take it
    instead of ``(model, grid)``, so the potential is evaluated once.
    """

    model: ModelSpec
    grid: Grid
    v: FloatArray  # V at the nodes
    v_faces: FloatArray  # V at the n - 1 face midpoints
    slope: FloatArray  # V' at the faces
    exp_neg_v: FloatArray  # exp(-V) at the nodes
    exp_v: FloatArray  # exp(V) at the nodes
    exp_v_faces: FloatArray  # exp(V) at the faces
    volumes: FloatArray  # Grid.volumes
    max_dt: float  # stability bound of the explicit scheme
    decay: Optional[FloatArray]  # reaction rate at the nodes; None for model A


def discretize(model: ModelSpec, grid: Grid) -> Discretization:
    """Evaluate the model's potential on the grid and everything built from it.

    ``max_dt`` is the explicit stability bound ``dx^2 / (2 + dx sup|V'|)``
    of the transport alone: diffusion and the drift, the latter evaluated
    from the face slopes. It does not cover the reactions ``alpha - decay rho``
    of models B and C, whose rates ``decay`` (``beta e^{-V}`` and ``alpha +
    beta e^{-V}``; None for model A) are computed here once, nor the mesh
    Peclet condition ``dx |V'| / 2 <= 1``, which the explicit scheme checks
    when it starts.

    A potential so steep that ``exp(V)`` or ``exp(-V)`` is not finite and
    positive at a node or face raises InvalidModelError naming it.
    """
    v, v_faces, slope = eval_potential(model.potential, grid)
    with np.errstate(over="ignore"):  # an overflow is rejected below
        exp_neg_v, exp_v, exp_v_faces = np.exp(-v), np.exp(v), np.exp(v_faces)
    for name, values, where in (
        ("exp(-V)", exp_neg_v, "node {}"),
        ("exp(V)", exp_v, "node {}"),
        ("exp(V)", exp_v_faces, "the face after node {}"),
    ):
        bad = ~(np.isfinite(values) & (values > 0.0))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise InvalidModelError(
                f"potential too steep: {name} is {values[i]} at {where.format(i)}; "
                "exp(V) and exp(-V) must be finite and positive"
            )
    max_dt = grid.dx**2 / (2.0 + grid.dx * float(np.max(np.abs(slope))))
    decay = None if model.model == "A" else model.beta * exp_neg_v
    if model.crowded:
        decay = model.alpha + decay
    return Discretization(
        model, grid, v, v_faces, slope,
        exp_neg_v=_readonly(exp_neg_v),
        exp_v=_readonly(exp_v),
        exp_v_faces=_readonly(exp_v_faces),
        volumes=grid.volumes,
        max_dt=max_dt,
        decay=None if decay is None else _readonly(decay),
    )


@dataclass(frozen=True)
class DensityField:
    """Nodal density values over a grid."""

    values: FloatArray
    grid: Grid

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n,):
            raise ShapeError(f"field needs shape ({self.grid.n},), got {vals.shape}")
        object.__setattr__(self, "values", _readonly(vals))

    def validate_for_model(self, model: ModelSpec, *, strict_box: bool = False) -> None:
        """Check finiteness and the model's positivity/box constraint.

        ``strict_box`` enforces the open box 0 < rho < 1 required of model C
        initial data; otherwise the closed box is accepted.
        """
        vals = self.values
        if not np.all(np.isfinite(vals)):
            i = int(np.argmin(np.isfinite(vals)))
            raise InvalidInitialError(f"non-finite density at node {i}")
        if model.model in ("A", "B"):
            if np.any(vals < 0.0):
                i = int(np.argmin(vals))
                raise InvalidInitialError(
                    f"density must be nonnegative for model {model.model}; "
                    f"node {i} has value {vals[i]}"
                )
        else:
            bad = (vals <= 0.0) | (vals >= 1.0) if strict_box else (vals < 0.0) | (vals > 1.0)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise InvalidInitialError(
                    f"model C density must lie in the box (0, 1); "
                    f"node {i} has value {vals[i]}"
                )


@dataclass(frozen=True)
class InitialSpec:
    """Closed-form initial conditions.

    kinds:
      * ``affine``   rho0(x) = a * x + b
      * ``parabola`` rho0(x) = -(x - 0.5)^2 + 1
      * ``mass1``    plateau 1.9 on [0, 0.5), cosine ramp
                     1.9 * (0.5 cos(4 pi x) + 0.5) on [0.5, 0.75], then 0.
                     (The 0.5 coefficients keep the profile continuous and
                     are used instead of a widely copied misprint with 0.95.)
      * ``mass2``    0 on [0, 0.9), one-sided spike 3000 (x - 0.9)^2 beyond
      * ``tabulated`` explicit nodal values
    """

    kind: str = "affine"
    a: float = -0.1
    b: float = 1.2
    values: Optional[FloatArray] = None

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise InvalidInitialError(f"unknown initial kind {self.kind!r}")
        if self.kind == "tabulated":
            if self.values is None:
                raise InvalidInitialError("tabulated initial condition needs values")
            object.__setattr__(
                self, "values", _readonly(np.asarray(self.values, dtype=np.float64))
            )


def _sample_initial(spec: InitialSpec, x: FloatArray) -> FloatArray:
    """The closed-form kinds; InitialSpec has rejected any other."""
    if spec.kind == "affine":
        return spec.a * x + spec.b
    if spec.kind == "parabola":
        return -((x - 0.5) ** 2) + 1.0
    if spec.kind == "mass1":
        ramp = 1.9 * (0.5 * np.cos(4.0 * np.pi * x) + 0.5)
        return np.where(x < 0.5, 1.9, np.where(x <= 0.75, ramp, 0.0))
    return np.where(x < 0.9, 0.0, 3000.0 * (x - 0.9) ** 2)  # mass2


def build_initial(spec: InitialSpec, grid: Grid, model: ModelSpec) -> DensityField:
    """Sample an initial condition on the grid and validate it for the model.

    Model C requires values strictly inside (0, 1); models A and B require
    nonnegative values. Violations raise with the offending node named.
    """
    if spec.kind == "tabulated":
        field_ = DensityField(spec.values.copy(), grid)  # ShapeError off the grid
    else:
        field_ = DensityField(_sample_initial(spec, grid.nodes), grid)
    try:
        field_.validate_for_model(model, strict_box=model.model == "C")
    except InvalidInitialError as err:
        if spec.kind != "parabola":  # else model C on an odd-n grid
            raise
        raise InvalidInitialError(f"{err}; the parabola equals 1 at x = 1/2, which is a node "
                                  "of every odd-n grid: use an even n") from None
    return field_
