"""Experiment configurations, presets and artifact writers.

A run is described by a JSON-friendly configuration, executed with the
transient solver, and emits CSV/JSON/SVG artifacts. Identical
configurations produce bit-identical CSV and JSON files; wall-clock
timing is therefore reported on stdout, never inside the artifacts.
"""

from __future__ import annotations

import json
import math
import sys
import time
from contextlib import ExitStack
from dataclasses import dataclass, field as dataclass_field
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .domain import (
    DensityField,
    Discretization,
    InitialSpec,
    ModelSpec,
    PotentialSpec,
    build_grid,
    build_initial,
    discretize,
    node_average,
    trapezoid,
)
from .entropy import (
    RateReport,
    fit_exponential_rate,
    predicted_rate,
)
from .errors import ConfigError, FitError
from .spectral import EigenResult, friedrichs_k, symmetric_k
from .stationary import stationary_closed, stationary_numeric
from .svg import line_chart
from .transient import SolverConfig, Trajectory, run_transient

EMIT_CHOICES = ("snapshots", "entropy", "mass", "summary", "svg")
DEFAULT_EMIT = ("snapshots", "entropy", "summary")
# Rows a CSV writer formats at once: the whole series of a run observed at
# every step (16 001 rows) held as Python floats and strings raised its peak
# memory by 3 MB.
CSV_ROWS = 1024


@dataclass(frozen=True)
class RunConfig:
    """A parsed run: its one Discretization, its initial field and its
    SolverConfig (``dt: "auto"`` resolved); ``raw`` echoes the exact input
    mapping."""

    d: Discretization
    initial: DensityField
    solver: SolverConfig
    snapshot_times: tuple = ()
    outputs: str = "out"
    emit: tuple = DEFAULT_EMIT
    raw: dict = dataclass_field(default_factory=dict)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_number(value) -> bool:
    """A JSON number that converts to a float: not a bool, nor an int past the float range."""
    return isinstance(value, float) or (
        isinstance(value, int) and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _is_list_of(values, test) -> bool:
    return isinstance(values, (list, tuple)) and all(test(v) for v in values)


def _check_keys(what: str, mapping: dict, allowed: tuple) -> None:
    """Reject the keys of a nested ``potential`` or ``initial`` mapping that
    its kind does not read (``kind`` is always read)."""
    unknown = sorted(set(mapping) - {"kind", *allowed}, key=str)
    hint = "; gamma is a top-level field" if "gamma" in unknown else ""
    _require(not unknown, f"unknown {what} keys {unknown} for kind {mapping.get('kind')!r}{hint}")


def config_from_dict(data: dict) -> RunConfig:
    """Read a JSON mapping into the run it describes (raises ConfigError).

    The parser checks what needs the mapping itself: the fields, their JSON
    types and the choices between fields. The values are checked by the
    objects built from them (ModelSpec, PotentialSpec, InitialSpec, the
    grid, the initial field, the Discretization and the SolverConfig, with
    ``dt: "auto"`` resolved to half the stability bound), which the run
    keeps: ``execute`` builds none of them again.
    """
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    known = {
        "model", "alpha", "beta", "gamma", "potential", "initial", "n", "dt",
        "t_end", "snapshot_times", "observe_every", "scheme", "outputs", "emit",
    }
    unknown = set(data) - known
    _require(not unknown, f"unknown configuration fields: {sorted(unknown)}")
    _require("model" in data, "missing field 'model'")
    model = data["model"]

    def fnum(name: str, default=None) -> float:
        if name not in data:
            _require(default is not None, f"missing field {name!r}")
            return default
        _require(_is_number(data[name]), f"{name} must be a number")
        return float(data[name])

    alpha, beta, gamma, t_end = fnum("alpha"), fnum("beta"), fnum("gamma", 1.0), fnum("t_end")

    pot, table = data.get("potential", "linear"), None
    if isinstance(pot, dict):
        table, pot = pot.get("values"), pot.get("kind")
        _check_keys("potential", data["potential"], ("values",) if pot == "tabulated" else ())
    if pot == "tabulated":
        _require(_is_list_of(table, _is_number) and len(table) > 0,
                 "tabulated potential needs a nonempty 'values' list of numbers")
    _require(pot == "scaled-linear" or gamma == 1.0 or "gamma" not in data,
             "gamma applies to the scaled-linear potential; set potential accordingly")

    initial = data.get("initial", {"kind": "affine"})
    if isinstance(initial, str):
        initial = {"kind": initial}
    _require(isinstance(initial, dict) and "kind" in initial, "initial needs a 'kind'")
    kind = initial["kind"]
    _check_keys("initial", initial,
                ("a", "b") if kind == "affine" else ("values",) if kind == "tabulated" else ())
    initial_args = {}
    if kind == "affine":
        for key in ("a", "b"):
            if key in initial:
                _require(_is_number(initial[key]),
                         f"affine initial coefficient {key!r} must be a number")
                initial_args[key] = float(initial[key])
    if kind == "tabulated":
        vals = initial.get("values")
        _require(_is_list_of(vals, _is_number) and len(vals) > 0,
                 "tabulated initial needs a nonempty 'values' list of numbers")
        initial_args["values"] = vals

    dt = data.get("dt", "auto")
    if dt != "auto":
        _require(_is_number(dt), f"dt must be a number or 'auto', got {dt!r}")
        dt = float(dt)

    snaps = data.get("snapshot_times", [])
    _require(isinstance(snaps, (list, tuple)), "snapshot_times must be a list")
    for t_req in snaps:  # run_transient checks the range
        _require(_is_number(t_req), f"snapshot time {t_req!r} must be a number")

    observe = data.get("observe_every", 1000)
    _require(isinstance(observe, int) and not isinstance(observe, bool),
             "observe_every must be an integer")

    scheme = data.get("scheme", "explicit")
    _require(scheme != "implicit-entropy" or model == "C",
             "the implicit-entropy scheme applies to model C only")

    outputs = data.get("outputs", "out")
    _require(isinstance(outputs, str), f"outputs must be a directory name, got {outputs!r}")

    emit = data.get("emit", DEFAULT_EMIT)
    _require(_is_list_of(emit, lambda e: isinstance(e, str)), "emit must be a list of strings")
    emit = tuple(emit)
    bad = [e for e in emit if e not in EMIT_CHOICES]
    _require(not bad, f"unknown emit entries {bad}; choose from {EMIT_CHOICES}")

    # each object checks its own values
    spec = InitialSpec(kind, **initial_args)
    grid = build_grid(data.get("n", 200))
    table = [float(v) for v in table] if pot == "tabulated" else None
    model = ModelSpec(model, alpha, beta, PotentialSpec(pot, gamma=gamma, values=table))
    rho0 = build_initial(spec, grid, model)
    d = discretize(model, grid)
    solver = SolverConfig(
        dt=0.5 * d.max_dt if dt == "auto" else dt,
        t_end=t_end, observe_every=observe, scheme=scheme,
    )
    return RunConfig(
        d, rho0, solver, snapshot_times=tuple(float(t) for t in snaps),
        outputs=outputs, emit=emit, raw=dict(data),
    )


@dataclass(frozen=True)
class RunSummary:
    """Headline numbers of one run; serialized to summary.json."""

    fitted_rate: Optional[float]
    fit: Optional[RateReport]
    predicted_rate: Optional[float]
    predicted_provenance: Optional[str]
    final_sup_distance: float
    final_mass: float
    final_mass_node_average: float
    stationary_mass_closed: float
    stationary_mass_numeric: float
    eigen: Optional[dict]
    steps: int
    dt: float
    min_value: float
    max_value: float
    config: dict
    wall_clock_seconds: float  # stdout only, never serialized


def _eigen_dict(result: EigenResult) -> dict:
    return {
        "k": result.k,
        "lambda": result.eigenvalue,
        "rate": result.rate,
        "equation_tag": result.equation_tag,
        "root_residual": result.root_residual,
    }


def summary_json_dict(summary: RunSummary) -> dict:
    """JSON view of a summary. Timing is excluded to keep runs bit-identical."""
    fit = summary.fit
    return {
        "config": summary.config,
        "fitted_rate": summary.fitted_rate,
        "fit_window": None if fit is None else list(fit.fit_window),
        "fit_r_squared": None if fit is None else fit.r_squared,
        "fit_intercept": None if fit is None else fit.intercept,
        "predicted_rate": summary.predicted_rate,
        "predicted_rate_provenance": summary.predicted_provenance,
        "final_sup_distance": summary.final_sup_distance,
        "final_mass": summary.final_mass,
        "final_mass_node_average": summary.final_mass_node_average,
        "stationary_mass_closed": summary.stationary_mass_closed,
        "stationary_mass_numeric": summary.stationary_mass_numeric,
        "eigen": summary.eigen,
        "steps": summary.steps,
        "dt": summary.dt,
        "min_value": summary.min_value,
        "max_value": summary.max_value,
    }


def execute(config: RunConfig) -> tuple[RunSummary, Trajectory]:
    """Run a configuration without touching the filesystem.

    The run starts from the configuration's Discretization, initial field
    and SolverConfig, so the potential is evaluated once, at parse.
    """
    started = time.perf_counter()
    d, model = config.d, config.d.model
    reference = stationary_numeric(d)
    trajectory = run_transient(
        d,
        config.initial,
        config.solver,
        reference=reference,
        snapshot_times=config.snapshot_times,
    )
    prediction = predicted_rate(d, reference.field, rho0=config.initial)
    try:  # on the default window
        fit = fit_exponential_rate(trajectory.times, trajectory.entropy)
    except FitError:
        fit = None
    # for model C the numeric solution is the closed form
    closed = reference if model.crowded else stationary_closed(d)
    eigen = None
    if model.model == "A":
        eigen = {
            "symmetric": _eigen_dict(symmetric_k(model.beta)),
            # boundary dissipation weights alpha/2 (inflow) and beta/2 (outflow)
            "friedrichs": _eigen_dict(friedrichs_k(0.5 * model.alpha, 0.5 * model.beta)),
        }
    summary = RunSummary(
        fitted_rate=None if fit is None else fit.fitted_slope,
        fit=fit,
        predicted_rate=prediction.value,
        predicted_provenance=prediction.provenance,
        final_sup_distance=float(
            np.max(np.abs(trajectory.final.values - reference.field.values))
        ),
        final_mass=trapezoid(trajectory.final.values, d.grid.dx),
        final_mass_node_average=node_average(trajectory.final.values),
        stationary_mass_closed=trapezoid(closed.field.values, d.grid.dx),
        stationary_mass_numeric=trapezoid(reference.field.values, d.grid.dx),
        eigen=eigen,
        steps=trajectory.steps,
        dt=config.solver.dt,
        min_value=trajectory.min_value,
        max_value=trajectory.max_value,
        config=dict(config.raw),
        wall_clock_seconds=time.perf_counter() - started,
    )
    return summary, trajectory


def _write_artifacts(
    out: Path, tables: dict, summary: Optional[dict] = None, charts: Optional[dict] = None
) -> None:
    """Write ``tables``, ``summary`` and ``charts`` into the directory ``out``,
    made if missing.

    ``tables`` maps a CSV file name to ``(header, columns)``: one row per
    index of the equal-length ``columns``, every value in full double
    precision with a '.' decimal separator. The tables may differ in length.
    They are written ``CSV_ROWS`` rows at a time, and a column array that
    several tables share is formatted once per chunk. ``summary`` is the
    payload of ``summary.json``; ``charts`` maps an SVG file name to the
    arguments of ``line_chart``.
    """
    out.mkdir(parents=True, exist_ok=True)
    # tuples hold every column for the whole call, so no two share an id
    tables = {name: (header, tuple(columns)) for name, (header, columns) in tables.items()}
    columns = [c for _, cols in tables.values() for c in cols]
    shared = {id(c): c for c in columns if sum(c is other for other in columns) > 1}
    cell = "%.17g".__mod__
    with ExitStack() as stack:
        writers = []
        for name, (header, cols) in tables.items():
            file = stack.enter_context((out / name).open("w", encoding="utf-8"))
            file.write(header + "\n")
            row = ",".join("%s" if id(c) in shared else "%.17g" for c in cols) + "\n"
            writers.append((file, row, cols))
        for start in range(0, max(map(len, columns), default=0), CSV_ROWS):
            part = slice(start, start + CSV_ROWS)
            text = {key: list(map(cell, c[part].tolist())) for key, c in shared.items()}
            for file, row, cols in writers:  # one % over the row format repeated
                cells = [text[id(c)] if id(c) in text else c[part].tolist() for c in cols]
                file.write(row * len(cells[0]) % tuple(chain.from_iterable(zip(*cells))))
    if summary is not None:
        (out / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    for name, chart in (charts or {}).items():
        (out / name).write_text(line_chart(*chart), encoding="utf-8")


def _series_tables(tr: Trajectory) -> dict:
    """``entropy.csv`` and ``mass.csv``: the observer series, one row per sample."""
    return {
        "entropy.csv": ("t,entropy,mass,l1,residual",
                        (tr.times, tr.entropy, tr.mass, tr.l1, tr.residual)),
        "mass.csv": ("t,mass,node_average_mass", (tr.times, tr.mass, tr.node_mass)),
    }


def run(config: RunConfig, out_dir: Optional[str] = None) -> RunSummary:
    """Execute a configuration and write the requested artifacts."""
    summary, tr = execute(config)
    emit = config.emit
    grid = tr.final.grid
    tables = _series_tables(tr)
    tables["snapshots.csv"] = (
        ",".join(["x", *(f"rho_t={t_req:g}" for t_req, _ in tr.snapshots), "rho_inf"]),
        [grid.nodes, *(snap.values for _, snap in tr.snapshots), tr.reference.field.values],
    )
    charts = {}
    if "svg" in emit:
        density = [(f"t={t_req:g}", grid.nodes, snap.values) for t_req, snap in tr.snapshots]
        density = density or [("final", grid.nodes, tr.final.values)]
        density.append(("stationary", grid.nodes, tr.reference.field.values))
        charts = {
            "density.svg": (density, "density snapshots", "x", "rho"),
            "entropy.svg": ([("entropy", tr.times, tr.entropy)], "relative entropy decay",
                            "t", "log10 entropy", True),
        }
    _write_artifacts(
        Path(out_dir if out_dir is not None else config.outputs),
        {name: table for name, table in tables.items() if name.removesuffix(".csv") in emit},
        summary_json_dict(summary) if "summary" in emit else None,
        charts,
    )
    return summary


# ---------------------------------------------------------------------------
# presets reproducing the reference experiments

_PAPER_DT = 5e-6

PRESETS: dict[str, dict] = {
    "evolution-A": {
        "model": "A", "alpha": 1.0, "beta": 0.9, "potential": "linear",
        "initial": {"kind": "affine", "a": -0.1, "b": 1.2},
        "n": 200, "dt": _PAPER_DT, "t_end": 9.0,
        "snapshot_times": [0.0, 0.05, 1.5, 9.0],
        "emit": ["snapshots", "entropy", "summary", "svg"],
    },
    "entropy-A": {
        "model": "A", "alpha": 1.0, "beta": 1.0, "potential": "linear",
        "initial": {"kind": "affine", "a": -0.1, "b": 1.2},
        "n": 200, "dt": _PAPER_DT, "t_end": 6.0,
        "emit": ["entropy", "summary", "svg"],
    },
    "entropy-A-gamma0": {
        "model": "A", "alpha": 1.0, "beta": 1.0, "potential": "scaled-linear",
        "gamma": 0.0,
        "initial": {"kind": "affine", "a": -0.1, "b": 1.2},
        "n": 200, "dt": _PAPER_DT, "t_end": 6.0,
        "emit": ["entropy", "summary"],
    },
    "evolution-B": {
        "model": "B", "alpha": 1.0, "beta": 0.9, "potential": "linear",
        "initial": {"kind": "affine", "a": -0.1, "b": 1.2},
        "n": 200, "dt": _PAPER_DT, "t_end": 20.0,
        "snapshot_times": [0.0, 0.05, 1.5, 20.0],
        "emit": ["snapshots", "entropy", "summary", "svg"],
    },
    "entropy-B": {
        "model": "B", "alpha": 1.0, "beta": 0.9, "potential": "linear",
        "initial": {"kind": "affine", "a": -0.1, "b": 1.2},
        "n": 200, "dt": _PAPER_DT, "t_end": 15.0,
        "emit": ["entropy", "summary", "svg"],
    },
    "evolution-C": {
        "model": "C", "alpha": 1.0, "beta": 0.9, "potential": "linear",
        "initial": {"kind": "parabola"},
        "n": 200, "dt": _PAPER_DT, "t_end": 3.7,
        "snapshot_times": [0.0, 0.05, 0.35, 3.7],
        "emit": ["snapshots", "entropy", "summary", "svg"],
    },
    "entropy-C": {
        "model": "C", "alpha": 1.0, "beta": 0.9, "potential": "linear",
        "initial": {"kind": "parabola"},
        "n": 200, "dt": _PAPER_DT, "t_end": 3.7,
        "emit": ["entropy", "summary", "svg"],
    },
    "mass1": {
        "model": "A", "alpha": 1.0, "beta": 0.9, "potential": "linear",
        "initial": {"kind": "mass1"},
        "n": 200, "dt": _PAPER_DT, "t_end": 6.0,
        "emit": ["entropy", "mass", "summary", "svg"],
    },
    "mass2": {
        "model": "A", "alpha": 1.0, "beta": 0.9, "potential": "linear",
        "initial": {"kind": "mass2"},
        "n": 200, "dt": _PAPER_DT, "t_end": 6.0,
        "emit": ["entropy", "mass", "summary", "svg"],
    },
}


def preset_config(name: str, overrides: Optional[dict] = None) -> RunConfig:
    """Configuration of a named preset, optionally with overridden fields."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    data = dict(PRESETS[name])
    if overrides:
        data.update(overrides)
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# mass evolution

@dataclass(frozen=True)
class MassEvolutionReport:
    """Initial/final masses and the interior extremum of the mass series.

    Headline masses use the node-average quadrature (the convention of the
    reference tabulations); the trapezoid values are reported alongside.
    """

    preset: str
    initial_mass: float
    final_mass: float
    extremum_kind: str  # "maximum" or "minimum"
    extremum_time: float
    extremum_value: float
    initial_mass_trapezoid: float
    final_mass_trapezoid: float
    trajectory: Trajectory

    def json_dict(self) -> dict:
        def clean(x: float):
            return x if math.isfinite(x) else None

        return {
            "preset": self.preset,
            "initial_mass": self.initial_mass,
            "final_mass": self.final_mass,
            "extremum_kind": self.extremum_kind,
            "extremum_time": clean(self.extremum_time),
            "extremum_value": clean(self.extremum_value),
            "initial_mass_trapezoid": self.initial_mass_trapezoid,
            "final_mass_trapezoid": self.final_mass_trapezoid,
        }


def find_interior_extremum(times: np.ndarray, series: np.ndarray):
    """Interior extremum of a sampled series: (kind, time, value).

    Picks whichever of the interior global maximum/minimum escapes the
    band spanned by the first and last samples the furthest.
    """
    ends_lo = min(series[0], series[-1])
    ends_hi = max(series[0], series[-1])
    imax = int(np.argmax(series))
    imin = int(np.argmin(series))
    candidates = []
    if 0 < imax < series.size - 1 and series[imax] > ends_hi:
        candidates.append(("maximum", series[imax] - ends_hi, imax))
    if 0 < imin < series.size - 1 and series[imin] < ends_lo:
        candidates.append(("minimum", ends_lo - series[imin], imin))
    if not candidates:
        return None
    kind, _, idx = max(candidates, key=lambda c: c[1])
    return kind, float(times[idx]), float(series[idx])


def mass_evolution(
    preset: str,
    out_dir: Optional[str] = None,
    overrides: Optional[dict] = None,
) -> MassEvolutionReport:
    """Run the ``mass1`` or ``mass2`` preset and report the mass extremum."""
    if preset not in ("mass1", "mass2"):
        raise ConfigError(f"mass evolution presets are 'mass1' and 'mass2', got {preset!r}")
    config = preset_config(preset, overrides)
    summary, trajectory = execute(config)
    extremum = find_interior_extremum(trajectory.times, trajectory.node_mass)
    if extremum is None:
        kind, t_ext, v_ext = "none", math.nan, math.nan
    else:
        kind, t_ext, v_ext = extremum
    report = MassEvolutionReport(
        preset=preset,
        initial_mass=float(trajectory.node_mass[0]),
        final_mass=float(trajectory.node_mass[-1]),
        extremum_kind=kind,
        extremum_time=t_ext,
        extremum_value=v_ext,
        initial_mass_trapezoid=float(trajectory.mass[0]),
        final_mass_trapezoid=float(trajectory.mass[-1]),
        trajectory=trajectory,
    )
    if out_dir is not None:
        payload = summary_json_dict(summary)
        payload["mass_evolution"] = report.json_dict()
        series = [("node-average mass", trajectory.times, trajectory.node_mass)]
        charts = {"mass.svg": (series, "mass evolution", "t", "mass")}
        _write_artifacts(Path(out_dir), _series_tables(trajectory), payload,
                         charts if "svg" in config.emit else None)
    return report


# ---------------------------------------------------------------------------
# gamma sweep

@dataclass(frozen=True)
class SweepRow:
    gamma: float
    fitted_rate: float
    r_squared: float


def _sweep_member(base: dict, gamma: float) -> SweepRow:
    data = dict(base)
    data["potential"] = "scaled-linear"
    data["gamma"] = gamma
    data.pop("outputs", None)
    data.pop("emit", None)
    config = config_from_dict(data)
    summary, _ = execute(config)
    if summary.fitted_rate is None:
        raise FitError(f"gamma={gamma}: entropy series could not be fitted")
    return SweepRow(gamma, summary.fitted_rate, summary.fit.r_squared)


def gamma_sweep(
    base: RunConfig, gammas: Sequence[float], out_dir: Optional[str] = None
) -> list[SweepRow]:
    """One model-A run per drift scaling factor; returns rows sorted by gamma.

    The runs execute one after another in the calling process, in
    increasing gamma. If a member fails, the completed rows are flushed to
    sweep.csv before the failure propagates.
    """
    if base.d.model.model != "A":
        raise ConfigError("the drift sweep is defined for model A")
    gs = [float(g) for g in gammas]
    if not gs:
        raise ConfigError("no gamma values given")
    for g in gs:
        if not math.isfinite(g):
            raise ConfigError(f"gamma values must be finite, got {g}")
    rows: list[SweepRow] = []
    try:
        for g in sorted(gs):
            rows.append(_sweep_member(base.raw, g))
    finally:
        if out_dir is not None:
            table = np.array([(r.gamma, r.fitted_rate, r.r_squared) for r in rows]).reshape(-1, 3)
            _write_artifacts(Path(out_dir), {"sweep.csv": ("gamma,fitted_rate,r_squared", table.T)})
    return rows
