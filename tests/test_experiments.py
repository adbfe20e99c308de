import json
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from fokker_flux import (
    ConfigError,
    FitError,
    InvalidGridError,
    InvalidInitialError,
    InvalidModelError,
    ShapeError,
    StabilityError,
    config_from_dict,
    execute,
    gamma_sweep,
    mass_evolution,
    preset_config,
    run,
    stationary_closed,
)
import fokker_flux.experiments as experiments
from fokker_flux.cli import main
from fokker_flux.experiments import CSV_ROWS, _write_artifacts
from fokker_flux.transient import _ExplicitStepper

TINY = {
    "model": "A",
    "alpha": 1.0,
    "beta": 0.9,
    "potential": "linear",
    "initial": {"kind": "affine", "a": -0.1, "b": 1.2},
    "n": 60,
    "dt": 5e-5,
    "t_end": 0.05,
    "snapshot_times": [0.0, 0.05],
    "observe_every": 100,
    "emit": ["snapshots", "entropy", "mass", "summary", "svg"],
}


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# ------------------------------------------------------------ validation

def test_config_requires_model():
    with pytest.raises(ConfigError, match="model"):
        config_from_dict({"alpha": 1.0, "beta": 1.0, "t_end": 1.0})


def test_config_beta_zero_cites_assumption():
    data = dict(TINY, beta=0.0)
    with pytest.raises(ConfigError, match="beta >= beta_0 > 0"):
        config_from_dict(data)


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown configuration fields"):
        config_from_dict(dict(TINY, typo=1))


def test_config_snapshot_times_within_range():
    with pytest.raises(ConfigError, match="snapshot"):
        execute(config_from_dict(dict(TINY, snapshot_times=[1.0])))


def test_snapshot_one_ulp_past_t_end_is_the_final_step():
    late = math.nextafter(TINY["t_end"], math.inf)
    _, tr = execute(config_from_dict(dict(TINY, snapshot_times=[late])))
    [(t, snap)] = tr.snapshots
    assert t == late
    np.testing.assert_array_equal(snap.values, tr.final.values)


def test_config_gamma_needs_scaled_potential():
    with pytest.raises(ConfigError, match="scaled-linear"):
        config_from_dict(dict(TINY, gamma=0.5))
    cfg = config_from_dict(dict(TINY, gamma=0.5, potential="scaled-linear"))
    assert cfg.d.model.potential.slope == 0.5


def test_config_validates_initial_payload():
    with pytest.raises(ConfigError, match="tabulated initial"):
        config_from_dict(dict(TINY, initial={"kind": "tabulated"}))
    for key in ("initial", "potential"):
        with pytest.raises(ConfigError, match=f"tabulated {key} .* list of numbers"):
            config_from_dict(dict(TINY, **{key: {"kind": "tabulated", "values": ["a"]}}))
    with pytest.raises(ConfigError, match="coefficient"):
        config_from_dict(dict(TINY, initial={"kind": "affine", "a": "steep"}))
    cfg = config_from_dict(dict(TINY, initial={"kind": "tabulated", "values": [1.0] * 60}))
    assert cfg.initial.values.shape == (60,)


def test_config_rejects_bad_emit_and_scheme():
    with pytest.raises(ConfigError, match="emit"):
        config_from_dict(dict(TINY, emit=["plots"]))
    for emit in (5, "svg"):
        with pytest.raises(ConfigError, match="emit must be a list of strings"):
            config_from_dict(dict(TINY, emit=emit))
    with pytest.raises(ConfigError, match="implicit-entropy"):
        config_from_dict(dict(TINY, scheme="implicit-entropy"))


def test_config_tabulated_potential_needs_its_values():
    # the bare kind names no values: rejected at parse, not as non-finite values later
    with pytest.raises(ConfigError, match="tabulated potential needs a nonempty 'values' list"):
        config_from_dict(dict(TINY, potential="tabulated"))


@pytest.mark.parametrize("field, value, message", [
    ("potential", {"kind": "scaled-linear", "gamma": 2.0}, "gamma is a top-level field"),
    ("potential", {"kind": "linear", "values": [0.0] * 60}, r"potential keys \['values'\]"),
    ("potential", {"kind": ["x"], "values": [0.0] * 60}, r"potential keys \['values'\]"),
    ("initial", {"kind": "affine", "A": 5}, r"initial keys \['A'\] for kind 'affine'"),
    ("initial", {"kind": "parabola", "a": 5}, r"initial keys \['a'\] for kind 'parabola'"),
    ("initial", {"kind": "mass1", "values": [1.0] * 60}, r"initial keys \['values'\]"),
    ("initial", {"kind": ["x"], "a": 5}, r"initial keys \['a'\]"),
], ids=["potential-gamma", "linear-values", "list-kind-values", "affine-A", "parabola-a",
        "mass1-values", "list-kind-a"])
def test_config_rejects_keys_the_kind_does_not_read(field, value, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(dict(TINY, **{field: value}))


def test_config_outputs_must_be_a_string():
    with pytest.raises(ConfigError, match="outputs must be a directory name"):
        config_from_dict(dict(TINY, outputs=["a"]))


def test_config_builds_the_objects_that_check_its_values():
    # each value is checked once, by the object built from it, before the parser returns
    cases = [
        (dict(TINY, model="D"), InvalidModelError, "model must be one of"),
        (dict(TINY, alpha=math.inf), InvalidModelError, "alpha >= alpha_0 > 0"),
        (dict(TINY, potential={"kind": "quartic"}), InvalidModelError, "unknown potential kind"),
        (dict(TINY, potential="scaled-linear", gamma=math.nan), InvalidModelError, "finite"),
        (dict(TINY, initial="bump"), InvalidInitialError, "unknown initial kind"),
        (dict(TINY, initial={"kind": "tabulated", "values": [1.0] * 59}), ShapeError,
         r"needs shape \(60,\), got \(59,\)"),
        (dict(TINY, model="C"), InvalidInitialError, "box"),  # the affine default reaches 1.2
        (dict(TINY, n=2), InvalidGridError, "at least 3 nodes"),
        (dict(TINY, n=2**62), InvalidGridError, "cannot allocate"),
        (dict(TINY, dt=0.0), ConfigError, "time step must be positive"),
        (dict(TINY, t_end=-1.0, snapshot_times=[]), ConfigError, "final time"),
        (dict(TINY, observe_every=0), ConfigError, "observer stride"),
        (dict(TINY, dt="auto", observe_every=0), ConfigError, "observer stride"),
        (dict(TINY, observe_every=2**63), ConfigError, r"below 2\*\*63"),
        (dict(TINY, scheme="magic"), ConfigError, "unknown scheme"),
    ]
    for data, error, message in cases:
        with pytest.raises(error, match=message):
            config_from_dict(data)


def test_config_auto_dt_resolves_to_half_bound():
    cfg = config_from_dict(dict(TINY, dt="auto"))
    assert cfg.solver.dt == pytest.approx(0.5 * cfg.d.max_dt)


# ------------------------------------------------------------- artifacts

def test_run_writes_artifacts_and_echoes_config(tmp_path):
    cfg = config_from_dict(TINY)
    out = tmp_path / "artifacts"
    summary = run(cfg, out_dir=str(out))
    for name in ("entropy.csv", "mass.csv", "snapshots.csv", "summary.json",
                 "density.svg", "entropy.svg"):
        assert (out / name).exists(), name

    payload = json.loads((out / "summary.json").read_text())
    assert payload["config"] == TINY  # exact echo round-trip
    assert payload["steps"] == summary.steps == 1000
    assert "wall_clock" not in json.dumps(payload)
    assert payload["eigen"]["symmetric"]["rate"] == pytest.approx(
        summary.eigen["symmetric"]["rate"]
    )

    header, *rows = (out / "entropy.csv").read_text().strip().split("\n")
    assert header == "t,entropy,mass,l1,residual"
    assert len(rows) == 11  # samples at steps 0, 100, ..., 1000
    first = [float(tok) for tok in rows[0].split(",")]
    assert first[0] == 0.0 and first[2] == pytest.approx(1.15)

    snap_header = (out / "snapshots.csv").read_text().split("\n", 1)[0]
    assert snap_header == "x,rho_t=0,rho_t=0.05,rho_inf"

    import xml.etree.ElementTree as ET

    for name in ("density.svg", "entropy.svg"):
        ET.fromstring((out / name).read_text())  # well-formed XML


def test_run_is_deterministic(tmp_path):
    cfg = config_from_dict(TINY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(cfg, out_dir=str(out1))
    run(cfg, out_dir=str(out2))
    for name in ("entropy.csv", "mass.csv", "snapshots.csv", "summary.json",
                 "density.svg", "entropy.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("name, overrides", [
    ("entropy-A", {"dt": "auto"}),
    ("evolution-C", {"snapshot_times": [0.0, 0.01]}),
    ("entropy-C", {"scheme": "implicit-entropy", "dt": 1e-3}),
    ("mass2", {}),
])
def test_a_run_builds_its_initial_field_once(name, overrides, monkeypatch):
    # the parser builds the field and execute starts from it
    built = []
    build = experiments.build_initial

    def counted_build(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(experiments, "build_initial", counted_build)
    execute(preset_config(name, {"n": 40, "t_end": 0.01, **overrides}))
    assert len(built) == 1


def test_csv_full_precision_roundtrip(tmp_path):
    out = tmp_path / "o"
    run(config_from_dict(TINY), out_dir=str(out))
    rows = (out / "entropy.csv").read_text().strip().split("\n")[1:]
    masses = np.array([float(r.split(",")[2]) for r in rows])
    summary = json.loads((out / "summary.json").read_text())
    assert masses[-1] == summary["final_mass"]  # 17 significant digits survive


def test_csv_cells_are_formatted_per_value(tmp_path):
    # one row format over Python floats writes what a per-cell f"{v:.17g}"
    # of the numpy values writes, signed zero, subnormals and non-finites included
    values = np.array([0.0, -0.0, 1 / 3, -2.5e-7, 5e-324, 2.2250738585072014e-308,
                       1e300, 123456789.0, math.pi, -math.inf, math.nan, 7.0])
    columns = (values[:6], values[6:])
    path = tmp_path / "cells.csv"
    _write_artifacts(tmp_path, {"cells.csv": ("a,b", columns)})
    expected = ["a,b"] + [f"{a:.17g},{b:.17g}" for a, b in zip(*columns)]
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"
    _write_artifacts(tmp_path, {"cells.csv": ("a,b", (values[:0], values[:0]))})
    assert path.read_text(encoding="utf-8") == "a,b\n"
    # rows are formatted CSV_ROWS at a time: every row once, in order
    long = np.random.default_rng(2).standard_normal((3, 2 * CSV_ROWS + 3)) * 1e3
    _write_artifacts(tmp_path, {"cells.csv": ("p,q,r", long)})
    expected = ["p,q,r"] + [",".join(f"{v:.17g}" for v in row) for row in long.T]
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


def test_mass_and_entropy_csv_are_formatted_per_value(tmp_path):
    # the two series tables share the t and mass arrays, whose cells are
    # formatted once; both files still read what a per-cell f"{v:.17g}"
    # writes, across CSV_ROWS chunks
    awkward = [0.0, -0.0, 1 / 3, -2.5e-7, 5e-324, 2.2250738585072014e-308,
               1e300, 123456789.0, math.pi, -math.inf, math.nan, 7.0]
    rows = 2 * CSV_ROWS + 3
    rng = np.random.default_rng(4)
    series = {name: rng.standard_normal(rows) * 1e3
              for name in ("times", "entropy", "mass", "node_mass", "l1", "residual")}
    series["times"][:12] = awkward
    series["mass"][-12:] = awkward[::-1]
    trajectory = types.SimpleNamespace(**series)
    _write_artifacts(tmp_path, experiments._series_tables(trajectory))
    for name, header, columns in (
        ("mass.csv", "t,mass,node_average_mass", ("times", "mass", "node_mass")),
        ("entropy.csv", "t,entropy,mass,l1,residual",
         ("times", "entropy", "mass", "l1", "residual")),
    ):
        cells = zip(*(series[c] for c in columns))
        expected = [header] + [",".join(f"{v:.17g}" for v in row) for row in cells]
        assert (tmp_path / name).read_text(encoding="utf-8") == "\n".join(expected) + "\n"
    empty = types.SimpleNamespace(**{name: values[:0] for name, values in series.items()})
    _write_artifacts(tmp_path, experiments._series_tables(empty))
    assert (tmp_path / "mass.csv").read_text(encoding="utf-8") == "t,mass,node_average_mass\n"


def test_tables_of_different_lengths_share_a_column(tmp_path):
    # a shared column sits at any place of its tables, a table may be shorter
    # than a chunk or empty, and the same writer makes the directory and
    # writes the summary and the charts
    rng = np.random.default_rng(5)
    t, a, b = rng.standard_normal((3, 2 * CSV_ROWS + 3))
    t[:3] = [-0.0, 5e-324, math.nan]
    short = rng.standard_normal(5)
    tables = {
        "first.csv": ("t,a", (t, a)),
        "second.csv": ("b,t,t", (b, t, t)),
        "short.csv": ("s", (short,)),
        "none.csv": ("z", (short[:0],)),
    }
    out = tmp_path / "made" / "here"
    chart = ([("s", np.arange(5.0), short)], "s", "i", "s", True)
    _write_artifacts(out, tables, {"b": [1, None], "a": 0.5}, {"s.svg": chart})
    for name, (header, columns) in tables.items():
        expected = [header] + [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
        assert (out / name).read_text(encoding="utf-8") == "\n".join(expected) + "\n"
    assert (out / "summary.json").read_text(encoding="utf-8") == (
        '{\n  "a": 0.5,\n  "b": [\n    1,\n    null\n  ]\n}\n'
    )
    assert (out / "s.svg").read_text(encoding="utf-8") == experiments.line_chart(*chart)
    assert sorted(p.name for p in out.iterdir()) == [
        "first.csv", "none.csv", "s.svg", "second.csv", "short.csv", "summary.json",
    ]


def test_run_and_mass_evolution_write_the_same_series(tmp_path):
    # run writes the series that emit asks for, both or each alone;
    # mass_evolution always writes both
    overrides = {"n": 40, "t_end": 0.02, "observe_every": 1}
    mass_evolution("mass1", out_dir=str(tmp_path / "m"), overrides=overrides)
    run(preset_config("mass1", overrides), out_dir=str(tmp_path / "r"))
    for name in ("entropy", "mass"):
        run(preset_config("mass1", {**overrides, "emit": [name]}), out_dir=str(tmp_path / name))
    for name in ("entropy.csv", "mass.csv"):
        written = (tmp_path / "m" / name).read_bytes()
        assert (tmp_path / "r" / name).read_bytes() == written
        assert (tmp_path / name.split(".")[0] / name).read_bytes() == written
    assert not (tmp_path / "entropy" / "mass.csv").exists()
    assert not (tmp_path / "mass" / "entropy.csv").exists()


def test_summary_schema_keys(tmp_path):
    out = tmp_path / "o"
    run(config_from_dict(TINY), out_dir=str(out))
    payload = json.loads((out / "summary.json").read_text())
    expected = {
        "config", "fitted_rate", "fit_window", "fit_r_squared", "fit_intercept",
        "predicted_rate", "predicted_rate_provenance", "final_sup_distance",
        "final_mass", "final_mass_node_average", "stationary_mass_closed",
        "stationary_mass_numeric", "eigen", "steps", "dt", "min_value", "max_value",
    }
    assert set(payload) == expected
    assert payload["predicted_rate_provenance"] == "spectral"


def test_zero_length_run_has_no_fit():
    summary, trajectory = execute(config_from_dict(dict(TINY, t_end=0.0, snapshot_times=[])))
    assert trajectory.times.size == 1
    assert summary.fitted_rate is None and summary.fit is None
    assert summary.predicted_rate > 0


def test_summary_min_max_track_iterates():
    summary, trajectory = execute(config_from_dict(TINY))
    assert summary.min_value <= np.min(trajectory.final.values)
    assert summary.max_value >= np.max(trajectory.final.values)
    assert summary.fitted_rate is None or summary.fitted_rate > 0


# ---------------------------------------------------------------- presets

def test_all_presets_produce_valid_configs():
    from fokker_flux.experiments import PRESETS

    for name in PRESETS:
        cfg = preset_config(name)
        assert cfg.initial.grid is cfg.d.grid


def test_preset_names_and_overrides():
    cfg = preset_config("entropy-A", {"n": 80, "dt": 5e-5, "t_end": 0.1})
    model = cfg.d.model
    assert model.model == "A" and model.alpha == 1.0 and model.beta == 1.0
    with pytest.raises(ConfigError):
        preset_config("nope")


def test_evolution_A_preset_reaches_equilibrium():
    # reference experiment: n = 200, dt = 5e-6, equilibrium by t = 9
    summary, trajectory = execute(preset_config("evolution-A"))
    closed = stationary_closed(preset_config("evolution-A").d)
    assert summary.final_sup_distance < 1e-3
    assert np.max(np.abs(trajectory.final.values - closed.field.values)) < 1e-3
    assert [t for t, _ in trajectory.snapshots] == [0.0, 0.05, 1.5, 9.0]
    assert summary.eigen is not None


def test_implicit_scheme_through_config():
    cfg = config_from_dict({
        "model": "C", "alpha": 1.0, "beta": 0.9, "potential": "linear",
        "initial": {"kind": "parabola"},
        "n": 80, "dt": 0.01, "t_end": 4.0, "observe_every": 20,
        "scheme": "implicit-entropy",
    })
    summary, trajectory = execute(cfg)
    assert 0.0 < summary.min_value and summary.max_value < 1.0
    assert np.all(np.diff(trajectory.entropy) <= 1e-12)
    assert summary.final_sup_distance < 5e-3


def test_mass_evolution_coarse_structure(tmp_path):
    report = mass_evolution(
        "mass2",
        out_dir=str(tmp_path / "m2"),
        overrides={"n": 60, "dt": 5e-5, "t_end": 0.6, "observe_every": 100},
    )
    assert report.extremum_kind == "minimum"
    assert 0.0 < report.extremum_time < 0.6
    assert report.extremum_value < min(report.initial_mass, report.final_mass)
    payload = json.loads((tmp_path / "m2" / "summary.json").read_text())
    assert payload["mass_evolution"]["extremum_kind"] == "minimum"
    header = (tmp_path / "m2" / "mass.csv").read_text().split("\n", 1)[0]
    assert header == "t,mass,node_average_mass"


def test_cli_preset_mass1(tmp_path, capsys):
    out = tmp_path / "m1"
    assert main(["preset", "mass1", "--out", str(out), "--set", "t_end=0.2"]) == 0
    assert "interior maximum 1.24597 at t=0.15" in capsys.readouterr().out
    for name in ("entropy.csv", "mass.csv", "mass.svg", "summary.json"):
        assert (out / name).exists()
    payload = json.loads((out / "summary.json").read_text())
    assert payload["mass_evolution"]["extremum_kind"] == "maximum"


def test_mass_evolution_rejects_other_presets():
    with pytest.raises(ConfigError):
        mass_evolution("entropy-A")


# ------------------------------------------------------------------ sweep

SWEEP_BASE = {
    "model": "A",
    "alpha": 1.0,
    "beta": 1.0,
    "potential": "scaled-linear",
    "gamma": 1.0,
    "initial": {"kind": "affine", "a": -0.1, "b": 1.2},
    "n": 100,
    "dt": 2e-5,
    "t_end": 3.0,
    "observe_every": 1000,
}


def test_gamma_sweep_serial(tmp_path):
    base = config_from_dict(SWEEP_BASE)
    rows = gamma_sweep(base, [1.0, 0.5, 0.0], out_dir=str(tmp_path))
    assert [r.gamma for r in rows] == [0.0, 0.5, 1.0]  # deterministic merge order
    assert rows[0].fitted_rate == pytest.approx(1.4802, rel=0.05)
    assert rows[2].fitted_rate == pytest.approx(2.33, rel=0.05)
    # empirically the slope grows with the drift scaling (recorded, not theory)
    assert rows[0].fitted_rate <= rows[1].fitted_rate <= rows[2].fitted_rate
    text = (tmp_path / "sweep.csv").read_text()
    assert text.startswith("gamma,fitted_rate,r_squared\n")
    assert len(text.strip().split("\n")) == 4


def test_gamma_sweep_flushes_partials_on_failure(tmp_path):
    # a run too short to fit: every member fails, header still flushed
    base = config_from_dict(dict(SWEEP_BASE, t_end=0.001, dt=5e-5, n=60))
    with pytest.raises(FitError):
        gamma_sweep(base, [0.0], out_dir=str(tmp_path))
    assert (tmp_path / "sweep.csv").read_text().startswith("gamma,fitted_rate")


def test_gamma_sweep_flushes_completed_rows_before_a_failure(tmp_path, monkeypatch):
    member = experiments._sweep_member

    def fail_at_one(raw, gamma):
        if gamma == 1.0:
            raise RuntimeError("member crashed")
        return member(raw, gamma)

    monkeypatch.setattr(experiments, "_sweep_member", fail_at_one)
    base = config_from_dict(dict(SWEEP_BASE, n=60, dt=5e-5, t_end=1.0, observe_every=200))
    with pytest.raises(RuntimeError, match="member crashed"):
        gamma_sweep(base, [1.0, 0.5, 0.0], out_dir=str(tmp_path))
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "gamma,fitted_rate,r_squared"
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 0.5]


def test_gamma_sweep_members_equal_single_runs():
    # the members are built from the base's input mapping as given
    data = dict(
        SWEEP_BASE, potential="linear", initial="mass1", n=60, dt=5e-5, t_end=1.0,
        observe_every=200, snapshot_times=[0.5], emit=["entropy"], outputs="unused",
    )
    data.pop("gamma")
    rows = gamma_sweep(config_from_dict(data), [0.5, -1.0, 0.0])
    for row, gamma in zip(rows, [-1.0, 0.0, 0.5]):
        summary, _ = execute(config_from_dict(dict(data, potential="scaled-linear", gamma=gamma)))
        assert (row.gamma, row.fitted_rate, row.r_squared) == (
            gamma, summary.fitted_rate, summary.fit.r_squared
        )


def test_gamma_sweep_requires_model_A():
    cfg = config_from_dict(dict(SWEEP_BASE, model="B", potential="linear"))
    with pytest.raises(ConfigError):
        gamma_sweep(cfg, [0.0, 1.0])


def test_gamma_sweep_rejects_bad_values():
    base = config_from_dict(SWEEP_BASE)
    with pytest.raises(ConfigError):
        gamma_sweep(base, [])
    with pytest.raises(ConfigError):
        gamma_sweep(base, [math.nan])


def test_gamma_sweep_runs_in_the_calling_process(monkeypatch):
    def no_fork():
        raise OSError("fork is not available")

    monkeypatch.setattr(os, "fork", no_fork)
    base = config_from_dict(dict(SWEEP_BASE, n=60, dt=5e-5, t_end=1.0, observe_every=200))
    rows = gamma_sweep(base, [0.5, 0.0, 1.0])
    assert [r.gamma for r in rows] == [0.0, 0.5, 1.0]
    assert all(r.fitted_rate > 0 for r in rows)


def test_the_run_path_calls_no_lapack(monkeypatch, tmp_path):
    def lapack(*args, **kwargs):
        raise AssertionError("the run path calls no LAPACK routine")

    monkeypatch.setattr(np.linalg, "lstsq", lapack)
    monkeypatch.setattr(np.linalg, "svd", lapack)
    short = {"t_end": 0.02, "observe_every": 7}
    implicit = {"scheme": "implicit-entropy", "dt": 1e-3, "t_end": 0.05, "observe_every": 3}
    for name, overrides in (("entropy-A", short), ("entropy-B", short), ("entropy-C", short),
                            ("entropy-C", implicit)):
        summary, _ = execute(preset_config(name, overrides))
        assert summary.fit is not None
    for name in ("mass1", "mass2"):
        mass_evolution(name, out_dir=str(tmp_path / name),
                       overrides={"t_end": 0.02, "observe_every": 1})
        assert json.loads((tmp_path / name / "summary.json").read_text())["fitted_rate"] > 0
    base = config_from_dict(dict(SWEEP_BASE, n=60, dt=5e-5, t_end=1.0, observe_every=200))
    assert len(gamma_sweep(base, [0.0, 1.0], out_dir=str(tmp_path / "sweep"))) == 2


def test_import_loads_no_process_pool():
    package_root = Path(experiments.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    probe = (
        "import sys, fokker_flux; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


# -------------------------------------------------------------------- CLI

def test_cli_run_success(tmp_path, capsys):
    cfg_path = write_config(tmp_path, TINY)
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "summary.json").exists()
    assert "wall clock" in capsys.readouterr().out


def test_cli_run_and_preset_print_the_summary_block(tmp_path, capsys):
    def printed():
        return re.sub(r"wall clock: \d+\.\d{3} s", "wall clock: T s", capsys.readouterr().out)

    data = dict(TINY, t_end=0.5)
    data.pop("snapshot_times")
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 0
    assert printed() == (
        f"run finished: 10000 steps, wrote artifacts to {out}\n"
        "wall clock: T s\n"
        "fitted rate: 2.00709 (predicted 1.36919, spectral)\n"
    )
    out = tmp_path / "p"
    overrides = ["n=60", "dt=5e-5", "t_end=0.5", "observe_every=100"]
    code = main(["preset", "entropy-A", "--out", str(out),
                 *(arg for pair in overrides for arg in ("--set", pair))])
    assert code == 0
    assert printed() == (
        f"preset entropy-A: 10000 steps, wrote artifacts to {out}\n"
        "wall clock: T s\n"
        "fitted rate: 2.21006 (predicted 1.48035, spectral)\n"
    )
    data["t_end"] = 0.05  # too short to fit: no rate line
    assert main(["run", "--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 0
    assert printed() == f"run finished: 1000 steps, wrote artifacts to {out}\nwall clock: T s\n"


def test_cli_nan_snapshot_time_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, dict(TINY, snapshot_times=[math.nan]))
    assert "NaN" in cfg_path.read_text(encoding="utf-8")  # json.loads reads it back as nan
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "snapshot time nan" in capsys.readouterr().err


def test_cli_invalid_config_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, dict(TINY, beta=0.0))
    assert main(["run", "--config", str(cfg_path)]) == 2
    assert "beta >= beta_0 > 0" in capsys.readouterr().err


@pytest.mark.parametrize("data, node", [
    (dict(TINY, model="B", alpha=1e308), "node 0"),  # alpha/beta exp(V) overflows
    (dict(TINY, model="C", alpha=2**62, initial="parabola"), "node 0 is 1.0"),  # rounds to 1
], ids=["B-overflow", "C-rounds-to-1"])
def test_cli_stationary_density_outside_the_entropy_domain_exits_2(tmp_path, capsys, data, node):
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", str(write_config(tmp_path, data)),
                     "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "stationary density must be finite, positive" in err and node in err
    assert not (tmp_path / "x").exists()


def test_cli_steep_potential_exits_2(tmp_path, capsys):
    # exp(-V) overflows at the outflow end: a configuration error naming the
    # node, raised when the potential is evaluated, with no overflow warning
    data = {"model": "A", "alpha": 1, "beta": 1, "potential": "scaled-linear",
            "gamma": -800, "n": 20, "dt": 1e-5, "t_end": 0.001}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", str(write_config(tmp_path, data)),
                     "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "potential too steep: exp(-V) is inf at node 17" in err
    assert not (tmp_path / "x").exists()


def test_cli_dt_breaking_positivity_exits_2(tmp_path, capsys):
    # V' = 0 at dt = max_dt: within the stability bound, outside T >= 0
    limit = preset_config("entropy-A-gamma0").d.max_dt
    code = main(["preset", "entropy-A-gamma0", "--out", str(tmp_path / "x"),
                 "--set", f"dt={limit!r}", "--set", "t_end=0.001"])
    assert code == 2
    assert "T >= 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("dt", ["\"auto\"", "1e-9"])
def test_cli_mesh_peclet_above_one_names_the_grid_exits_2(tmp_path, capsys, dt):
    # V' = 16 on n = 8: dx |V'| / 2 = 8/7, so T[0, 1] < 0 at every dt;
    # n = 9 brings it to 1
    code = main(["preset", "entropy-A", "--out", str(tmp_path / "x"), "--set", "n=8",
                 "--set", 'potential="scaled-linear"', "--set", "gamma=16", "--set", f"dt={dt}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "mesh Peclet number dx*|V'|/2 = 1.14286" in err
    assert "refine the grid to n >= 9" in err and "lower dt" not in err
    assert not (tmp_path / "x").exists()
    code = main(["preset", "entropy-A", "--out", str(tmp_path / "y"), "--set", "n=9",
                 "--set", 'potential="scaled-linear"', "--set", "gamma=16",
                 "--set", "t_end=0.001"])
    assert code == 0


def test_cli_model_C_reaction_bound_exits_2(tmp_path, capsys):
    # beta = 1e30: dt 1e-4 is inside max_dt, but dt (alpha + beta e^{-V}) > 1
    # would turn the density negative and then non-finite
    code = main(["preset", "entropy-C", "--out", str(tmp_path / "x"), "--set", "n=10",
                 "--set", "dt=1e-4", "--set", "t_end=0.01", "--set", "beta=1e30"])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error: dt=0.0001 breaks the reaction bound" in err
    assert "lower dt to 1.000000e-30" in err
    assert not (tmp_path / "x").exists()


def test_cli_model_B_reaction_bound_exits_2(tmp_path, capsys):
    # beta = 1e30: the certificate T >= 0 fails at half the transport bound,
    # and the error names the broken reaction bound, not a step-matrix entry
    code = main(["preset", "entropy-B", "--out", str(tmp_path / "x"), "--set", "n=10",
                 "--set", "t_end=0.01", "--set", "beta=1e30", "--set", 'dt="auto"'])
    assert code == 2
    err = capsys.readouterr().err
    assert "breaks the reaction bound dt*max(beta*exp(-V)) <= 1 of model B" in err
    assert "lower dt to 1.000000e-30" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("name", ["entropy-A", "entropy-B", "entropy-C"])
@pytest.mark.parametrize("overrides", [{"dt": 1e-2}, {"dt": 1e-6, "beta": 1e30}],
                         ids=["above-max-dt", "above-reaction-bound"])
def test_mesh_peclet_is_checked_first_for_every_model(name, overrides):
    # dx |V'| / 2 = 8/7 on n = 8: no dt helps, whichever other bound dt breaks
    config = preset_config(name, {"n": 8, "potential": "scaled-linear", "gamma": 16,
                                  "t_end": 0.001, **overrides})
    with pytest.raises(StabilityError, match=r"^the mesh Peclet number .*1\.14286.*n >= 9$"):
        execute(config)


def test_model_C_mesh_peclet_is_checked():
    with pytest.raises(StabilityError, match=r"Peclet.*1\.14286.*n >= 9"):
        execute(preset_config("entropy-C", {"n": 8, "potential": "scaled-linear",
                                            "gamma": -16, "t_end": 0.001}))


def test_cli_unallocatable_sample_series_exits_2(tmp_path, capsys):
    # 6e15 samples of 8 bytes each: no address space holds one series
    code = main(["preset", "entropy-A", "--out", str(tmp_path / "x"),
                 "--set", "dt=1e-15", "--set", "observe_every=1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "cannot allocate the 6e+15 observer samples" in err
    assert "raise observe_every or dt" in err
    assert not (tmp_path / "x").exists()


def test_cli_step_count_overflow_exits_2(tmp_path, capsys):
    # t_end / dt = 6 / 1e-320 overflows to inf: no step count to round
    code = main(["preset", "entropy-A", "--out", str(tmp_path / "x"), "--set", "dt=1e-320"])
    assert code == 2
    assert "t_end / dt finite" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_every_input_error_is_a_config_error():
    for error in (InvalidGridError, ShapeError, InvalidModelError, InvalidInitialError,
                  StabilityError):
        assert issubclass(error, ConfigError)
    assert not issubclass(FitError, ConfigError)


def test_cli_step_indices_past_int64_exit_2(tmp_path, capsys):
    out = str(tmp_path / "x")
    code = main(["preset", "entropy-A", "--out", out, "--set", f"observe_every={2**63}"])
    assert code == 2
    assert "observer stride must be at least 1 and below 2**63" in capsys.readouterr().err
    code = main(["preset", "entropy-A", "--out", out, "--set", "dt=1e-19", "--set", "t_end=1"])
    assert code == 2
    assert "t_end / dt finite and below 2**63" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    code = main(["preset", "entropy-A", "--out", out, "--set", "n=60", "--set", "dt=5e-5",
                 "--set", "t_end=0.01", "--set", f"observe_every={2**63 - 1}"])
    assert code == 0


def test_cli_grid_too_large_to_allocate_exits_2(tmp_path, capsys):
    code = main(["preset", "entropy-A", "--out", str(tmp_path / "x"), "--set", f"n={2**62}"])
    assert code == 2
    assert "cannot allocate a grid of n=4611686018427387904 nodes" in capsys.readouterr().err


def test_cli_unallocatable_propagator_exits_2(tmp_path, capsys, monkeypatch):
    # the dense (n + 1)^2 step matrix fails to allocate; no test requests a real
    # one that large, which an overcommitting system would grant and then fill
    def refuse(self, dt):
        raise MemoryError

    monkeypatch.setattr(_ExplicitStepper, "affine_matrix", refuse)
    code = main(["preset", "entropy-A", "--out", str(tmp_path / "x"),
                 "--set", "n=60", "--set", "t_end=0.01"])
    assert code == 2
    assert "step matrix of the propagator at n=60" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, text, message", [
    (["run"], "{", "is not valid JSON"),
    (["run"], "[1, 2]", "configuration must be a JSON object"),
    (["preset", "entropy-A", "--set", "n"], None, "--set expects KEY=VALUE, got 'n'"),
    (["sweep", "--gamma", "0,x"], json.dumps(SWEEP_BASE), "cannot parse --gamma list '0,x'"),
], ids=["not-json", "not-an-object", "set-without-equals", "bad-gamma-list"])
def test_cli_input_errors_exit_2(tmp_path, capsys, command, text, message):
    if text is not None:
        (tmp_path / "cfg.json").write_text(text, encoding="utf-8")
        command = command + ["--config", str(tmp_path / "cfg.json")]
    assert main(command + ["--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2


def test_cli_io_error_exits_4(tmp_path):
    cfg_path = write_config(tmp_path, TINY)
    clash = tmp_path / "file-not-dir"
    clash.write_text("x")
    assert main(["run", "--config", str(cfg_path), "--out", str(clash)]) == 4


def test_cli_eigen(capsys):
    assert main(["eigen", "--beta", "1.0", "--weights", "0.5,0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["symmetric"]["k"] == pytest.approx(0.8603, abs=1e-3)
    assert payload["friedrichs"]["rate"] == pytest.approx(1.8439, abs=2e-3)


def test_cli_eigen_weights_whose_product_overflows(capsys):
    assert main(["eigen", "--beta", "1", "--weights", "1e200,1e200"]) == 0
    assert json.loads(capsys.readouterr().out)["friedrichs"]["k"] == math.pi


def test_cli_eigen_bad_weights(capsys):
    assert main(["eigen", "--beta", "1.0", "--weights", "oops"]) == 2
    for beta in ("0", "-1", "nan"):
        assert main(["eigen", "--beta", beta]) == 2
    assert main(["eigen", "--beta", "1.0", "--weights", "0,1"]) == 2
    assert "must be finite and positive" in capsys.readouterr().err


def test_cli_preset_with_overrides(tmp_path, capsys):
    code = main([
        "preset", "entropy-A", "--out", str(tmp_path / "p"),
        "--set", "n=60", "--set", "dt=5e-5", "--set", "t_end=0.05",
        "--set", "observe_every=100",
    ])
    assert code == 0
    assert (tmp_path / "p" / "summary.json").exists()


def test_cli_preset_bad_override_exits_2(tmp_path, capsys):
    code = main(["preset", "entropy-A", "--out", str(tmp_path / "x"),
                 "--set", "n=sixty"])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_sweep(tmp_path, capsys):
    cfg_path = write_config(tmp_path, dict(SWEEP_BASE, n=60, dt=5e-5, t_end=1.0,
                                           observe_every=200))
    code = main(["sweep", "--config", str(cfg_path), "--gamma", "0,0.5",
                 "--out", str(tmp_path / "sw")])
    assert code == 0
    assert (tmp_path / "sw" / "sweep.csv").exists()
    assert "gamma=0:" in capsys.readouterr().out
