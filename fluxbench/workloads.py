"""The benchmark's workloads: their inputs, the operation and its checks.

Each workload builds its configurations from a package preset plus the
overrides below, runs them through the public API (``run``,
``mass_evolution`` or ``gamma_sweep``), and checks the results against the
oracles in :mod:`oracles` and against properties the scheme must have.
``check`` returns a list of failure messages; an empty list means correct.
"""

from __future__ import annotations

import json
import multiprocessing
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import fokker_flux as ff
import fokker_flux.experiments as experiments

import oracles

PAPER_SLOPE_A = 2.33
PAPER_INITIAL_MASS = {"mass1": 1.1863, "mass2": 1.0711}
SLOPE_TOL = 0.03  # fitted slope of explicit-A vs the discrete gap and the paper
SWEEP_GAP_TOL = 0.02  # each sweep member vs its discrete gap
SWEEP_ROBIN_TOL = 0.01  # the gamma = 0 member vs 2 k^2
BALANCE_TOL = 1e-13  # discrete mass balance per step; one step moves the mass by ~dt
MIN_TOL = 1e-12  # roundoff undershoot allowed below zero


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=np.float64)


def _rel(value: float, reference: float) -> float:
    return abs(value / reference - 1.0)


def _columns_equal(path: Path, expected: dict, failures: list[str]) -> None:
    """Each named CSV column must equal its in-memory series bit for bit."""
    header, data = _read_csv(path)
    for name, series in expected.items():
        if name not in header:
            failures.append(f"{path.name}: column {name!r} missing")
        elif not np.array_equal(data[:, header.index(name)], np.asarray(series)):
            failures.append(f"{path.name}: column {name!r} differs from the returned series")


class Workload:
    """One set of inputs; ``run`` performs ``operations`` package operations."""

    name = ""
    operations = 1
    sizes: dict = {}

    def __init__(self, params: dict, scale: str = "full"):
        self.params = params
        self.size = dict(self.sizes[scale])

    def probe(self) -> None:
        """A zero-length run of the first configuration: all set-up, no step."""
        ff.execute(self._probe_config())

    def _probe_config(self):
        raise NotImplementedError

    def run(self, out: Path, tracer=None) -> dict:
        raise NotImplementedError

    def steps(self, outcome: dict) -> int:
        raise NotImplementedError

    def check(self, outcome: dict, out: Path) -> list[str]:
        raise NotImplementedError

    def traced_extra(self, tracer, out: Path) -> dict:
        """Per-layer values only this workload can give; the sweep's read 0 here."""
        return {"experiments.sweep_workers": 0.0, "experiments.sweep_efficiency": 0.0}


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


class ExplicitA(Workload):
    name = "explicit-A"
    sizes = {
        "full": {"n": 200, "dt": 5e-6, "t_end": 0.7, "observe_every": 1000},
        "tiny": {"n": 40, "dt": 1e-4, "t_end": 0.7, "observe_every": 50},
    }

    def _overrides(self) -> dict:
        return {"alpha": 1.0, "beta": 1.0, "potential": "linear",
                "initial": self.params["initial"], **self.size}

    def _probe_config(self):
        return ff.preset_config("entropy-A", {**self._overrides(), "t_end": 0.0})

    def run(self, out, tracer=None):
        config = ff.preset_config("entropy-A", self._overrides())
        with _span(tracer, "experiments.run"):
            summary = ff.run(config, out_dir=str(out))
        return {"summary": summary}

    def steps(self, outcome):
        return outcome["summary"].steps

    def check(self, outcome, out):
        s = outcome["summary"]
        failures = []
        gap = oracles.discrete_gap_model_a(self.size["n"], 1.0, 1.0)
        if s.fitted_rate is None:
            failures.append("no fitted decay rate")
        else:
            if _rel(s.fitted_rate, gap) > SLOPE_TOL:
                failures.append(f"fitted slope {s.fitted_rate:.5f} vs discrete gap {gap:.5f}")
            if _rel(s.fitted_rate, PAPER_SLOPE_A) > SLOPE_TOL:
                failures.append(f"fitted slope {s.fitted_rate:.5f} vs paper {PAPER_SLOPE_A}")
        if s.min_value < -MIN_TOL:
            failures.append(f"iterate minimum {s.min_value:.3e} below zero")
        if s.steps != round(self.size["t_end"] / self.size["dt"]):
            failures.append(f"{s.steps} steps taken")
        written = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        if written["fitted_rate"] != s.fitted_rate:
            failures.append("summary.json fitted_rate differs from the returned summary")
        return failures


class ObserveMass(Workload):
    name = "observe-mass"
    operations = 2
    PRESETS = {"mass1": "maximum", "mass2": "minimum"}
    ALPHA, BETA = 1.0, 0.9
    sizes = {
        "full": {"n": 200, "dt": 1e-5, "t_end": {"mass1": 0.16, "mass2": 0.165}},
        "tiny": {"n": 200, "dt": 1.25e-5, "t_end": {"mass1": 0.16, "mass2": 0.165}},
    }

    def _overrides(self, preset: str) -> dict:
        return {"alpha": self.ALPHA, "beta": self.BETA, "n": self.size["n"],
                "dt": self.size["dt"], "t_end": self.size["t_end"][preset],
                "observe_every": 1}

    def _probe_config(self):
        return ff.preset_config("mass1", {**self._overrides("mass1"), "t_end": 0.0})

    def run(self, out, tracer=None):
        reports = {}
        for preset in self.PRESETS:
            with _span(tracer, "experiments.mass_evolution"):
                reports[preset] = ff.mass_evolution(
                    preset, out_dir=str(out / preset), overrides=self._overrides(preset)
                )
        return {"reports": reports}

    def steps(self, outcome):
        return sum(r.trajectory.steps for r in outcome["reports"].values())

    def check(self, outcome, out):
        failures = []
        dt = self.size["dt"]
        for preset, kind in self.PRESETS.items():
            report = outcome["reports"][preset]
            tr = report.trajectory

            def fail(message: str, preset=preset) -> None:
                failures.append(f"{preset}: {message}")

            steps = round(self.size["t_end"][preset] / dt)
            if not np.array_equal(tr.times, np.arange(steps + 1) * dt):
                fail("not every step was observed")
                continue
            balance = np.diff(tr.mass) - dt * (self.ALPHA - self.BETA * tr.outflow_density[:-1])
            worst = float(np.max(np.abs(balance)))
            if not worst <= BALANCE_TOL:
                fail(f"mass balance violated by {worst:.3e}")
            if abs(report.initial_mass - PAPER_INITIAL_MASS[preset]) > 0.01:
                fail(f"initial mass {report.initial_mass:.5f} vs paper {PAPER_INITIAL_MASS[preset]}")
            series = tr.node_mass
            idx = int(np.argmax(series) if kind == "maximum" else np.argmin(series))
            sign = 1.0 if kind == "maximum" else -1.0
            interior = 0 < idx < series.size - 1 and all(
                sign * (series[idx] - series[end]) > 0.0 for end in (0, -1)
            )
            if not interior:
                fail(f"node-average mass has no interior {kind}")
            if report.extremum_kind != kind or report.extremum_value != series[idx]:
                fail(f"reported extremum {report.extremum_kind} {report.extremum_value}")
            folder = out / preset
            _columns_equal(folder / "mass.csv", {
                "t": tr.times, "mass": tr.mass, "node_average_mass": tr.node_mass,
            }, failures)
            _columns_equal(folder / "entropy.csv", {
                "t": tr.times, "entropy": tr.entropy, "mass": tr.mass,
                "l1": tr.l1, "residual": tr.residual,
            }, failures)
            written = json.loads((folder / "summary.json").read_text(encoding="utf-8"))
            if written["mass_evolution"]["extremum_kind"] != kind:
                fail("summary.json extremum kind")
            if not (folder / "mass.svg").read_text(encoding="utf-8").startswith("<svg"):
                fail("mass.svg is not an SVG document")
        return failures


class ImplicitC(Workload):
    name = "implicit-C"
    ALPHA, BETA = 1.0, 0.9
    sizes = {
        "full": {"n": 200, "dt": 1e-3, "t_end": 3.7},
        "tiny": {"n": 40, "dt": 1e-2, "t_end": 3.7},
    }

    def _overrides(self) -> dict:
        return {"alpha": self.ALPHA, "beta": self.BETA, "potential": "linear",
                "initial": self.params["initial"], "scheme": "implicit-entropy",
                "observe_every": 1, "snapshot_times": [self.size["t_end"]],
                "emit": ["entropy", "snapshots", "summary", "svg"], **self.size}

    def _probe_config(self):
        return ff.preset_config(
            "entropy-C", {**self._overrides(), "t_end": 0.0, "snapshot_times": []}
        )

    def run(self, out, tracer=None):
        config = ff.preset_config("entropy-C", self._overrides())
        with _span(tracer, "experiments.run"):
            summary = ff.run(config, out_dir=str(out))
        return {"summary": summary}

    def steps(self, outcome):
        return outcome["summary"].steps

    def check(self, outcome, out):
        s = outcome["summary"]
        failures = []
        n, dt, t_end = self.size["n"], self.size["dt"], self.size["t_end"]
        if not (0.0 < s.min_value and s.max_value < 1.0):
            failures.append(f"iterates left (0, 1): [{s.min_value}, {s.max_value}]")
        header, data = _read_csv(out / "entropy.csv")
        steps = round(t_end / dt)
        if not np.array_equal(data[:, 0], np.arange(steps + 1) * dt):
            failures.append("not every step was observed")
        else:
            rise = float(np.max(np.diff(data[:, header.index("entropy")])))
            if rise > 0.0:
                failures.append(f"two-species entropy rose by {rise:.3e} in one step")
        header, data = _read_csv(out / "snapshots.csv")
        final = data[:, header.index(f"rho_t={t_end:g}")]
        distance = float(np.max(np.abs(final - oracles.steady_state_c(n, self.ALPHA, self.BETA, 1.0))))
        if not distance < 1e-2:
            failures.append(f"final sup distance {distance:.3e} to the closed-form steady state")
        bound = oracles.c_tilde(self.ALPHA, self.BETA, 1.0)
        if s.fitted_rate is None or not s.fitted_rate >= bound:
            failures.append(f"fitted slope {s.fitted_rate} below the bound {bound:.4f}")
        return failures


class SweepA(Workload):
    name = "sweep-A"
    operations = 5
    GAMMAS = (0.0, 0.25, 0.5, 0.75, 1.0)
    BETA = 1.0
    sizes = {
        "full": {"n": 100, "dt": 2e-5, "t_end": 1.5, "observe_every": 1000},
        "tiny": {"n": 30, "dt": 2e-4, "t_end": 1.5, "observe_every": 50},
    }

    def _overrides(self) -> dict:
        return {"alpha": 1.0, "beta": self.BETA, "initial": self.params["initial"],
                "emit": [], **self.size}

    def member_config(self, gamma: float, **extra):
        """The configuration ``gamma_sweep`` runs for one member."""
        return ff.preset_config("entropy-A", {
            **self._overrides(), "potential": "scaled-linear", "gamma": gamma, **extra,
        })

    def _probe_config(self):
        return self.member_config(self.GAMMAS[0], t_end=0.0)

    def run(self, out, tracer=None):
        base = ff.preset_config("entropy-A", self._overrides())
        with _span(tracer, "experiments.gamma_sweep"):
            rows = ff.gamma_sweep(base, self.GAMMAS, out_dir=str(out))
        return {"rows": rows, "children": multiprocessing.active_children()}

    def traced_extra(self, tracer, out):
        """Pool size and parallel efficiency of the traced sweep.

        Members that ran in forked pool workers left no timings here, so they
        are run again one after another in this interpreter, the way the
        workers run them (``execute`` of the member configuration, no
        artifacts); the sweep's per-layer values describe those re-runs.
        Without a pool the members already ran here, traced, and are not
        re-run. Efficiency is the members' summed ``execute`` time over
        workers times the sweep's wall time.
        """
        workers = tracer.pool_workers or 1
        serial_s = tracer.total("experiments.execute")
        if tracer.pool_workers:
            for gamma in self.GAMMAS:
                experiments.execute(self.member_config(gamma))
            serial_s = tracer.total("experiments.execute") - serial_s
        return {
            "experiments.sweep_workers": float(workers),
            "experiments.sweep_efficiency": serial_s
            / (workers * tracer.total("experiments.gamma_sweep")),
        }

    def steps(self, outcome):
        return len(outcome["rows"]) * round(self.size["t_end"] / self.size["dt"])

    def check(self, outcome, out):
        rows = outcome["rows"]
        failures = []
        if outcome["children"]:
            failures.append(f"pool processes alive after the sweep: {outcome['children']}")
        if [r.gamma for r in rows] != list(self.GAMMAS):
            return failures + [f"sweep rows for gammas {[r.gamma for r in rows]}"]
        rates = [r.fitted_rate for r in rows]
        if not all(a < b for a, b in zip(rates, rates[1:])):
            failures.append(f"rates not increasing in gamma: {rates}")
        robin = oracles.robin_rate(self.BETA)
        if _rel(rates[0], robin) > SWEEP_ROBIN_TOL:
            failures.append(f"gamma=0 rate {rates[0]:.5f} vs 2k^2 = {robin:.5f}")
        for row in rows:
            gap = oracles.discrete_gap_model_a(self.size["n"], self.BETA, row.gamma)
            if _rel(row.fitted_rate, gap) > SWEEP_GAP_TOL:
                failures.append(f"gamma={row.gamma}: rate {row.fitted_rate:.5f} vs gap {gap:.5f}")
        header, data = _read_csv(out / "sweep.csv")
        returned = np.array([[r.gamma, r.fitted_rate, r.r_squared] for r in rows])
        if header != ["gamma", "fitted_rate", "r_squared"] or not np.array_equal(data, returned):
            failures.append("sweep.csv differs from the returned rows")
        return failures


WORKLOADS = {w.name: w for w in (ExplicitA, ObserveMass, ImplicitC, SweepA)}
