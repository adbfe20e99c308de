"""Self-test of the benchmark itself.

    python3 fluxbench/selftest.py

Every workload at its tiny size passes its checks, a deliberately corrupted
result fails them, the oracles reproduce the paper's numbers, a traced sweep
counts each member once with or without its process pool, and a run that
is cut off, stopped by a signal or started without the package source ends
with a non-zero code and leaves no process behind, as does one killed
outright.
"""

import dataclasses
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
import unittest
import uuid
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
from inputs import DRAWS  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = BENCH / "out" / "selftest"
TAG = "FLUXBENCH_SELFTEST_TAG"
THREADS = "FOKKER_FLUX_THREADS"  # the package's cap on the sweep's pool


def tiny(name: str, tracer=None):
    """Run one tiny round in this process: (workload, outcome, output folder)."""
    workload = WORKLOADS[name](DRAWS[name](random.Random(7)), "tiny")
    out = SCRATCH / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload.probe()
    return workload, workload.run(out, tracer), out


def tagged(tag: str) -> set[int]:
    """Pids of live processes whose environment carries ``tag``."""
    found = set()
    needle = f"{TAG}={tag}".encode()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            environ = (entry / "environ").read_bytes()
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if needle in environ.split(b"\0") and state != "Z":
            found.add(int(entry.name))
    return found


def has(failures: list[str], text: str) -> bool:
    return any(text in f for f in failures)


class Oracles(unittest.TestCase):
    def test_paper_numbers(self):
        self.assertAlmostEqual(oracles.discrete_gap_model_a(200, 1.0, 1.0), 2.3439, places=4)
        self.assertAlmostEqual(oracles.robin_rate(1.0), 1.4803, places=4)
        self.assertAlmostEqual(oracles.discrete_gap_model_a(200, 1.0, 0.0), 1.4803, places=3)
        self.assertAlmostEqual(oracles.c_tilde(1.0, 0.9, 1.0), 0.3311, places=4)

    def test_steady_states(self):
        # alpha = beta = 1 with V = x has the constant steady state 1
        self.assertLess(abs(oracles.steady_state_a(50, 1.0, 1.0, 1.0) - 1.0).max(), 1e-14)
        # V = 0: rho = alpha (1/beta + 1 - x)
        x = oracles.nodes(50)
        self.assertLess(abs(oracles.steady_state_a(50, 2.0, 0.5, 0.0) - 2.0 * (3.0 - x)).max(), 1e-14)
        rho = oracles.steady_state_c(50, 1.0, 0.9, 1.0)
        self.assertLess(abs(rho / (1.0 - rho) - (1.0 / 0.9) * oracles.np.exp(x)).max(), 1e-12)


class TinyWorkloads(unittest.TestCase):
    def test_explicit_a(self):
        workload, outcome, out = tiny("explicit-A")
        self.assertEqual(workload.check(outcome, out), [])
        summary = outcome["summary"]
        bad = dataclasses.replace(summary, fitted_rate=summary.fitted_rate * 1.05)
        self.assertTrue(has(workload.check({"summary": bad}, out), "discrete gap"))
        bad = dataclasses.replace(summary, min_value=-1e-9)
        self.assertTrue(has(workload.check({"summary": bad}, out), "below zero"))

    def test_observe_mass(self):
        workload, outcome, out = tiny("observe-mass")
        self.assertEqual(workload.check(outcome, out), [])
        report = outcome["reports"]["mass1"]
        mass = report.trajectory.mass.copy()
        mass[100] += 1e-9
        bad = dataclasses.replace(report, trajectory=dataclasses.replace(report.trajectory, mass=mass))
        failures = workload.check({"reports": {**outcome["reports"], "mass1": bad}}, out)
        self.assertTrue(has(failures, "mass1: mass balance"))
        self.assertTrue(has(failures, "mass.csv: column 'mass' differs"))
        path = out / "mass2" / "mass.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        t, m, node = lines[50].split(",")
        lines[50] = ",".join((t, m, repr(float(node) + 1e-12)))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assertTrue(has(workload.check(outcome, out), "column 'node_average_mass' differs"))

    def test_implicit_c(self):
        workload, outcome, out = tiny("implicit-C")
        self.assertEqual(workload.check(outcome, out), [])
        bad = dataclasses.replace(outcome["summary"], fitted_rate=0.3)
        self.assertTrue(has(workload.check({"summary": bad}, out), "below the bound"))
        path = out / "entropy.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[200].split(",")
        cells[1] = repr(float(lines[199].split(",")[1]) * 1.001)
        lines[200] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.assertTrue(has(workload.check(outcome, out), "entropy rose"))

    def test_sweep_a(self):
        workload, outcome, out = tiny("sweep-A")
        self.assertEqual(workload.check(outcome, out), [])
        rows = list(outcome["rows"])
        rows[1], rows[2] = (dataclasses.replace(rows[1], fitted_rate=rows[2].fitted_rate),
                            dataclasses.replace(rows[2], fitted_rate=rows[1].fitted_rate))
        failures = workload.check({**outcome, "rows": rows}, out)
        self.assertTrue(has(failures, "not increasing"))
        self.assertTrue(has(failures, "sweep.csv differs"))
        rows = list(outcome["rows"])
        rows[0] = dataclasses.replace(rows[0], fitted_rate=rows[0].fitted_rate * 1.015)
        self.assertTrue(has(workload.check({**outcome, "rows": rows}, out), "2k^2"))
        self.assertTrue(has(workload.check({**outcome, "children": ["worker"]}, out), "alive"))


class TracedSweep(unittest.TestCase):
    """The traced sweep counts each member once, with or without a pool."""

    def traced(self, threads):
        saved = os.environ.pop(THREADS, None)
        if threads is not None:
            os.environ[THREADS] = threads
        tracer = Tracer()
        tracer.install()
        try:
            workload, outcome, out = tiny("sweep-A", tracer)
            extra = workload.traced_extra(tracer, out)
        finally:
            tracer.uninstall()
            os.environ.pop(THREADS, None)
            if saved is not None:
                os.environ[THREADS] = saved
        self.assertEqual(workload.check(outcome, out), [])
        layers = layer_metrics(tracer, ("experiments.run", "experiments.mass_evolution"))
        self.assertEqual(layers["transient.steps"], workload.steps(outcome))
        self.assertEqual(layers["experiments.write_ms"], 0.0)
        self.assertEqual(layers["svg.line_chart_ms"], 0.0)
        return extra

    def test_with_pool(self):
        extra = self.traced("2")
        self.assertEqual(extra["experiments.sweep_workers"], 2.0)
        self.assertGreater(extra["experiments.sweep_efficiency"], 0.0)

    def test_without_pool(self):
        extra = self.traced("1")
        self.assertEqual(extra["experiments.sweep_workers"], 1.0)
        self.assertGreater(extra["experiments.sweep_efficiency"], 0.5)
        self.assertLessEqual(extra["experiments.sweep_efficiency"], 1.0)


class Processes(unittest.TestCase):
    """Runs of run.py that must end non-zero, print no result and leave nothing."""

    def start(self, *args, cwd=ROOT):
        tag = uuid.uuid4().hex
        env = dict(os.environ, **{TAG: tag})
        proc = subprocess.Popen(
            [sys.executable, "fluxbench/run.py", "--workload", "sweep-A", *args],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        return proc, tag

    def wait_for_pool(self, proc, tag, timeout=30.0) -> int:
        """Most processes seen below run.py: its round and the round's pool."""
        most = 0
        end = time.monotonic() + timeout
        while proc.poll() is None and time.monotonic() < end:
            most = max(most, len(tagged(tag) - {proc.pid}))
            if most >= 3:
                break
            time.sleep(0.02)
        return most

    def assert_clean_failure(self, proc, tag):
        stdout, _ = proc.communicate(timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', stdout)
        self.assertEqual(tagged(tag), set())

    def test_cut_off_by_time_limit(self):
        proc, tag = self.start("--round-limit", "2.5", "--seconds", "1")
        self.assertGreaterEqual(self.wait_for_pool(proc, tag), 3)
        self.assert_clean_failure(proc, tag)

    def test_stopped_by_signal(self):
        proc, tag = self.start("--seconds", "1")
        self.assertGreaterEqual(self.wait_for_pool(proc, tag), 3)
        proc.send_signal(signal.SIGTERM)
        self.assert_clean_failure(proc, tag)

    def test_killed_outright(self):
        proc, tag = self.start("--seconds", "1")
        self.assertGreaterEqual(self.wait_for_pool(proc, tag), 3)
        proc.kill()
        proc.communicate(timeout=10)
        end = time.monotonic() + 10.0
        while tagged(tag) and time.monotonic() < end:
            time.sleep(0.05)
        self.assertEqual(tagged(tag), set())

    def test_without_package_source(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "fluxbench", ignore=shutil.ignore_patterns(
            "out", "trace", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc, tag = self.start("--seconds", "1", cwd=bare)
        self.assert_clean_failure(proc, tag)


if __name__ == "__main__":
    unittest.main(verbosity=2)
