"""Benchmark of the fokker_flux solvers: four workloads, end to end and per layer.

    python3 fluxbench/run.py --workload explicit-A --seed 1 --seconds 25 --trace 0

Runs rounds of one workload (or of each in turn with ``--workload all``)
for ``--seconds`` seconds. Every round is a fresh interpreter started from
this process, one after another; the last line of standard output is one
JSON object with the medians over the rounds. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of traced rounds.
See README.md beside this file.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import DRAWS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TRACE = BENCH / "trace"
NAMES = ("explicit-A", "observe-mass", "implicit-C", "sweep-A")
DEADLINE_S = 170.0  # a run must end well inside 180 s
ROUND_LIMIT_S = 120.0
SETUP_ROUNDS = 5  # set-up-only rounds per untraced run, for a steadier setup_s median
PR_SET_CHILD_SUBREAPER = 36
STOP_SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)


class Stop(Exception):
    """The benchmark was asked to stop or a round could not finish."""


def _on_signal(signum, frame):
    raise Stop(f"stopped by signal {signum}")


def _adopt_orphans() -> None:
    """Become the parent of orphaned descendants so they can be reaped here."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _reap(timeout: float) -> None:
    """Collect exited descendants; wait at most ``timeout`` for live ones."""
    end = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > end:
                return
            time.sleep(0.01)


def _stop_group(proc: subprocess.Popen) -> bool:
    """Kill whatever is left of the round's process group; True if anything was.

    Stop signals are held back meanwhile, so a second one cannot cut the
    clean-up short; they are delivered when it is done.
    """
    signal.pthread_sigmask(signal.SIG_BLOCK, STOP_SIGNALS)
    try:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        _reap(0.0)
        leaked = _group_alive(proc.pid)
        if leaked:
            os.killpg(proc.pid, signal.SIGKILL)
        _reap(5.0)
        return leaked
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, STOP_SIGNALS)


def run_round(name: str, params: dict, args, limit: float, setup_only: bool = False) -> dict:
    """One round in a fresh interpreter with its own process group."""
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("FOKKER_FLUX_THREADS", None)  # the sweep uses the program's default cap
    cmd = [sys.executable, "-s", str(BENCH / "round.py"), "--workload", name,
           "--params", json.dumps(params), "--trace", str(args.trace),
           "--out", str(out), "--parent", str(os.getpid())] + ["--setup-only"] * setup_only
    launched = time.monotonic()
    proc = subprocess.Popen(cmd + ["--launched", repr(launched)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        raise Stop(f"{name}: round cut off after {limit:.1f} s") from None
    finally:
        leaked = _stop_group(proc)
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise Stop(f"{name}: round exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if leaked:
        result["failures"].append("a process of the round outlived it")
    return result


def measure(name: str, args, units: dict, started: float) -> dict:
    """Rounds of one workload for about ``args.seconds``; the benchmark's result object.

    An untraced run first starts SETUP_ROUNDS interpreters that stop after
    set-up. Full rounds follow while the median round so far still fits in
    ``args.seconds`` and DEADLINE_S leaves room for 1.5 median rounds; there
    is always at least one, and only a round that cannot finish in the time
    left before DEADLINE_S fails the run.
    """
    from_seed = random.Random(f"{name}/{args.seed}")

    def limit() -> float:
        left = DEADLINE_S - (time.monotonic() - started)
        if left <= 0:
            raise Stop("no time left for another round")
        return min(args.round_limit, left)

    params = DRAWS[name](from_seed)
    setups = [] if args.trace else [
        run_round(name, params, args, limit(), setup_only=True) for _ in range(SETUP_ROUNDS)
    ]
    rounds, durations = [], []

    def another() -> bool:
        if not rounds:
            return True
        elapsed, typical = time.monotonic() - started, statistics.median(durations)
        return elapsed + typical <= args.seconds and elapsed + 1.5 * typical <= DEADLINE_S

    while another():
        round_started = time.monotonic()
        rounds.append(run_round(name, params, args, limit()))
        durations.append(time.monotonic() - round_started)
        params = DRAWS[name](from_seed)
    ok = [r for r in rounds if not r["failed"]]
    for r in rounds:
        for failure in r["failures"]:
            print(f"{name}: check failed: {failure}", file=sys.stderr)
    result = {
        "correct": all(not r["failures"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    print(f"{name:13s} operations {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    if not ok:
        raise Stop(f"{name}: every operation failed")
    if args.trace:
        per_round = {k: [r["layers"][k] for r in ok] for k in ok[0]["layers"]}
        TRACE.mkdir(exist_ok=True)
        spans = [{"round": i, "spans": r["spans"]} for i, r in enumerate(ok)]
        (TRACE / f"{name}-seed{args.seed}.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        per_round = {
            "wall_s": [r["wall_s"] for r in ok],
            "setup_s": [r["setup_s"] for r in setups + ok],
            "steps_per_s": [r["steps"] / (r["wall_s"] - r["setup_s"]) for r in ok],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        }
    if set(per_round) != set(units):
        raise Stop(f"{name}: measured {sorted(per_round)}, BENCHMARK.json names {sorted(units)}")
    for metric, values in per_round.items():
        print(f"{name:13s} {metric:30s} median {statistics.median(values):12.6g} min {min(values):12.6g} "
              f"max {max(values):12.6g} {units[metric]} over {len(values)} rounds")
    result["metrics"] = {k: {"value": statistics.median(per_round[k]), "unit": unit}
                         for k, unit in units.items()}
    return result


def _units(trace: int) -> dict:
    """Metric names and units of one mode, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="draws the initial-data coefficients (default 0)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long to keep starting rounds of a workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round-limit", type=float, default=ROUND_LIMIT_S,
                        help="seconds after which a round is cut off")
    args = parser.parse_args()

    if not (SRC / "fokker_flux" / "__init__.py").is_file():
        print(f"fluxbench: no package source at {SRC / 'fokker_flux'}", file=sys.stderr)
        return 2
    units = _units(args.trace)
    _adopt_orphans()
    for signum in STOP_SIGNALS:
        signal.signal(signum, _on_signal)
    names = NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: measure(name, args, units, time.monotonic()) for name in names}
    except Stop as stop:
        print(f"fluxbench: {stop}", file=sys.stderr)
        return 1
    for result in results.values():
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
