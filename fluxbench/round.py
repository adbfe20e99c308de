"""One round of one workload, run by ``run.py`` in a fresh interpreter.

The round imports the package, makes a zero-length run of its first
configuration (the set-up probe), runs the workload, checks the outputs and
prints one JSON line with its timings. Times are taken on the monotonic
clock, which ``run.py`` also reads just before it starts this interpreter,
so ``setup_s`` and ``wall_s`` include interpreter start-up and the import.
"""

import argparse
import json
import os
import signal
import sys
import time

PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """Ask Linux to kill this process when its parent exits (a no-op elsewhere)."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--params", required=True, help="workload inputs as JSON")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--parent", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the set-up probe and report only setup_s")
    args = parser.parse_args()

    _die_with_parent()
    # Pool workers forked by the sweep die with this interpreter too.
    os.register_at_fork(after_in_child=_die_with_parent)
    if os.getppid() != args.parent:
        return 1

    import fokker_flux

    imported = time.monotonic()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(fokker_flux.__file__).startswith(src + os.sep):
        print(f"imported fokker_flux from {fokker_flux.__file__}, not {src}", file=sys.stderr)
        return 2

    import resource
    import traceback
    from pathlib import Path

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](json.loads(args.params))
    out = Path(args.out)
    probe_started = time.monotonic()
    workload.probe()
    set_up = time.monotonic()
    if args.setup_only:
        print(json.dumps({"attempted": 0, "failed": 0, "failures": [],
                          "setup_s": set_up - args.launched}))
        return 0
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    result = {"attempted": workload.operations, "failed": 0, "failures": []}
    try:
        outcome = workload.run(out, tracer)
    except Exception:  # a failed operation is counted, not fatal to the benchmark
        traceback.print_exc()
        result["failed"] = workload.operations
        print(json.dumps(result))
        return 0
    done = time.monotonic()
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result.update({
        "setup_s": set_up - args.launched,
        "wall_s": done - args.launched,
        "steps": workload.steps(outcome),
        "peak_rss_mb": peak_kb / 1024.0,
    })
    if tracer is not None:
        extra = workload.traced_extra(tracer, out)
        tracer.uninstall()
        layers = layer_metrics(tracer, ("experiments.run", "experiments.mass_evolution"))
        layers.update(extra)
        layers.update({
            "trace.wall_s": done - args.launched,
            "setup.import_s": imported - args.launched,
            "setup.zero_run_ms": 1e3 * (set_up - probe_started),
        })
        result["layers"] = layers
        result["spans"] = tracer.spans
    try:
        result["failures"] = workload.check(outcome, out)
    except (OSError, LookupError, ValueError) as exc:  # an artifact missing or malformed
        result["failures"] = [f"outputs could not be checked: {exc!r}"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
