"""Spans and counts recorded around the package's module-level names.

The package modules call each other through module globals (for example
``experiments.run_transient`` or ``transient.entropy``). The tracer swaps
such a global for a wrapper that records how long each call took and which
traced call it ran inside, so the package itself is left unchanged. Names
that run once per observer sample or per Newton iteration are kept as
totals only; the others are also kept as individual spans.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import fokker_flux.experiments as experiments
import fokker_flux.transient as transient
import fokker_flux.tridiag as tridiag

# (module, global name) pairs the package calls through.
WRAPPED = (
    (transient, "entropy"),
    (transient, "l1_distance"),
    (transient, "trapezoid"),
    (transient, "residual_stationary"),
    (transient, "solve_tridiagonal"),  # Newton's solves
    (tridiag, "solve_tridiagonal"),  # the reference stationary solve's, via solve_refined
    (experiments, "execute"),
    (experiments, "run_transient"),
    (experiments, "stationary_numeric"),
    (experiments, "fit_exponential_rate"),
    (experiments, "symmetric_k"),
    (experiments, "friedrichs_k"),
    (experiments, "line_chart"),
)
HOT_MODULES = (transient, tridiag)
THOMAS = ("transient.solve_tridiagonal", "tridiag.solve_tridiagonal")
OBSERVERS = (
    "transient.entropy",
    "transient.l1_distance",
    "transient.trapezoid",
    "transient.residual_stationary",
)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Per-name call counts, total and self time, plus the spans of cold names."""

    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[dict] = []
        self.steps = 0  # time steps returned by traced run_transient calls
        self.pool_workers = 0  # largest process pool the sweep opened
        self._stack: list[list] = []  # open spans: [name, start, child_s, id]
        self._next_id = 0
        self._patched: list[tuple] = []

    def _enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def _exit(self, keep: bool) -> None:
        name, start, child, span_id = self._stack.pop()
        end = time.perf_counter()
        duration = end - start
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if keep:
            self.spans.append(
                {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
            )

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit(True)

    def install(self) -> None:
        """Wrap every name in WRAPPED that the package still defines."""
        for module, attr in WRAPPED:
            if not hasattr(module, attr):
                print(f"trace: {_short(module)}.{attr} no longer exists; not traced",
                      file=sys.stderr)
                continue
            self._wrap(module, attr, module not in HOT_MODULES)
        if hasattr(experiments, "ProcessPoolExecutor"):
            self._count_pool()

    def _wrap(self, module, attr: str, keep: bool) -> None:
        original = getattr(module, attr)
        name = f"{_short(module)}.{attr}"
        counts_steps = name == "experiments.run_transient"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._exit(keep)
            if counts_steps:
                self.steps += result.steps
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def _count_pool(self) -> None:
        original = experiments.ProcessPoolExecutor
        tracer = self

        class CountedPool(original):
            def __init__(self, max_workers=None, *args, **kwargs):
                tracer.pool_workers = max(tracer.pool_workers, max_workers or 0)
                super().__init__(max_workers, *args, **kwargs)

        experiments.ProcessPoolExecutor = CountedPool
        self._patched.append((experiments, "ProcessPoolExecutor", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def per_call(self, names, scale: float) -> float:
        """Mean time per call over ``names``, times ``scale``; 0 without calls."""
        calls = sum(self.calls(n) for n in names)
        return scale * sum(self.total(n) for n in names) / calls if calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: tuple[str, ...]) -> dict[str, float]:
    """Per-layer values of one traced round.

    ``ops`` are the names of the benchmark's spans around ``run`` or
    ``mass_evolution``; their time minus the ``execute`` calls inside them
    is the artifact-writing time. A value whose layer did no work in the
    round reads 0.
    """
    steps = tracer.steps
    samples = tracer.calls("transient.residual_stationary")
    op_calls = sum(tracer.calls(n) for n in ops)
    op_time = sum(tracer.total(n) for n in ops)
    op_ids = {s["id"] for s in tracer.spans if s["name"] in ops}
    executes_in_ops = sum(
        s["end"] - s["start"]
        for s in tracer.spans
        if s["name"] == "experiments.execute" and s["parent"] in op_ids
    )
    return {
        "transient.steps": float(steps),
        "transient.step_us": 1e6 * _ratio(tracer.self_time("experiments.run_transient"), steps),
        "transient.samples": float(samples),
        "transient.sample_us": 1e6 * _ratio(sum(tracer.total(n) for n in OBSERVERS), samples),
        "entropy.entropy_us": tracer.per_call(["transient.entropy"], 1e6),
        "entropy.l1_distance_us": tracer.per_call(["transient.l1_distance"], 1e6),
        "domain.trapezoid_us": tracer.per_call(["transient.trapezoid"], 1e6),
        "stationary.steady_residual_us": tracer.per_call(["transient.residual_stationary"], 1e6),
        "tridiag.solves": float(sum(tracer.calls(n) for n in THOMAS)),
        "tridiag.solve_us": tracer.per_call(THOMAS, 1e6),
        "transient.newton_per_step": _ratio(tracer.calls("transient.solve_tridiagonal"), steps),
        "stationary.reference_ms": tracer.per_call(["experiments.stationary_numeric"], 1e3),
        "spectral.roots_ms": tracer.per_call(
            ["experiments.symmetric_k", "experiments.friedrichs_k"], 1e3
        ),
        "entropy.fit_ms": tracer.per_call(["experiments.fit_exponential_rate"], 1e3),
        "experiments.execute_s": tracer.per_call(["experiments.execute"], 1.0),
        "experiments.write_ms": 1e3 * _ratio(op_time - executes_in_ops, op_calls),
        "svg.line_chart_ms": tracer.per_call(["experiments.line_chart"], 1e3),
    }
