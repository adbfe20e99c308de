"""Block observers of run_transient against the single-field observers.

A run copies its sampled states into a block and evaluates every observer
on all rows at once; each series must equal, bit for bit, a loop of the
single-field functions over the sampled fields, read from snapshots.
"""

import numpy as np
import pytest

from fokker_flux import (
    DensityField,
    EntropyDomainError,
    InitialSpec,
    ModelSpec,
    PotentialSpec,
    SolverConfig,
    build_grid,
    build_initial,
    discretize,
    entropy,
    l1_distance,
    nodal_residual,
    node_average,
    preset_config,
    run_transient,
    stationary_numeric,
    trapezoid,
)
from fokker_flux.experiments import PRESETS
from fokker_flux.transient import OBSERVER_BLOCK

from sampled import run_sampled

SNAP_TIMES = (0.0, 0.0005, 0.00123, 0.002)


def loop_observers(traj, fields, model):
    """The observer series recomputed one sampled field at a time."""
    ref = traj.reference.field
    return {
        "entropy": [entropy(traj.entropy_kind, f, ref) for f in fields],
        "mass": [trapezoid(f.values, f.grid.dx) for f in fields],
        "node_mass": [node_average(f.values) for f in fields],
        "l1": [l1_distance(f, ref) for f in fields],
        "residual": [
            float(np.max(np.abs(nodal_residual(discretize(model, f.grid), f.values))))
            for f in fields
        ],
        "outflow_density": [float(f.values[-1]) for f in fields],
    }


def assert_block_matches_loop(traj, fields, model):
    for name, want in loop_observers(traj, fields, model).items():
        got = getattr(traj, name)
        assert got.shape == (len(want),), name
        assert np.array_equal(got, np.array(want)), name
        assert not got.flags.writeable, name


def run_preset(name, overrides, stride):
    config = preset_config(
        name, {"t_end": 0.002, "snapshot_times": [], "observe_every": stride, **overrides}
    )
    traj, fields = run_sampled(config.d, config.initial, config.solver, snapshot_times=SNAP_TIMES)
    return config.d.model, traj, fields


CASES = [(name, {}) for name in PRESETS] + [
    ("entropy-C", {"scheme": "implicit-entropy", "dt": 1e-4}),
]


@pytest.mark.parametrize("stride", [1, 7, 1000])
@pytest.mark.parametrize(
    "name, overrides", CASES, ids=[name + o.get("scheme", "") for name, o in CASES]
)
def test_block_observers_equal_single_field_loop(name, overrides, stride):
    model, traj, fields = run_preset(name, overrides, stride)
    steps = traj.steps
    sampled = [*range(0, steps, stride), steps]
    assert traj.times.size == (steps - 1) // stride + 2 == len(sampled)
    assert np.array_equal(traj.times, np.array(sampled) * traj.dt)
    assert len(fields) == len(sampled)
    assert_block_matches_loop(traj, fields, model)
    # the last sample is the final state; a snapshot on a sampled step is that sample
    assert np.array_equal(fields[-1].values, traj.final.values)
    by_step = dict(zip(sampled, fields))
    assert [t for t, _ in traj.snapshots] == list(SNAP_TIMES)
    for t, snap in traj.snapshots:
        k = int(round(t / traj.dt))
        if k in by_step:
            assert np.array_equal(snap.values, by_step[k].values)


@pytest.mark.parametrize("name", ["evolution-C", "entropy-C"])
def test_strided_fields_are_the_stepped_states(name):
    # model C steps one step at a time, so a strided run samples the very
    # states an every-step run samples
    _, every, every_fields = run_preset(name, {}, 1)
    _, _, strided_fields = run_preset(name, {}, 7)
    want = [f.values for f in every_fields[::7]] + [every.final.values]
    assert len(strided_fields) == len(want)
    for got, expected in zip(strided_fields, want):
        assert np.array_equal(got.values, expected)


@pytest.mark.parametrize(
    "samples",
    # around one and two blocks, and around 32 samples, where the doubling that
    # fills the first block of a model A/B run ends one row short of, on, or
    # one row past a power of two
    sorted(
        {1, 31, 32, 33, 65}
        | {OBSERVER_BLOCK - 1, OBSERVER_BLOCK, OBSERVER_BLOCK + 1, 2 * OBSERVER_BLOCK + 1}
    ),
)
@pytest.mark.parametrize("model_name", ["A", "B", "C"])
def test_sample_counts_around_the_block_size(samples, model_name):
    grid = build_grid(20)
    model = ModelSpec(model_name, 1.0, 0.9, PotentialSpec("linear"))
    initial = build_initial(InitialSpec("parabola"), grid, model)
    dt = 1e-4
    config = SolverConfig(dt=dt, t_end=(samples - 1) * dt, observe_every=1)
    d = discretize(model, grid)
    traj = run_transient(d, initial, config)
    assert traj.steps == samples - 1
    assert traj.times.size == samples
    _, fields = run_sampled(d, initial, config)
    assert_block_matches_loop(traj, fields, model)


def test_block_entropy_names_the_node():
    grid = build_grid(12)
    model = ModelSpec("C", 1.0, 0.9)
    ref = stationary_numeric(discretize(model, grid)).field
    block = np.tile(ref.values, (4, 1))
    negative = block.copy()
    negative[2, 5] = -1e-3
    with pytest.raises(EntropyDomainError, match=r"negative density -0\.001 at node 5"):
        entropy("quadratic", negative, ref)
    # the first offending row decides, and in a row a negative value comes first
    mixed = block.copy()
    mixed[1, 7] = 1.5
    mixed[3, 2] = -0.5
    with pytest.raises(EntropyDomainError, match=r"density 1\.5 above 1 at node 7"):
        entropy("two-species", mixed, ref)
    mixed[1, 9] = -0.25
    with pytest.raises(EntropyDomainError, match=r"negative density -0\.25 at node 9"):
        entropy("two-species", mixed, ref)
    # the same messages as for the single field
    with pytest.raises(EntropyDomainError, match=r"negative density -0\.25 at node 9"):
        entropy("two-species", DensityField(mixed[1], grid), ref)
    # roundoff undershoot is clamped row by row, as for one field
    dirty = block.copy()
    dirty[0, 0] = -1e-13
    got = entropy("logarithmic", dirty, ref)
    want = [entropy("logarithmic", DensityField(row, grid), ref) for row in dirty]
    assert np.array_equal(got, np.array(want))


def test_observer_error_of_a_pending_sample_comes_before_divergence(monkeypatch):
    # a sample above 1 (step 2) and a non-finite state (step 4) in one block:
    # evaluating each sample on its own would have raised at step 2 first
    from fokker_flux.transient import _ExplicitStepper

    grid = build_grid(20)
    model = ModelSpec("C", 1.0, 0.9)
    initial = build_initial(InitialSpec("parabola"), grid, model)
    original = _ExplicitStepper.step
    calls = []

    def poisoned(self, rho, dt):
        original(self, rho, dt)
        calls.append(None)
        if len(calls) == 2:
            rho[3] = 1.5
        if len(calls) == 4:
            rho[3] = np.nan

    monkeypatch.setattr(_ExplicitStepper, "step", poisoned)
    config = SolverConfig(dt=1e-4, t_end=0.01, observe_every=1)
    with pytest.raises(EntropyDomainError, match=r"density 1\.5 above 1 at node 3"):
        run_transient(discretize(model, grid), initial, config)
