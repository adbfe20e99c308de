"""The events of a run: samples, snapshots and the final step.

Every scheme hands run_transient the states of its events in order, a
block at a time, and one path checks them for divergence, copies the
snapshots and observes the samples. These tests hold that path to the
stride-1 run, whose samples are every step, and to the divergence contract:
the error at the step of the first non-finite state, the observers on every
sample before it and on none after it.
"""

import numpy as np
import pytest

import fokker_flux.transient as transient
from fokker_flux import (
    DivergenceError,
    InitialSpec,
    ModelSpec,
    PotentialSpec,
    SolverConfig,
    build_grid,
    build_initial,
    discretize,
    run_transient,
)
from fokker_flux.transient import OBSERVER_BLOCK, _ExplicitStepper

STRIDE = 7
# 62 samples on the stride and a final step off it: one observer block for
# models A and B; model C's block also takes the two snapshots off the stride
# and so fills up one row before the final step
STEPS = 61 * STRIDE + 3
SCHEMES = [("A", "explicit", 1e-4), ("B", "explicit", 1e-4),
           ("C", "explicit", 1e-4), ("C", "implicit-entropy", 1e-3)]


def setup(model_name):
    grid = build_grid(40)
    model = ModelSpec(model_name, 1.0, 0.9, PotentialSpec("linear"))
    return discretize(model, grid), build_initial(InitialSpec("parabola"), grid, model)


def recording(monkeypatch):
    """The rows every entropy evaluation of a run sees, in order."""
    observed = []
    entropy = transient.entropy

    def recording_entropy(kind, rows, ref):
        observed.append(np.array(rows))
        return entropy(kind, rows, ref)

    monkeypatch.setattr(transient, "entropy", recording_entropy)
    return observed


@pytest.mark.parametrize("model_name, scheme, dt", SCHEMES)
def test_events_in_one_block_match_the_stride_1_run(model_name, scheme, dt):
    d, initial = setup(model_name)
    t_end = STEPS * dt
    every = run_transient(
        d, initial, SolverConfig(dt=dt, t_end=t_end, observe_every=1, scheme=scheme),
        keep_fields=True,
    )
    states = [field.values for field in every.sampled_fields]  # one per step
    # out of order: t_end, off the stride (20), two requests for step 30, t = 0,
    # on the stride (14)
    requests = [t_end, 20 * dt, 30.4 * dt, 0.0, 14 * dt, 29.6 * dt]
    traj = run_transient(
        d, initial, SolverConfig(dt=dt, t_end=t_end, observe_every=STRIDE, scheme=scheme),
        snapshot_times=requests, keep_fields=True,
    )
    # bit for bit for model C, which steps; A and B use powers of the step matrix
    tol = 0.0 if model_name == "C" else 1e-10
    assert [t for t, _ in traj.snapshots] == [0.0, 14 * dt, 20 * dt, 30.4 * dt, t_end]
    for (_, snap), k in zip(traj.snapshots, [0, 14, 20, 30, STEPS]):
        assert np.max(np.abs(snap.values - states[k])) <= tol, k
    sampled = [*range(0, STEPS, STRIDE), STEPS]
    assert np.array_equal(traj.times, every.times[sampled])
    assert len(traj.sampled_fields) == len(sampled)
    for field, k in zip(traj.sampled_fields, sampled):
        assert np.max(np.abs(field.values - states[k])) <= tol, k
    assert np.max(np.abs(traj.final.values - states[STEPS])) <= tol
    if model_name == "C":  # every step is a state of both runs
        assert np.array_equal(traj.entropy, every.entropy[sampled])
        assert (traj.min_value, traj.max_value) == (every.min_value, every.max_value)


@pytest.mark.parametrize("model_name, scheme, dt", SCHEMES)
def test_zero_step_run(model_name, scheme, dt):
    d, initial = setup(model_name)
    traj = run_transient(
        d, initial, SolverConfig(dt=dt, t_end=0.0, observe_every=STRIDE, scheme=scheme),
        snapshot_times=[0.0, 0.0], keep_fields=True,
    )
    assert traj.steps == 0
    assert np.array_equal(traj.times, [0.0])
    [(t, snap)] = traj.snapshots
    assert t == 0.0 and np.array_equal(snap.values, initial.values)
    [field] = traj.sampled_fields
    assert np.array_equal(field.values, initial.values)
    assert np.array_equal(traj.final.values, initial.values)
    assert (traj.min_value, traj.max_value) == (initial.values.min(), initial.values.max())


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_explicit_c_divergence_at_an_unsampled_step(value, monkeypatch):
    d, initial = setup("C")
    dt, bad_step = 1e-4, 600  # in the second observer block, off the stride
    assert OBSERVER_BLOCK * STRIDE < bad_step < 2 * OBSERVER_BLOCK * STRIDE
    config = SolverConfig(dt=dt, t_end=1000 * dt, observe_every=STRIDE)
    clean = run_transient(d, initial, config, keep_fields=True)
    original = _ExplicitStepper.step
    calls = []

    def poisoned(self, rho, dt):
        original(self, rho, dt)
        calls.append(None)
        if len(calls) == bad_step:
            rho[5] = value

    observed = recording(monkeypatch)
    monkeypatch.setattr(_ExplicitStepper, "step", poisoned)
    with pytest.raises(DivergenceError) as excinfo:
        run_transient(d, initial, config)
    assert excinfo.value.step == bad_step
    assert excinfo.value.time == bad_step * dt
    # the observers ran on every sample before it, and on nothing after it
    rows = np.concatenate(observed)
    before = bad_step // STRIDE + 1
    assert rows.shape[0] == before
    assert np.array_equal(rows, [field.values for field in clean.sampled_fields[:before]])


@pytest.mark.parametrize("model_name", ["A", "B"])
def test_divergence_at_an_off_stride_snapshot(model_name, monkeypatch):
    # only the jump to the snapshot is poisoned: the snapshot state is not
    # finite, the later samples of its block are
    d, initial = setup(model_name)
    dt, snap_step = 1e-4, 600  # in the second observer block, off the stride
    original = _ExplicitStepper.jump_matrices

    def poisoned(self, dt, jumps):
        assert jumps == {snap_step % STRIDE, STRIDE}
        powers = original(self, dt, jumps)
        powers[snap_step % STRIDE] = powers[snap_step % STRIDE].copy()
        powers[snap_step % STRIDE][3, 3] = np.nan
        return powers

    observed = recording(monkeypatch)
    monkeypatch.setattr(_ExplicitStepper, "jump_matrices", poisoned)
    config = SolverConfig(dt=dt, t_end=150 * STRIDE * dt, observe_every=STRIDE)
    with pytest.raises(DivergenceError) as excinfo:
        run_transient(d, initial, config, snapshot_times=[snap_step * dt])
    assert excinfo.value.step == snap_step
    assert excinfo.value.time == snap_step * dt
    rows = np.concatenate(observed)
    assert rows.shape[0] == snap_step // STRIDE + 1
    assert np.all(np.isfinite(rows))
