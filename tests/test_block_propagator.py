"""Block propagator of models A and B in run_transient.

A linear-model run computes its samples on the stride a block at a time:
the first block by doubling, each later one with one product by
``P^(stride * OBSERVER_BLOCK)``; snapshots and a final step off the stride
are advanced from the sample before them. These tests hold it to the
discrete mass balance, to one explicit step at a time across block
boundaries, and to the divergence contract.
"""

import tracemalloc

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
    preset_config,
    run_transient,
)
from fokker_flux.transient import OBSERVER_BLOCK, _ExplicitStepper

from sampled import run_sampled

B = OBSERVER_BLOCK


@pytest.mark.parametrize("name, t_end", [("mass1", 0.16), ("mass2", 0.165)])
def test_every_step_keeps_the_mass_balance(name, t_end):
    # the observe-mass benchmark configuration: 16 001+ samples, many blocks
    alpha, beta, dt = 1.0, 0.9, 1e-5
    config = preset_config(name, {"alpha": alpha, "beta": beta, "n": 200, "dt": dt,
                                  "t_end": t_end, "observe_every": 1})
    traj = run_transient(config.d, config.initial, config.solver)
    assert traj.times.size == traj.steps + 1 > 100 * B
    balance = np.diff(traj.mass) - dt * (alpha - beta * traj.outflow_density[:-1])
    assert np.max(np.abs(balance)) <= 1e-13 * (1.0 + traj.max_value)
    assert traj.min_value >= 0.0


def stepped_states(model, initial, dt, steps, wanted):
    """The states at the steps in ``wanted``, one explicit step at a time."""
    stepper = _ExplicitStepper(discretize(model, initial.grid))
    rho = initial.values.copy()
    states = {0: rho.copy()}
    for k in range(1, steps + 1):
        stepper.step(rho, dt)
        if k in wanted:
            states[k] = rho.copy()
    return states


@pytest.mark.parametrize("stride", [1, 7, 333])
@pytest.mark.parametrize("model_name", ["A", "B"])
def test_block_boundaries_match_stepping(model_name, stride):
    grid = build_grid(20)
    model = ModelSpec(model_name, 1.0, 0.9, PotentialSpec("linear"))
    initial = build_initial(InitialSpec("parabola"), grid, model)
    dt = 1e-4
    runs = []
    for strided in (B - 1, B, B + 1, 2 * B + 1):  # samples on the stride, step 0 included
        steps = (strided - 1) * stride + stride // 2  # the final step off the stride if stride > 1
        snap_step = (strided // 2) * stride + stride // 3  # off the stride if stride > 1
        runs.append((steps, snap_step))
    wanted = {k for steps, snap in runs for k in (*range(0, steps + 1, stride), steps, snap)}
    reference = stepped_states(model, initial, dt, max(s for s, _ in runs), wanted)
    d = discretize(model, grid)
    for steps, snap_step in runs:
        config = SolverConfig(dt=dt, t_end=steps * dt, observe_every=stride)
        traj, fields = run_sampled(d, initial, config, snapshot_times=[snap_step * dt])
        sampled = [*range(0, steps, stride), steps]
        assert traj.steps == steps
        assert np.array_equal(traj.times, np.array(sampled) * dt)
        assert len(fields) == len(sampled)
        for k, field in zip(sampled, fields):
            assert np.max(np.abs(field.values - reference[k])) <= 1e-10, k
        assert np.max(np.abs(traj.final.values - reference[steps])) <= 1e-10
        [(t, snap)] = traj.snapshots
        assert t == snap_step * dt
        assert np.max(np.abs(snap.values - reference[snap_step])) <= 1e-10
        states = [reference[k] for k in {*sampled, snap_step}]
        assert traj.min_value == pytest.approx(min(s.min() for s in states), abs=1e-10)
        assert traj.max_value == pytest.approx(max(s.max() for s in states), abs=1e-10)


def test_each_later_block_is_the_block_before_times_the_block_power():
    rng = np.random.default_rng(3)
    n = 20
    power = rng.uniform(0.0, 1.0, (n + 1, n + 1))
    power /= power.sum(axis=1, keepdims=True)
    block_power = power
    for _ in range(B.bit_length() - 1):  # P^B by the squarings of the first block
        block_power = block_power @ block_power
    count = 3 * B + 5
    blocks = transient._strided_blocks(rng.uniform(0.0, 1.0, n), power, count)
    before = next(blocks).copy()
    sizes = [len(before)]
    for block in blocks:
        # bit for bit the block before times P^B
        assert np.array_equal(block, before[: len(block)] @ block_power.T)
        before = block.copy()
        sizes.append(len(block))
    assert sizes == [B, B, B, 5]


def test_divergence_in_a_later_block_reported_at_its_row(monkeypatch):
    grid = build_grid(20)
    model = ModelSpec("A", 1.0, 0.9, PotentialSpec("linear"))
    initial = build_initial(InitialSpec("parabola"), grid, model)
    stride, dt = 3, 1e-4
    bad_sample = 2 * B + 5  # row 5 of the third block
    original = transient._strided_blocks

    def poisoned(*args):
        for index, rows in enumerate(original(*args)):
            if index == 2:
                rows[5, 4] = np.nan
            yield rows

    observed = []
    entropy = transient.entropy

    def recording_entropy(kind, rows, ref):
        observed.append(np.array(rows))
        return entropy(kind, rows, ref)

    monkeypatch.setattr(transient, "_strided_blocks", poisoned)
    monkeypatch.setattr(transient, "entropy", recording_entropy)
    config = SolverConfig(dt=dt, t_end=4 * B * stride * dt, observe_every=stride)
    with pytest.raises(DivergenceError) as excinfo:
        run_transient(discretize(model, grid), initial, config)
    assert excinfo.value.step == bad_sample * stride
    assert excinfo.value.time == bad_sample * stride * dt
    # the observers ran on every sample before it, and on nothing after it
    rows = np.concatenate(observed)
    assert rows.shape[0] == bad_sample
    assert np.all(np.isfinite(rows))


def test_the_doubling_owns_the_stride_power():
    # the explicit-A benchmark configuration: P^s is handed to the first
    # block's doubling, which frees it after its first squaring
    config = preset_config("entropy-A", {"n": 200, "dt": 5e-6, "t_end": 0.7,
                                         "observe_every": 1000})
    reference = transient.stationary_numeric(config.d)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = run_transient(config.d, config.initial, config.solver, reference=reference)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert traj.times.size == 141 > 2 * B
    assert peak < 3.5 * 8 * 201**2
