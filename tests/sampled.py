"""The state at every observer sample of a run, read from its snapshots.

A run keeps states only as snapshots (and its final state); a snapshot at
each sample time keeps every sample, through the path every run observes by.
"""

from dataclasses import replace

from fokker_flux import run_transient


def sample_times(config):
    """The time of every observer sample of a run of ``config`` (a
    SolverConfig), clamped to ``t_end`` as run configurations require:
    ``1200 * 1000 * 5e-6`` is above the ``t_end`` 6 of ``entropy-A``."""
    steps = int(round(config.t_end / config.dt))
    ks = (*range(0, steps, config.observe_every), steps)
    return [min(k * config.dt, config.t_end) for k in ks]


def run_sampled(d, initial, config, snapshot_times=(), **kwargs):
    """``run_transient`` with a snapshot at every sample after those
    ``snapshot_times`` asks for: the trajectory, holding only the snapshots
    asked for, and the field at every sample, in order."""
    traj = run_transient(
        d, initial, config, snapshot_times=[*snapshot_times, *sample_times(config)], **kwargs
    )

    def step(t):  # as run_transient places a snapshot time
        return min(traj.steps, int(round(t / traj.dt)))

    by_step = {step(t): field for t, field in traj.snapshots}
    asked = {step(t) for t in snapshot_times}
    fields = tuple(by_step[step(t)] for t in traj.times)
    return replace(traj, snapshots=tuple(s for s in traj.snapshots if step(s[0]) in asked)), fields
