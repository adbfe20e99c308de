"""The augmented step matrix ``P = [[T, c], [0, 1]]`` of models A and B.

``_ExplicitStepper.affine_matrix`` reads ``T`` off three comb steps. These
tests hold it, byte for byte, to the matrix read one column at a time,
``T e_j = step(e_j) - step(0)``, and pin the number of steps it takes.
"""

import math

import numpy as np
import pytest

from fokker_flux import StabilityError, preset_config
from fokker_flux.transient import _ROUNDOFF, _ExplicitStepper

SIZES = [3, 4, 5, 6, 7, 200]


def column_by_column(stepper, dt):
    """``P`` from n + 1 explicit steps: the zero field and every unit vector."""
    n = stepper.d.grid.n
    out = np.zeros((n + 1, n + 1))
    c = np.zeros(n)
    stepper.step(c, dt)
    for j in range(n):
        column = np.zeros(n)
        column[j] = 1.0
        stepper.step(column, dt)
        out[:n, j] = column - c
    out[:n, n] = c
    out[n, n] = 1.0
    return out


def configs(n):
    """Models A and B on the linear, gamma-0 and tabulated sin(3x) potentials."""
    sine = {"kind": "tabulated", "values": [math.sin(3.0 * i / (n - 1)) for i in range(n)]}
    for name in ("entropy-A", "entropy-B"):
        yield name, preset_config(name, {"n": n})
        yield f"{name}-tabulated", preset_config(name, {"n": n, "potential": sine})
    yield "entropy-A-gamma0", preset_config("entropy-A-gamma0", {"n": n})
    yield "entropy-B-gamma0", preset_config(
        "entropy-B", {"n": n, "potential": "scaled-linear", "gamma": 0.0}
    )


CASES = [
    pytest.param(config, dt, id=f"{label}-n{n}-{dt}")
    for n in SIZES
    for label, config in configs(n)
    for dt in ("preset", "auto", "bound")
]

# At the stability bound the model-A matrices on the gamma-0 and tabulated
# potentials break the certificate, so both outcomes are compared.
DT = {"preset": lambda config, d: config.solver.dt,
      "auto": lambda config, d: 0.5 * d.max_dt,
      "bound": lambda config, d: d.max_dt}


@pytest.mark.parametrize("config, dt", CASES)
def test_comb_matrix_is_the_column_by_column_matrix(config, dt):
    d = config.d
    step = DT[dt](config, d)
    oracle = column_by_column(_ExplicitStepper(d), step)
    T = oracle[:-1, :-1]
    if T.min() < -_ROUNDOFF:
        i, j = np.unravel_index(int(np.argmin(T)), T.shape)
        with pytest.raises(StabilityError, match=rf"T\[{i}, {j}\] = {T[i, j]:.3e}"):
            _ExplicitStepper(d).affine_matrix(step)
    else:
        assert _ExplicitStepper(d).affine_matrix(step).tobytes() == oracle.tobytes()


@pytest.mark.parametrize("n", [*SIZES, 8, 9, 10, 100, 401])
@pytest.mark.parametrize("name", ["entropy-A", "entropy-B"])
def test_building_p_takes_four_steps(monkeypatch, name, n):
    d = preset_config(name, {"n": n}).d
    calls = []
    original = _ExplicitStepper.step

    def counted(self, rho, dt):
        calls.append(None)
        original(self, rho, dt)

    monkeypatch.setattr(_ExplicitStepper, "step", counted)
    _ExplicitStepper(d).affine_matrix(0.5 * d.max_dt)
    assert len(calls) == 4
