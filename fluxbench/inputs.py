"""Workload inputs drawn from the benchmark seed.

Only initial-data coefficients are drawn, and only for the workloads whose
checks do not depend on the initial data; observe-mass keeps the paper's
profiles. The same seed gives the same sequence of inputs.
"""

from __future__ import annotations

import random


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(lo + (hi - lo) * rng.random(), 6)


def model_a_initial(rng: random.Random) -> dict:
    """Affine data below the model-A steady state, ``1 - c (1 + r x)``.

    Every steady state of the sweep lies in [1, 2], so the deviation has one
    sign for every gamma and the slowest mode dominates the decay early.
    """
    c = _draw(rng, 0.2, 0.45)
    r = _draw(rng, 0.2, 1.2)
    return {"initial": {"kind": "affine", "a": round(-c * r, 6), "b": round(1.0 - c, 6)}}


def model_c_initial(rng: random.Random) -> dict:
    """Affine data with every value in [0.3, 0.7], inside the model-C box.

    The range is kept narrow because the Newton iteration count, and so the
    run time, depends on the data.
    """
    return {"initial": {"kind": "affine", "a": _draw(rng, -0.1, 0.1), "b": _draw(rng, 0.4, 0.6)}}


DRAWS = {
    "explicit-A": model_a_initial,
    "observe-mass": lambda rng: {},
    "implicit-C": model_c_initial,
    "sweep-A": model_a_initial,
}
