"""Property tests of one explicit step on random admissible states."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fokker_flux import (  # noqa: E402
    DensityField,
    ModelSpec,
    PotentialSpec,
    StabilityError,
    build_grid,
    discretize,
    step_explicit,
    trapezoid,
)

rates = st.floats(0.1, 2.0)
gammas = st.floats(-3.0, 3.0)
# dt as a share of its bound, the bound itself included; a share of at least
# 1e-300 keeps dt a positive double (a smaller one can round it to 0, a time
# step step_explicit rejects)
fractions = st.one_of(st.just(1.0), st.floats(1e-300, 1.0))


@st.composite
def states(draw, model_name):
    """(model, grid, state) with the state admissible for the model."""
    n = draw(st.integers(8, 64))
    model = ModelSpec(
        model_name, draw(rates), draw(rates), PotentialSpec("scaled-linear", gamma=draw(gammas))
    )
    top = 1.0 if model.crowded else 5.0
    # the box edges drawn often: steep profiles are where positivity is tight
    value = st.one_of(st.sampled_from([0.0, top]), st.floats(0.0, top))
    values = draw(st.lists(value, min_size=n, max_size=n))
    grid = build_grid(n)
    return model, grid, DensityField(np.array(values), grid)


def positivity_bound(model, grid):
    """The stability bound, and for model A also its outflow term.

    ``Discretization.max_dt`` leaves out the outflow ``beta rho`` of model A's half
    cell at x = 1: with it, the diagonal of the step matrix there is
    ``1 - (2 dt/dx)(beta + 1/dx - V'/2)``, nonnegative for
    ``dt <= dx^2 / (2 + dx (2 beta + sup|V'|))``.
    """
    bound = discretize(model, grid).max_dt
    if model.model == "A":
        slope = abs(model.potential.slope)
        bound = min(bound, grid.dx**2 / (2.0 + grid.dx * (2.0 * model.beta + slope)))
    return bound


@settings(max_examples=200, deadline=None)
@given(states("A"), fractions)
def test_model_A_step_keeps_the_discrete_mass_balance(drawn, fraction):
    model, grid, rho = drawn
    d = discretize(model, grid)
    dt = fraction * d.max_dt
    try:
        after = step_explicit(rho, d, dt)
    except StabilityError:  # the positivity certificate, which max_dt does not imply
        assert dt > positivity_bound(model, grid)
        return
    gap = (trapezoid(after.values, grid.dx) - trapezoid(rho.values, grid.dx)) - dt * (
        model.alpha - model.beta * rho.values[-1]
    )
    assert abs(gap) <= 1e-13 * (1.0 + rho.values.max())


@settings(max_examples=200, deadline=None)
@given(st.sampled_from("ABC").flatmap(states), fractions)
def test_step_keeps_positivity_and_the_box(drawn, fraction):
    model, grid, rho = drawn
    d = discretize(model, grid)
    after = step_explicit(rho, d, fraction * positivity_bound(model, grid)).values
    assert after.min() >= -1e-15 * (1.0 + rho.values.max())
    if model.crowded:
        assert after.max() <= 1.0 + 1e-15
