import math

import numpy as np
import pytest

from fokker_flux import (
    InvalidModelError,
    ModelSpec,
    PotentialSpec,
    build_grid,
    discretize,
    nodal_residual,
    slotboom_system,
    stationary_closed,
    stationary_numeric,
    trapezoid,
)

LINEAR = PotentialSpec("linear")
ZERO = PotentialSpec("zero")


def direct_integration_A(x, alpha, beta):
    # independent route: solving -rho' + rho = alpha for V(x) = x gives
    # rho(x) = alpha + (1/(beta e) - 1/e) alpha e^x
    return alpha + (1.0 / (beta * math.e) - 1.0 / math.e) * alpha * np.exp(x)


def test_modelA_closed_matches_direct_integration():
    g = build_grid(200)
    sol = stationary_closed(discretize(ModelSpec("A", 1.0, 0.9, LINEAR), g))
    assert np.max(np.abs(sol.field.values - direct_integration_A(g.nodes, 1.0, 0.9))) < 1e-13


@pytest.mark.parametrize("solve", [stationary_closed, stationary_numeric])
@pytest.mark.parametrize("model, message", [
    (ModelSpec("B", 1e308, 0.9, LINEAR), r"finite, positive; node \d+ is (inf|nan)"),
    (ModelSpec("A", 1e308, 0.5, LINEAR), r"finite, positive; node \d+ is (inf|nan)"),
    (ModelSpec("C", 2.0**62, 0.9, LINEAR), r"finite, positive and below 1; node 0 is 1\.0"),
])
def test_stationary_density_outside_the_entropy_domain_is_rejected(solve, model, message):
    # rates past double precision: the density overflows, or rounds to 1 for model C
    with np.errstate(all="ignore"), pytest.raises(InvalidModelError, match=message):
        solve(discretize(model, build_grid(20)))


def test_modelA_outflow_identity_exact():
    for beta in (0.5, 0.9, 1.0, 2.0):
        g = build_grid(101)
        sol = stationary_closed(discretize(ModelSpec("A", 1.0, beta, LINEAR), g))
        assert sol.field.values[-1] == pytest.approx(1.0 / beta, rel=1e-14)


def test_modelA_equilibrium_mass():
    g = build_grid(200)
    sol = stationary_closed(discretize(ModelSpec("A", 1.0, 0.9, LINEAR), g))
    assert trapezoid(sol.field.values, g.dx) == pytest.approx(1.0703, abs=2e-3)


def test_modelA_zero_potential_reduces_to_line():
    # with V = 0 the constant flux alpha integrates to rho = C - alpha x,
    # C = alpha (1/beta + 1); for alpha = beta = 1 the outflow value is 1
    g = build_grid(50)
    sol = stationary_closed(discretize(ModelSpec("A", 1.0, 1.0, ZERO), g))
    assert np.max(np.abs(sol.field.values - (2.0 - g.nodes))) < 1e-13
    assert sol.field.values[-1] == pytest.approx(1.0)


def test_modelA_tabulated_potential_consistent_with_linear():
    g = build_grid(400)
    tab = PotentialSpec("tabulated", values=g.nodes.copy())
    exact = stationary_closed(discretize(ModelSpec("A", 1.0, 0.9, LINEAR), g)).field.values
    approx = stationary_closed(discretize(ModelSpec("A", 1.0, 0.9, tab), g)).field.values
    assert np.max(np.abs(exact - approx)) < 1e-6  # trapezoid cumulative error


def test_nonlinear_tabulated_potential_routes_agree():
    # closed form (trapezoid cumulative) and the Slotboom solve are
    # independent discretizations; their gap shrinks at second order
    gaps = []
    for n in (100, 200, 400):
        g = build_grid(n)
        pot = PotentialSpec("tabulated", values=0.3 * np.sin(2 * np.pi * g.nodes) + g.nodes)
        d = discretize(ModelSpec("A", 1.0, 0.9, pot), g)
        closed = stationary_closed(d).field.values
        numeric = stationary_numeric(d).field.values
        assert numeric.min() > 0.0
        gaps.append(np.max(np.abs(closed - numeric)))
    assert 3.0 < gaps[0] / gaps[1] < 5.0
    assert 3.0 < gaps[1] / gaps[2] < 5.0


def test_modelB_closed_values():
    g = build_grid(200)
    assert np.all(
        stationary_closed(discretize(ModelSpec("B", 1.0, 1.0, ZERO), g)).field.values == 1.0
    )
    sol = stationary_closed(discretize(ModelSpec("B", 1.0, 0.9, LINEAR), g))
    assert sol.field.values[-1] == pytest.approx(math.e / 0.9, rel=1e-14)
    assert np.all(
        stationary_closed(discretize(ModelSpec("B", 2.0, 1.0, ZERO), g)).field.values == 2.0
    )


def test_modelC_closed_values():
    g = build_grid(200)
    assert np.all(
        stationary_closed(discretize(ModelSpec("C", 1.0, 1.0, ZERO), g)).field.values == 0.5
    )
    sol = stationary_closed(discretize(ModelSpec("C", 1.0, 0.9, LINEAR), g))
    assert sol.field.values[-1] == pytest.approx(math.e / (0.9 + math.e), rel=1e-14)
    tiny = stationary_closed(discretize(ModelSpec("C", 1e-6, 1.0, ZERO), g))
    assert tiny.field.values[0] == pytest.approx(1e-6, rel=1e-5)
    assert 0.0 < tiny.field.values.min() and tiny.field.values.max() < 1.0


def test_rates_must_be_positive():
    g = build_grid(10)
    with pytest.raises(InvalidModelError):
        stationary_closed(discretize(ModelSpec("A", 0.0, 1.0, LINEAR), g))
    with pytest.raises(InvalidModelError):
        stationary_closed(discretize(ModelSpec("B", 1.0, -1.0, LINEAR), g))
    with pytest.raises(InvalidModelError):
        stationary_closed(discretize(ModelSpec("C", 1.0, 0.0, LINEAR), g))


def test_numeric_matches_closed_form_model_A():
    g = build_grid(200)
    m = ModelSpec("A", 1.0, 0.9, LINEAR)
    d = discretize(m, g)
    closed = stationary_closed(d)
    numeric = stationary_numeric(d)
    assert numeric.method == "numeric"
    assert np.max(np.abs(numeric.field.values - closed.field.values)) < 1e-6


def test_numeric_convergence_is_second_order():
    m = ModelSpec("A", 1.0, 0.9, LINEAR)
    errs = []
    for n in (100, 200, 400):
        d = discretize(m, build_grid(n))
        closed = stationary_closed(d).field.values
        numeric = stationary_numeric(d).field.values
        errs.append(np.max(np.abs(numeric - closed)))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_numeric_model_B_is_exact():
    g = build_grid(200)
    m = ModelSpec("B", 1.3, 0.7, LINEAR)
    d = discretize(m, g)
    closed = stationary_closed(d)
    numeric = stationary_numeric(d)
    assert np.max(np.abs(numeric.field.values - closed.field.values)) < 1e-8


def test_numeric_model_C_delegates_to_closed_form():
    g = build_grid(100)
    m = ModelSpec("C", 1.0, 0.9, LINEAR)
    sol = stationary_numeric(discretize(m, g))
    assert sol.method == "closed-form"
    assert sol.residual < 1e-10


def test_slotboom_matrix_symmetric_and_dominant():
    g = build_grid(200)
    for m in (ModelSpec("A", 1.0, 0.9, LINEAR), ModelSpec("B", 1.0, 0.9, LINEAR)):
        lower, diag, upper, _ = slotboom_system(discretize(m, g))
        assert np.array_equal(lower, upper)
        row_off = np.zeros_like(diag)
        row_off[:-1] += np.abs(upper)
        row_off[1:] += np.abs(lower)
        assert np.all(diag >= row_off - 1e-14)
        assert diag[-1] > row_off[-1]  # outflow/absorption makes one row strict


def test_slotboom_rejects_model_C():
    g = build_grid(10)
    with pytest.raises(InvalidModelError):
        slotboom_system(discretize(ModelSpec("C", 1.0, 1.0, LINEAR), g))


def test_numeric_positivity():
    g = build_grid(150)
    for m in (ModelSpec("A", 0.3, 2.0, LINEAR), ModelSpec("B", 0.5, 1.5, ZERO)):
        assert stationary_numeric(discretize(m, g)).field.values.min() > 0.0


def test_uniqueness_probe_guess_independent():
    g = build_grid(200)
    m = ModelSpec("A", 1.0, 0.9, LINEAR)
    d = discretize(m, g)
    base = stationary_numeric(d).field.values
    rng = np.random.default_rng(7)
    guess = base * np.exp(-g.nodes) + rng.normal(scale=0.3, size=g.n)
    probed = stationary_numeric(d, guess=guess).field.values
    assert np.max(np.abs(probed - base)) < 1e-12


def test_residual_of_numeric_solution_below_tolerance():
    g = build_grid(200)
    for m in (ModelSpec("A", 1.0, 0.9, LINEAR), ModelSpec("B", 1.0, 0.9, LINEAR)):
        assert stationary_numeric(discretize(m, g)).residual < 1e-10


def test_residual_of_closed_form_shrinks_under_refinement():
    # interior rows are second order (exactly zero for a linear potential);
    # the half-cell boundary rows are first order and set the sup norm
    m = ModelSpec("A", 1.0, 0.9, LINEAR)
    sups, interiors = [], []
    for n in (100, 200, 400):
        d = discretize(m, build_grid(n))
        r = nodal_residual(d, stationary_closed(d).field.values)
        sups.append(np.max(np.abs(r)))
        interiors.append(np.max(np.abs(r[1:-1])))
    assert 1.8 < sups[0] / sups[1] < 2.2
    assert 1.8 < sups[1] / sups[2] < 2.2
    assert all(i < 1e-8 for i in interiors)


def test_residual_of_perturbed_model_B():
    # shifting the steady state by a constant c leaves the flux divergence
    # untouched (linear V) and changes the reaction by -beta c e^{-V}
    g = build_grid(200)
    m = ModelSpec("B", 1.0, 0.9, LINEAR)
    d = discretize(m, g)
    shifted = stationary_closed(d).field.values + 0.1
    r = nodal_residual(d, shifted)
    expected = 0.1 * 0.9 * np.exp(-g.nodes[1:-1])
    assert np.max(np.abs(np.abs(r[1:-1]) - expected)) < 1e-3
    assert np.max(np.abs(r[1:-1])) == pytest.approx(0.09, abs=1e-3)
    # boundary rows see the constant's drift flux against the no-flux faces
    assert abs(r[0]) > 1.0 and abs(r[-1]) > 1.0


def faces_residual(d, rho):
    """The nodal residual written face by face: all n + 1 faces, their
    differences over the cell volumes, minus the reaction."""
    model, dx = d.model, d.grid.dx
    if model.model in ("A", "B"):
        u = rho * d.exp_neg_v
        flux = -d.exp_v_faces * (u[..., 1:] - u[..., :-1]) / dx
    else:
        clipped = np.clip(rho, 1e-15, 1.0 - 1e-15)
        u = np.log(clipped / (1.0 - clipped)) - d.v
        mean = 0.5 * (rho[..., :-1] + rho[..., 1:])
        flux = -(mean * (1.0 - mean)) * (u[..., 1:] - u[..., :-1]) / dx
    faces = np.zeros(rho.shape[:-1] + (d.grid.n + 1,))
    faces[..., 1:-1] = flux
    reaction = 0.0
    if model.model == "A":
        faces[..., 0] = model.alpha
        faces[..., -1] = model.beta * rho[..., -1]
    elif model.model == "B":
        reaction = model.alpha - model.beta * rho * d.exp_neg_v
    else:
        reaction = model.alpha * (1.0 - rho) - model.beta * rho * d.exp_neg_v
    return (faces[..., 1:] - faces[..., :-1]) / d.volumes - reaction


@pytest.mark.parametrize("n", [3, 4, 17, 200])
@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_nodal_residual_equals_the_face_by_face_form(name, n):
    # the residual runs over whole flattened blocks; no value of one row may
    # reach another, and each entry is computed as face by face, bit for bit
    d = discretize(ModelSpec(name, 1.0, 0.9, PotentialSpec("scaled-linear", gamma=-2.5)),
                   build_grid(n))
    rng = np.random.default_rng(n)
    block = rng.uniform(0.0, 1.0, (5, n))
    block[1] = 0.0  # a row of zeros (clipped for model C) beside nonzero rows
    strided = np.ones((5, n + 1))
    strided[:, :-1] = block
    for rho in (block, strided[:, :-1], block[2]):
        got = nodal_residual(d, rho)
        assert got.shape == rho.shape
        assert np.array_equal(got, faces_residual(d, rho))
    for i, row in enumerate(block):
        assert np.array_equal(nodal_residual(d, block)[i], nodal_residual(d, row))
