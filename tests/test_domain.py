import math

import numpy as np
import pytest

from fokker_flux import (
    DensityField,
    InitialSpec,
    InvalidGridError,
    InvalidInitialError,
    InvalidModelError,
    ModelSpec,
    PotentialSpec,
    ShapeError,
    build_grid,
    build_initial,
    eval_potential,
    node_average,
    trapezoid,
)

ONE_ULP = 2.0**-52


def test_grid_n3_is_exact():
    g = build_grid(3)
    assert g.dx == 0.5
    assert np.array_equal(g.nodes, [0.0, 0.5, 1.0])
    assert np.max(np.abs(np.diff(g.nodes) - g.dx)) == 0.0


def test_grid_paper_resolution():
    g = build_grid(200)
    assert g.dx == 1.0 / 199.0
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0


def test_grid_rejects_degenerate():
    with pytest.raises(InvalidGridError):
        build_grid(2)
    with pytest.raises(InvalidGridError):
        build_grid(0)


def test_grid_too_large_to_allocate_is_a_grid_error():
    # numpy refuses 2**62 float64 nodes before it allocates anything
    with pytest.raises(InvalidGridError, match=r"cannot allocate a grid of n=4611686018427387904"):
        build_grid(2**62)


@pytest.mark.parametrize("n", [3, 5, 17, 100, 199, 200, 201, 513, 1000])
def test_grid_uniformity(n):
    # exact-zero spacing deviation is not representable for general n in
    # binary floating point; integer-indexed construction stays within 1 ulp
    g = build_grid(n)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
    assert np.all(np.diff(g.nodes) > 0.0)
    assert np.max(np.abs(np.diff(g.nodes) - g.dx)) <= ONE_ULP


def test_potential_linear_values():
    g = build_grid(3)
    v, _, slope = eval_potential(PotentialSpec("linear"), g)
    assert v[1] == 0.5
    assert np.all(slope == 1.0)


def test_potential_zero():
    g = build_grid(5)
    v, _, slope = eval_potential(PotentialSpec("zero"), g)
    assert np.all(v == 0.0) and np.all(slope == 0.0)


def test_potential_scaled_linear():
    g = build_grid(5)
    v, _, slope = eval_potential(PotentialSpec("scaled-linear", gamma=2.0), g)
    assert v[-1] == 2.0
    assert np.all(slope == 2.0)


def test_potential_tabulated_faces_interpolate():
    g = build_grid(4)
    vals = np.array([0.0, 0.3, 0.1, 0.4])
    _, v_faces, slope = eval_potential(PotentialSpec("tabulated", values=vals), g)
    assert v_faces == pytest.approx([0.15, 0.2, 0.25])
    assert slope == pytest.approx([0.9, -0.6, 0.9])


def test_potential_tabulated_wrong_length():
    g = build_grid(5)
    spec = PotentialSpec("tabulated", values=np.zeros(4))
    with pytest.raises(ShapeError):
        eval_potential(spec, g)


def test_potential_tabulated_rejects_nonfinite():
    with pytest.raises(InvalidModelError):
        PotentialSpec("tabulated", values=np.array([0.0, np.inf]))


@pytest.mark.parametrize("build, error, message", [
    (lambda: PotentialSpec("tabulated"), InvalidModelError,
     "tabulated potential needs nodal values"),
    (lambda: PotentialSpec("tabulated", values=np.zeros(5)).slope, InvalidModelError,
     "tabulated potential has no constant slope"),
    (lambda: DensityField(np.array([0.5, 0.5, math.nan, 0.5]), build_grid(4)).validate_for_model(
        ModelSpec("A", 1.0, 1.0)), InvalidInitialError, "non-finite density at node 2"),
    (lambda: InitialSpec("tabulated"), InvalidInitialError,
     "tabulated initial condition needs values"),
], ids=["potential-without-values", "tabulated-slope", "non-finite-density",
        "initial-without-values"])
def test_domain_input_errors_name_their_cause(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_model_requires_positive_rates():
    with pytest.raises(InvalidModelError, match="beta >= beta_0 > 0"):
        ModelSpec("A", 1.0, 0.0)
    with pytest.raises(InvalidModelError, match="alpha >= alpha_0 > 0"):
        ModelSpec("B", 0.0, 1.0)
    with pytest.raises(InvalidModelError):
        ModelSpec("D", 1.0, 1.0)


def test_density_field_shape_checked():
    g = build_grid(5)
    with pytest.raises(ShapeError):
        DensityField(np.zeros(4), g)


def test_initial_affine_matches_reference_run():
    g = build_grid(200)
    m = ModelSpec("A", 1.0, 0.9)
    f = build_initial(InitialSpec("affine", a=-0.1, b=1.2), g, m)
    assert f.values[0] == 1.2
    assert f.values[-1] == pytest.approx(1.1)


def test_mass1_profile_is_continuous():
    # continuity of the plateau-cosine profile at the junctions
    ramp = lambda x: 1.9 * (0.5 * math.cos(4 * math.pi * x) + 0.5)
    assert ramp(0.5) == pytest.approx(1.9, abs=1e-12)
    assert ramp(0.75) == pytest.approx(0.0, abs=1e-12)
    g = build_grid(2001)
    m = ModelSpec("A", 1.0, 0.9)
    f = build_initial(InitialSpec("mass1"), g, m)
    jumps = np.abs(np.diff(f.values))
    assert jumps.max() < 0.03  # no O(1) jump anywhere on a fine grid


def test_mass1_masses():
    # exact integral of the profile: 1.9/2 + 1.9 * 0.5 * 0.25 = 1.1875
    g = build_grid(200)
    m = ModelSpec("A", 1.0, 0.9)
    f = build_initial(InitialSpec("mass1"), g, m)
    assert trapezoid(f.values, g.dx) == pytest.approx(1.1875, abs=2e-3)
    # the reference tabulation (node-average quadrature) reports about 1.1863
    assert node_average(f.values) == pytest.approx(1.1863, abs=5e-3)


def test_mass2_masses():
    # exact integral: 3000 * 0.1^3 / 3 = 1; the node-average value is 1.0711
    g = build_grid(200)
    m = ModelSpec("A", 1.0, 0.9)
    f = build_initial(InitialSpec("mass2"), g, m)
    assert f.values[-1] == pytest.approx(30.0)
    assert trapezoid(f.values, g.dx) == pytest.approx(1.0, abs=3e-3)
    assert node_average(f.values) == pytest.approx(1.0711, abs=5e-3)


def test_initial_box_validation_names_node():
    # with an odd node count x = 0.5 is a node and the parabola touches 1
    g = build_grid(201)
    mc = ModelSpec("C", 1.0, 0.9)
    with pytest.raises(InvalidInitialError, match=r"node 100.*x = 1/2.*use an even n"):
        build_initial(InitialSpec("parabola"), g, mc)


def test_initial_negative_rejected_for_linear_models():
    g = build_grid(11)
    m = ModelSpec("A", 1.0, 1.0)
    with pytest.raises(InvalidInitialError, match="node 10"):
        build_initial(InitialSpec("affine", a=-1.0, b=0.5), g, m)


@pytest.mark.parametrize("kind", ["affine", "parabola", "mass1", "mass2"])
def test_every_builtin_initial_passes_its_model(kind):
    g = build_grid(200)
    model = ModelSpec("C" if kind == "parabola" else "A", 1.0, 0.9)
    f = build_initial(InitialSpec(kind), g, model)
    f.validate_for_model(model)


def test_tabulated_initial_roundtrip_and_shape():
    g = build_grid(6)
    m = ModelSpec("B", 1.0, 1.0)
    vals = np.linspace(0.5, 1.0, 6)
    f = build_initial(InitialSpec("tabulated", values=vals), g, m)
    assert np.array_equal(f.values, vals)
    with pytest.raises(ShapeError):
        build_initial(InitialSpec("tabulated", values=vals[:-1]), g, m)


def test_fields_are_immutable():
    g = build_grid(5)
    with pytest.raises(ValueError):
        g.nodes[0] = 1.0
    f = DensityField(np.ones(5), g)
    with pytest.raises(ValueError):
        f.values[0] = 2.0
