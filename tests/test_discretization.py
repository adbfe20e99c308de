"""One Discretization per (model, grid), read by every scheme."""

import warnings

import numpy as np
import pytest

import fokker_flux.domain as domain
import fokker_flux.entropy as entropy_module
import fokker_flux.stationary as stationary
import fokker_flux.transient as transient
from fokker_flux import (
    DensityField,
    InitialSpec,
    ModelSpec,
    PotentialSpec,
    ShapeError,
    SolverConfig,
    build_grid,
    build_initial,
    discretize,
    execute,
    flux_field,
    predicted_rate,
    preset_config,
    run_transient,
    stationary_numeric,
    step_explicit,
    step_implicit_entropy,
)

LINEAR = PotentialSpec("linear")


@pytest.mark.parametrize(
    "model, initial, scheme",
    [
        (ModelSpec("A", 1.0, 0.9, LINEAR), "affine", "explicit"),
        (ModelSpec("C", 1.0, 0.9, LINEAR), "parabola", "explicit"),
        (ModelSpec("C", 1.0, 0.9, LINEAR), "parabola", "implicit-entropy"),
    ],
)
def test_run_evaluates_the_potential_once(model, initial, scheme, monkeypatch):
    grid = build_grid(40)
    rho0 = build_initial(InitialSpec(initial), grid, model)
    evaluations, built = [], []
    evaluate, build = domain.eval_potential, domain.discretize

    def counted_evaluate(*args):
        evaluations.append(args)
        return evaluate(*args)

    def counted_build(*args):
        built.append(build(*args))
        return built[-1]

    # every module that could hold its own reference to the evaluation
    for module in (domain, transient, stationary, entropy_module):
        if hasattr(module, "eval_potential"):
            monkeypatch.setattr(module, "eval_potential", counted_evaluate)
        if hasattr(module, "discretize"):
            monkeypatch.setattr(module, "discretize", counted_build)
    d = domain.discretize(model, grid)  # the run's one discretization
    reference = stationary_numeric(d)
    dt = 1e-3 if scheme == "implicit-entropy" else 1e-4
    config = SolverConfig(dt=dt, t_end=0.05, observe_every=7, scheme=scheme)
    run_transient(d, rho0, config, reference=reference, snapshot_times=[0.02])
    assert len(built) == 1
    assert len(evaluations) == 1


@pytest.mark.parametrize(
    "name, overrides",
    [
        ("entropy-A", {}),
        ("entropy-B", {}),
        ("entropy-C", {}),
        ("entropy-C", {"scheme": "implicit-entropy", "dt": 1e-3}),
        ("entropy-A", {"dt": "auto"}),
    ],
    ids=["A", "B", "C", "C-implicit", "A-auto-dt"],
)
def test_execute_evaluates_the_potential_once(name, overrides, monkeypatch):
    evaluations = []
    evaluate = domain.eval_potential

    def counted_evaluate(*args):
        evaluations.append(args)
        return evaluate(*args)

    monkeypatch.setattr(domain, "eval_potential", counted_evaluate)
    execute(preset_config(name, {"n": 40, "t_end": 0.01, **overrides}))
    assert len(evaluations) == 1


ON_40_NODES = discretize(ModelSpec("C", 1.0, 0.9, LINEAR), build_grid(40))


@pytest.mark.parametrize("n", [39, 41])
@pytest.mark.parametrize(
    "call",
    [
        lambda rho, d: run_transient(d, rho, SolverConfig(dt=1e-4, t_end=1e-3)),
        lambda rho, d: step_explicit(rho, d, 1e-4),
        lambda rho, d: step_implicit_entropy(rho, d, 1e-3),
        lambda rho, d: flux_field(rho, d),
    ],
    ids=["run_transient", "step_explicit", "step_implicit_entropy", "flux_field"],
)
def test_a_field_on_another_grid_is_a_shape_error(call, n):
    grid = build_grid(n)
    with pytest.raises(ShapeError):
        call(DensityField(np.full(n, 0.5), grid), ON_40_NODES)


@pytest.mark.parametrize("n", [39, 41])
@pytest.mark.parametrize(
    "model_name, scheme", [("A", "explicit"), ("C", "explicit"), ("C", "implicit-entropy")]
)
def test_a_reference_on_another_grid_is_a_shape_error(model_name, scheme, n):
    d = discretize(ModelSpec(model_name, 1.0, 0.9, LINEAR), build_grid(40))
    initial = DensityField(np.full(40, 0.5), d.grid)
    reference = stationary_numeric(discretize(d.model, build_grid(n)))
    config = SolverConfig(dt=1e-4, t_end=1e-3, scheme=scheme)
    with pytest.raises(ShapeError, match=rf"needs shape \(40,\), got \({n},\)"):
        run_transient(d, initial, config, reference=reference)


@pytest.mark.parametrize("n", [39, 41])
@pytest.mark.parametrize("model_name", ["A", "B", "C"])
def test_rate_prediction_fields_on_another_grid_are_a_shape_error(model_name, n):
    d = discretize(ModelSpec(model_name, 1.0, 0.9, LINEAR), build_grid(40))
    on_grid = DensityField(np.full(40, 0.5), d.grid)
    off_grid = DensityField(np.full(n, 0.5), build_grid(n))
    with pytest.raises(ShapeError):
        predicted_rate(d, off_grid, rho0=on_grid)
    with pytest.raises(ShapeError):
        predicted_rate(d, on_grid, rho0=off_grid)
    predicted_rate(d, on_grid, rho0=on_grid)  # both on the grid


def parent_flux_field(values, model, grid):
    """The face fluxes as written before they were read off the explicit kernel."""
    _, _, slope = domain.eval_potential(model.potential, grid)
    mean = 0.5 * (values[:-1] + values[1:])
    mobility = mean * (1.0 - mean) if model.crowded else mean
    faces = np.empty(grid.n + 1)
    faces[1:-1] = -(values[1:] - values[:-1]) / grid.dx + mobility * slope
    if model.model == "A":
        faces[0] = model.alpha
        faces[-1] = model.beta * values[-1]
    else:
        faces[0] = faces[-1] = 0.0
    return faces


@pytest.mark.parametrize(
    "potential",
    [LINEAR, PotentialSpec("zero"), PotentialSpec("scaled-linear", gamma=-3.0)],
    ids=["linear", "zero", "gamma-3"],
)
@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_flux_field_matches_the_parent_formula(name, potential):
    model = ModelSpec(name, 1.0, 0.9, potential)
    rng = np.random.default_rng(3)
    for n in (5, 60, 200):
        grid = build_grid(n)
        for rho in (
            domain.DensityField(0.2 + 0.6 * grid.nodes**2, grid),
            domain.DensityField(rng.uniform(0.01, 0.99, n), grid),
        ):
            got = flux_field(rho, discretize(model, grid)).values
            want = parent_flux_field(rho.values, model, grid)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert got[0] == want[0] and got[-1] == want[-1]


def test_inverse_volumes_equal_the_parent_step_factor():
    for n in range(3, 2001):
        grid = build_grid(n)
        inv_dx = 1.0 / grid.dx
        inv_vol = np.full(n, inv_dx)
        inv_vol[0] = inv_vol[-1] = 2.0 * inv_dx
        assert np.array_equal(1.0 / grid.volumes, inv_vol), n


def test_discretization_arrays_are_read_only():
    # one object is shared by the CFL check, the stepper and the steady residual
    model = ModelSpec("B", 1.0, 0.9, PotentialSpec("scaled-linear", gamma=2.0))
    d = discretize(model, build_grid(30))
    for array in (d.v, d.v_faces, d.slope, d.exp_neg_v, d.exp_v, d.exp_v_faces, d.volumes):
        assert not array.flags.writeable


@pytest.mark.parametrize(
    "potential, message",
    [
        (PotentialSpec("scaled-linear", gamma=-800.0), r"exp\(-V\) is inf at node 17"),
        (PotentialSpec("scaled-linear", gamma=800.0), r"exp\(-V\) is 0\.0 at node 18"),
        (PotentialSpec("tabulated", values=[0.0] * 10 + [710.0] + [0.0] * 9),
         r"exp\(V\) is inf at node 10"),
    ],
    ids=["falling", "rising", "spike"],
)
def test_a_potential_whose_exponentials_leave_the_floats_is_rejected(potential, message):
    # exp(V) and exp(-V) must be finite and positive at every node and face,
    # and the overflow is no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(domain.InvalidModelError, match=message):
            discretize(ModelSpec("A", 1.0, 1.0, potential), build_grid(20))
