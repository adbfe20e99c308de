import math

import numpy as np
import pytest

from fokker_flux import (
    IterationError,
    RootNotFoundError,
    build_grid,
    discrete_min_rayleigh,
    friedrichs_k,
    symmetric_k,
)


def test_friedrichs_reference_values():
    res = friedrichs_k(0.5, 0.5)
    assert res.k == pytest.approx(0.9602, abs=1e-3)
    assert res.rate == pytest.approx(1.8439, abs=2e-3)
    assert res.eigenvalue == pytest.approx(res.k**2, rel=1e-15)
    assert res.equation_tag == "friedrichs"
    assert res.root_residual < 1e-12


def test_friedrichs_satisfies_printed_equation():
    k = friedrichs_k(0.5, 0.5).k
    assert abs(2.0 * k * math.cos(k) + (0.5 - 2.0 * k * k) * math.sin(k)) < 1e-12


def test_friedrichs_dirichlet_limit():
    res = friedrichs_k(1e6, 1e6)
    assert res.k == pytest.approx(math.pi, abs=1e-3)
    assert res.root_residual < 1e-12
    # sin(float pi) > 0 puts the root between float pi and pi
    assert friedrichs_k(1e100, 1e100).k == math.pi
    # w0 w1 overflows to inf here
    assert friedrichs_k(1e155, 1e155).k == math.pi


def test_friedrichs_rejects_nonpositive_weights():
    with pytest.raises(RootNotFoundError):
        friedrichs_k(0.0, 0.5)
    with pytest.raises(RootNotFoundError):
        friedrichs_k(0.5, -1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(RootNotFoundError):
            friedrichs_k(bad, 0.5)


def test_symmetric_reference_values():
    res = symmetric_k(1.0)
    assert res.k == pytest.approx(0.8603, abs=1e-3)
    assert res.rate == pytest.approx(1.4802, abs=2e-3)
    assert res.equation_tag == "symmetric"
    assert res.root_residual < 1e-12
    # the Robin condition beta cos k = k sin k holds at the root
    assert abs(math.cos(res.k) - res.k * math.sin(res.k)) < 1e-12


def test_symmetric_small_beta_asymptotics():
    res = symmetric_k(1e-8)
    assert res.k == pytest.approx(1e-4, rel=1e-4)  # k ~ sqrt(beta)
    # a root below 1e-8 is found as well, not the second root near pi
    assert symmetric_k(1e-20).k == pytest.approx(1e-10, rel=1e-9)


def test_symmetric_large_beta_limit():
    res = symmetric_k(1e6)
    assert res.k == pytest.approx(math.pi / 2.0, abs=1e-3)


def test_symmetric_rejects_nonpositive_beta():
    with pytest.raises(RootNotFoundError):
        symmetric_k(0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(RootNotFoundError):
            symmetric_k(bad)


@pytest.mark.parametrize("solver,args", [(friedrichs_k, (0.5, 0.5)), (symmetric_k, (1.0,))])
def test_returned_root_is_smallest(solver, args):
    res = solver(*args)
    if solver is friedrichs_k:
        w0, w1 = args
        g = lambda k: (w0 * w1 - k * k) * math.sin(k) + k * (w0 + w1) * math.cos(k)
    else:
        (beta,) = args
        g = lambda k: beta * math.cos(k) - k * math.sin(k)
    ks = np.linspace(1e-8, res.k - 1e-8, 20_000)
    vals = np.array([g(t) for t in ks])
    assert np.all(vals > 0) or np.all(vals < 0)


def test_rayleigh_cross_validates_friedrichs():
    lam = discrete_min_rayleigh(build_grid(2000), 0.5, 0.5)
    assert abs(lam - friedrichs_k(0.5, 0.5).eigenvalue) < 1e-4


def test_rayleigh_neumann_is_zero():
    assert discrete_min_rayleigh(build_grid(100), 0.0, 0.0) == 0.0


def test_rayleigh_gap_shrinks_quadratically():
    exact = friedrichs_k(0.5, 0.5).eigenvalue
    gaps = [abs(discrete_min_rayleigh(build_grid(n), 0.5, 0.5) - exact) for n in (250, 500, 1000)]
    assert 3.5 < gaps[0] / gaps[1] < 4.5
    assert 3.5 < gaps[1] / gaps[2] < 4.5


def test_rayleigh_matches_symmetric_equation_weights():
    # w0 -> 0 with w1 = beta approaches the symmetric problem's eigenvalue
    beta = 1.0
    lam = discrete_min_rayleigh(build_grid(4000), 1e-9, beta)
    assert abs(lam - symmetric_k(beta).eigenvalue) < 1e-4


def test_rayleigh_stagnation_guard():
    with pytest.raises(IterationError):
        discrete_min_rayleigh(build_grid(60), 0.5, 0.5, tol=0.0, max_iter=3)
