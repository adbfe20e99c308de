import numpy as np
import pytest

from fokker_flux import IterationError
from fokker_flux.tridiag import (
    apply_tridiagonal,
    invert_tridiagonal,
    solve_refined,
    solve_tridiagonal,
)


def random_dominant_system(rng, n):
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = np.full(n, 3.0) + rng.uniform(0.0, 1.0, n)
    rhs = rng.uniform(-2.0, 2.0, n)
    return lower, diag, upper, rhs


def dense(lower, diag, upper):
    full = np.diag(diag)
    full += np.diag(lower, -1)
    full += np.diag(upper, +1)
    return full


@pytest.mark.parametrize("n", [2, 3, 7, 50, 333])
def test_solver_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    lower, diag, upper, rhs = random_dominant_system(rng, n)
    x = solve_tridiagonal(lower, diag, upper, rhs)
    expected = np.linalg.solve(dense(lower, diag, upper), rhs)
    assert np.max(np.abs(x - expected)) < 1e-12


def test_apply_is_inverse_of_solve():
    rng = np.random.default_rng(1)
    lower, diag, upper, rhs = random_dominant_system(rng, 100)
    x = solve_tridiagonal(lower, diag, upper, rhs)
    assert np.max(np.abs(apply_tridiagonal(lower, diag, upper, x) - rhs)) < 1e-13


def test_refined_solve_guess_independent():
    rng = np.random.default_rng(2)
    lower, diag, upper, rhs = random_dominant_system(rng, 200)
    plain = solve_refined(lower, diag, upper, rhs)
    probed = solve_refined(lower, diag, upper, rhs, guess=rng.normal(size=200))
    assert np.max(np.abs(plain - probed)) < 1e-12


def thomas_numpy_scalars(lower, diag, upper, rhs):
    """Reference elimination indexing the numpy arrays element by element."""
    n = diag.size
    c = np.empty(n)
    d = np.empty(n)
    c[0] = upper[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i - 1] * c[i - 1]
        c[i] = upper[i] / denom if i < n - 1 else 0.0
        d[i] = (rhs[i] - lower[i - 1] * d[i - 1]) / denom
    x = np.empty(n)
    x[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d[i] - c[i] * x[i + 1]
    return x


@pytest.mark.parametrize("n", [2, 3, 7, 50, 200, 333])
def test_solver_bit_identical_to_numpy_scalar_loop(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        system = random_dominant_system(rng, n)
        assert np.array_equal(solve_tridiagonal(*system), thomas_numpy_scalars(*system))


def test_zero_pivot_raises():
    lower, diag, upper, rhs = random_dominant_system(np.random.default_rng(5), 5)
    singular = diag.copy()
    singular[0] = 0.0
    with pytest.raises(IterationError, match="row 0"):
        solve_tridiagonal(lower, singular, upper, rhs)
    # leading 2x2 block [[1, 1], [1, 1]]: the second pivot vanishes
    singular = diag.copy()
    singular[:2] = 1.0
    lower[0] = upper[0] = 1.0
    with pytest.raises(IterationError, match="row 1"):
        solve_tridiagonal(lower, singular, upper, rhs)


@pytest.mark.parametrize("n", [2, 3, 60, 200])
def test_inverse_matches_dense_inverse_and_solve(n):
    rng = np.random.default_rng(300 + n)
    lower, diag, upper, rhs = random_dominant_system(rng, n)
    inverse = invert_tridiagonal(lower, diag, upper)
    expected = np.linalg.inv(dense(lower, diag, upper))
    assert np.max(np.abs(inverse - expected)) <= 1e-12 * np.max(np.abs(expected))
    x = solve_tridiagonal(lower, diag, upper, rhs)
    assert np.max(np.abs(inverse @ rhs - x)) <= 1e-12 * np.max(np.abs(x))


def test_inverse_zero_pivot_raises_as_the_solve():
    lower, diag, upper, rhs = random_dominant_system(np.random.default_rng(5), 5)
    first = diag.copy()
    first[0] = 0.0
    # leading 2x2 block [[1, 1], [1, 1]]: the second pivot vanishes
    second = diag.copy()
    second[:2] = 1.0
    second_lower, second_upper = lower.copy(), upper.copy()
    second_lower[0] = second_upper[0] = 1.0
    for system, row in (((lower, first, upper), 0), ((second_lower, second, second_upper), 1)):
        with pytest.raises(IterationError) as solve_error:
            solve_tridiagonal(*system, rhs)
        with pytest.raises(IterationError, match=f"at row {row}$") as inverse_error:
            invert_tridiagonal(*system)
        assert str(inverse_error.value) == str(solve_error.value)
