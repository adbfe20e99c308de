"""Direct tridiagonal solves (Thomas elimination) with iterative refinement."""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import IterationError

FloatArray = NDArray[np.float64]


def solve_tridiagonal(
    lower: FloatArray, diag: FloatArray, upper: FloatArray, rhs: FloatArray
) -> FloatArray:
    """Solve a tridiagonal system by forward elimination and back substitution.

    ``lower`` and ``upper`` hold the sub- and superdiagonal (length n - 1).
    No pivoting: intended for the diagonally dominant systems assembled in
    this package.
    """
    # Python floats: the elimination is a scalar recurrence, and indexing
    # numpy arrays element by element costs several times the arithmetic.
    sub, main, sup, r = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    n = len(main)
    if main[0] == 0.0:
        raise IterationError("zero pivot in tridiagonal elimination at row 0")
    c = [0.0] * n
    d = [0.0] * n
    c[0] = sup[0] / main[0]
    d[0] = r[0] / main[0]
    for i in range(1, n):
        denom = main[i] - sub[i - 1] * c[i - 1]
        if denom == 0.0:
            raise IterationError(f"zero pivot in tridiagonal elimination at row {i}")
        c[i] = sup[i] / denom if i < n - 1 else 0.0
        d[i] = (r[i] - sub[i - 1] * d[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return np.array(d)


def apply_tridiagonal(
    lower: FloatArray, diag: FloatArray, upper: FloatArray, x: FloatArray
) -> FloatArray:
    """Matrix-vector product with the tridiagonal operator."""
    y = diag * x
    y[:-1] += upper * x[1:]
    y[1:] += lower * x[:-1]
    return y


def solve_refined(
    lower: FloatArray,
    diag: FloatArray,
    upper: FloatArray,
    rhs: FloatArray,
    guess: FloatArray | None = None,
) -> FloatArray:
    """Direct solve followed by one round of iterative refinement.

    When a ``guess`` is supplied the solve starts from it by correcting its
    defect, so different guesses converge to the same solution up to
    roundoff (the probe used to check uniqueness of the assembled systems).
    """
    if guess is None:
        x = solve_tridiagonal(lower, diag, upper, rhs)
    else:
        defect = rhs - apply_tridiagonal(lower, diag, upper, guess)
        x = guess + solve_tridiagonal(lower, diag, upper, defect)
    defect = rhs - apply_tridiagonal(lower, diag, upper, x)
    return x + solve_tridiagonal(lower, diag, upper, defect)
