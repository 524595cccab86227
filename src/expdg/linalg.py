"""Linear and nonlinear solves backing the implicit time steps.

Every linear system a step assembles is a `PeriodicBandedMatrix` of
half-bandwidth b: stencil and coefficient rows with wrap-around corners.
Renumbered in fold order it is an ordinary band matrix of half-bandwidth 2b;
its rows are written into LAPACK band storage in one scatter, and one pivoted
band LU solves it at every size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonConvergenceError, SingularMatrixError
from .spatial import PeriodicBandedMatrix, shift_index


@functools.lru_cache(maxsize=16)
def _fold_position(n: int) -> np.ndarray:
    """Position of each unknown in the fold order 0, n-1, 1, n-2, ..."""
    i = np.arange(n)
    return np.minimum(2 * i, 2 * n - 1 - 2 * i)


@functools.lru_cache(maxsize=256)
def _band_index(n: int, w: int, offsets: tuple) -> np.ndarray:
    """Flat index of A[i, (i + offsets[k]) % n] at [k, i] in folded gbsv storage.

    gbsv keeps entry (r, c) of a matrix with w sub- and superdiagonals at
    row 2w + r - c, column c of a (3w + 1, n) array.
    """
    position = _fold_position(n)
    cols = position[shift_index(n, offsets)]
    index = (2 * w + position - cols) * n + cols
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=8)
def _gbsv(dtype: np.dtype):
    return scipy.linalg.get_lapack_funcs("gbsv", dtype=dtype)


def solve_periodic_banded(a: PeriodicBandedMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs with one pivoted band LU of A in fold order.

    Numbering the unknowns 0, n-1, 1, n-2, ... puts every entry within
    circular distance b of the diagonal within 2b of it, so the periodic
    matrix becomes an ordinary band matrix without wrap-around corners.
    """
    n = a.size
    rhs = np.asarray(rhs)
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    b = a.half_bandwidth
    if b >= n:
        raise ValueError(f"half-bandwidth {b} must be below the size {n}")

    w = min(2 * b, n - 1)
    dtype = np.promote_types(np.promote_types(a.dtype, rhs.dtype), np.float64)
    ab = np.zeros((3 * w + 1, n), dtype=dtype)
    index = _band_index(n, w, a.offsets)
    if 2 * b < n and len(set(a.offsets)) == len(a.offsets):
        ab.reshape(-1)[index] = a.coeff_rows
    else:  # offsets that name one entry (equal, or equal modulo n when 2b >= n) add up
        np.add.at(ab.reshape(-1), index, np.broadcast_to(a.coeff_rows, index.shape))
    position = _fold_position(n)
    rhs_folded = np.empty(n, dtype=dtype)
    rhs_folded[position] = rhs
    _, _, y, info = _gbsv(dtype)(w, w, ab, rhs_folded, overwrite_ab=True, overwrite_b=True)
    if info > 0 or not np.isfinite(y).all():
        raise SingularMatrixError(f"zero pivot or non-finite solution in the band LU (info {info})")
    return y[position]


@dataclass(frozen=True)
class NonlinearSolveSettings:
    tolerance: float = 1e-12
    max_iterations: int = 50

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


def newton_solve(residual_fn, jacobian_fn, guess: np.ndarray, settings: NonlinearSolveSettings):
    """Drive residual_fn to zero by Newton steps; returns (solution, iterations).

    jacobian_fn(x) returns the Jacobian at x as a PeriodicBandedMatrix.
    """
    x = np.array(guess, dtype=float)
    r = residual_fn(x)
    if np.max(np.abs(r)) <= settings.tolerance:
        return x, 0
    for it in range(1, settings.max_iterations + 1):
        x = x - solve_periodic_banded(jacobian_fn(x), r)
        r = residual_fn(x)
        res_norm = np.max(np.abs(r))
        if not np.isfinite(res_norm):
            raise NonConvergenceError("residual became non-finite", iterations=it, residual=float("nan"))
        if res_norm <= settings.tolerance:
            return x, it
    raise NonConvergenceError(
        f"no convergence after {settings.max_iterations} iterations (residual {res_norm:.3e})",
        iterations=settings.max_iterations,
        residual=float(res_norm),
    )


def gauss_legendre_2():
    """Two-point Gauss rule on [0,1]: exact for polynomials of degree <= 3."""
    shift = np.sqrt(3.0) / 6.0
    nodes = np.array([0.5 - shift, 0.5 + shift])
    weights = np.array([0.5, 0.5])
    return nodes, weights
