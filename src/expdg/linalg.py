"""Linear and nonlinear solves backing the implicit time steps.

The linear systems produced by the schemes are circulant stencils plus
diagonal scalings, i.e. banded matrices with two wrap-around corner blocks.
Every size is solved the same way: renumbered in fold order, the matrix is an
ordinary band matrix of twice the half-bandwidth, and one pivoted LAPACK band
LU solves it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonConvergenceError, SingularMatrixError
from .spatial import shifted


class PeriodicBandedMatrix:
    """Square matrix with A[i, (i+d) % n] = diags[d][i], offsets |d| <= b.

    Built incrementally by the step assemblers; `diags` maps each stencil
    offset to the length-n array of entries read along the rows.
    """

    def __init__(self, size: int, dtype=float):
        self.size = size
        self.dtype = np.dtype(dtype)
        self.diags: dict[int, np.ndarray] = {}

    def add_diagonal(self, offset: int, values) -> "PeriodicBandedMatrix":
        row = self.diags[offset] if offset in self.diags else np.zeros(self.size, self.dtype)
        self.diags[offset] = row + np.asarray(values)
        self.dtype = np.result_type(self.dtype, self.diags[offset])
        return self

    def add_stencil(self, stencil, scale=1.0, col_weights=None) -> "PeriodicBandedMatrix":
        """Add scale * C or scale * C @ diag(col_weights); C's coefficients may be rows."""
        for d, c in stencil:
            if col_weights is None:
                self.add_diagonal(d, scale * c)
            else:
                # entry A[i, j] = scale * c * col_weights[j] with j = (i+d) % n
                self.add_diagonal(d, scale * c * shifted(col_weights, d))
        return self

    @property
    def half_bandwidth(self) -> int:
        return max(abs(d) for d in self.diags) if self.diags else 0

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.size, self.size), dtype=self.dtype)
        idx = np.arange(self.size)
        for d, vals in self.diags.items():
            a[idx, (idx + d) % self.size] += vals
        return a


def identity_matrix(size: int, scale=1.0, dtype=float) -> PeriodicBandedMatrix:
    m = PeriodicBandedMatrix(size, dtype=dtype)
    m.add_diagonal(0, np.full(size, scale, dtype=np.result_type(dtype, type(scale))))
    return m


def _solve_dense(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("non-finite solution from dense factorization")
    return x


@functools.lru_cache(maxsize=16)
def _fold_position(n: int) -> np.ndarray:
    """Position of each unknown in the fold order 0, n-1, 1, n-2, ..."""
    i = np.arange(n)
    return np.minimum(2 * i, 2 * n - 1 - 2 * i)


@functools.lru_cache(maxsize=256)
def _band_index(n: int, w: int, offset: int) -> np.ndarray:
    """Flat index of A[i, (i+offset) % n], i = 0..n-1, in folded gbsv storage.

    gbsv keeps entry (r, c) of a matrix with w sub- and superdiagonals at
    row 2w + r - c, column c of a (3w + 1, n) array.
    """
    position = _fold_position(n)
    cols = position[(np.arange(n) + offset) % n]
    index = (2 * w + position - cols) * n + cols
    index.flags.writeable = False
    return index


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
    ab = np.zeros((3 * w + 1, n), dtype=np.result_type(a.dtype, rhs.dtype, float))
    flat = ab.reshape(-1)
    for d, vals in a.diags.items():
        # += so that offsets equal modulo n (possible when 2b >= n) add up
        flat[_band_index(n, w, d)] += vals
    position = _fold_position(n)
    rhs_folded = np.empty(n, dtype=ab.dtype)
    rhs_folded[position] = rhs
    gbsv = scipy.linalg.get_lapack_funcs("gbsv", (ab, rhs_folded))
    _, _, y, info = gbsv(w, w, ab, rhs_folded, overwrite_ab=True, overwrite_b=True)
    if info > 0 or not np.all(np.isfinite(y)):
        raise SingularMatrixError(f"zero pivot or non-finite solution in the band LU (info {info})")
    return y[position]


@dataclass(frozen=True)
class NonlinearSolveSettings:
    tolerance: float = 1e-12
    max_iterations: int = 50
    method: str = "newton"  # newton | fixed_point

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.method not in ("newton", "fixed_point"):
            raise ValueError(f"unknown method {self.method!r}")


def newton_solve(residual_fn, jacobian_fn, guess: np.ndarray, settings: NonlinearSolveSettings):
    """Drive residual_fn to zero; returns (solution, iterations).

    jacobian_fn(x) may return a dense array or a PeriodicBandedMatrix.
    """
    x = np.array(guess, dtype=float)
    r = residual_fn(x)
    if np.max(np.abs(r)) <= settings.tolerance:
        return x, 0
    for it in range(1, settings.max_iterations + 1):
        if settings.method == "fixed_point":
            x = x - r
        else:
            jac = jacobian_fn(x)
            if isinstance(jac, PeriodicBandedMatrix):
                delta = solve_periodic_banded(jac, r)
            else:
                delta = _solve_dense(np.asarray(jac), r)
            x = x - delta
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
