"""Linear and nonlinear solves backing the implicit time steps.

The linear systems produced by the schemes are circulant stencils plus
diagonal scalings, i.e. banded matrices with two wrap-around corner blocks.
Every size is solved the same way: a LAPACK banded factorization of the
core band (the entries that do not wrap around) plus a low-rank Woodbury
correction for the corners.  A dense LU is used only when the core band has
a zero pivot, which a nonsingular periodic matrix (a cyclic shift, say) can
have.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonConvergenceError, SingularMatrixError


class PeriodicBandedMatrix:
    """Square matrix with A[i, (i+d) % n] = diags[d][i], offsets |d| <= b.

    Built incrementally by the step assemblers; `diags` maps each stencil
    offset to the length-n array of entries read along the rows.
    """

    def __init__(self, size: int, dtype=float):
        self.size = size
        self.dtype = np.dtype(dtype)
        self.diags: dict[int, np.ndarray] = {}

    def _row(self, offset: int) -> np.ndarray:
        if offset not in self.diags:
            self.diags[offset] = np.zeros(self.size, dtype=self.dtype)
        return self.diags[offset]

    def add_diagonal(self, offset: int, values) -> "PeriodicBandedMatrix":
        self._row(offset)
        self.diags[offset] = self.diags[offset] + np.asarray(values)
        return self

    def add_stencil(self, stencil, scale=1.0, col_weights=None) -> "PeriodicBandedMatrix":
        """Add scale * C or scale * C @ diag(col_weights) for stencil C."""
        for d, c in stencil:
            if col_weights is None:
                self.add_diagonal(d, scale * c)
            else:
                # entry A[i, j] = scale * c * col_weights[j] with j = (i+d) % n
                self.add_diagonal(d, scale * c * np.roll(col_weights, -d))
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


def solve_periodic_banded(a: PeriodicBandedMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs: banded LU of the core band, Woodbury for the corners."""
    n = a.size
    rhs = np.asarray(rhs)
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    b = a.half_bandwidth
    if b >= n:
        raise ValueError(f"half-bandwidth {b} must be below the size {n}")

    dtype = np.result_type(a.dtype, rhs.dtype)
    # core band: entries that do not wrap, in LAPACK banded storage
    ab = np.zeros((2 * b + 1, n), dtype=dtype)
    for d, vals in a.diags.items():
        lo = max(0, -d)
        hi = n - max(0, d)
        ab[b - d, lo + d : hi + d] = vals[lo:hi]

    # wrap-around entries as a rank-2b correction U e_cols^T
    cols = list(range(b)) + list(range(n - b, n))
    col_pos = {j: m for m, j in enumerate(cols)}
    u = np.zeros((n, len(cols)), dtype=dtype)
    for d, vals in a.diags.items():
        if d > 0:
            for i in range(n - d, n):
                u[i, col_pos[i + d - n]] += vals[i]
        elif d < 0:
            for i in range(0, -d):
                u[i, col_pos[i + d + n]] += vals[i]

    stacked = np.concatenate([rhs[:, None], u], axis=1)
    try:
        # unchecked: non-finite entries end in SingularMatrixError below
        sol = scipy.linalg.solve_banded(
            (b, b), ab, stacked, overwrite_ab=True, overwrite_b=True, check_finite=False
        )
    except np.linalg.LinAlgError:
        # zero pivot in the core band; the corners may still make A
        # nonsingular, and a dense LU tells the two apart
        return _solve_dense(a.to_dense(), rhs)
    y, z = sol[:, 0], sol[:, 1:]
    cap = np.eye(len(cols), dtype=dtype) + z[cols, :]
    t = _solve_dense(cap, y[cols])
    x = y - z @ t
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("non-finite solution from banded factorization")
    return x


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
