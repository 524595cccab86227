"""Linear and nonlinear solves backing the implicit time steps.

Every linear system a step assembles is a `PeriodicBandedMatrix` of
half-bandwidth b, or a `TwoFieldMatrix` whose diagonal u-block is eliminated
first.  A tridiagonal one (b = 1) is bordered: one gtsv and a scalar Schur
complement.  Any other, renumbered in fold order, is an ordinary band matrix of
half-bandwidth 2b, scattered into LAPACK band storage and solved by one band LU.

The LAPACK routines ({d,z}gbsv, {d,z}gtsv) come from scipy's extension
`scipy/linalg/_flapack`, loaded from its file without `scipy.linalg`, whose import
took two thirds of `import expdg`.  Without that file (an editable scipy keeps it
in its build tree), or once `scipy.linalg` is imported, it is imported as usual.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .errors import NonConvergenceError, SingularMatrixError
from .spatial import PeriodicBandedMatrix, shift_index


@functools.lru_cache(maxsize=256)
def _band_plan(n: int, offsets: tuple) -> tuple:
    """Everything of a band solve but its values: (w, index, distinct, position, order).

    w is the half-bandwidth in fold order.  index[k, i] is the flat index of
    A[i, (i + offsets[k]) % n] in Fortran-ordered folded gbsv storage, which
    keeps entry (r, c) of a matrix with w sub- and superdiagonals at row
    2w + r - c, column c of a (3w + 1, n) array.  distinct says that no two
    offsets name one entry.  position[i] is the place of unknown i in the
    fold order 0, n-1, 1, n-2, ..., and order lists the unknowns in that order.
    """
    b = max(map(abs, offsets), default=0)
    if b >= n:
        raise ValueError(f"half-bandwidth {b} must be below the size {n}")
    w = min(2 * b, n - 1)
    i = np.arange(n)
    position = np.minimum(2 * i, 2 * n - 1 - 2 * i)
    cols = position[shift_index(n, offsets)]
    index = cols * (3 * w + 1) + 2 * w + position - cols
    order = np.argsort(position)
    for array in (index, position, order):
        array.flags.writeable = False
    return w, index, 2 * b < n and len(set(offsets)) == len(offsets), position, order


def _load_flapack(scipy_dirs):
    """`scipy.linalg._flapack` from its file under one of scipy_dirs; imported if none is there or it is loaded."""
    name = "scipy.linalg._flapack"
    paths = [os.path.join(d, "linalg", "_flapack" + suffix) for d in scipy_dirs for suffix in EXTENSION_SUFFIXES]
    path = next(filter(os.path.isfile, paths), None)
    if path is None or name in sys.modules:
        from scipy.linalg import _flapack
        return _flapack
    spec = importlib.util.spec_from_loader(name, ExtensionFileLoader(name, path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)  # an entry without its package would hide it from a later `scipy.linalg._flapack`
    return module


_FLAPACK = _load_flapack(getattr(importlib.util.find_spec("scipy"), "submodule_search_locations", None) or ())


@functools.lru_cache(maxsize=8)
def _lapack(name: str, dtype: np.dtype):
    """The routine `name` for dtype: z for a complex dtype, else d, as `scipy.linalg.get_lapack_funcs` picks."""
    return getattr(_FLAPACK, ("z" if dtype.kind == "c" else "d") + name)


def solve_periodic_banded(a: PeriodicBandedMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs: a tridiagonal A by `_solve_bordered`, any other (or one it declines) by one pivoted band LU.

    The band LU numbers the unknowns 0, n-1, 1, n-2, ...: every entry within circular distance b of the diagonal
    is then within 2b of it, so the periodic matrix becomes an ordinary band matrix without wrap-around corners.
    """
    n = a.size
    rhs = np.asarray(rhs)
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    w, index, distinct, position, order = _band_plan(n, a.offsets)
    dtype = np.promote_types(np.promote_types(a.dtype, rhs.dtype), np.float64)
    x = _solve_bordered(a, rhs, dtype) if w == 2 and distinct else None  # w = 2: b = 1 and n >= 3
    if x is None:  # b >= 2, or a tridiagonal A whose interior block is singular or ill-conditioned
        ab = np.zeros((3 * w + 1, n), dtype=dtype, order="F")  # f2py passes it without a copy
        if distinct:
            ab.reshape(-1, order="F")[index] = a.coeffs
        else:  # offsets that name one entry (equal, or equal modulo n when 2b >= n) add up
            np.add.at(ab.reshape(-1, order="F"), index, a.coeffs)
        rhs_folded = rhs.take(order).astype(dtype, copy=False)
        *_, y, info = _lapack("gbsv", dtype)(w, w, ab, rhs_folded, overwrite_ab=True, overwrite_b=True)
        if info > 0:
            raise SingularMatrixError(f"zero pivot in the band LU (info {info})")
        x = y.take(position)
    if not np.isfinite(x).all():
        raise SingularMatrixError("zero Schur pivot or non-finite solution of the band system")
    return x


def _solve_bordered(a: PeriodicBandedMatrix, rhs: np.ndarray, dtype: np.dtype):
    """Bordered elimination (Temperton 1975); None if A[1:, 1:] is singular or |x_c| > 100; NaN for a 0 Schur pivot.

    gtsv solves A[1:, 1:] (x_r, x_c) = (rhs[1:], A[1:, 0]), so x[1:] = x_r - x_0 x_c, and row 0 leaves the Schur
    complement (A[0, 0] - A[0, 1:] x_c) x_0 = rhs[0] - A[0, 1:] x_r.  As x_r = x[1:] + x_0 x_c, the cancellation
    costs at most a factor 1 + 2 max|x_c|: a larger x_c (an ill-conditioned A[1:, 1:], say) goes to the band LU.
    """
    # gtsv reads three rows: a stencil's column, or a band without one of its diagonals, is re-banded onto them
    if a.offsets != (-1, 0, 1) or a.coeffs.shape != (3, a.size):
        a = a + PeriodicBandedMatrix(a.size, (-1, 0, 1), np.zeros((3, a.size)))
    n, rows = a.size, a.coeffs
    b = np.zeros((2, n - 1), dtype)  # b.T: the two right-hand sides in Fortran order
    b[0], b[1, 0], b[1, -1] = rhs[1:], rows[0, 1], rows[2, -1]
    *_, y, info = _lapack("gtsv", dtype)(rows[0, 2:], rows[1, 1:], rows[2, 1:-1], b.T, overwrite_b=True)
    if info > 0 or not np.vdot(y[:, 1], y[:, 1]).real <= 1e4:  # the comparison is False for NaN and overflow too
        return None
    lo_0, up_0 = rows.item(0, 0), rows.item(2, 0)  # Python scalars: no numpy overhead, no warnings
    pivot = rows.item(1, 0) - up_0 * y.item(0, 1) - lo_0 * y.item(-1, 1)
    x_0 = (rhs.item(0) - up_0 * y.item(0, 0) - lo_0 * y.item(-1, 0)) / pivot if pivot else np.nan
    x = np.empty(n, dtype)
    x[0] = x_0
    np.subtract(y[:, 0], x_0 * y[:, 1], out=x[1:])
    return x


@dataclass(frozen=True, eq=False)
class TwoFieldMatrix:
    """c I + [[-diag t, -(D + diag q)], [D + diag p, diag t]] on (u; v), D the stencil (off, mid, off).

    `rows` holds t, p, q.  The NLS Jacobian has this shape, and so does every Newton matrix built from it.
    """

    rows: np.ndarray
    off: float
    mid: float
    c: float = 0.0

    def shift(self, c: float, scale: float = 1.0) -> "TwoFieldMatrix":
        """scale times this matrix plus c I, in one new `rows` array."""
        return TwoFieldMatrix(scale * self.rows, scale * self.off, scale * self.mid, scale * self.c + c)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Eliminate u, solve (diag(c + t) + A W B) v = r_v - A W r_u by one band LU, u = W (r_u + B v),
        with W = diag(1 / (c - t)), A = D + diag p and B = D + diag q."""
        (t, p, q), m, off = self.rows, self.rows.shape[1], self.off
        if np.shape(rhs) != (2 * m,):
            raise ValueError(f"rhs has shape {np.shape(rhs)}, expected ({2 * m},)")
        a = self.c - t
        if not (np.isfinite(a).all() and a.all()):
            raise SingularMatrixError("zero or non-finite entry on the eliminated diagonal")
        w = 1.0 / a
        diag_p, diag_q = self.mid + p, self.mid + q
        # row j of W B is off w_j at offsets -1, +1 and z_j = w_j diag_q[j] at 0, so
        # row i of A W B is off (W B)_{i-1} + diag_p[i] (W B)_i + off (W B)_{i+1}
        z, p_off_w, ss = w * diag_q, (off * w) * diag_p, off * off
        (w_prev, w_next), (z_prev, z_next) = _shifts(w), _shifts(z)
        rows = np.empty((5, m), np.result_type(z, diag_p))  # the band's five rows, each written in place
        np.multiply(ss, w_prev, out=rows[0])
        np.add(off * z_prev, p_off_w, out=rows[1])
        np.add(self.c + t, ss * (w_prev + w_next), out=rows[2])
        rows[2] += diag_p * z
        np.add(p_off_w, off * z_next, out=rows[3])
        np.multiply(ss, w_next, out=rows[4])
        wr_u = w * rhs[:m]
        rhs_v = rhs[m:] - (off * np.add(*_shifts(wr_u)) + diag_p * wr_u)
        v = solve_periodic_banded(PeriodicBandedMatrix(m, (-2, -1, 0, 1, 2), rows), rhs_v)
        return np.concatenate([w * (rhs[:m] + off * np.add(*_shifts(v)) + diag_q * v), v])


def _shifts(x: np.ndarray) -> tuple:
    """(x_{i-1}, x_{i+1}) on the periodic index i: two views of one padded copy."""
    padded = np.concatenate((x[-1:], x, x[:1]))
    return padded[:-2], padded[2:]


def newton_solve(linearize, guess: np.ndarray, tol: float, max_iter: int, scale: float = 1.0):
    """Drive the residual to max|residual| <= tol * scale by Newton steps; returns (solution, iterations).

    linearize(x) returns (residual, matrix) at x, where matrix() builds the Newton matrix at that same x, the
    Jacobian of the residual there, a PeriodicBandedMatrix or a TwoFieldMatrix.  matrix() is called only when
    a Newton step follows, so never at the accepted iterate.
    """
    tolerance = tol * scale
    if not 0.0 < tolerance < math.inf:  # a scale that overflows or underflows it, or NaN: no residual can meet it
        message = f"tolerance {tol!r} times the state's scale {scale!r} is {tolerance!r}"
        raise NonConvergenceError(message + ", not finite and positive", iterations=0)
    x = np.array(guess, dtype=float)
    r, matrix = linearize(x)
    res_norm = np.abs(r).max()
    if res_norm <= tolerance:
        return x, 0
    for it in range(1, max_iter + 1):
        mat = matrix()
        x = x - (mat.solve(r) if isinstance(mat, TwoFieldMatrix) else solve_periodic_banded(mat, r))
        r, matrix = linearize(x)
        res_norm = np.abs(r).max()
        if not np.isfinite(res_norm):
            raise NonConvergenceError("residual became non-finite", iterations=it, residual=float("nan"))
        if res_norm <= tolerance:
            return x, it
    raise NonConvergenceError(
        f"no convergence after {max_iter} iterations (residual {res_norm:.3e})",
        iterations=max_iter,
        residual=float(res_norm),
    )
