"""Uniform periodic grids, the periodic banded operator type, discrete quadrature.

The mesh is the set of M equispaced nodes on [-L, L) with the right endpoint
identified with the left one.  Every linear operator in the package is one
`PeriodicBandedMatrix`: a list of offsets with one coefficient row each, a
(k, 1) column of scalars (a circulant stencil such as a difference operator) or
(k, n) rows (a variable-coefficient matrix such as a Kahan system or a Newton
Jacobian), so that every operation broadcasts both alike.  It applies by one
gather of shifted copies of the vector, combines by row arithmetic (scale, sum,
diagonal shift, column scaling; a sum on one band is one add), and
`linalg.solve_periodic_banded` writes its rows into band storage.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform periodic mesh on [-half_length, half_length)."""

    half_length: float
    size: int
    spacing: float
    nodes: np.ndarray = field(repr=False)


def build_grid(half_length: float, size: int) -> Grid:
    """Construct the periodic mesh with nodes x_k = -L + k*dx, k = 0..M-1."""
    if not np.isfinite(half_length) or half_length <= 0:
        raise ValueError(f"half_length must be positive and finite, got {half_length}")
    if size != int(size) or size < 4 or size % 2 != 0:
        raise ValueError(f"size must be an even integer >= 4, got {size}")
    size = int(size)
    spacing = 2.0 * half_length / size
    if not 0.0 < spacing < np.inf:
        raise ValueError(f"the spacing 2L/M = {spacing!r} of half_length {half_length!r} must be positive and finite")
    nodes = -half_length + spacing * np.arange(size, dtype=float)
    return Grid(half_length=float(half_length), size=size, spacing=spacing, nodes=nodes)


def quadrature(grid: Grid, values: np.ndarray):
    """Rectangle rule dx * sum(values) over the periodic nodes, one value per state stacked on (..., M)."""
    values = np.asarray(values)
    if values.shape[-1:] != (grid.size,):
        raise ValueError(f"expected {grid.size} nodal values, got shape {values.shape}")
    return grid.spacing * values.sum(axis=-1)


def dot(v: np.ndarray, w: np.ndarray):
    """v . w over the last axis, one value per state stacked on the leading axes.

    Each row product is the one BLAS dot that `v @ w` of a single pair makes,
    so a stacked value equals the value of its row bitwise, as long as the
    rows are contiguous (as `PeriodicBandedMatrix.apply` returns them).
    """
    return (v[..., None, :] @ w[..., :, None])[..., 0, 0][()]


@functools.lru_cache(maxsize=256)
def shift_index(n: int, offsets: tuple) -> np.ndarray:
    """index[k, i] = (i + offsets[k]) % n: row k of u[index] is u shifted by offsets[k]."""
    index = (np.arange(n) + np.array(offsets, dtype=np.intp)[:, None]) % n
    index.flags.writeable = False
    return index


def _union(a: tuple, b: tuple) -> tuple:
    """The sorted union of two offset tuples, and where the offsets of each sit in it."""
    union = tuple(sorted(set(a).union(b)))
    return union, tuple(map(union.index, a)), tuple(map(union.index, b))


class PeriodicBandedMatrix:
    """Square matrix with A[i, (i + d_k) % n] = c_k[i]: (A u)_i = sum_k c_k[i] u_{(i+d_k) % n}.

    `offsets` are the integers d_k. Two that name the same entry (equal, or
    equal modulo n on sizes below twice the half-bandwidth) add up.
    `coeffs` holds one row per offset, read along the matrix rows: a (k, 1)
    column of scalars (a circulant stencil, also given as k scalars) or a
    (k, n) array of rows.
    """

    __slots__ = ("size", "offsets", "coeffs")

    def __init__(self, size: int, offsets=(), coeffs=()):
        self.size = size
        self.offsets = tuple(offsets)
        coeffs = np.asarray(coeffs)
        self.coeffs = coeffs[:, None] if coeffs.ndim == 1 else coeffs
        if self.coeffs.shape not in ((len(self.offsets), 1), (len(self.offsets), size)):
            raise ValueError(
                f"{len(self.offsets)} offsets need coefficients of shape ({len(self.offsets)},), "
                f"({len(self.offsets)}, 1) or ({len(self.offsets)}, {size}), got {coeffs.shape}"
            )

    @property
    def dtype(self) -> np.dtype:
        return self.coeffs.dtype

    @property
    def half_bandwidth(self) -> int:
        return max(map(abs, self.offsets), default=0)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u for one vector, or for vectors stacked on leading axes (..., n); the result is C-contiguous."""
        u = np.asarray(u)
        if u.shape[-1:] != (self.size,):
            raise ValueError(f"expected vector of length {self.size}, got shape {u.shape}")
        index = shift_index(self.size, self.offsets)
        if u.ndim == 1:
            # summed from zero in offset order: the arithmetic of the loop below
            return np.add.reduce(self.coeffs * u[index], axis=-2, initial=0)
        # a stack takes one offset at a time, so no temporary is k times its size
        out = np.zeros(u.shape, np.result_type(self.coeffs, u))
        for row, shifted in zip(self.coeffs, index):
            out += row * u.take(shifted, axis=-1)
        return out

    def __mul__(self, scale) -> "PeriodicBandedMatrix":
        return PeriodicBandedMatrix(self.size, self.offsets, scale * self.coeffs)

    __rmul__ = __mul__

    def __add__(self, other: "PeriodicBandedMatrix") -> "PeriodicBandedMatrix":
        if other.size != self.size:
            raise ValueError(f"sizes {self.size} and {other.size} differ")
        if other.offsets == self.offsets:  # one band: every per-step sum
            return PeriodicBandedMatrix(self.size, self.offsets, self.coeffs + other.coeffs)
        offsets, *where = _union(self.offsets, other.offsets)
        width = max(self.coeffs.shape[1], other.coeffs.shape[1])  # 1 when both are stencils
        coeffs = np.zeros((len(offsets), width), dtype=np.promote_types(self.dtype, other.dtype))
        for term, positions in zip((self, other), where):
            np.add.at(coeffs, list(positions), term.coeffs)  # in offset order, so a repeated offset adds up
        return PeriodicBandedMatrix(self.size, offsets, coeffs)

    def shift(self, c, scale=1.0) -> "PeriodicBandedMatrix":
        """scale A + c I for scalars c and scale, in one new coefficient array; offset 0 must be one of the offsets.

        c is added in place, so it must not promote the dtype of scale A: a complex c on a real band raises TypeError.
        """
        coeffs = scale * self.coeffs
        coeffs[self.offsets.index(0)] += c
        return PeriodicBandedMatrix(self.size, self.offsets, coeffs)

    def scale_columns(self, w: np.ndarray) -> "PeriodicBandedMatrix":
        """A diag(w): entry (i, i + d) times w[(i + d) % n]."""
        w_shifted = w[shift_index(self.size, self.offsets)]
        return PeriodicBandedMatrix(self.size, self.offsets, self.coeffs * w_shifted)

    def to_dense(self) -> np.ndarray:
        """The full matrix: the oracle the band solve is checked against."""
        a = np.zeros((self.size, self.size), dtype=self.dtype)
        rows = np.arange(self.size)
        for index, c in zip(shift_index(self.size, self.offsets), self.coeffs):
            a[rows, index] += c
        return a


# the same type and its apply under their stencil names, which
# perfbench/spans.py wraps alongside PeriodicBandedMatrix.to_dense
PeriodicStencilOperator = PeriodicBandedMatrix
apply_stencil = PeriodicBandedMatrix.apply


def derivative_operator(grid: Grid, order: int) -> PeriodicBandedMatrix:
    """Centered difference D1, D2 or their product D3 = D1 D2; ValueError where a coefficient is not finite."""
    dx = grid.spacing
    try:  # on Python floats, dx**2 raises where it overflows, and 1.0 / dx**2 where it underflows to 0
        if order == 1:
            op = PeriodicBandedMatrix(grid.size, (-1, 1), (-1.0 / (2.0 * dx), 1.0 / (2.0 * dx)))
        elif order == 2:
            op = PeriodicBandedMatrix(grid.size, (-1, 0, 1), (1.0 / dx**2, -2.0 / dx**2, 1.0 / dx**2))
        elif order == 3:  # D1 D2, written out
            k = (1.0 / (2.0 * dx)) * (1.0 / dx**2)
            op = PeriodicBandedMatrix(grid.size, (-2, -1, 1, 2), (-k, 2.0 * k, -2.0 * k, k))
        else:
            raise ValueError(f"order must be 1, 2 or 3, got {order}")
    except (ZeroDivisionError, OverflowError):
        op = None
    if op is None or not np.isfinite(op.coeffs).all():
        raise ValueError(f"the order-{order} difference stencil's coefficients over- or underflow at spacing {dx!r}")
    if 2 * op.half_bandwidth >= grid.size:
        raise ValueError("grid too small for the stencil width")
    return op
