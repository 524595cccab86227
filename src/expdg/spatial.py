"""Uniform periodic grids, the periodic banded operator type, discrete quadrature.

The mesh is the set of M equispaced nodes on [-L, L) with the right endpoint
identified with the left one.  Every linear operator in the package is one
`PeriodicBandedMatrix`: a list of offsets with one coefficient each, a scalar
(a circulant stencil such as a difference operator) or a row of n entries (a
variable-coefficient matrix such as a Kahan system or a Newton Jacobian).  It
applies by one gather of shifted copies of the vector, combines by row
arithmetic (scale, sum, diagonal shift, column scaling; a sum on one band is
one add), and `linalg.solve_periodic_banded` writes its rows into band storage.
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
    `coeffs` holds one coefficient per offset, either a (k,) array of
    scalars (a circulant stencil) or a (k, n) array of rows read along the
    matrix rows.
    """

    __slots__ = ("size", "offsets", "coeffs")

    def __init__(self, size: int, offsets=(), coeffs=()):
        self.size = size
        self.offsets = tuple(offsets)
        self.coeffs = np.asarray(coeffs)
        if self.coeffs.shape not in ((len(self.offsets),), (len(self.offsets), size)):
            raise ValueError(
                f"{len(self.offsets)} offsets need coefficients of shape ({len(self.offsets)},) "
                f"or ({len(self.offsets)}, {size}), got {self.coeffs.shape}"
            )

    @property
    def dtype(self) -> np.dtype:
        return self.coeffs.dtype

    @property
    def half_bandwidth(self) -> int:
        return max(map(abs, self.offsets), default=0)

    @property
    def coeff_rows(self) -> np.ndarray:
        """The coefficients shaped to broadcast against a (k, n) array."""
        return self.coeffs if self.coeffs.ndim == 2 else self.coeffs[:, None]

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u for one vector, or for vectors stacked on leading axes (..., n); the result is C-contiguous."""
        u = np.asarray(u)
        if u.shape[-1:] != (self.size,):
            raise ValueError(f"expected vector of length {self.size}, got shape {u.shape}")
        index = shift_index(self.size, self.offsets)
        if u.ndim == 1:
            # summed from zero in offset order: the arithmetic of the loop below
            return np.add.reduce(self.coeff_rows * u[index], axis=-2, initial=0)
        # a stack takes one offset at a time, so no temporary is k times its size
        out = np.zeros(u.shape, np.result_type(self.coeffs, u))
        for row, shifted in zip(self.coeff_rows, index):
            out += row * u.take(shifted, axis=-1)
        return out

    def __mul__(self, scale) -> "PeriodicBandedMatrix":
        return PeriodicBandedMatrix(self.size, self.offsets, scale * self.coeffs)

    __rmul__ = __mul__

    def __add__(self, other: "PeriodicBandedMatrix") -> "PeriodicBandedMatrix":
        if other.size != self.size:
            raise ValueError(f"sizes {self.size} and {other.size} differ")
        if other.offsets == self.offsets:  # one band: every per-step sum
            same = self.coeffs.ndim == other.coeffs.ndim
            coeffs = self.coeffs + other.coeffs if same else self.coeff_rows + other.coeff_rows
            return PeriodicBandedMatrix(self.size, self.offsets, coeffs)
        offsets, *where = _union(self.offsets, other.offsets)
        stencil = self.coeffs.ndim == other.coeffs.ndim == 1
        shape = (len(offsets),) if stencil else (len(offsets), self.size)
        coeffs = np.zeros(shape, dtype=np.promote_types(self.dtype, other.dtype))
        for term, positions in zip((self, other), where):
            for i, c in zip(positions, term.coeffs):
                coeffs[i] += c
        return PeriodicBandedMatrix(self.size, offsets, coeffs)

    def shift(self, c, scale=1.0) -> "PeriodicBandedMatrix":
        """scale A + c I for scalars c and scale, in one new coefficient array; offset 0 must be one of the offsets.

        c is added in place, so it must not promote the dtype of scale A: a complex c on a real band raises TypeError.
        """
        coeffs = scale * self.coeffs
        coeffs[self.offsets.index(0), ...] += c  # an in-place add on a stencil's scalar too, so the cast is checked
        return PeriodicBandedMatrix(self.size, self.offsets, coeffs)

    def scale_columns(self, w: np.ndarray) -> "PeriodicBandedMatrix":
        """A diag(w): entry (i, i + d) times w[(i + d) % n]."""
        w_shifted = w[shift_index(self.size, self.offsets)]
        return PeriodicBandedMatrix(self.size, self.offsets, self.coeff_rows * w_shifted)

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
    """Centered difference operator D1, D2 or their product D3 = D1 D2."""
    dx = grid.spacing
    if order == 1:
        op = PeriodicBandedMatrix(grid.size, (-1, 1), (-1.0 / (2.0 * dx), 1.0 / (2.0 * dx)))
    elif order == 2:
        op = PeriodicBandedMatrix(grid.size, (-1, 0, 1), (1.0 / dx**2, -2.0 / dx**2, 1.0 / dx**2))
    elif order == 3:  # D1 D2, written out
        k = (1.0 / (2.0 * dx)) * (1.0 / dx**2)
        op = PeriodicBandedMatrix(grid.size, (-2, -1, 1, 2), (-k, 2.0 * k, -2.0 * k, k))
    else:
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    if 2 * op.half_bandwidth >= grid.size:
        raise ValueError("grid too small for the stencil width")
    return op
