"""Uniform periodic grids, circulant difference operators, discrete quadrature.

The mesh is the set of M equispaced nodes on [-L, L) with the right endpoint
identified with the left one.  Difference operators are circulant and stored
as stencils (offset -> coefficient); a dense materialization exists only for
verification on small problems.
"""

from __future__ import annotations

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


def quadrature(grid: Grid, values: np.ndarray) -> float:
    """Rectangle rule dx * sum(values) over the periodic nodes."""
    values = np.asarray(values)
    if values.shape != (grid.size,):
        raise ValueError(f"expected {grid.size} nodal values, got shape {values.shape}")
    return grid.spacing * float(np.sum(values))


@dataclass(frozen=True, eq=False)
class PeriodicStencilOperator:
    """Circulant operator acting by (A u)_i = sum_d c_d u_{(i+d) mod M}."""

    order: int
    size: int
    stencil: tuple  # ((offset, coefficient), ...), offsets distinct

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u)
        if u.shape != (self.size,):
            raise ValueError(f"expected vector of length {self.size}, got shape {u.shape}")
        return _stencil_sum(self.stencil, u)

    def dense(self) -> np.ndarray:
        """Full matrix; for verification only."""
        a = np.zeros((self.size, self.size))
        idx = np.arange(self.size)
        for d, c in self.stencil:
            a[idx, (idx + d) % self.size] += c
        return a


def apply_stencil(stencil, u: np.ndarray) -> np.ndarray:
    """Apply a raw (offset, coefficient) stencil tuple circulantly."""
    return _stencil_sum(stencil, np.asarray(u))


def shifted(u: np.ndarray, offset: int) -> np.ndarray:
    """The vector u[(i + offset) % n], i = 0..n-1, joined from two slices."""
    offset %= u.shape[0]
    return np.concatenate((u[offset:], u[:offset]))


def _stencil_sum(stencil, u: np.ndarray) -> np.ndarray:
    # the one loop behind apply and apply_stencil, so that a wrapper around
    # either of them sees only the calls made to it
    out = np.zeros(u.shape, dtype=np.result_type(u, *(c for _, c in stencil)))
    for d, c in stencil:
        out += c * shifted(u, d)
    return out


def _convolve_stencils(s1, s2):
    # circulant algebra: product operator has coefficients sum_{d1+d2=d} c1*c2
    acc: dict[int, float] = {}
    for d1, c1 in s1:
        for d2, c2 in s2:
            acc[d1 + d2] = acc.get(d1 + d2, 0.0) + c1 * c2
    return tuple(sorted((d, c) for d, c in acc.items() if c != 0.0))


def derivative_operator(grid: Grid, order: int) -> PeriodicStencilOperator:
    """Centered difference operator D1, D2 or their product D3 = D1 D2."""
    dx = grid.spacing
    if order == 1:
        stencil = ((-1, -1.0 / (2.0 * dx)), (1, 1.0 / (2.0 * dx)))
    elif order == 2:
        stencil = ((-1, 1.0 / dx**2), (0, -2.0 / dx**2), (1, 1.0 / dx**2))
    elif order == 3:
        d1 = derivative_operator(grid, 1)
        d2 = derivative_operator(grid, 2)
        stencil = _convolve_stencils(d1.stencil, d2.stencil)
    else:
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    if 2 * max(abs(d) for d, _ in stencil) >= grid.size:
        raise ValueError("grid too small for the stencil width")
    return PeriodicStencilOperator(order=order, size=grid.size, stencil=stencil)
