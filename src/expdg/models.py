"""Damped Burgers, KdV and NLS models with their experiment presets.

Each factory assembles a ConformalModel: the semidiscrete vector field, the
generator Hamiltonian (whose gradient produces that field), invariants with
their exact decay rates, the polarized energy used by the two-step linearly
implicit scheme, and the builder of that scheme's linear system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import TwoFieldMatrix
from .spatial import (
    Grid,
    PeriodicBandedMatrix,
    build_grid,
    derivative_operator,
    quadrature,
)
from .system import (
    ConformalModel,
    Invariant,
    PolarizedEnergy,
    polarize_monomial,
    polarize_quadratic_form,
    polarized_kahan_system,
    quadratic_field,
)


@dataclass(frozen=True)
class BurgersParams:
    gamma: float
    grid: Grid

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


@dataclass(frozen=True)
class KdvParams:
    alpha: float
    rho: float
    nu: float
    gamma: float
    grid: Grid

    def __post_init__(self):
        for label, value in (("alpha", self.alpha), ("rho", self.rho), ("nu", self.nu)):
            if not np.isfinite(value):
                raise ValueError(f"{label} must be finite, got {value}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


@dataclass(frozen=True)
class NlsParams:
    alpha: float
    gamma: float
    grid: Grid

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")


def burgers_model(p: BurgersParams) -> ConformalModel:
    """u_t = -u u_x - 2 gamma u on a periodic grid.

    Semidiscrete field -D1(u*u)/2 - 2 gamma u.  The generator Hamiltonian is
    dx sum(u^3)/6 with S = -D1/dx; the reported energy follows the u^3/3
    integral convention and is exactly twice the generator.
    """
    grid = p.grid
    m, dx = grid.size, grid.spacing
    d1 = derivative_operator(grid, 1)
    ghat = 2.0 * p.gamma
    field = quadratic_field(-0.5, d1)

    def grad_h(u):
        return 0.5 * dx * u * u

    def apply_s(w):
        return -d1.apply(w) / dx

    nodal3 = polarize_monomial(3)

    def pol_eval(v, w):
        return dx / 6.0 * float(nodal3.evaluate(v, w).sum())

    def pol_pdg(u, v, w):
        return dx / 6.0 * nodal3.pdg(u, v, w)

    def printed_midpoint_field(a, b):
        # the as-printed average: mean of squares instead of squared mean
        return -0.25 * d1.apply(a * a + b * b)

    invariants = (
        Invariant("mass", lambda u: quadrature(grid, u), exact_rate=ghat, degree=1),
    )
    model = ConformalModel(
        name="burgers",
        dim=m,
        grid=grid,
        gamma=p.gamma,
        gamma_eff=ghat,
        apply_S=apply_s,
        grad_H=grad_h,
        hamiltonian=lambda u: dx * float((u**3).sum()) / 6.0,
        hamiltonian_paper=lambda u: dx * float((u**3).sum()) / 3.0,
        hamiltonian_rate=3.0 * ghat,
        invariants=invariants,
        **field,
        polarized=PolarizedEnergy(evaluate=pol_eval, pdg=pol_pdg),
        polarized_degree=3,
        lie_system_builder=lambda a, b, dt: polarized_kahan_system(model, a, b, dt),
        printed_midpoint_field=printed_midpoint_field,
        printed_midpoint_jacobian=lambda a, b: field["quadratic_matrix"](b),
    )
    return model


def kdv_model(p: KdvParams, theta: float = 0.5) -> ConformalModel:
    """u_t = alpha (u^2)_x + rho u_x + nu u_xxx - 2 gamma u.

    The derivative term of the Hamiltonian is realized as the quadratic form
    (nu/2) u^T D2 u so that S grad_H reproduces nu D3 u with D3 = D1 D2.
    theta weights the polarization of the linear (rho, nu) terms.
    """
    grid = p.grid
    m, dx = grid.size, grid.spacing
    d1 = derivative_operator(grid, 1)
    d2 = derivative_operator(grid, 2)
    d3 = derivative_operator(grid, 3)
    alpha, rho, nu = p.alpha, p.rho, p.nu
    ghat = 2.0 * p.gamma
    field = quadratic_field(alpha, d1, rho * d1 + nu * d3)

    def grad_h(u):
        return dx * (alpha * u * u + rho * u + nu * d2.apply(u))

    def apply_s(w):
        return d1.apply(w) / dx

    def hamiltonian(u):
        cubic = alpha / 3.0 * float((u**3).sum())
        quad = rho / 2.0 * float((u * u).sum())
        deriv = nu / 2.0 * float(u @ d2.apply(u))
        return dx * (cubic + quad + deriv)

    nodal3 = polarize_monomial(3)
    nodal2 = polarize_monomial(2, theta)
    form = polarize_quadratic_form(lambda z: nu * dx * d2.apply(z), theta)

    def pol_eval(v, w):
        poly = alpha / 3.0 * float(nodal3.evaluate(v, w).sum())
        poly += rho / 2.0 * float(nodal2.evaluate(v, w).sum())
        return dx * poly + form.evaluate(v, w)

    def pol_pdg(u, v, w):
        poly = alpha / 3.0 * nodal3.pdg(u, v, w) + rho / 2.0 * nodal2.pdg(u, v, w)
        return dx * poly + form.pdg(u, v, w)

    invariants = (
        Invariant("I1", lambda u: quadrature(grid, u), exact_rate=ghat, degree=1),
        Invariant("I2", lambda u: quadrature(grid, u * u), exact_rate=2.0 * ghat, degree=2),
    )
    model = ConformalModel(
        name="kdv",
        dim=m,
        grid=grid,
        gamma=p.gamma,
        gamma_eff=ghat,
        apply_S=apply_s,
        grad_H=grad_h,
        hamiltonian=hamiltonian,
        hamiltonian_paper=hamiltonian,
        hamiltonian_rate=None,
        invariants=invariants,
        **field,
        polarized=PolarizedEnergy(evaluate=pol_eval, pdg=pol_pdg, theta=theta),
        polarized_degree=None,
        lie_system_builder=lambda a, b, dt: polarized_kahan_system(model, a, b, dt, theta),
    )
    return model


def nls_model(p: NlsParams) -> ConformalModel:
    """i psi_t = -psi_xx - alpha |psi|^2 psi - i (gamma/2) psi, psi = u + i v.

    State is the stacked real pair (u; v) of length 2M.  The effective
    damping rate is gamma/2.  The Jacobian is a TwoFieldMatrix: its u-block
    is diagonal, so a Newton system is solved by eliminating u and solving
    one M x M periodic pentadiagonal Schur complement for v.  The polarized
    energy has theta = 1: the lie system below is the discrete gradient of
    that polarization only.
    """
    grid = p.grid
    m, dx = grid.size, grid.spacing
    d1 = derivative_operator(grid, 1)
    d2 = derivative_operator(grid, 2)
    lie_d2 = -0.5j * d2
    alpha = p.alpha
    ghat = 0.5 * p.gamma

    def split(x):
        return x[:m], x[m:]

    def conservative_field(x):
        u, v = split(x)
        mod = u * u + v * v
        return np.concatenate([-d2.apply(v) - alpha * mod * v, d2.apply(u) + alpha * mod * u])

    def grad_h(x):
        u, v = split(x)
        mod = u * u + v * v
        return dx * np.concatenate([alpha * mod * u + d2.apply(u), alpha * mod * v + d2.apply(v)])

    def apply_s(g):
        gu, gv = split(g)
        return np.concatenate([-gv, gu]) / dx

    def hamiltonian(x):
        u, v = split(x)
        mod = u * u + v * v
        quart = alpha / 4.0 * float((mod * mod).sum())
        deriv = 0.5 * (float(u @ d2.apply(u)) + float(v @ d2.apply(v)))
        return dx * (quart + deriv)

    def jacobian_conservative(x):
        u, v = split(x)
        mod = u * u + v * v
        rows = np.array([2.0 * alpha * u * v, alpha * (mod + 2.0 * u * u), alpha * (mod + 2.0 * v * v)])
        return TwoFieldMatrix(rows, *d2.coeffs[:2])  # D2 is the stencil (off, mid, off)

    form = polarize_quadratic_form(
        lambda z: dx * np.concatenate([d2.apply(z[:m]), d2.apply(z[m:])]), 1.0
    )

    def pol_eval(a, b):
        ua, va = split(a)
        ub, vb = split(b)
        quart = alpha / 4.0 * dx * float(((ua * ua + va * va) * (ub * ub + vb * vb)).sum())
        return quart + form.evaluate(a, b)

    def pol_pdg(a, b, c):
        ub, vb = split(b)
        mod_b = ub * ub + vb * vb
        quart = alpha / 2.0 * dx * np.concatenate([mod_b, mod_b]) * (a + c)
        return quart + form.pdg(a, b, c)

    def pol_eval_printed(a, b):
        # literal transcription of the displayed polarized Hamiltonian; the
        # derivative pieces integrate to zero on the periodic grid
        ua, va = split(a)
        ub, vb = split(b)
        poly = alpha / 4.0 * (ua * ua * ub * ub + va * va * ub * ub + ua * va + ub * vb)
        deriv = -0.5 * d1.apply(ua * ua + ub * ub) - 0.5 * d1.apply(va * va + vb * vb)
        return dx * float((poly + deriv).sum())

    def lie_builder(a, b, dt):
        # reduce the 2M real system to one complex M-dim periodic-banded solve
        ub, vb = split(b)
        mod_b = ub * ub + vb * vb
        za = a[:m] + 1j * a[m:]
        mat = lie_d2.shift(1.0 / (2.0 * dt) - 0.5j * alpha * mod_b)
        rhs = za / (2.0 * dt) + 1j * (0.5 * d2.apply(za) + 0.5 * alpha * mod_b * za)
        return mat, rhs, lambda z: np.concatenate([z.real, z.imag])

    def mass(x):
        u, v = split(x)
        return dx * float((u * u).sum() + (v * v).sum())

    def momentum(x):
        # skew-symmetrized discrete form of int (v_x u - u_x v) dx
        u, v = split(x)
        return dx * (float(d1.apply(v) @ u) - float(d1.apply(u) @ v))

    invariants = (
        Invariant("mass", mass, exact_rate=2.0 * ghat, degree=2),
        Invariant("momentum", momentum, exact_rate=2.0 * ghat, degree=2),
    )
    return ConformalModel(
        name="nls",
        dim=2 * m,
        grid=grid,
        gamma=p.gamma,
        gamma_eff=ghat,
        apply_S=apply_s,
        grad_H=grad_h,
        hamiltonian=hamiltonian,
        hamiltonian_paper=hamiltonian,
        hamiltonian_rate=None,
        conservative_field=conservative_field,
        jacobian_conservative=jacobian_conservative,
        invariants=invariants,
        polarized=PolarizedEnergy(
            evaluate=pol_eval, pdg=pol_pdg, theta=1.0, evaluate_printed=pol_eval_printed
        ),
        polarized_degree=None,
        lie_system_builder=lie_builder,
    )


def pure_decay_model(dim: int, gamma_eff: float, grid: Optional[Grid] = None) -> ConformalModel:
    """grad_H = 0: the flow is exact exponential decay.  Test fixture."""
    zeros = lambda u: np.zeros_like(u)
    model = ConformalModel(
        name="pure-decay",
        dim=dim,
        grid=grid,
        gamma=gamma_eff,
        gamma_eff=gamma_eff,
        apply_S=zeros,
        grad_H=zeros,
        hamiltonian=lambda u: 0.0,
        hamiltonian_paper=lambda u: 0.0,
        hamiltonian_rate=None,
        invariants=(),
        **quadratic_field(0.0, PeriodicBandedMatrix(dim)),
        polarized=None,
        polarized_degree=None,
        lie_system_builder=lambda a, b, dt: polarized_kahan_system(model, a, b, dt),
    )
    return model


def initial_condition(model_kind: str, grid: Grid) -> np.ndarray:
    x = grid.nodes
    if model_kind == "burgers":
        return np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi)
    if model_kind == "kdv":
        return 2.0 * np.exp(-2.0 * x**2) / math.sqrt(2.0 * math.pi)
    if model_kind == "nls":
        sech = 1.0 / np.cosh(x)
        return np.concatenate([sech * np.cos(2.0 * x), sech * np.sin(2.0 * x)])
    raise ValueError(f"unknown model kind {model_kind!r}")


# the parameters besides gamma, each with the models that read it; theta defaults to 0.5
_PARAMETER_READERS = {"alpha": ("kdv", "nls"), "rho": ("kdv",), "nu": ("kdv",), "theta": ("kdv",)}


def make_model(
    model_kind: str,
    grid: Grid,
    gamma: float,
    alpha: Optional[float] = None,
    rho: Optional[float] = None,
    nu: Optional[float] = None,
    theta: Optional[float] = None,
) -> ConformalModel:
    """Dispatch a model by name; a parameter that the model does not read is refused."""
    if model_kind not in ("burgers", "kdv", "nls"):
        raise ValueError(f"unknown model kind {model_kind!r}")
    given = {"alpha": alpha, "rho": rho, "nu": nu, "theta": theta}
    for name, readers in _PARAMETER_READERS.items():
        if given[name] is not None and model_kind not in readers:
            raise ValueError(f"{name} applies to the {'/'.join(readers)} model only, not {model_kind!r}")
    if model_kind == "burgers":
        return burgers_model(BurgersParams(gamma=gamma, grid=grid))
    if model_kind == "kdv":
        params = KdvParams(
            alpha=-0.375 if alpha is None else alpha,
            rho=-10.0 if rho is None else rho,
            nu=-1e-5 if nu is None else nu,
            gamma=gamma,
            grid=grid,
        )
        return kdv_model(params, theta=0.5 if theta is None else theta)
    params = NlsParams(alpha=2.0 if alpha is None else alpha, gamma=gamma, grid=grid)
    return nls_model(params)


# experiment presets; flags can override any entry
PRESETS = {
    "burgers-paper": {
        "model": "burgers",
        "scheme": "ek2",
        "gamma": 0.25,
        "L": math.pi,
        "M": 80,
        "dt": 0.009,
        "T": 50.0,
    },
    "kdv-paper": {
        "model": "kdv",
        "scheme": "ek2",
        "alpha": -0.375,
        "rho": -10.0,
        "nu": -1e-5,
        "gamma": 1e-2,
        "L": 10.0,
        "M": 248,
        "dt": 0.009,
        "T": 50.0,
    },
    "nls-paper": {
        "model": "nls",
        "scheme": "lie",
        "alpha": 2.0,
        "gamma": 5e-4,
        "L": 25.0,
        "M": 1024,
        "dt": 0.001,
        "T": 10.0,
    },
}


def preset_grid(name: str) -> Grid:
    cfg = PRESETS[name]
    return build_grid(cfg["L"], cfg["M"])
