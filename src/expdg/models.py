"""Damped Burgers, KdV and NLS models with their experiment presets.

Each factory assembles a ConformalModel: the semidiscrete vector field, the
generator Hamiltonian (whose gradient produces that field), invariants with
their exact decay rates, the polarized energy used by the two-step linearly
implicit scheme, and the builder of that scheme's linear system.

Burgers and KdV are stated once, as (S, H) with

    H(u) = dx sum(alpha u^3/3) + u^T A u/2,  A = dx (rho I + nu D2),  S = sigma D1/dx,

by `cubic_hamiltonian_model(sigma, alpha, A, theta)`, which derives the field
S grad_H and its Jacobian, grad_H, S and H, the polarized energy (the cubic
nodal rule plus the theta-polarized form of A) and its PDG, and the lie
system with the same theta.  Burgers is sigma = -1, alpha = 1/2 and no A;
KdV is sigma = 1 with A.  NLS, whose H is quartic, states its own.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .linalg import TwoFieldMatrix
from .spatial import (
    Grid,
    PeriodicBandedMatrix,
    build_grid,
    derivative_operator,
    dot,
    quadrature,
)
from .system import (
    ConformalModel,
    Invariant,
    NODAL_CUBIC,
    PolarizedEnergy,
    polarize_quadratic_form,
    polarized_kahan_system,
    quadratic_field,
)


def cubic_hamiltonian_model(
    name: str, grid: Grid, gamma: float, sigma: float, alpha: float, invariants: tuple,
    linear: Optional[tuple] = None, theta: float = 1.0, paper_factor: float = 1.0, **printed,
) -> ConformalModel:
    """The model of H(u) = dx sum(alpha u^3/3) + u^T A u/2 with S = sigma D1/dx, damped at 2 gamma.

    linear is (rho, nu) for A = dx (rho I + nu D2), or None for no A.  Everything else is
    derived: the field S grad_H = sigma alpha D1(u*u) + sigma (rho D1 + nu D3) u, its
    Jacobian, the polarized energy (the cubic nodal rule plus the theta-polarized form
    of A) and its PDG, the lie system with the same theta, and, when there is no A, the
    homogeneity degree 3 of H and H~.  invariants holds (name, degree, functional)
    triples, each decaying at degree * 2 gamma; the reported energy is paper_factor H;
    printed holds the as-printed midpoint callables, if any.
    """
    m, dx = grid.size, grid.spacing
    d1 = derivative_operator(grid, 1)
    ghat = 2.0 * gamma
    cubic = dx * alpha / 3.0
    if linear is None:
        amat = form = field_linear = None
    else:
        rho, nu = linear
        d2 = derivative_operator(grid, 2)
        amat = dx * (nu * d2).shift(rho)
        form = polarize_quadratic_form(amat.apply, theta)
        field_linear = sigma * (rho * d1 + nu * derivative_operator(grid, 3))

    def grad_h(u):
        g = dx * alpha * u * u
        return g if amat is None else g + amat.apply(u)

    def apply_s(w):
        return sigma * d1.apply(w) / dx

    def hamiltonian(u):
        h = cubic * (u**3).sum(axis=-1)
        return h if amat is None else h + 0.5 * dot(u, amat.apply(u))

    def pol_eval(v, w):
        h = cubic * NODAL_CUBIC.evaluate(v, w).sum(axis=-1)
        return h if form is None else h + form.evaluate(v, w)

    def pol_pdg(u, v, w):
        g = cubic * NODAL_CUBIC.pdg(u, v, w)
        return g if form is None else g + form.pdg(u, v, w)

    homogeneous = amat is None
    model = ConformalModel(
        name=name,
        dim=m,
        grid=grid,
        gamma=gamma,
        gamma_eff=ghat,
        apply_S=apply_s,
        grad_H=grad_h,
        hamiltonian=hamiltonian,
        hamiltonian_paper=hamiltonian if paper_factor == 1.0 else lambda u: paper_factor * hamiltonian(u),
        hamiltonian_rate=3.0 * ghat if homogeneous else None,
        invariants=tuple(Invariant(n, f, exact_rate=p * ghat) for n, p, f in invariants),
        **quadratic_field(sigma * alpha, d1, field_linear),
        polarized=PolarizedEnergy(evaluate=pol_eval, pdg=pol_pdg, theta=theta),
        polarized_degree=3 if homogeneous else None,
        lie_system_builder=lambda a, b, dt: polarized_kahan_system(model, a, b, dt, theta),
        **printed,
    )
    return model


def burgers_model(grid: Grid, gamma: float) -> ConformalModel:
    """u_t = -u u_x - 2 gamma u on a periodic grid: sigma = -1, alpha = 1/2, no A.

    The reported energy follows the u^3/3 integral convention and is exactly
    twice the generator dx sum(u^3)/6.
    """
    d1 = derivative_operator(grid, 1)
    model = cubic_hamiltonian_model(
        "burgers", grid, gamma, -1.0, 0.5, (("mass", 1, lambda u: quadrature(grid, u)),),
        paper_factor=2.0,
        # the as-printed average: mean of squares instead of squared mean
        printed_midpoint_field=lambda a, b: -0.25 * d1.apply(a * a + b * b),
        printed_midpoint_jacobian=lambda a, b: model.quadratic_matrix(b),
    )
    return model


def kdv_model(grid: Grid, gamma: float, alpha: float, rho: float, nu: float, theta: float) -> ConformalModel:
    """u_t = alpha (u^2)_x + rho u_x + nu u_xxx - 2 gamma u: sigma = 1 and A = dx (rho I + nu D2).

    A is kept when rho = nu = 0, so H and H~ are never taken as homogeneous.
    """
    invariants = (
        ("I1", 1, lambda u: quadrature(grid, u)),
        ("I2", 2, lambda u: quadrature(grid, u * u)),
    )
    return cubic_hamiltonian_model("kdv", grid, gamma, 1.0, alpha, invariants, (rho, nu), theta)


def nls_model(grid: Grid, gamma: float, alpha: float) -> ConformalModel:
    """i psi_t = -psi_xx - alpha |psi|^2 psi - i (gamma/2) psi, psi = u + i v.

    State is the stacked real pair (u; v) of length 2M.  The effective
    damping rate is gamma/2.  The Jacobian is a TwoFieldMatrix: its u-block
    is diagonal, so a Newton system is solved by eliminating u and solving
    one M x M periodic pentadiagonal Schur complement for v.  The polarized
    energy has theta = 1: the lie system below is the discrete gradient of
    that polarization only.
    """
    m, dx = grid.size, grid.spacing
    d1 = derivative_operator(grid, 1)
    d2 = derivative_operator(grid, 2)
    lie_d2 = -0.5j * d2
    ghat = 0.5 * gamma

    def split(x):
        return x[..., :m], x[..., m:]

    def halves(x):  # x as its stacked halves (..., 2, M): one `apply` serves both
        return x.reshape(*x.shape[:-1], 2, m)

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
        quart = alpha / 4.0 * (mod * mod).sum(axis=-1)
        deriv = dot(halves(x), d2.apply(halves(x)))  # (u . D2 u, v . D2 v)
        return dx * (quart + 0.5 * (deriv[..., 0] + deriv[..., 1]))

    def jacobian_rows(u, v):
        mod = u * u + v * v
        return np.array([2.0 * alpha * u * v, alpha * (mod + 2.0 * u * u), alpha * (mod + 2.0 * v * v)])

    def jacobian_conservative(x):
        return TwoFieldMatrix(jacobian_rows(*split(x)), *d2.coeffs[:2])  # D2 is the stencil (off, mid, off)

    # the chord means average the cubic part over the two Gauss nodes xi_k on [0, 1], which is exact
    # for it; the D2 part is linear, so its means are D2 at the midpoint and D2/2 in the Jacobian
    gauss = np.array([[0.5 - math.sqrt(3.0) / 6.0], [0.5 + math.sqrt(3.0) / 6.0]])

    def at_gauss_nodes(a, y):
        """The chord points x_k = xi_k y + (1 - xi_k) a, shaped (node, field, point)."""
        return (gauss * y + (1.0 - gauss) * a).reshape(2, 2, m)

    def chord_average(a, y):
        x = at_gauss_nodes(a, y)
        cubic = (0.5 * alpha) * ((x * x).sum(axis=1, keepdims=True) * x).sum(axis=0)
        u, v = d2.apply((0.5 * (a + y)).reshape(2, m)) + cubic
        return np.concatenate([-v, u])

    def chord_jacobian(a, y):
        x = at_gauss_nodes(a, y)
        rows = (jacobian_rows(x[:, 0], x[:, 1]) * (0.5 * gauss)).sum(axis=1)
        return TwoFieldMatrix(rows, *(0.5 * d2.coeffs[:2]))

    form = polarize_quadratic_form(lambda z: dx * d2.apply(halves(z)).reshape(z.shape), 1.0)

    def pol_eval(a, b):
        ua, va = split(a)
        ub, vb = split(b)
        quart = alpha / 4.0 * dx * ((ua * ua + va * va) * (ub * ub + vb * vb)).sum(axis=-1)
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
        return dx * (poly + deriv).sum(axis=-1)

    def lie_builder(a, b, dt):
        # (-i D2/2 + diag(h - i k)) z = h z_a + i (D2 z_a/2 + k z_a), z = u + i v, h = 1/(2 dt), k = alpha |z_b|^2/2,
        # formed part by part in real arithmetic (exact per part), in place; D2 sums as `apply` does, on (u; v)
        # padded row by row, and t[m:m + 2] straddles the two rows
        ub, vb = split(b)
        h, k = 1.0 / (2.0 * dt), 0.5 * alpha * (ub * ub + vb * vb)
        rows = lie_d2.coeffs[:, None].repeat(m, axis=1)
        rows[1].real, rows[1].imag = h, lie_d2.coeffs[1].imag - k
        x = a.reshape(2, m)
        padded = np.concatenate((x[:, -1:], x, x[:, :1]), axis=1).ravel()
        t = d2.coeffs[0] * padded[:-2]
        t += d2.coeffs[1] * padded[1:-1]
        t += d2.coeffs[2] * padded[2:]
        t *= 0.5
        rhs = np.empty(m, complex)
        np.subtract(h * x[0], t[m + 2:] + k * x[1], out=rhs.real)
        np.add(h * x[1], t[:m] + k * x[0], out=rhs.imag)
        return PeriodicBandedMatrix(m, lie_d2.offsets, rows), rhs, lambda z: np.concatenate([z.real, z.imag])

    def mass(x):
        u, v = split(x)
        return dx * ((u * u).sum(axis=-1) + (v * v).sum(axis=-1))

    def momentum(x):
        # skew-symmetrized discrete form of int (v_x u - u_x v) dx
        skew = dot(d1.apply(halves(x))[..., ::-1, :], halves(x))  # (D1 v . u, D1 u . v)
        return dx * (skew[..., 0] - skew[..., 1])

    invariants = (
        Invariant("mass", mass, exact_rate=2.0 * ghat),
        Invariant("momentum", momentum, exact_rate=2.0 * ghat),
    )
    return ConformalModel(
        name="nls",
        dim=2 * m,
        grid=grid,
        gamma=gamma,
        gamma_eff=ghat,
        apply_S=apply_s,
        grad_H=grad_h,
        hamiltonian=hamiltonian,
        hamiltonian_paper=hamiltonian,
        hamiltonian_rate=None,
        conservative_field=conservative_field,
        jacobian_conservative=jacobian_conservative,
        chord_average=chord_average,
        chord_jacobian=chord_jacobian,
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
    zero = lambda u: np.zeros(np.shape(u)[:-1])[()]  # H = 0, one value per state
    model = ConformalModel(
        name="pure-decay",
        dim=dim,
        grid=grid,
        gamma=gamma_eff,
        gamma_eff=gamma_eff,
        apply_S=zeros,
        grad_H=zeros,
        hamiltonian=zero,
        hamiltonian_paper=zero,
        hamiltonian_rate=None,
        invariants=(),
        **quadratic_field(0.0, PeriodicBandedMatrix(dim)),
        polarized=None,
        polarized_degree=None,
        lie_system_builder=lambda a, b, dt: polarized_kahan_system(model, a, b, dt),
    )
    return model


# model kind -> constructor; make_model checks and dispatches on it
MODELS = {"burgers": burgers_model, "kdv": kdv_model, "nls": nls_model}


def _nls_profile(x):
    sech = 1.0 / np.cosh(x)
    return np.concatenate([sech * np.cos(2.0 * x), sech * np.sin(2.0 * x)])


# model kind -> its initial state on the grid nodes x; initial_condition dispatches on it
PROFILES = {
    "burgers": lambda x: np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi),
    "kdv": lambda x: 2.0 * np.exp(-2.0 * x**2) / math.sqrt(2.0 * math.pi),
    "nls": _nls_profile,
}


def initial_condition(model_kind: str, grid: Grid) -> np.ndarray:
    if model_kind not in PROFILES:
        raise ValueError(f"unknown model kind {model_kind!r}")
    return PROFILES[model_kind](grid.nodes)


# the parameters besides gamma: the default of each in every model that reads it
_PARAMETERS = {
    "alpha": {"kdv": -0.375, "nls": 2.0},
    "rho": {"kdv": -10.0},
    "nu": {"kdv": -1e-5},
    "theta": {"kdv": 0.5},
}


def make_model(
    model_kind: str,
    grid: Grid,
    gamma: float,
    alpha: Optional[float] = None,
    rho: Optional[float] = None,
    nu: Optional[float] = None,
    theta: Optional[float] = None,
) -> ConformalModel:
    """Dispatch a model by name; a parameter that the model does not read, or a bad value, is refused."""
    if model_kind not in MODELS:
        raise ValueError(f"unknown model kind {model_kind!r}")
    given = {"alpha": alpha, "rho": rho, "nu": nu, "theta": theta}
    values = {}
    for name, defaults in _PARAMETERS.items():
        if model_kind in defaults:
            values[name] = defaults[model_kind] if given[name] is None else given[name]
        elif given[name] is not None:
            raise ValueError(f"{name} applies to the {'/'.join(defaults)} model only, not {model_kind!r}")
    if model_kind == "nls" and not (np.isfinite(values["alpha"]) and values["alpha"] > 0):
        raise ValueError(f"alpha must be finite and > 0, got {values['alpha']}")
    for name in ("alpha", "rho", "nu"):
        if not np.isfinite(values.get(name, 0.0)):
            raise ValueError(f"{name} must be finite, got {values[name]}")
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    return MODELS[model_kind](grid, gamma, **values)


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
