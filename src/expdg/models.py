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
from typing import Callable, NamedTuple, Optional

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
    linear: Optional[tuple] = None, theta: float = 1.0, paper_factor: float = 1.0, midpoint_pair=None,
) -> ConformalModel:
    """The model of H(u) = dx sum(alpha u^3/3) + u^T A u/2 with S = sigma D1/dx, damped at 2 gamma.

    linear is (rho, nu) for A = dx (rho I + nu D2), or None for no A.  Everything else is
    derived: the field S grad_H = sigma alpha D1(u*u) + sigma (rho D1 + nu D3) u, its
    Jacobian, the polarized energy (the cubic nodal rule plus the theta-polarized form
    of A) and its PDG, the lie system with the same theta, and, when there is no A, the
    homogeneity degree 3 of H and H~.  invariants holds (name, degree, functional)
    triples, each decaying at degree * 2 gamma; the reported energy is paper_factor H;
    midpoint_pair is the model's own midpoint pair (F, F_y), if any.
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
        invariants=tuple(Invariant(n, f, exact_rate=p * ghat) for n, p, f in invariants),
        **quadratic_field(sigma * alpha, d1, field_linear),
        polarized=PolarizedEnergy(evaluate=pol_eval, pdg=pol_pdg),
        degree=3 if amat is None else None,
        lie_system_builder=lambda a, b, dt: polarized_kahan_system(model, a, b, dt, theta),
        midpoint_pair=midpoint_pair,
    )
    return model


def burgers_model(grid: Grid, gamma: float, printed: bool = False) -> ConformalModel:
    """u_t = -u u_x - 2 gamma u on a periodic grid: sigma = -1, alpha = 1/2, no A.

    The reported energy follows the u^3/3 integral convention and is exactly
    twice the generator dx sum(u^3)/6.  As printed, the midpoint kinds average
    the nonlinearity as a mean of squares instead of a squared mean.
    """
    d1 = derivative_operator(grid, 1)
    printed_pair = (lambda a, b: -0.25 * d1.apply(a * a + b * b), lambda a, b: model.quadratic_matrix(b))
    model = cubic_hamiltonian_model(
        "burgers", grid, gamma, -1.0, 0.5, (("mass", 1, lambda u: quadrature(grid, u)),),
        paper_factor=2.0, midpoint_pair=printed_pair if printed else None,
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


def nls_model(grid: Grid, gamma: float, alpha: float, printed: bool = False) -> ConformalModel:
    """i psi_t = -psi_xx - alpha |psi|^2 psi - i (gamma/2) psi, psi = u + i v.

    State is the stacked real pair (u; v) of length 2M.  The effective
    damping rate is gamma/2.  With the gradient g = D2 psi + alpha |psi|^2 psi
    of the halves and the rotation J (g_u; g_v) = (-g_v; g_u), the field is
    J g, grad_H = dx g and S = J/dx.  The Jacobian is a TwoFieldMatrix: its
    u-block is diagonal, so a Newton system is solved by eliminating u and
    solving one M x M periodic pentadiagonal Schur complement for v.  The
    polarized energy has theta = 1: the lie system below is the discrete
    gradient of that polarization only.  As printed, the polarized energy is
    the displayed H~, not a polarization of H; only the record uses it.
    """
    m, dx = grid.size, grid.spacing
    d1 = derivative_operator(grid, 1)
    d2 = derivative_operator(grid, 2)
    lie_d2 = -0.5j * d2
    ghat = 0.5 * gamma

    def halves(x):  # x as its stacked halves (..., 2, M): one `apply` serves both
        return x.reshape(*x.shape[:-1], 2, m)

    def modulus(h):  # |psi|^2 = u u + v v of the stacked halves h
        return h[..., 0, :] * h[..., 0, :] + h[..., 1, :] * h[..., 1, :]

    def gradient(h):  # g = D2 psi + alpha |psi|^2 psi on the stacked halves
        return d2.apply(h) + alpha * modulus(h)[..., None, :] * h

    def rotate(g):  # J g = (-g_v; g_u), from the stacked halves to a state
        return np.concatenate([-g[..., 1, :], g[..., 0, :]], axis=-1)

    def conservative_field(x):
        return rotate(gradient(halves(x)))

    def grad_h(x):
        return dx * gradient(halves(x)).reshape(x.shape)

    def apply_s(g):
        return rotate(halves(g)) / dx

    def hamiltonian(x):
        mod = modulus(halves(x))
        quart = alpha / 4.0 * (mod * mod).sum(axis=-1)
        deriv = dot(halves(x), d2.apply(halves(x)))  # (u . D2 u, v . D2 v)
        return dx * (quart + 0.5 * (deriv[..., 0] + deriv[..., 1]))

    def jacobian_rows(h):  # (2 alpha u v, alpha (mod + 2 u u), alpha (mod + 2 v v)), written into one array
        u, v, mod = h[..., 0, :], h[..., 1, :], modulus(h)
        rows = np.empty((3, *mod.shape))
        np.multiply(2.0 * alpha * u, v, out=rows[0])
        np.add(mod, 2.0 * u * u, out=rows[1])
        np.add(mod, 2.0 * v * v, out=rows[2])
        rows[1:] *= alpha
        return rows

    def jacobian_conservative(x):
        return TwoFieldMatrix(jacobian_rows(halves(x)), *d2.coeffs[:2, 0])  # D2 is the stencil (off, mid, off)

    # the chord means average the cubic part over the two Gauss nodes xi_k on [0, 1], which is exact
    # for it; the D2 part is linear, so its means are D2 at the midpoint and D2/2 in the Jacobian
    gauss = np.array([[0.5 - math.sqrt(3.0) / 6.0], [0.5 + math.sqrt(3.0) / 6.0]])

    def at_gauss_nodes(a, y):
        """The chord points x_k = xi_k y + (1 - xi_k) a, shaped (node, field, point)."""
        return (gauss * y + (1.0 - gauss) * a).reshape(2, 2, m)

    def chord_average(a, y):
        x = at_gauss_nodes(a, y)
        cubic = (0.5 * alpha) * (modulus(x)[:, None] * x).sum(axis=0)
        return rotate(d2.apply(halves(0.5 * (a + y))) + cubic)

    def chord_jacobian(a, y):
        rows = (jacobian_rows(at_gauss_nodes(a, y)) * (0.5 * gauss)).sum(axis=1)
        return TwoFieldMatrix(rows, *(0.5 * d2.coeffs[:2, 0]))

    form = polarize_quadratic_form(lambda z: dx * d2.apply(halves(z)).reshape(z.shape), 1.0)

    def pol_eval(a, b):
        quart = alpha / 4.0 * dx * (modulus(halves(a)) * modulus(halves(b))).sum(axis=-1)
        return quart + form.evaluate(a, b)

    def pol_pdg(a, b, c):
        mod_b = modulus(halves(b))
        quart = alpha / 2.0 * dx * np.concatenate([mod_b, mod_b]) * (a + c)
        return quart + form.pdg(a, b, c)

    def pol_eval_printed(a, b):
        # literal transcription of the displayed polarized Hamiltonian; the
        # derivative pieces integrate to zero on the periodic grid
        ua, va, ub, vb = a[..., :m], a[..., m:], b[..., :m], b[..., m:]
        poly = alpha / 4.0 * (ua * ua * ub * ub + va * va * ub * ub + ua * va + ub * vb)
        deriv = -0.5 * d1.apply(ua * ua + ub * ub) - 0.5 * d1.apply(va * va + vb * vb)
        return dx * (poly + deriv).sum(axis=-1)

    def lie_builder(a, b, dt):
        # (-i D2/2 + diag(h - i k)) z = h z_a + i (D2 z_a/2 + k z_a), z = u + i v, h = 1/(2 dt), k = alpha |z_b|^2/2,
        # with its rows written in place.  Adding the matrix times z_a to both sides leaves the right-hand side
        # 2h z_a, formed part by part in real arithmetic: the system is solved for w = z + z_a, and decode writes
        # (w.real - u_a, w.imag - v_a) into one 2M array
        h, k = 1.0 / (2.0 * dt), 0.5 * alpha * modulus(halves(b))
        rows = lie_d2.coeffs.repeat(m, axis=1)
        rows[1].real, rows[1].imag = h, lie_d2.coeffs[1].imag - k
        rhs = np.empty(m, complex)
        np.multiply(2.0 * h, a[:m], out=rhs.real)
        np.multiply(2.0 * h, a[m:], out=rhs.imag)

        def decode(w):
            z = np.empty(2 * m)
            np.subtract(w.real, a[:m], out=z[:m])
            np.subtract(w.imag, a[m:], out=z[m:])
            return z

        return PeriodicBandedMatrix(m, lie_d2.offsets, rows), rhs, decode

    def mass(x):
        u, v = x[..., :m], x[..., m:]
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
        conservative_field=conservative_field,
        jacobian_conservative=jacobian_conservative,
        chord_average=chord_average,
        chord_jacobian=chord_jacobian,
        invariants=invariants,
        polarized=PolarizedEnergy(evaluate=pol_eval_printed if printed else pol_eval, pdg=pol_pdg),
        lie_system_builder=lie_builder,
    )


def _nls_profile(x):
    sech = 1.0 / np.cosh(x)
    return np.concatenate([sech * np.cos(2.0 * x), sech * np.sin(2.0 * x)])


class ModelKind(NamedTuple):
    """A model kind: its constructor, its initial state on the grid nodes x, its parameter defaults,
    and the scheme kinds whose steps or records its as-printed variant, build(..., printed=True), changes."""

    build: Callable
    profile: Callable
    defaults: dict
    printed: tuple = ()


# model kind -> ModelKind: the one table that make_model, initial_condition and the CLI's choices read
MODELS = {
    "burgers": ModelKind(burgers_model, lambda x: np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi), {},
                         ("cimp", "imidpoint_plain")),
    "kdv": ModelKind(kdv_model, lambda x: 2.0 * np.exp(-2.0 * x**2) / math.sqrt(2.0 * math.pi),
                     {"alpha": -0.375, "rho": -10.0, "nu": -1e-5, "theta": 0.5}),
    "nls": ModelKind(nls_model, _nls_profile, {"alpha": 2.0}, ("lie",)),
}


def _model_kind(name: str) -> ModelKind:
    if name not in MODELS:
        raise ValueError(f"unknown model kind {name!r} (known: {', '.join(MODELS)})")
    return MODELS[name]


def initial_condition(model_kind: str, grid: Grid) -> np.ndarray:
    return _model_kind(model_kind).profile(grid.nodes)


def make_model(
    model_kind: str,
    grid: Grid,
    gamma: float,
    alpha: Optional[float] = None,
    rho: Optional[float] = None,
    nu: Optional[float] = None,
    theta: Optional[float] = None,
    printed_for: Optional[str] = None,
) -> ConformalModel:
    """Dispatch a model by name, as printed for the scheme kind printed_for if given; a parameter that the
    model does not read, a bad value, or a printed_for outside the model's `printed` kinds is refused."""
    kind = _model_kind(model_kind)
    values = {} if printed_for is None else {"printed": True}
    if printed_for not in (None, *kind.printed):
        known = ", ".join(kind.printed) or "no scheme kind"
        raise ValueError(f"the {model_kind} model has an as-printed variant for {known}, not {printed_for!r}")
    for name, given in {"alpha": alpha, "rho": rho, "nu": nu, "theta": theta}.items():
        if name in kind.defaults:
            values[name] = kind.defaults[name] if given is None else given
        elif given is not None:
            readers = "/".join(k for k, entry in MODELS.items() if name in entry.defaults)
            raise ValueError(f"{name} applies to the {readers} model only, not {model_kind!r}")
    if model_kind == "nls" and not (np.isfinite(values["alpha"]) and values["alpha"] > 0):
        raise ValueError(f"alpha must be finite and > 0, got {values['alpha']}")
    for name in ("alpha", "rho", "nu"):
        if not np.isfinite(values.get(name, 0.0)):
            raise ValueError(f"{name} must be finite, got {values[name]}")
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    return kind.build(grid, gamma, **values)


# experiment presets, each at its model's parameter defaults; flags can override any entry
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
        "gamma": 1e-2,
        "L": 10.0,
        "M": 248,
        "dt": 0.009,
        "T": 50.0,
    },
    "nls-paper": {
        "model": "nls",
        "scheme": "lie",
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
