import math

import numpy as np
import pytest

from expdg.diagnostics import reference_solve
from expdg.models import (
    PRESETS,
    initial_condition,
    make_model,
    preset_grid,
    pure_decay_model,
)
from expdg.spatial import build_grid, derivative_operator
from expdg.system import vector_field

from conftest import evaluate_invariants


def test_initial_profiles_at_origin():
    gb = preset_grid("burgers-paper")
    assert initial_condition("burgers", gb)[40] == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=1e-15
    )
    gk = preset_grid("kdv-paper")
    assert initial_condition("kdv", gk)[124] == pytest.approx(
        2.0 / math.sqrt(2.0 * math.pi), rel=1e-15
    )
    gn = preset_grid("nls-paper")
    psi0 = initial_condition("nls", gn)
    assert psi0[512] == 1.0  # sech(0) cos(0)
    assert psi0[1024 + 512] == 0.0  # sech(0) sin(0)


def test_initial_condition_unknown_kind():
    with pytest.raises(ValueError):
        initial_condition("heat", build_grid(1.0, 8))


def test_burgers_frozen_invariant_values():
    g = preset_grid("burgers-paper")
    model = make_model("burgers", g, gamma=0.25)
    u0 = initial_condition("burgers", g)
    values = dict(evaluate_invariants(model, u0))
    assert values["mass"] == pytest.approx(0.998310423378624, rel=1e-14)

    h_paper = model.hamiltonian_paper(u0)
    assert h_paper == pytest.approx(0.030629381384131196, rel=1e-14)
    # analytic (1/3) integral of phi^3 for phi the unit Gaussian density
    # domain truncation of the Gaussian tails costs ~2e-9 here
    assert h_paper == pytest.approx(1.0 / (6.0 * math.pi * math.sqrt(3.0)), abs=5e-9)
    # generator Hamiltonian carries the 1/6 nodal weight, reported H the 1/3
    assert model.hamiltonian(u0) == pytest.approx(0.5 * h_paper, rel=1e-14)
    assert model.hamiltonian_rate == pytest.approx(6.0 * 0.25)


def test_kdv_frozen_invariant_values():
    g = preset_grid("kdv-paper")
    model = make_model("kdv", g, gamma=1e-2)
    u0 = initial_condition("kdv", g)
    values = dict(evaluate_invariants(model, u0))
    assert values["I1"] == pytest.approx(1.0, rel=1e-14)
    assert values["I2"] == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)
    assert values["I2"] == pytest.approx(0.5641895835477564, rel=1e-14)


def test_nls_frozen_invariant_values():
    g = preset_grid("nls-paper")
    model = make_model("nls", g, gamma=5e-4)
    psi0 = initial_condition("nls", g)
    values = dict(evaluate_invariants(model, psi0))
    assert values["mass"] == pytest.approx(2.0 * math.tanh(25.0), rel=1e-12)
    assert abs(values["momentum"] - 4.0) <= 0.01  # 2k * integral of sech^2, k=2
    assert values["momentum"] == pytest.approx(3.9920587114625885, rel=1e-13)

    # momentum realized through the centered first difference
    d1 = derivative_operator(g, 1).to_dense()
    u, v = psi0[:1024], psi0[1024:]
    direct = g.spacing * float((d1 @ v) @ u - (d1 @ u) @ v)
    assert values["momentum"] == pytest.approx(direct, rel=1e-13)


def test_exact_rates_follow_the_damping_convention():
    gb = preset_grid("burgers-paper")
    burgers = make_model("burgers", gb, gamma=0.25)
    assert burgers.gamma_eff == pytest.approx(0.5)  # 2 gamma
    assert {i.name: i.exact_rate for i in burgers.invariants} == {"mass": pytest.approx(0.5)}

    kdv = make_model("kdv", preset_grid("kdv-paper"), gamma=1e-2)
    assert kdv.gamma_eff == pytest.approx(2e-2)
    rates = {i.name: i.exact_rate for i in kdv.invariants}
    assert rates["I1"] == pytest.approx(2e-2)
    assert rates["I2"] == pytest.approx(4e-2)

    nls = make_model("nls", preset_grid("nls-paper"), gamma=5e-4)
    assert nls.gamma_eff == pytest.approx(2.5e-4)  # gamma / 2
    rates = {i.name: i.exact_rate for i in nls.invariants}
    assert rates["mass"] == pytest.approx(5e-4)
    assert rates["momentum"] == pytest.approx(5e-4)


def test_mass_is_linear_under_exact_decay():
    g = preset_grid("burgers-paper")
    model = make_model("burgers", g, gamma=0.25)
    u0 = initial_condition("burgers", g)
    mass = dict(evaluate_invariants(model, u0))["mass"]
    factor = math.exp(-model.gamma_eff * 0.7)
    decayed = dict(evaluate_invariants(model, factor * u0))["mass"]
    assert decayed == pytest.approx(factor * mass, rel=1e-14)


def test_kdv_with_zero_coefficients_is_pure_decay():
    g = build_grid(10.0, 64)
    model = make_model("kdv", g, gamma=0.1, alpha=0.0, rho=0.0, nu=0.0)
    u = np.sin(g.nodes)
    assert np.allclose(vector_field(model, u), -0.2 * u, rtol=0, atol=1e-15)


def test_nls_zero_imaginary_block_substitution():
    g = build_grid(25.0, 128)
    alpha = 2.0
    model = make_model("nls", g, gamma=5e-4, alpha=alpha)
    u = 1.0 / np.cosh(g.nodes)
    state = np.concatenate([u, np.zeros(128)])
    field = vector_field(model, state)
    # u-block: only the damping survives; v-block: dispersion plus the cubic
    # term alpha*u^3, which is present whenever u is nonzero
    assert np.max(np.abs(field[:128] + model.gamma_eff * u)) <= 1e-15
    d2 = derivative_operator(g, 2).to_dense()
    expected_v = d2 @ u + alpha * u**3
    assert np.max(np.abs(field[128:] - expected_v)) <= 1e-13 * np.max(np.abs(expected_v))


def test_theta_defaults():
    kdv = make_model("kdv", build_grid(10.0, 64), gamma=0.0)
    assert kdv.polarized.theta == 0.5
    nls = make_model("nls", build_grid(25.0, 64), gamma=0.0)
    assert nls.polarized.theta == 1.0


def test_preset_tables():
    bp = PRESETS["burgers-paper"]
    assert (bp["model"], bp["scheme"]) == ("burgers", "ek2")
    assert (bp["gamma"], bp["L"], bp["M"], bp["dt"], bp["T"]) == (0.25, math.pi, 80, 0.009, 50.0)

    kp = PRESETS["kdv-paper"]
    assert (kp["alpha"], kp["rho"], kp["nu"], kp["gamma"]) == (-0.375, -10.0, -1e-5, 1e-2)
    assert (kp["L"], kp["M"], kp["dt"], kp["T"]) == (10.0, 248, 0.009, 50.0)

    np_ = PRESETS["nls-paper"]
    assert (np_["model"], np_["scheme"]) == ("nls", "lie")
    assert (np_["alpha"], np_["gamma"], np_["L"], np_["M"]) == (2.0, 5e-4, 25.0, 1024)
    assert (np_["dt"], np_["T"]) == (0.001, 10.0)

    assert preset_grid("burgers-paper").spacing == pytest.approx(math.pi / 40.0)


@pytest.mark.parametrize(
    "kind,kwargs",
    [
        ("burgers", {"gamma": -0.1}),
        ("nls", {"gamma": 0.1, "alpha": 0.0}),
        ("nls", {"gamma": 0.1, "alpha": -2.0}),
        ("kdv", {"gamma": 0.1, "nu": math.inf}),
        ("kdv", {"gamma": math.nan}),
    ],
)
def test_parameter_validation(kind, kwargs):
    with pytest.raises(ValueError):
        make_model(kind, build_grid(10.0, 64), **kwargs)


def test_pure_decay_model_field():
    model = pure_decay_model(8, 0.3)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(8)
    assert np.allclose(vector_field(model, u), -0.3 * u, rtol=0, atol=1e-16)
    assert model.invariants == ()
    assert model.grid is None


DECAY_CASES = [
    # (model kind, grid, invariant, rate multiple of gamma_eff)
    ("burgers", (math.pi, 80), "mass", 1.0),
    ("kdv", (10.0, 248), "I1", 1.0),
    # at the preset resolution M=248 the discrete I2 rate misses 2*gamma_eff
    # by about 5e-6 relative; the refinement below brings the
    # semidiscretization error under the bound
    ("kdv", (10.0, 992), "I2", 2.0),
    ("nls", (25.0, 1024), "mass", 2.0),
    ("nls", (25.0, 1024), "momentum", 2.0),
]


@pytest.mark.parametrize("kind,grid_args,name,multiple", DECAY_CASES)
def test_conformal_decay_rates_against_reference(kind, grid_args, name, multiple):
    gammas = {"burgers": 0.25, "kdv": 1e-2, "nls": 5e-4}
    g = build_grid(*grid_args)
    model = make_model(kind, g, gamma=gammas[kind])
    u0 = initial_condition(kind, g)
    horizon = 0.1
    ref = reference_solve(model, u0, horizon, 5e-4)
    start = dict(evaluate_invariants(model, u0))[name]
    end = dict(evaluate_invariants(model, ref))[name]
    expected = start * math.exp(-multiple * model.gamma_eff * horizon)
    assert abs(end - expected) <= 1e-6 * abs(start)


def test_burgers_hamiltonian_decays_at_triple_rate():
    # H is homogeneous of degree three, so the damping drains it at 3 gamma_eff
    g = preset_grid("burgers-paper")
    model = make_model("burgers", g, gamma=0.25)
    u0 = initial_condition("burgers", g)
    ref = reference_solve(model, u0, 0.1, 5e-4)
    expected = model.hamiltonian_paper(u0) * math.exp(-3.0 * model.gamma_eff * 0.1)
    assert model.hamiltonian_paper(ref) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize(
    "kind,dt_ref",
    [("burgers", 1e-3), ("kdv", 1e-3), ("nls", 5e-4)],
)
def test_conservative_limit_preserves_hamiltonian(kind, dt_ref):
    g = preset_grid(f"{kind}-paper")
    model = make_model(kind, g, gamma=0.0)
    u0 = initial_condition(kind, g)
    ref = reference_solve(model, u0, 1.0, dt_ref)
    h0 = model.hamiltonian_paper(u0)
    assert abs(model.hamiltonian_paper(ref) - h0) <= 1e-8 * abs(h0)
