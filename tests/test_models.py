import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdg.diagnostics import reference_solve
from expdg.models import (
    MODELS,
    PRESETS,
    initial_condition,
    make_model,
    preset_grid,
    pure_decay_model,
)
from expdg.spatial import PeriodicBandedMatrix, build_grid, derivative_operator
from expdg.system import vector_field

from conftest import dense, evaluate_invariants, toy_cubic_model, two_field_dense


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
    with pytest.raises(ValueError, match="unknown model kind 'heat'"):
        initial_condition("heat", build_grid(1.0, 8))


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_every_model_kind_has_an_initial_profile(kind):
    grid = build_grid(5.0, 16)
    u0 = initial_condition(kind, grid)
    assert u0.shape == (make_model(kind, grid, 0.1).dim,)
    assert np.isfinite(u0).all()


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


@pytest.mark.parametrize("block", ["uu", "uv", "vu", "vv"])
def test_nls_jacobian_blocks_match_central_differences(block):
    # natural order (u; v): d(field_u)/du, d(field_u)/dv, d(field_v)/du, d(field_v)/dv
    m = 12
    g = build_grid(3.0, m)
    model = make_model("nls", g, gamma=5e-4, alpha=1.5)
    x = np.random.default_rng(5).standard_normal(2 * m)
    jac = model.jacobian_conservative(x)
    assert (jac.off, jac.mid, jac.c) == (1.0 / g.spacing**2, -2.0 / g.spacing**2, 0.0)
    h = 1e-5
    columns = [
        (model.conservative_field(x + h * e) - model.conservative_field(x - h * e)) / (2.0 * h)
        for e in np.eye(2 * m)
    ]
    rows, cols = ({"u": slice(0, m), "v": slice(m, 2 * m)}[c] for c in block)
    expected = np.column_stack(columns)[rows, cols]
    actual = two_field_dense(jac)[rows, cols]
    assert np.max(np.abs(actual - expected)) <= 1e-8 * np.max(np.abs(expected))


def _scaled_columns(scale, stencil, w):
    """scale * D diag(w) written out: the row at offset d is scale * c_d * w[(i + d) % n]."""
    rows = [(scale * c) * np.roll(w, -d) for d, c in zip(stencil.offsets, stencil.coeffs)]
    return PeriodicBandedMatrix(w.size, stencil.offsets, rows)


def _written_out_fields(kind, grid):
    """Field, Jacobian, Qb and Qb(x, .) of each quadratic model, each spelled out by hand."""
    if kind == "pure-decay":
        empty = PeriodicBandedMatrix(grid.size)
        return (np.zeros_like, lambda u: empty, lambda x, y: np.zeros_like(x), lambda x: empty)
    d1 = derivative_operator(grid, 1)
    if kind == "burgers":
        return (
            lambda u: -0.5 * d1.apply(u * u),
            lambda u: _scaled_columns(-1.0, d1, u),
            lambda x, y: -0.5 * d1.apply(x * y),
            lambda x: _scaled_columns(-0.5, d1, x),
        )
    alpha, rho, nu = -0.375, -10.0, -1e-5  # the kdv defaults
    linear = rho * d1 + nu * derivative_operator(grid, 3)
    return (
        lambda u: alpha * d1.apply(u * u) + linear.apply(u),
        lambda u: _scaled_columns(2.0 * alpha, d1, u) + linear,
        lambda x, y: alpha * d1.apply(x * y),
        lambda x: _scaled_columns(alpha, d1, x),
    )


MODEL_BANDS = {"burgers": (-1, 0, 1), "kdv": (-2, -1, 0, 1, 2), "pure-decay": (0,)}


@pytest.mark.parametrize("kind", ["burgers", "kdv", "pure-decay"])
def test_quadratic_field_equals_the_written_out_formulas_bitwise(kind):
    grid = build_grid(10.0, 64)
    model = pure_decay_model(64, 0.3) if kind == "pure-decay" else make_model(kind, grid, gamma=0.1)
    field, jacobian, qb, qb_matrix = _written_out_fields(kind, grid)
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal(64), rng.standard_normal(64)

    def same(a, b):
        if isinstance(a, PeriodicBandedMatrix):  # on the model's band: D's offsets, 0 and L's
            assert a.offsets == MODEL_BANDS[kind]
            a, b = a.to_dense(), b.to_dense()
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    same(model.conservative_field(x), field(x))
    same(model.jacobian_conservative(x), jacobian(x))
    same(model.quadratic_bilinear(x, y), qb(x, y))
    same(model.quadratic_matrix(x), qb_matrix(x))


def test_theta_defaults():
    kdv = make_model("kdv", build_grid(10.0, 64), gamma=0.0)
    assert kdv.polarized.theta == 0.5
    nls = make_model("nls", build_grid(25.0, 64), gamma=0.0)
    assert nls.polarized.theta == 1.0


def test_theta_is_refused_where_it_has_no_effect():
    # the burgers and nls lie systems are the theta = 1 discrete gradients
    with pytest.raises(ValueError, match="theta applies to the kdv model only"):
        make_model("nls", build_grid(25.0, 64), gamma=0.0, theta=0.5)
    with pytest.raises(ValueError, match="theta applies to the kdv model only"):
        make_model("burgers", build_grid(math.pi, 16), gamma=0.0, theta=0.5)
    kdv = make_model("kdv", build_grid(10.0, 64), gamma=0.0, theta=0.25)
    assert kdv.polarized.theta == 0.25


@pytest.mark.parametrize(
    "kind,unread",
    [("burgers", ("alpha", "rho", "nu", "theta")), ("nls", ("rho", "nu", "theta"))],
)
def test_parameters_the_model_does_not_read_are_refused(kind, unread):
    grid = build_grid(10.0, 64)
    for name in unread:
        with pytest.raises(ValueError, match=f"{name} applies to the .* model only, not '{kind}'"):
            make_model(kind, grid, gamma=0.0, **{name: 1.0})
    # the parameters it reads, and any parameter left at None, pass
    read = {"alpha": 1.0} if kind == "nls" else {}
    assert make_model(kind, grid, 0.0, rho=None, nu=None, theta=None, **read).name == kind
    kdv = make_model("kdv", grid, 0.0, alpha=1.0, rho=1.0, nu=1.0, theta=0.5)
    assert kdv.name == "kdv"


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
        ("kdv", {"gamma": 0.1, "alpha": math.nan}),
        ("kdv", {"gamma": 0.1, "rho": math.inf}),
        ("nls", {"gamma": -0.1}),
        ("burgers", {"gamma": math.inf}),
        ("nls", {"gamma": 0.1, "alpha": math.inf}),
        ("kdv", {"gamma": 0.1, "theta": 1.5}),
    ],
)
def test_parameter_validation(kind, kwargs):
    with pytest.raises(ValueError):
        make_model(kind, build_grid(10.0, 64), **kwargs)


def test_make_model_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown model kind 'heat'"):
        make_model("heat", build_grid(10.0, 64), 0.1)


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


# the presets' models at their own sizes (n = 80, 248 and 2 x 1024), pure decay and the toy
STACKED_MODELS = {
    **{kind: make_model(kind, preset_grid(f"{kind}-paper"), 0.1) for kind in ("burgers", "kdv", "nls")},
    "pure-decay": pure_decay_model(8, 0.3),
    "toy": toy_cubic_model(),
}


def recorded_functionals(model):
    """(name, callable, number of state arguments) of every functional recorded of the model."""
    out = [(inv.name, inv.evaluate, 1) for inv in model.invariants]
    out += [("hamiltonian", model.hamiltonian, 1), ("hamiltonian_paper", model.hamiltonian_paper, 1)]
    if model.polarized is not None:
        out.append(("polarized", model.polarized.evaluate, 2))
        if model.polarized.evaluate_printed is not None:
            out.append(("polarized printed", model.polarized.evaluate_printed, 2))
    return out


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(STACKED_MODELS)), lead=st.lists(st.integers(1, 5), min_size=1, max_size=2),
       scale=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
def test_stacked_functionals_equal_each_state_bytewise(kind, lead, scale, seed):
    # integrate evaluates the recorded series on stacked states; each value must be the single-state one
    model = STACKED_MODELS[kind]
    rng = np.random.default_rng(seed)
    stacks = [scale * rng.standard_normal((*lead, model.dim)) for _ in range(2)]
    for name, evaluate, arity in recorded_functionals(model):
        stacked = evaluate(*stacks[:arity])
        assert np.shape(stacked) == tuple(lead), name
        rows = [evaluate(*row) for row in zip(*(s.reshape(-1, model.dim) for s in stacks[:arity]))]
        assert all(np.ndim(value) == 0 for value in rows), name
        assert np.asarray(stacked, dtype=float).tobytes() == np.array(rows, dtype=float).tobytes(), name


# every model on a grid small enough for dense Jacobians (NLS: 2 x 32)
CHORD_MODELS = {
    **{kind: make_model(kind, build_grid(10.0, 32), 0.1) for kind in ("burgers", "kdv", "nls")},
    "pure-decay": pure_decay_model(8, 0.3),
    "toy": toy_cubic_model(),
}


@pytest.mark.parametrize("kind", sorted(CHORD_MODELS))
def test_chord_average_equals_simpson_38_mean(kind):
    # s -> f(a + s (y - a)) is a cubic polynomial in s, which Simpson's 3/8 rule integrates exactly:
    # an oracle that shares nothing with the closed forms
    model = CHORD_MODELS[kind]
    rng = np.random.default_rng(31)
    a, y = rng.standard_normal((2, model.dim))
    rule = ((0.0, 1.0 / 8.0), (1.0 / 3.0, 3.0 / 8.0), (2.0 / 3.0, 3.0 / 8.0), (1.0, 1.0 / 8.0))
    simpson = sum(w * model.conservative_field(a + s * (y - a)) for s, w in rule)
    assert np.abs(model.chord_average(a, y) - simpson).max() <= 1e-14 * max(np.abs(simpson).max(), 1.0)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(CHORD_MODELS)), scale=st.floats(1e-2, 10.0), seed=st.integers(0, 2**32 - 1))
def test_chord_pair_is_the_field_on_the_diagonal_symmetric_and_differentiated(kind, scale, seed):
    model = CHORD_MODELS[kind]
    mean = model.chord_average
    rng = np.random.default_rng(seed)
    a, y, e = scale * rng.standard_normal((3, model.dim))

    def close(value, reference):
        return np.abs(value - reference).max() <= 1e-12 * np.abs(reference).max()

    def central(h):
        return (mean(a, y + h * e) - mean(a, y - h * e)) / (2.0 * h)

    assert close(mean(a, a), model.conservative_field(a))
    assert close(mean(a, y), mean(y, a))
    # mean(a, y) is a polynomial of degree <= 3 in y, so the central difference along e is its derivative
    # plus h^2 times a fixed term, which Richardson extrapolation from h = 1 and h = 1/2 removes
    assert close((4.0 * central(0.5) - central(1.0)) / 3.0, dense(model.chord_jacobian(a, y)) @ e)
