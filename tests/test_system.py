import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expdg.errors import BlowUpError, UnsupportedModelError
from expdg.integrators import SchemeSpec, step
from expdg.linalg import solve_periodic_banded
from expdg.models import PRESETS, initial_condition, make_model, preset_grid
from expdg.spatial import PeriodicBandedMatrix, build_grid, derivative_operator
from expdg import system
from expdg.system import NODAL_CUBIC, kahan_system

from conftest import evaluate_invariants, toy_cubic_model
from oracles import kahan_bilinear, pure_decay_model, vector_field

GRIDS = {
    "burgers": (math.pi, 80),
    "kdv": (10.0, 248),
    "nls": (25.0, 256),
}


def build(kind, gamma=0.25):
    half_length, size = GRIDS[kind]
    return make_model(kind, build_grid(half_length, size), gamma)


def random_states(model, count, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, model.dim))


def test_vector_field_zero_state():
    model = build("burgers")
    assert np.array_equal(vector_field(model, np.zeros(model.dim)), np.zeros(model.dim))


def test_vector_field_constant_state_decays_only():
    # the difference stencil annihilates constants, leaving pure damping
    model = build("burgers", gamma=0.25)
    c = 1.7
    out = vector_field(model, np.full(model.dim, c))
    assert np.max(np.abs(out + model.gamma_eff * c)) <= 1e-15


def test_vector_field_matches_dense_oracle_on_sin():
    model = build("burgers", gamma=0.25)
    u = np.sin(model.grid.nodes)
    dense_d1 = derivative_operator(model.grid, 1).to_dense()
    expected = -0.5 * dense_d1 @ (u * u) - 0.5 * u
    assert np.max(np.abs(vector_field(model, u) - expected)) <= 1e-13


def test_vector_field_shape_check():
    model = build("burgers")
    with pytest.raises(ValueError):
        vector_field(model, np.ones(model.dim + 1))


def test_vector_field_flags_non_finite_states():
    model = build("burgers")
    bad = np.ones(model.dim)
    bad[3] = np.inf
    with pytest.raises(BlowUpError):
        vector_field(model, bad)


@pytest.mark.parametrize("kind", ["burgers", "kdv"])
def test_kahan_bilinear_diagonal_and_symmetry(kind):
    model = build(kind, gamma=0.1)
    for u in random_states(model, 10, seed=1):
        diag = kahan_bilinear(model, u, u)
        assert np.allclose(diag, model.conservative_field(u), rtol=1e-13, atol=1e-13)
    for a, b in zip(random_states(model, 10, seed=2), random_states(model, 10, seed=3)):
        assert np.array_equal(kahan_bilinear(model, a, b), kahan_bilinear(model, b, a))


@pytest.mark.parametrize("kind", ["burgers", "kdv"])
def test_kahan_identity_on_random_pairs(kind):
    # f-bar(a,b) = -f(a)/2 + 2 f((a+b)/2) - f(b)/2 for a quadratic field f
    model = build(kind, gamma=0.1)
    f = model.conservative_field
    pairs = zip(random_states(model, 100, seed=4), random_states(model, 100, seed=5))
    for a, b in pairs:
        lhs = -0.5 * f(a) + 2.0 * f(0.5 * (a + b)) - 0.5 * f(b)
        rhs = kahan_bilinear(model, a, b)
        scale = max(np.max(np.abs(rhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_kahan_bilinear_rejects_cubic_field():
    model = build("nls")
    with pytest.raises(UnsupportedModelError):
        kahan_bilinear(model, np.zeros(model.dim), np.zeros(model.dim))


SMALL_QUADRATIC = {
    "burgers": make_model("burgers", build_grid(math.pi, 12), gamma=0.0),
    "kdv": make_model("kdv", build_grid(10.0, 12), gamma=0.0, nu=-0.5),
}


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(SMALL_QUADRATIC)),
    row=st.sampled_from(["ek1", "ek2", "lie"]),
    theta=st.floats(0.0, 1.0),
    dt=st.floats(1e-3, 0.05),
    gamma=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="kdv", row="lie", theta=0.0, dt=0.01, gamma=0.3, seed=7)
@example(kind="kdv", row="lie", theta=1.0, dt=0.01, gamma=0.3, seed=7)  # no L or gamma term is formed
def test_kahan_system_solves_its_defining_equation(kind, row, theta, dt, gamma, seed):
    # (c - a)/h = Qb(b, q0 a + q1 b + q2 c) + (L - gamma)(l0 a + l1 b + l2 c),
    # rebuilt from the dense Qb(b, .) and L, for every weight row in use
    model = SMALL_QUADRATIC[kind]
    h, q, l = {
        "ek1": (dt, (0.0, 0.0, 1.0), (0.5, 0.0, 0.5)),
        "ek2": (2.0 * dt, (0.5, 0.0, 0.5), (0.25, 0.5, 0.25)),
        "lie": (2.0 * dt, (1.0 / 3.0,) * 3, (theta / 2.0, 1.0 - theta, theta / 2.0)),
    }[row]
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, model.dim)
    b = a if row == "ek1" else rng.uniform(-2.0, 2.0, model.dim)
    mat, rhs, decode = kahan_system(model, a, b, h, q, l, gamma)
    c = decode(solve_periodic_banded(mat, rhs))
    qb = model.quadratic_matrix(b).to_dense()
    lin = model.linear_operator.to_dense() if model.linear_operator is not None else 0.0
    lin = lin - gamma * np.eye(model.dim)
    terms = [
        (c - a) / h,
        qb @ (q[0] * a + q[1] * b + q[2] * c),
        lin @ (l[0] * a + l[1] * b + l[2] * c),
    ]
    scale = max(np.max(np.abs(t)) for t in terms)
    assert np.max(np.abs(terms[0] - terms[1] - terms[2])) <= 1e-12 * scale


def test_symmetric_weights_apply_no_operator_to_a():
    # q0 = q2 and l0 = l2: the system is solved for c + a, with the right-hand side
    # (2/h) a + q1 Qb(b, b) + l1 (L - gamma) b, so nothing is applied to a
    h, q, l = 0.018, (0.5, 0.0, 0.5), (0.25, 0.5, 0.25)  # the ek2 row
    rng = np.random.default_rng(5)
    burgers = build("burgers", gamma=0.1)
    a, b = rng.standard_normal((2, burgers.dim))
    _, rhs, _ = kahan_system(burgers, a, b, h, q, l)
    assert rhs.tobytes() == ((2.0 / h) * a).tobytes()

    calls = collections.Counter()

    class CountedL(PeriodicBandedMatrix):
        def apply(self, u):
            calls["L"] += 1
            return super().apply(u)

    kdv = build("kdv", gamma=0.1)
    linear = kdv.linear_operator

    def counted_qb(x, y):
        calls["Qb"] += 1
        return kdv.quadratic_bilinear(x, y)

    counted = dataclasses.replace(
        kdv, linear_operator=CountedL(linear.size, linear.offsets, linear.coeffs), quadratic_bilinear=counted_qb
    )
    a, b = rng.standard_normal((2, kdv.dim))
    mat, rhs, decode = kahan_system(counted, a, b, h, q, l)
    assert calls == {"L": 1}
    c = decode(solve_periodic_banded(mat, rhs))
    mat, rhs, decode = kahan_system(kdv, a, b, h, q, l)
    assert c.tobytes() == decode(solve_periodic_banded(mat, rhs)).tobytes()


def test_kahan_system_cache_keeps_every_matrix_equal_to_its_dense_assembly():
    # in one process, two models whose L differs, each at alternating dt and gamma, called in turn
    grid = build_grid(10.0, 12)
    rho, q, l = -1.5, (0.5, 0.0, 0.5), (0.25, 0.5, 0.25)
    d1, d3 = (derivative_operator(grid, k).to_dense() for k in (1, 3))
    models = {nu: make_model("kdv", grid, gamma=0.0, rho=rho, nu=nu) for nu in (-0.5, -0.25)}
    rng = np.random.default_rng(11)
    a, b = rng.uniform(-2.0, 2.0, (2, grid.size))
    returned = []
    hits = system._kahan_invariant.cache_info().hits
    for _, h, gamma, (nu, model) in itertools.product(range(2), (0.01, 0.02), (0.0, 0.3), models.items()):
        mat, _, _ = kahan_system(model, a, b, h, q, l, gamma)
        expected = model.quadratic_matrix(-q[2] * b).to_dense() - l[2] * (rho * d1 + nu * d3)
        expected += (1.0 / h + l[2] * gamma) * np.eye(grid.size)
        np.testing.assert_allclose(mat.to_dense(), expected, rtol=1e-14, atol=1e-14 * np.abs(expected).max())
        returned.append((mat, mat.to_dense()))
    assert system._kahan_invariant.cache_info().hits >= hits + 8  # the second pass is served from the cache
    for mat, dense_then in returned:  # no later call changed a matrix returned earlier
        assert np.array_equal(mat.to_dense(), dense_then)


@pytest.mark.parametrize("kind", ["burgers", "kdv", "toy", "pure-decay"])
def test_quadratic_matrix_returns_a_new_matrix_on_the_band_of_the_linear_operator(kind):
    # kahan_system adds its diagonal part, or the cached diag I - l2 L, into the rows quadratic_matrix returns
    model = {"toy": toy_cubic_model, "pure-decay": lambda: pure_decay_model(16, 0.3)}.get(kind, lambda: build(kind))()
    x = random_states(model, 1, 5)[0]
    first, second = model.quadratic_matrix(x), model.quadratic_matrix(x)
    assert first.coeffs.flags.writeable and not np.shares_memory(first.coeffs, second.coeffs)
    if model.linear_operator is not None:
        assert first.offsets == model.linear_operator.offsets
        assert not np.shares_memory(first.coeffs, model.linear_operator.coeffs)
    first.coeffs += 1.0
    assert model.quadratic_matrix(x).coeffs.tobytes() == second.coeffs.tobytes()


def test_nodal_cubic_worked_values():
    assert NODAL_CUBIC.evaluate(np.array([1.0]), np.array([1.0]))[0] == pytest.approx(1.0)
    # H~(2, 3) - H~(1, 2) = 15 - 3 = 0.5 (3 - 1) pdg(1, 2, 3), with pdg(1, 2, 3) = 2 (1 + 2 + 3) = 12
    u, v, w = np.array([1.0]), np.array([2.0]), np.array([3.0])
    assert NODAL_CUBIC.pdg(u, v, w)[0] == 12.0
    assert NODAL_CUBIC.evaluate(v, w)[0] - NODAL_CUBIC.evaluate(u, v)[0] == 0.5 * (w[0] - u[0]) * 12.0


@pytest.mark.parametrize("kind", ["burgers", "kdv", "nls"])
def test_polarized_energy_identity_suite(kind):
    """Consistency, symmetry, defining identity, diagonal gradient."""
    model = build(kind, gamma=0.05)
    pol = model.polarized
    triples = zip(
        random_states(model, 100, seed=6),
        random_states(model, 100, seed=7),
        random_states(model, 100, seed=8),
    )
    for u, v, w in triples:
        h_uv, h_vw = pol.evaluate(u, v), pol.evaluate(v, w)

        consistency = pol.evaluate(u, u)
        assert consistency == pytest.approx(model.hamiltonian(u), rel=1e-12, abs=1e-15)

        assert pol.evaluate(v, u) == h_uv  # bitwise symmetric by construction

        lhs = h_vw - h_uv
        rhs = 0.5 * float((w - u) @ pol.pdg(u, v, w))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

        diag = pol.pdg(u, u, u)
        grad = model.grad_H(u)
        scale = max(np.max(np.abs(grad)), 1.0)
        assert np.max(np.abs(diag - grad)) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["burgers", "kdv", "nls"])
def test_gradient_matches_finite_differences(kind):
    model = build(kind, gamma=0.1)
    rng = np.random.default_rng(9)
    step = 1e-5
    for u in random_states(model, 10, seed=10):
        direction = rng.standard_normal(model.dim)
        direction /= np.linalg.norm(direction)
        fd = (model.hamiltonian(u + step * direction) - model.hamiltonian(u - step * direction)) / (
            2.0 * step
        )
        analytic = float(model.grad_H(u) @ direction)
        assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-8)


@pytest.mark.parametrize("kind", ["burgers", "kdv", "nls"])
def test_apply_S_is_skew(kind):
    model = build(kind, gamma=0.0)
    for a, b in zip(random_states(model, 10, seed=11), random_states(model, 10, seed=12)):
        left = float(model.apply_S(a) @ b)
        right = -float(a @ model.apply_S(b))
        scale = max(abs(left), abs(right), 1.0)
        assert abs(left - right) <= 1e-12 * scale


def test_evaluate_invariants_zero_state():
    model = build("kdv")
    values = dict(evaluate_invariants(model, np.zeros(model.dim)))
    assert set(values) == {"I1", "I2"}
    assert values["I1"] == 0.0
    assert values["I2"] == 0.0


# the undamped presets, each model built once
PRESET_MODELS = {
    kind: (make_model(kind, preset_grid(f"{kind}-paper"), 0.0), PRESETS[f"{kind}-paper"]["dt"])
    for kind in ("burgers", "kdv", "nls")
}


def perturbed_state(kind, amplitude, rng):
    """The preset's initial profile plus uniform noise of the given amplitude."""
    model, _ = PRESET_MODELS[kind]
    return initial_condition(kind, model.grid) + amplitude * rng.uniform(-1.0, 1.0, model.dim)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(PRESET_MODELS)), amplitude=st.floats(0.0, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_structure_times_gradient_is_the_field(kind, amplitude, seed):
    # S grad_H(u) = f(u): the structure and the field are two spellings of one model
    model, _ = PRESET_MODELS[kind]
    u = perturbed_state(kind, amplitude, np.random.default_rng(seed))
    field = model.conservative_field(u)
    assert np.max(np.abs(model.apply_S(model.grad_H(u)) - field)) <= 1e-13 * np.max(np.abs(field))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(PRESET_MODELS)), amplitude=st.floats(0.0, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_lie_step_solves_the_discrete_gradient_equation(kind, amplitude, seed):
    # the lie system is the discrete gradient step (c - a)/(2 dt) = S pdg(a, b, c)
    model, dt = PRESET_MODELS[kind]
    rng = np.random.default_rng(seed)
    a, b = perturbed_state(kind, amplitude, rng), perturbed_state(kind, amplitude, rng)
    c = step(model, SchemeSpec("lie", dt), a, b).state
    lhs = (c - a) / (2.0 * dt)
    rhs = model.apply_S(model.polarized.pdg(a, b, c))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))
