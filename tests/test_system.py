import math

import numpy as np
import pytest

from expdg.errors import BlowUpError, UnsupportedModelError
from expdg.models import make_model
from expdg.spatial import build_grid, derivative_operator
from expdg.system import kahan_bilinear, polarize_monomial, vector_field

from conftest import evaluate_invariants

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


def test_polarize_monomial_worked_values():
    nod3 = polarize_monomial(3)
    assert nod3.evaluate(np.array([1.0]), np.array([1.0]))[0] == pytest.approx(1.0)

    nod2 = polarize_monomial(2, theta=0.5)
    u, v, w = np.array([1.0]), np.array([2.0]), np.array([3.0])
    assert nod2.pdg(u, v, w)[0] == pytest.approx(4.0)
    gap = nod2.evaluate(v, w)[0] - nod2.evaluate(u, v)[0]
    assert gap == pytest.approx(0.5 * (w[0] - u[0]) * 4.0)

    nod4 = polarize_monomial(4)
    for value in (-1.0, 0.5, 2.0):
        u = np.array([value])
        assert nod4.pdg(u, u, u)[0] == pytest.approx(4.0 * value**3, rel=1e-14)


def test_polarize_monomial_validation():
    with pytest.raises(ValueError):
        polarize_monomial(5)
    with pytest.raises(ValueError):
        polarize_monomial(3, theta=0.5)  # theta only parametrizes degree 2
    with pytest.raises(ValueError):
        polarize_monomial(2, theta=1.2)


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
