import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expdg import integrators, linalg
from expdg.cli import build_problem, resolve_config
from expdg.errors import NonConvergenceError, SingularMatrixError
from expdg.linalg import (
    NonlinearSolveSettings,
    PeriodicBandedMatrix,
    gauss_legendre_2,
    newton_solve,
    solve_periodic_banded,
)
from expdg.models import make_model
from expdg.spatial import build_grid, diagonal


def random_banded(rng, n, bandwidth, dtype=float):
    """Diagonally dominant periodic banded matrix plus its dense twin."""
    offsets = [d for d in range(-bandwidth, bandwidth + 1) if d != 0]
    rows = rng.uniform(-1.0, 1.0, (len(offsets), n))
    if dtype is complex:
        rows = rows + 1j * rng.uniform(-1.0, 1.0, (len(offsets), n))
    dominance = 1.0 + np.abs(rows).sum(axis=0) + rng.uniform(0.5, 1.5, n)
    mat = PeriodicBandedMatrix(n, offsets, rows) + diagonal(n, dominance)
    return mat, mat.to_dense()


def without_dense():
    """Context in which PeriodicBandedMatrix.to_dense raises: the solve must not use it."""

    def refuse(self):
        raise AssertionError("solve_periodic_banded built the dense matrix")

    return mock.patch.object(PeriodicBandedMatrix, "to_dense", refuse)


def test_identity_solve_returns_rhs():
    rhs = np.arange(1.0, 9.0)
    x = solve_periodic_banded(diagonal(8, 1.0), rhs)
    assert np.allclose(x, rhs, rtol=0, atol=1e-15)


def test_scaled_identity():
    rhs = np.ones(6)
    x = solve_periodic_banded(diagonal(6, 4.0), rhs)
    assert np.allclose(x, 0.25 * np.ones(6), rtol=1e-15)


def test_kahan_step_matrix_matches_dense_oracle():
    # the matrix a linearly implicit Burgers step actually assembles:
    # I/dt + advection-weighted first-difference stencil
    g = build_grid(math.pi, 80)
    model = make_model("burgers", g, gamma=0.25)
    a = np.exp(-g.nodes**2 / 2.0)
    dt = 0.009
    mat = model.quadratic_matrix(a) + diagonal(80, np.full(80, 1.0 / dt))
    rhs = a / dt
    x = solve_periodic_banded(mat, rhs)
    expected = np.linalg.solve(mat.to_dense(), rhs)
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


# small sizes (down to n < 2b, where two offsets can name the same entry and
# the folded band is the whole matrix) and sizes on both sides of 512, where
# the solver used to switch to dense LU
SIZES = st.one_of(st.integers(4, 40), st.integers(480, 600))


@settings(max_examples=60, deadline=None)
@given(
    n=SIZES,
    bandwidth=st.integers(1, 3),
    dtype=st.sampled_from([float, complex]),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_systems_woodbury_matches_dense(n, bandwidth, dtype, seed):
    rng = np.random.default_rng(seed)
    mat, dense = random_banded(rng, n, bandwidth, dtype)
    rhs = rng.standard_normal(n).astype(dtype)
    expected = np.linalg.solve(dense, rhs)
    x = solve_periodic_banded(mat, rhs)
    assert x.dtype == np.result_type(dtype, float)
    assert np.max(np.abs(x - expected)) <= 1e-11 * np.max(np.abs(expected))


@settings(max_examples=60, deadline=None)
@given(
    n=SIZES,
    bandwidth=st.integers(1, 3),
    dtype=st.sampled_from([float, complex]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pivoting_solves_systems_without_diagonal_dominance(n, bandwidth, dtype, seed):
    # entries of one size on every diagonal, so the LU must pivot to stay stable
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((2 * bandwidth + 1, n))
    if dtype is complex:
        rows = rows + 1j * rng.standard_normal((2 * bandwidth + 1, n))
    mat = PeriodicBandedMatrix(n, range(-bandwidth, bandwidth + 1), rows)
    dense = mat.to_dense()
    singular_values = np.linalg.svd(dense, compute_uv=False)
    assume(singular_values[0] < 1e8 * singular_values[-1])
    rhs = rng.standard_normal(n).astype(dtype)
    with without_dense():
        x = solve_periodic_banded(mat, rhs)
    backward = np.linalg.norm(dense @ x - rhs)
    assert backward <= 1e-12 * singular_values[0] * np.linalg.norm(x)


@pytest.mark.parametrize(
    "preset, kind, size, bandwidth, dtype",
    [
        ("nls-paper", "cimp", 2048, 3, np.float64),  # Newton Jacobian
        ("nls-paper", "lie", 1024, 1, np.complex128),
        ("kdv-paper", "lie", 248, 2, np.float64),
    ],
)
def test_preset_systems_match_dense_oracle(preset, kind, size, bandwidth, dtype):
    # the last system the first two steps of a full-size preset march solve
    systems = []

    def record(mat, rhs):
        systems.append((mat, rhs))
        return solve_periodic_banded(mat, rhs)

    cfg = resolve_config(preset, {}, {"scheme": kind})
    model, u0, spec = build_problem(cfg)
    with mock.patch.object(linalg, "solve_periodic_banded", record), mock.patch.object(
        integrators, "solve_periodic_banded", record
    ):
        integrators.integrate(model, spec, u0, 2 * cfg.dt)
    mat, rhs = systems[-1]
    assert (mat.size, mat.half_bandwidth, mat.dtype) == (size, bandwidth, dtype)
    expected = np.linalg.solve(mat.to_dense(), rhs)
    with without_dense():
        x = solve_periodic_banded(mat, rhs)
    assert np.max(np.abs(x - expected)) <= 1e-11 * np.max(np.abs(expected))


def test_complex_entries_promote_a_real_matrix():
    mat = diagonal(8, 1.0) + PeriodicBandedMatrix(8, (1,), [np.full(8, 0.5j)])
    assert mat.dtype == np.complex128
    rhs = np.ones(8)
    expected = np.linalg.solve(mat.to_dense(), rhs)
    assert np.allclose(expected, 0.8 - 0.4j, rtol=0, atol=1e-15)
    x = solve_periodic_banded(mat, rhs)
    assert np.max(np.abs(x - expected)) <= 1e-15


@st.composite
def operator_pairs(draw):
    """Two random operators of one size n, plus a random vector.

    1-5 offsets each within n - 1 and 8, so at n < 16 two offsets can be
    equal modulo n; coefficients are scalars or rows, real or complex.
    """
    n = draw(st.one_of(st.integers(3, 64), st.integers(480, 600)))
    reach = min(n - 1, 8)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operator():
        offsets = draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=5, unique=True))
        shape = (len(offsets), n) if draw(st.booleans()) else (len(offsets),)
        coeffs = rng.uniform(-1.0, 1.0, shape)
        if draw(st.booleans()):
            coeffs = coeffs + 1j * rng.uniform(-1.0, 1.0, shape)
        return PeriodicBandedMatrix(n, offsets, coeffs)

    u = rng.standard_normal(n) + (1j * rng.standard_normal(n) if draw(st.booleans()) else 0.0)
    return operator(), operator(), u


def assert_close(actual, expected):
    scale = max(np.max(np.abs(expected)), 1.0)
    assert np.max(np.abs(actual - expected)) <= 1e-13 * scale


@settings(max_examples=100, deadline=None)
@given(case=operator_pairs(), scale=st.complex_numbers(max_magnitude=10.0))
def test_banded_operator_matches_dense_algebra(case, scale):
    a, b, u = case
    dense_a, dense_b = a.to_dense(), b.to_dense()
    out = a.apply(u)
    assert out.dtype == np.result_type(a.dtype, u.dtype)
    assert_close(out, dense_a @ u)
    assert_close((scale * a).to_dense(), scale * dense_a)
    assert_close((a + b).to_dense(), dense_a + dense_b)
    assert_close((a @ b).to_dense(), dense_a @ dense_b)
    # made diagonally dominant, the sum scatters into band storage and solves
    # like the dense matrix, with the dense matrix never built
    system = a + b + diagonal(a.size, 1.0 + np.abs(dense_a + dense_b).sum(axis=1))
    dense = system.to_dense()
    with without_dense():
        x = solve_periodic_banded(system, u)
    assert_close(x, np.linalg.solve(dense, u))


@pytest.mark.parametrize("n", [8, 600])
def test_repeated_offsets_add_up(n):
    rng = np.random.default_rng(n)
    rows = rng.uniform(-1.0, 1.0, (3, n))
    rows[1] += 4.0
    mat = PeriodicBandedMatrix(n, (1, 0, 1), rows)
    rhs = rng.standard_normal(n)
    expected = np.linalg.solve(mat.to_dense(), rhs)
    with without_dense():
        x = solve_periodic_banded(mat, rhs)
    assert_close(x, expected)
    assert_close(mat.apply(x), rhs)


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        solve_periodic_banded(PeriodicBandedMatrix(8), np.ones(8))


@pytest.mark.parametrize("n", [8, 600])
def test_singular_core_band_still_solves(n):
    # the cyclic shift A[i, (i+1) % n] = 1 is a permutation, but its core
    # band (without the wrap-around corner) is strictly upper triangular, so
    # an LU without pivoting breaks down on it
    shift = PeriodicBandedMatrix(n, (1,), [np.ones(n)])
    rhs = np.arange(1.0, n + 1.0)
    assert np.array_equal(solve_periodic_banded(shift, rhs), np.roll(rhs, 1))
    with pytest.raises(SingularMatrixError):
        solve_periodic_banded(PeriodicBandedMatrix(n), rhs)


@pytest.mark.parametrize("n", [8, 600])
def test_non_finite_entry_raises_singular(n):
    poisoned = np.where(np.arange(n) == 3, np.nan, 0.0)
    mat = diagonal(n, 1.0) + PeriodicBandedMatrix(n, (1,), [poisoned])
    with pytest.raises(SingularMatrixError):
        solve_periodic_banded(mat, np.ones(n))


def test_bandwidth_must_be_below_size():
    mat = PeriodicBandedMatrix(4, (0, 4), [np.ones(4), np.ones(4)])
    with pytest.raises(ValueError, match="half-bandwidth"):
        solve_periodic_banded(mat, np.ones(4))


def test_newton_linear_system_converges_in_one_iteration():
    rng = np.random.default_rng(5)
    rows = 0.1 * rng.standard_normal((3, 6))
    rows[1] += 1.0
    a = PeriodicBandedMatrix(6, (-1, 0, 1), rows)
    b = rng.standard_normal(6)

    x, iterations = newton_solve(
        lambda x: a.apply(x) - b,
        lambda x: a,
        np.zeros(6),
        NonlinearSolveSettings(),
    )
    assert iterations == 1
    assert np.max(np.abs(a.to_dense() @ x - b)) <= 1e-12


def test_newton_scalar_quadratic():
    norms = []

    def residual(x):
        r = x * x - 4.0
        norms.append(float(np.max(np.abs(r))))
        return r

    settings = NonlinearSolveSettings(tolerance=1e-12)
    x, iterations = newton_solve(
        residual,
        lambda x: diagonal(3, 2.0 * x),
        np.full(3, 3.0),
        settings,
    )
    assert np.max(np.abs(x - 2.0)) <= 1e-12
    assert iterations <= 6
    assert norms == sorted(norms, reverse=True)
    assert norms[-1] <= 1e-12


def test_newton_zero_initial_residual_returns_immediately():
    x, iterations = newton_solve(
        lambda x: np.zeros(3),
        lambda x: diagonal(3, 1.0),
        np.ones(3),
        NonlinearSolveSettings(),
    )
    assert iterations == 0
    assert np.array_equal(x, np.ones(3))


def test_newton_budget_exhaustion_raises():
    settings = NonlinearSolveSettings(max_iterations=4)
    with pytest.raises(NonConvergenceError) as info:
        newton_solve(
            lambda x: np.ones(3),
            lambda x: diagonal(3, 1.0),
            np.zeros(3),
            settings,
        )
    assert info.value.iterations == 4
    assert info.value.residual == pytest.approx(1.0)


def test_newton_nan_residual_raises():
    # healthy at the initial guess, NaN after the first update
    def residual(x):
        if x[0] == 0.0:
            return np.ones(3)
        return np.full(3, np.nan)

    with pytest.raises(NonConvergenceError) as info:
        newton_solve(residual, lambda x: diagonal(3, 1.0), np.zeros(3), NonlinearSolveSettings())
    assert info.value.iterations == 1
    assert math.isnan(info.value.residual)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tolerance": 0.0},
        {"tolerance": -1e-3},
        {"max_iterations": 0},
    ],
)
def test_solver_settings_validation(kwargs):
    with pytest.raises(ValueError):
        NonlinearSolveSettings(**kwargs)


def test_gauss_legendre_2_rule():
    nodes, weights = gauss_legendre_2()
    shift = math.sqrt(3.0) / 6.0
    assert nodes == pytest.approx([0.5 - shift, 0.5 + shift], abs=1e-16)
    assert np.array_equal(weights, np.array([0.5, 0.5]))
    for k in range(4):  # exact through cubics
        assert np.sum(weights * nodes**k) == pytest.approx(1.0 / (k + 1), abs=1e-15)


def test_gauss_2_equals_simpson_38_on_cubic_field():
    # the NLS conservative field is cubic, so the two-point Gauss average
    # over the chord must agree with any other cubic-exact rule
    g = build_grid(2.0, 8)
    model = make_model("nls", g, gamma=0.0, alpha=2.0)
    rng = np.random.default_rng(31)
    a, b = rng.standard_normal(model.dim), rng.standard_normal(model.dim)

    def chord_average(nodes, weights):
        total = np.zeros(model.dim)
        for xi, w in zip(nodes, weights):
            total += w * model.conservative_field(a + xi * (b - a))
        return total

    gauss = chord_average(*gauss_legendre_2())
    simpson = chord_average(
        np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]),
        np.array([1.0 / 8.0, 3.0 / 8.0, 3.0 / 8.0, 1.0 / 8.0]),
    )
    assert np.max(np.abs(gauss - simpson)) <= 1e-14 * max(np.max(np.abs(gauss)), 1.0)
