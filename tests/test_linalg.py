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
    identity_matrix,
    newton_solve,
    solve_periodic_banded,
)
from expdg.models import make_model
from expdg.spatial import build_grid


def random_banded(rng, n, bandwidth, dtype=float):
    """Diagonally dominant periodic banded matrix plus its dense twin."""
    mat = PeriodicBandedMatrix(n, dtype=dtype)
    dominance = np.full(n, 1.0)
    for offset in range(-bandwidth, bandwidth + 1):
        if offset == 0:
            continue
        values = rng.uniform(-1.0, 1.0, n)
        if dtype is complex:
            values = values + 1j * rng.uniform(-1.0, 1.0, n)
        mat.add_diagonal(offset, values)
        dominance += np.abs(values)
    mat.add_diagonal(0, dominance + rng.uniform(0.5, 1.5, n))
    return mat, mat.to_dense()


def without_dense():
    """Context in which PeriodicBandedMatrix.to_dense raises: the solve must not use it."""

    def refuse(self):
        raise AssertionError("solve_periodic_banded built the dense matrix")

    return mock.patch.object(PeriodicBandedMatrix, "to_dense", refuse)


def test_identity_solve_returns_rhs():
    rhs = np.arange(1.0, 9.0)
    x = solve_periodic_banded(identity_matrix(8), rhs)
    assert np.allclose(x, rhs, rtol=0, atol=1e-15)


def test_scaled_identity():
    rhs = np.ones(6)
    x = solve_periodic_banded(identity_matrix(6, 4.0), rhs)
    assert np.allclose(x, 0.25 * np.ones(6), rtol=1e-15)


def test_kahan_step_matrix_matches_dense_oracle():
    # the matrix a linearly implicit Burgers step actually assembles:
    # I/dt + advection-weighted first-difference stencil
    g = build_grid(math.pi, 80)
    model = make_model("burgers", g, gamma=0.25)
    a = np.exp(-g.nodes**2 / 2.0)
    dt = 0.009
    mat = model.quadratic_matrix(a)
    mat.add_diagonal(0, np.full(80, 1.0 / dt))
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
    mat = PeriodicBandedMatrix(n, dtype=dtype)
    for offset in range(-bandwidth, bandwidth + 1):
        values = rng.standard_normal(n)
        if dtype is complex:
            values = values + 1j * rng.standard_normal(n)
        mat.add_diagonal(offset, values)
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
    mat = identity_matrix(8)
    mat.add_diagonal(1, np.full(8, 0.5j))
    assert mat.dtype == np.complex128
    rhs = np.ones(8)
    expected = np.linalg.solve(mat.to_dense(), rhs)
    assert np.allclose(expected, 0.8 - 0.4j, rtol=0, atol=1e-15)
    x = solve_periodic_banded(mat, rhs)
    assert np.max(np.abs(x - expected)) <= 1e-15


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        solve_periodic_banded(PeriodicBandedMatrix(8), np.ones(8))


@pytest.mark.parametrize("n", [8, 600])
def test_singular_core_band_still_solves(n):
    # the cyclic shift A[i, (i+1) % n] = 1 is a permutation, but its core
    # band (without the wrap-around corner) is strictly upper triangular, so
    # an LU without pivoting breaks down on it
    shift = PeriodicBandedMatrix(n)
    shift.add_diagonal(1, np.ones(n))
    rhs = np.arange(1.0, n + 1.0)
    assert np.array_equal(solve_periodic_banded(shift, rhs), np.roll(rhs, 1))
    with pytest.raises(SingularMatrixError):
        solve_periodic_banded(PeriodicBandedMatrix(n), rhs)


@pytest.mark.parametrize("n", [8, 600])
def test_non_finite_entry_raises_singular(n):
    mat = identity_matrix(n)
    mat.add_diagonal(1, np.where(np.arange(n) == 3, np.nan, 0.0))
    with pytest.raises(SingularMatrixError):
        solve_periodic_banded(mat, np.ones(n))


def test_bandwidth_must_be_below_size():
    mat = PeriodicBandedMatrix(4)
    mat.add_diagonal(0, np.ones(4)).add_diagonal(4, np.ones(4))
    with pytest.raises(ValueError, match="half-bandwidth"):
        solve_periodic_banded(mat, np.ones(4))


def test_newton_linear_system_converges_in_one_iteration():
    rng = np.random.default_rng(5)
    a = np.eye(6) + 0.1 * rng.standard_normal((6, 6))
    b = rng.standard_normal(6)

    x, iterations = newton_solve(
        lambda x: a @ x - b,
        lambda x: a,
        np.zeros(6),
        NonlinearSolveSettings(),
    )
    assert iterations == 1
    assert np.max(np.abs(a @ x - b)) <= 1e-12


def test_newton_scalar_quadratic():
    norms = []

    def residual(x):
        r = x * x - 4.0
        norms.append(float(np.max(np.abs(r))))
        return r

    settings = NonlinearSolveSettings(tolerance=1e-12)
    x, iterations = newton_solve(
        residual,
        lambda x: np.diag(2.0 * x),
        np.array([3.0]),
        settings,
    )
    assert abs(x[0] - 2.0) <= 1e-12
    assert iterations <= 6
    assert norms == sorted(norms, reverse=True)
    assert norms[-1] <= 1e-12


def test_newton_zero_initial_residual_returns_immediately():
    x, iterations = newton_solve(
        lambda x: np.zeros(3),
        lambda x: np.eye(3),
        np.ones(3),
        NonlinearSolveSettings(),
    )
    assert iterations == 0
    assert np.array_equal(x, np.ones(3))


def test_newton_budget_exhaustion_raises():
    settings = NonlinearSolveSettings(max_iterations=4)
    with pytest.raises(NonConvergenceError) as info:
        newton_solve(
            lambda x: np.ones(2),
            lambda x: np.eye(2),
            np.zeros(2),
            settings,
        )
    assert info.value.iterations == 4
    assert info.value.residual == pytest.approx(1.0)


def test_newton_nan_residual_raises():
    # healthy at the initial guess, NaN after the first update
    def residual(x):
        if x[0] == 0.0:
            return np.array([1.0, 1.0])
        return np.full(2, np.nan)

    with pytest.raises(NonConvergenceError) as info:
        newton_solve(residual, lambda x: np.eye(2), np.zeros(2), NonlinearSolveSettings())
    assert info.value.iterations == 1
    assert math.isnan(info.value.residual)


def test_fixed_point_iteration_contracts():
    # residual x - g(x) with g a contraction; the update x <- x - r is
    # exactly the classical fixed-point sweep
    settings = NonlinearSolveSettings(tolerance=1e-13, max_iterations=200, method="fixed_point")
    x, iterations = newton_solve(
        lambda x: x - (0.5 * x + 1.0),
        None,
        np.array([0.0]),
        settings,
    )
    assert abs(x[0] - 2.0) <= 1e-12
    assert iterations > 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tolerance": 0.0},
        {"tolerance": -1e-3},
        {"max_iterations": 0},
        {"method": "secant"},
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
