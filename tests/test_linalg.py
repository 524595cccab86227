import math
import os
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expdg import integrators, linalg, models
from expdg.cli import build_problem, resolve_config
from expdg.errors import NonConvergenceError, SingularMatrixError
from expdg.linalg import (
    PeriodicBandedMatrix,
    TwoFieldMatrix,
    newton_solve,
    solve_periodic_banded,
)
from expdg.models import make_model
from expdg.spatial import build_grid, derivative_operator

from conftest import two_field_dense


def random_banded(rng, n, bandwidth, dtype=float):
    """Diagonally dominant periodic banded matrix plus its dense twin."""
    offsets = [d for d in range(-bandwidth, bandwidth + 1) if d != 0]
    rows = rng.uniform(-1.0, 1.0, (len(offsets), n))
    if dtype is complex:
        rows = rows + 1j * rng.uniform(-1.0, 1.0, (len(offsets), n))
    dominance = 1.0 + np.abs(rows).sum(axis=0) + rng.uniform(0.5, 1.5, n)
    mat = PeriodicBandedMatrix(n, offsets, rows) + PeriodicBandedMatrix(n, (0,), [dominance])
    return mat, mat.to_dense()


def lapack_without(routine):
    """A stand-in for linalg._lapack that fails the test when a solve asks for `routine`, and records the rest."""
    lookup = linalg._lapack

    def refuse(name, dtype):
        assert name != routine, f"solve_periodic_banded called {routine}"
        return lookup(name, dtype)

    return mock.patch.object(linalg, "_lapack", side_effect=refuse)


def without_dense():
    """Context in which PeriodicBandedMatrix.to_dense raises: the solve must not use it."""

    def refuse(self):
        raise AssertionError("solve_periodic_banded built the dense matrix")

    return mock.patch.object(PeriodicBandedMatrix, "to_dense", refuse)


def test_identity_solve_returns_rhs():
    rhs = np.arange(1.0, 9.0)
    x = solve_periodic_banded(PeriodicBandedMatrix(8, (0,), [1.0]), rhs)
    assert np.allclose(x, rhs, rtol=0, atol=1e-15)


def test_scaled_identity():
    rhs = np.ones(6)
    x = solve_periodic_banded(PeriodicBandedMatrix(6, (0,), [4.0]), rhs)
    assert np.allclose(x, 0.25 * np.ones(6), rtol=1e-15)


def test_kahan_step_matrix_matches_dense_oracle():
    # the matrix a linearly implicit Burgers step actually assembles:
    # I/dt + advection-weighted first-difference stencil
    g = build_grid(math.pi, 80)
    model = make_model("burgers", g, gamma=0.25)
    a = np.exp(-g.nodes**2 / 2.0)
    dt = 0.009
    mat = model.quadratic_matrix(a).shift(1.0 / dt)
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
        ("nls-paper", "cimp", 1024, 2, np.float64),  # Schur complement of a Newton matrix
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


NEWTON_KINDS = ("cimp", "eavf", "imidpoint_plain", "avf_plain")  # with lie, every kind that runs on NLS


@pytest.mark.parametrize(
    "preset, kind, folded",
    [("burgers-paper", kind, False) for kind in integrators.SCHEMES]
    + [("nls-paper", "lie", False)]
    + [("kdv-paper", kind, True) for kind in integrators.SCHEMES]
    + [("nls-paper", kind, True) for kind in NEWTON_KINDS],
)
def test_only_systems_wider_than_tridiagonal_reach_the_band_lu(preset, kind, folded):
    # a tridiagonal system (every Burgers one, the NLS lie one) is one gtsv and a
    # scalar Schur complement; KdV and the NLS Newton Schur complement (b = 2) take the folded gbsv
    model, u0, spec = build_problem(resolve_config(preset, {}, {"scheme": kind}))
    window = (u0, integrators.bootstrap(model, u0, spec).state) if integrators.SCHEMES[kind].two_step else (u0,)
    with lapack_without("gtsv" if folded else "gbsv") as lapack:
        result = integrators.step(model, spec, *window)
    assert result.linear_solves > 0
    assert {call.args[0] for call in lapack.call_args_list} == {"gbsv" if folded else "gtsv"}
    assert np.isfinite(result.state).all()


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(3, 40), st.integers(480, 600)),
    dtype=st.sampled_from([float, complex]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bordered_tridiagonal_solve_without_diagonal_dominance(n, dtype, seed):
    # the bound of test_pivoting_solves_systems_without_diagonal_dominance, from n = 3
    # (an interior block of 2 x 2) up, on the bordered gtsv path
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((3, n))
    if dtype is complex:
        rows = rows + 1j * rng.standard_normal((3, n))
    mat = PeriodicBandedMatrix(n, (-1, 0, 1), rows)
    dense = mat.to_dense()
    singular_values = np.linalg.svd(dense, compute_uv=False)
    assume(singular_values[0] < 1e8 * singular_values[-1])
    rhs = rng.standard_normal(n).astype(dtype)
    with without_dense():
        x = solve_periodic_banded(mat, rhs)
    backward = np.linalg.norm(dense @ x - rhs)
    assert backward <= 1e-12 * singular_values[0] * np.linalg.norm(x)


@pytest.mark.parametrize("offset", [1, -1])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n, diagonal, tolerance", [(8, 0.0, 0.0), (80, 0.5, 1e-14)])
def test_singular_or_ill_conditioned_interior_block_falls_back_to_the_band_lu(n, diagonal, tolerance, offset, dtype):
    # diagonal I + the cyclic shift by one.  At 0 it is a permutation whose interior
    # block A[1:, 1:] is strictly triangular: gtsv reports it singular.  At 0.5,
    # ||A^-1|| <= 2, but the interior block is bidiagonal with 0.5 on its diagonal,
    # so x_c grows to about 2^79 and x_r - x_0 x_c would cancel away every digit.
    # Either way the fold solves it, the permutation exactly
    mat = PeriodicBandedMatrix(n, (0, offset), np.array([diagonal, 1.0], dtype))
    rhs = np.arange(1.0, n + 1.0) * (0.6 - 0.8j if dtype is complex else 1.0)
    expected = np.linalg.solve(mat.to_dense(), rhs)
    with mock.patch.object(linalg, "_lapack", wraps=linalg._lapack) as lapack:
        x = solve_periodic_banded(mat, rhs)
    assert [call.args[0] for call in lapack.call_args_list] == ["gtsv", "gbsv"]
    assert x.dtype == np.result_type(dtype, float)
    assert np.max(np.abs(x - expected)) <= tolerance * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [3, 8])
def test_zero_schur_pivot_raises_without_a_warning(n):
    # the D2 circulant is singular (the constants are its null space), but its
    # interior block is not, so gtsv succeeds and the Schur pivot of unknown 0
    # is the zero; at these sizes its arithmetic is exact
    d2 = PeriodicBandedMatrix(n, (-1, 0, 1), (1.0, -2.0, 1.0))
    lo, mid, up = np.broadcast_to(d2.coeffs, (3, n))
    border = np.zeros((n - 1, 2))
    border[0, 1], border[-1, 1] = lo[1], up[-1]
    *_, y, info = linalg._lapack("gtsv", np.dtype(float))(lo[2:], mid[1:], up[1:-1], border)
    assert info == 0
    assert mid[0] - up[0] * y[0, 1] - lo[0] * y[-1, 1] == 0.0
    with warnings.catch_warnings(), lapack_without("gbsv"):
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match="Schur pivot"):
            solve_periodic_banded(d2, np.ones(n))


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("name", ["gbsv", "gtsv"])
def test_loaded_lapack_routines_equal_those_of_get_lapack_funcs(name, dtype, fallback, tmp_path):
    # with no _flapack file under the scipy directory given, the loader imports scipy.linalg's own
    import scipy.linalg

    dtype = np.dtype(dtype)
    flapack = linalg._load_flapack([str(tmp_path)]) if fallback else linalg._FLAPACK
    if fallback:
        assert flapack is scipy.linalg._flapack
    with mock.patch.object(linalg, "_FLAPACK", flapack):
        routine = linalg._lapack.__wrapped__(name, dtype)
    rng = np.random.default_rng(7)

    def draw(*shape):
        values = rng.uniform(-1.0, 1.0, shape).astype(dtype)
        return values + 1j * rng.uniform(-1.0, 1.0, shape) if dtype.kind == "c" else values

    n = 12
    if name == "gbsv":  # kl = ku = 2 in (7, n) band storage, the diagonal in row 4
        ab = np.zeros((7, n), dtype, order="F")
        ab[2:] = draw(5, n)
        ab[4] += 6.0
        args = (2, 2, ab, draw(n))
    else:
        args = (draw(n - 1), draw(n) + 4.0, draw(n - 1), draw(n))
    *_, x, info = routine(*args)
    *_, expected, expected_info = scipy.linalg.get_lapack_funcs(name, dtype=dtype)(*args)
    assert info == expected_info == 0
    assert x.dtype == expected.dtype == dtype
    assert x.tobytes() == expected.tobytes()


IMPORT_GUARD = """
import importlib.util
import sys
import numpy as np
import expdg, expdg.cli
from expdg.linalg import PeriodicBandedMatrix, solve_periodic_banded

loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded


def solutions():
    rng = np.random.default_rng(11)
    out = []
    for offsets in [(-1, 0, 1), (-2, -1, 0, 1, 2)]:
        for dtype in (float, complex):
            rows = rng.uniform(-1.0, 1.0, (len(offsets), 16)).astype(dtype)
            rows[len(offsets) // 2] += 2.0 * len(offsets)
            x = solve_periodic_banded(PeriodicBandedMatrix(16, offsets, rows), rng.standard_normal(16))
            out.append(x.tobytes())
    return out


before = solutions()
import scipy.linalg

assert solutions() == before
assert scipy.linalg._flapack.zgbsv is expdg.linalg._FLAPACK.zgbsv
# loaded once more, as a second expdg tree would, it is scipy.linalg's own module
scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
assert expdg.linalg._load_flapack(scipy_dirs) is scipy.linalg._flapack is sys.modules["scipy.linalg._flapack"]
"""


def test_import_leaves_scipy_linalg_unloaded_and_solves_unchanged_by_its_import():
    # a fresh interpreter: expdg loads the LAPACK extension from its file, then scipy.linalg loads it its own way
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", IMPORT_GUARD], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("preset, band", [("burgers-paper", (-1, 0, 1)), ("kdv-paper", (-2, -1, 0, 1, 2))])
def test_every_step_system_lives_on_the_model_band(preset, band):
    # Kahan, lie and Newton matrices of a quadratic field: each sum a step makes is one row add
    offsets = {}

    def record(mat, rhs):
        offsets.setdefault(key, set()).add(mat.offsets)
        return solve_periodic_banded(mat, rhs)

    cfg = resolve_config(preset, {}, {})
    keys = [(kind, "canonical") for kind in integrators.SCHEMES]
    keys += [(kind, "printed") for kind in models.MODELS[cfg.model].printed]
    with mock.patch.object(linalg, "solve_periodic_banded", record), mock.patch.object(
        integrators, "solve_periodic_banded", record
    ):
        for key in keys:
            model, u0, spec = build_problem(resolve_config(preset, {}, {"scheme": key[0], "scheme_variant": key[1]}))
            integrators.integrate(model, spec, u0, 3 * cfg.dt)
    assert offsets == {key: {band} for key in keys}


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(2, 32).map(lambda k: 2 * k),
    damping=st.sampled_from([0.0, 1e-3]),
    dt=st.floats(1e-4, 0.05),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_field_elimination_matches_dense_solve(m, damping, dt, seed):
    # the Newton matrix as the implicit kernel builds it, (-dt F_y).shift(1 + dt gamma/2), here with the
    # midpoint's F_y = J/2, scaled entry by entry; the AVF chord Jacobian is a TwoFieldMatrix of the same
    # shape, its stencil D2/2
    rng = np.random.default_rng(seed)
    d2 = derivative_operator(build_grid(5.0, m), 2)
    rows, off, mid = rng.uniform(-5.0, 5.0, (3, m)), *d2.coeffs[:2]
    mat = TwoFieldMatrix((-dt) * (0.5 * rows), (-dt) * (0.5 * off), (-dt) * (0.5 * mid)).shift(1.0 + damping)
    assert isinstance(mat, TwoFieldMatrix)
    rhs = rng.standard_normal(2 * m)
    expected = np.linalg.solve(two_field_dense(mat), rhs)
    with without_dense():
        x = mat.solve(rhs)
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("t0", [1.0, np.nan, np.inf])
def test_two_field_zero_or_non_finite_eliminated_diagonal_raises(t0):
    # c - t is the eliminated u-diagonal: 0 at t0 = 1, else non-finite
    rows = np.ones((3, 8))
    rows[0] = 0.0
    rows[0, 3] = t0
    mat = TwoFieldMatrix(rows, 1.0, -2.0).shift(1.0)
    with mock.patch.object(linalg, "solve_periodic_banded") as band_solve:
        with pytest.raises(SingularMatrixError):
            mat.solve(np.ones(16))
    band_solve.assert_not_called()


@pytest.mark.parametrize("shape", [(17,), (16, 1)])
def test_two_field_solve_checks_the_rhs_shape(shape):
    mat = TwoFieldMatrix(np.ones((3, 8)), 1.0, -2.0).shift(3.0)
    with pytest.raises(ValueError, match=re.escape(f"rhs has shape {shape}, expected (16,)")):
        mat.solve(np.ones(shape))


@pytest.mark.parametrize("shape", [(7,), (8, 1)])
def test_periodic_banded_solve_checks_the_rhs_shape(shape):
    mat = PeriodicBandedMatrix(8, (-1, 0, 1), (1.0, 4.0, 1.0))
    with pytest.raises(ValueError, match=re.escape(f"rhs has shape {shape}, expected (8,)")):
        solve_periodic_banded(mat, np.ones(shape))


def test_two_field_matrix_shift_adds_to_c():
    mat = TwoFieldMatrix(np.ones((3, 8)), 1.0, -2.0, c=0.5)
    shifted = mat.shift(3.0)
    assert shifted.c == 3.5
    assert np.array_equal(two_field_dense(shifted), two_field_dense(mat) + 3.0 * np.eye(16))


def test_zero_eliminated_diagonal_in_a_march_carries_partial_record():
    # cimp at dt = 0.5, alpha = 2: the Newton matrix's u-diagonal is 1 + u v,
    # which is exactly 0 at the node where u = 1 and v = -1
    m = 16
    model = make_model("nls", build_grid(4.0, m), gamma=0.0, alpha=2.0)
    u0 = np.zeros(2 * m)
    u0[5], u0[m + 5] = 1.0, -1.0
    with pytest.raises(SingularMatrixError) as info:
        integrators.integrate(model, integrators.SchemeSpec("cimp", 0.5), u0, 5.0)
    partial = info.value.partial
    assert partial.n_steps == 10
    assert list(partial.steps) == [0]
    assert np.array_equal(partial.final_state, u0)


def test_complex_entries_promote_a_real_matrix():
    mat = PeriodicBandedMatrix(8, (0,), [1.0]) + PeriodicBandedMatrix(8, (1,), [np.full(8, 0.5j)])
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
    assert_close(a.scale_columns(u).to_dense(), dense_a @ np.diag(u))
    for c in (scale, scale.real):  # complex and real, on a band with 0 that is complex for a complex c
        shifted = (a + PeriodicBandedMatrix(a.size, (0,), [0.0 * c])).shift(c)
        assert_close(shifted.to_dense(), dense_a + np.diag(np.broadcast_to(c, a.size)))
    for coeffs in ([0.0], [np.zeros(a.size)]):  # shift does not promote: a complex c on a real band raises
        with pytest.raises(TypeError):
            PeriodicBandedMatrix(a.size, (0,), coeffs).shift(scale)
    # made diagonally dominant, the sum scatters into band storage and solves
    # like the dense matrix, with the dense matrix never built
    system = a + b + PeriodicBandedMatrix(a.size, (0,), [1.0 + np.abs(dense_a + dense_b).sum(axis=1)])
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
    mat = PeriodicBandedMatrix(n, (0,), [1.0]) + PeriodicBandedMatrix(n, (1,), [poisoned])
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

    x, iterations = newton_solve(lambda x: (a.apply(x) - b, lambda: a), np.zeros(6), 1e-12, 50)
    assert iterations == 1
    assert np.max(np.abs(a.to_dense() @ x - b)) <= 1e-12


def test_newton_scalar_quadratic():
    norms = []

    def linearize(x):
        r = x * x - 4.0
        norms.append(float(np.max(np.abs(r))))
        return r, lambda: PeriodicBandedMatrix(3, (0,), [2.0 * x])

    x, iterations = newton_solve(linearize, np.full(3, 3.0), 1e-12, 50)
    assert np.max(np.abs(x - 2.0)) <= 1e-12
    assert iterations <= 6
    assert norms == sorted(norms, reverse=True)
    assert norms[-1] <= 1e-12


@pytest.mark.parametrize("max_iter", [50, 2])
def test_newton_builds_the_matrix_only_when_a_newton_step_follows(max_iter):
    # matrix() runs once per Newton step, at the iterate the step leaves, and never at the last iterate:
    # not at the accepted one, nor where the solve gives up
    iterates, matrices = [], []

    def linearize(x):
        iterates.append(x)

        def matrix():
            matrices.append(x)
            return PeriodicBandedMatrix(3, (0,), [2.0 * x])

        return x * x - 4.0, matrix

    if max_iter == 2:  # x * x = 4 from x = 3 takes more than two iterations
        with pytest.raises(NonConvergenceError):
            newton_solve(linearize, np.full(3, 3.0), 1e-12, max_iter)
        iterations = 2
    else:
        iterations = newton_solve(linearize, np.full(3, 3.0), 1e-12, max_iter)[1]
    assert len(matrices) == iterations == len(iterates) - 1 > 0
    assert all(m is x for m, x in zip(matrices, iterates))


def test_newton_zero_initial_residual_returns_immediately():
    x, iterations = newton_solve(
        lambda x: (np.zeros(3), lambda: PeriodicBandedMatrix(3, (0,), [1.0])), np.ones(3), 1e-12, 50
    )
    assert iterations == 0
    assert np.array_equal(x, np.ones(3))


def test_newton_budget_exhaustion_raises():
    # a cap of 0 gives up at the guess, with its residual
    for max_iter in (4, 0):
        with pytest.raises(NonConvergenceError) as info:
            newton_solve(
                lambda x: (np.ones(3), lambda: PeriodicBandedMatrix(3, (0,), [1.0])), np.zeros(3), 1e-12, max_iter
            )
        assert info.value.iterations == max_iter
        assert info.value.residual == pytest.approx(1.0)


def test_newton_nan_residual_raises():
    # healthy at the initial guess, NaN after the first update
    def linearize(x):
        r = np.ones(3) if x[0] == 0.0 else np.full(3, np.nan)
        return r, lambda: PeriodicBandedMatrix(3, (0,), [1.0])

    with pytest.raises(NonConvergenceError) as info:
        newton_solve(linearize, np.zeros(3), 1e-12, 50)
    assert info.value.iterations == 1
    assert math.isnan(info.value.residual)


@pytest.mark.parametrize("tolerance, scale", [(5e-324, 0.4), (1e308, 3.6e4), (1e-12, math.nan)])
def test_newton_tolerance_that_under_or_overflows_at_the_scale_is_a_nonconvergence(tolerance, scale):
    # a tolerance that SchemeSpec accepts, at a state whose scale takes the product to 0, inf or NaN
    linearized = []
    with pytest.raises(NonConvergenceError, match="not finite and positive") as info:
        newton_solve(linearized.append, np.ones(3), tolerance, 50, scale)
    assert (info.value.iterations, linearized) == (0, [])
