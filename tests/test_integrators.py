import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import expdg.integrators as integrators
from expdg import linalg, system
from expdg.cli import build_problem, resolve_config
from expdg.diagnostics import compensated_polarized_deviation
from expdg.errors import BlowUpError, NonConvergenceError, SingularMatrixError, UnsupportedModelError
from expdg.integrators import (
    SCHEMES,
    SchemeSpec,
    bind,
    bootstrap,
    integrate,
    step,
    _kahan1_step,
    _kahan2_step,
)
from expdg.linalg import TwoFieldMatrix, newton_solve, solve_periodic_banded
from expdg.models import MODELS, PRESETS, initial_condition, make_model, preset_grid
from expdg.spatial import PeriodicBandedMatrix, build_grid

from conftest import dense, integrate_states, preset_model, toy_cubic_model
from oracles import pure_decay_model

EXPONENTIAL_KINDS = ("cimp", "eavf", "ek1", "ek2", "lie")
PLAIN_KINDS = ("imidpoint_plain", "avf_plain", "kahan2_plain")


def burgers(gamma=0.25):
    g = preset_grid("burgers-paper")
    return make_model("burgers", g, gamma=gamma), initial_condition("burgers", g)


# ---------------------------------------------------------------- exponents


def test_exponents_vanish_without_damping():
    for kind in integrators.SCHEMES:
        p = SCHEMES[kind].prefactors(0.0, 0.009)  # e^{X_k}
        assert p[0] == 1.0 and p[1] == 1.0
        assert p[2:] in ((), (1.0,))


def test_exponents_one_step_split():
    p = SCHEMES["cimp"].prefactors(0.5, 0.009)
    assert p[0] == math.exp(-0.5 * 0.009 / 2.0)
    assert p[1] == math.exp(0.5 * 0.009 / 2.0)  # X_1 = -X_0
    assert len(p) == 2


def test_exponents_two_step_split():
    p = SCHEMES["ek2"].prefactors(0.5, 0.009)
    assert p == (math.exp(-0.0045), 1.0, math.exp(0.0045))


def test_exponents_nls_preset_magnitudes():
    # gamma_eff = gamma/2 for the Schroedinger split
    gamma_eff = 5e-4 / 2.0
    # e^X near 1 resolves X only to its rounding (~1e-16), so each prefactor is pinned exactly
    assert SCHEMES["eavf"].prefactors(gamma_eff, 0.001)[1] == math.exp(1.25e-7)
    assert SCHEMES["lie"].prefactors(gamma_eff, 0.001)[2] == math.exp(2.5e-7)


def test_exponents_plain_kinds_are_identity_weights():
    # a plain kind has no prefactors, so even a gamma_eff dt whose e^X overflows is accepted
    for kind in PLAIN_KINDS:
        for gamma_eff, dt in ((0.7, 0.05), (2e305, 0.009)):
            p = SCHEMES[kind].prefactors(gamma_eff, dt)
            assert p[0] == 1.0 and p[1] == 1.0


@pytest.mark.parametrize("kind", sorted(SCHEMES))
def test_exponents_are_antisymmetric_so_the_first_factor_undoes_the_last(kind):
    # Scheme.advance rescales a step's result by prefactors[0] in place of e^{-X_last}
    scheme = SCHEMES[kind]
    presets = [(preset_model(name)[0].gamma_eff, PRESETS[name]["dt"]) for name in PRESETS]
    for gamma_eff, dt in presets + [(0.0, 0.009), (0.7, 0.05), (1e-9, 1e-4), (3.0, 0.3), (0.1, 1 / 3)]:
        p = scheme.prefactors(gamma_eff, dt)
        g = gamma_eff * dt if scheme.exponential else 0.0
        last = g if scheme.two_step else g / 2.0  # X_last
        assert p[-1] == math.exp(last)
        assert math.exp(-last) == p[0]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "heun", "dt": 0.01},
        {"kind": "cimp", "dt": 0.0},
        {"kind": "cimp", "dt": -0.1},
        {"kind": "ek2", "dt": 1e-320},  # 1/dt overflows: the Kahan and lie systems divide by dt
        {"kind": "cimp", "dt": 5e-324},
    ],
)
def test_scheme_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SchemeSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"newton_tol": 0.0},
        {"newton_tol": -1e-3},
        {"newton_tol": math.nan},
        {"newton_tol": math.inf},
        {"newton_max_iter": 0},
    ],
)
def test_solver_settings_validation(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):  # the message names the CLI's key
        SchemeSpec("cimp", 0.01, **kwargs)


# ------------------------------------------------------ pure-decay exactness


@pytest.mark.parametrize("kind", EXPONENTIAL_KINDS)
@pytest.mark.parametrize("gamma_eff", [0.0, 1e-3, 0.5])
def test_exponential_kinds_integrate_decay_exactly(kind, gamma_eff):
    dt = 0.009
    model = pure_decay_model(6, gamma_eff)
    rng = np.random.default_rng(14)
    u0 = rng.standard_normal(6)
    _, states = integrate_states(model, SchemeSpec(kind, dt), u0, 3 * dt)
    factor = math.exp(-gamma_eff * dt)
    for n in range(3):
        expected = factor ** (n + 1) * u0
        assert np.max(np.abs(states[n + 1] - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("kind", PLAIN_KINDS)
@pytest.mark.parametrize("gamma_eff", [0.5, 2e7, 2e9])
def test_plain_kinds_underdamp_at_the_pade_rate(kind, gamma_eff):
    # folding the damping into the field leaves the (1,1) rational factor,
    # not the exponential; this is the defect the exponential kinds remove.
    # At stiff damping the Newton kinds still converge to it
    dt = 0.009
    mu = gamma_eff * dt
    model = pure_decay_model(6, gamma_eff)
    rng = np.random.default_rng(15)
    u0 = rng.standard_normal(6)
    _, states = integrate_states(model, SchemeSpec(kind, dt), u0, 2 * dt)
    pade = (1.0 - mu / 2.0) / (1.0 + mu / 2.0)
    for n in (1, 2):
        expected = pade**n * u0
        assert np.max(np.abs(states[n] - expected)) <= 1e-14 * np.max(np.abs(expected))
    assert abs(pade - math.exp(-mu)) > 1e-10  # visibly not exact


@pytest.mark.parametrize("kind", PLAIN_KINDS)
def test_plain_kinds_exact_when_undamped(kind):
    model = pure_decay_model(6, 0.0)
    u0 = np.arange(1.0, 7.0)
    rec = integrate(model, SchemeSpec(kind, 0.01), u0, 0.05, record_every=1)
    # kahan solves round-trip through 1/dt, so allow a few ulps
    assert np.max(np.abs(rec.final_state - u0)) <= 1e-14 * np.max(np.abs(u0))


# ------------------------------------------------------------- single steps


def test_cimp_matches_tight_fixed_point_oracle():
    model, u0 = burgers()
    dt = 0.009
    newton = step(model, SchemeSpec("cimp", dt), u0).state
    # the exponential midpoint equation y = a + dt f((a + y)/2), swept by
    # y <- y - residual(y) to 1e-14 relative to the state scale
    prefactors = SCHEMES["cimp"].prefactors(model.gamma_eff, dt)
    at = prefactors[0] * u0
    y = at.copy()
    for _ in range(500):
        residual = y - at - dt * model.conservative_field(0.5 * (y + at))
        if np.max(np.abs(residual)) <= 1e-14 * np.max(np.abs(at)):
            break
        y = y - residual
    else:
        pytest.fail("fixed-point sweep did not converge in 500 iterations")
    oracle = prefactors[0] * y  # e^{-X_1} = e^{X_0}
    assert np.max(np.abs(newton - oracle)) <= 1e-11 * np.max(np.abs(oracle))


def test_cimp_reduces_to_plain_midpoint_without_damping():
    model, u0 = burgers(gamma=0.0)
    a = step(model, SchemeSpec("cimp", 0.009), u0).state
    b = step(model, SchemeSpec("imidpoint_plain", 0.009), u0).state
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", ["cimp", "imidpoint_plain"])
def test_printed_midpoint_variant_differs_but_stays_close(kind):
    model, u0 = burgers()
    printed_model = make_model("burgers", model.grid, gamma=0.25, printed_for=kind)
    canonical = step(model, SchemeSpec(kind, 0.009), u0).state
    printed = step(printed_model, SchemeSpec(kind, 0.009), u0).state
    gap = np.max(np.abs(printed - canonical))
    assert 1e-12 < gap < 1e-4  # same order of accuracy, different scheme
    assert np.all(np.isfinite(printed))


def test_printed_variant_rejected_for_kdv():
    with pytest.raises(ValueError, match="the kdv model has an as-printed variant for no scheme kind, not 'cimp'"):
        make_model("kdv", preset_grid("kdv-paper"), gamma=1e-2, printed_for="cimp")


def test_eavf_step_satisfies_chord_average_equation():
    # verify the implicit relation against a fine trapezoid chord integral
    g = preset_grid("nls-paper")
    model = make_model("nls", g, gamma=5e-4)
    u0 = initial_condition("nls", g)
    dt = 0.001
    prefactors = SCHEMES["eavf"].prefactors(model.gamma_eff, dt)
    u1 = step(model, SchemeSpec("eavf", dt), u0).state
    at, yt = prefactors[0] * u0, prefactors[1] * u1
    xs = np.linspace(0.0, 1.0, 10001)
    avg = np.zeros(model.dim)
    for xi in xs:
        avg += model.conservative_field(at + xi * (yt - at))
    avg -= 0.5 * (model.conservative_field(at) + model.conservative_field(yt))
    avg /= xs.size - 1
    residual = yt - at - dt * avg
    assert np.max(np.abs(residual)) <= 1e-10 * max(np.max(np.abs(yt)), 1.0)


@pytest.mark.parametrize("kind", ["burgers", "kdv", "nls", "pure-decay", "toy"])
def test_avf_newton_matrix_needs_one_jacobian_per_iteration(kind):
    # chord_jacobian(a, y) is int_0^1 s J(a + s (y - a)) ds, whose integrand is a polynomial of degree
    # <= 3 in s, so the two Gauss nodes xi_k give it exactly: the mean of (xi_k/2) J at the nodes
    if kind == "toy":
        model = toy_cubic_model()
    elif kind == "pure-decay":
        model = pure_decay_model(64, 0.3)
    else:
        model = make_model(kind, build_grid(10.0, 64), gamma=0.1)
    rng = np.random.default_rng(4)
    a, y, dt = rng.uniform(-1.0, 1.0, model.dim), rng.uniform(-1.0, 1.0, model.dim), 0.01
    nodes = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
    mean = sum(xi / 2.0 * dense(model.jacobian_conservative(xi * y + (1.0 - xi) * a)) for xi in nodes)
    assert np.abs(dense(model.chord_jacobian(a, y)) - mean).max() <= 1e-14 * np.abs(mean).max()
    calls, built = [], []  # the chord Jacobian's iterates; (iterate, Newton matrix) per matrix the solve takes

    def counted(a, y):
        calls.append(y)
        return model.chord_jacobian(a, y)

    def capture(linearize, guess, tol, max_iter, scale):
        def recorded(x):
            residual, matrix = linearize(x)

            def built_matrix():
                built.append((x, matrix()))
                return built[-1][1]

            return residual, built_matrix

        return newton_solve(recorded, guess, tol, max_iter, scale)

    spec = SchemeSpec("avf_plain", dt)
    with mock.patch.object(integrators, "newton_solve", capture):  # Newton starts from y, so its chord is [a, y]
        result = SCHEMES["avf_plain"].advance(replace(model, chord_jacobian=counted), spec, (a,), bind(model, spec), y)
    assert len(calls) == len(built) == result.newton_iterations > 0
    # the plain kind keeps the damping: (1 + dt g/2) I - dt chord_jacobian(a, y)
    expected = (1.0 + dt * model.gamma_eff / 2.0) * np.eye(model.dim) - dt * mean
    x, mat = built[0]
    assert x.tobytes() == y.tobytes()  # the plain kind's unit prefactor leaves the guess as it is
    assert np.abs(dense(mat) - expected).max() <= 1e-14 * np.abs(expected).max()


def _bits(mat):
    """Everything a PeriodicBandedMatrix or TwoFieldMatrix is made of, as comparable bytes."""
    if isinstance(mat, PeriodicBandedMatrix):
        return type(mat), mat.offsets, mat.coeffs.dtype, mat.coeffs.shape, mat.coeffs.tobytes()
    return type(mat), np.array([mat.off, mat.mid, mat.c]).tobytes(), mat.rows.shape, mat.rows.tobytes()


def _times(scale, mat):
    """scale times a PeriodicBandedMatrix or a TwoFieldMatrix, entry by entry."""
    if isinstance(mat, PeriodicBandedMatrix):
        return scale * mat
    return TwoFieldMatrix(scale * mat.rows, scale * mat.off, scale * mat.mid, scale * mat.c)


# name -> (model, u0, dt): every shape of Newton matrix, with the as-printed Burgers midpoint pair
NEWTON_MODELS = {
    "burgers": lambda: (*preset_model("burgers-paper")[:2], 0.009),
    "burgers-printed": lambda: (make_model("burgers", preset_grid("burgers-paper"), 0.25, printed_for="cimp"),
                                initial_condition("burgers", preset_grid("burgers-paper")), 0.009),
    "kdv": lambda: (*preset_model("kdv-paper")[:2], 0.009),
    "nls": lambda: (*preset_model("nls-paper")[:2], 0.001),
    "toy": lambda: (toy_cubic_model(), np.array([0.3, -0.2]), 0.05),
}


@pytest.mark.parametrize("kind", ["cimp", "eavf", "imidpoint_plain", "avf_plain"])
@pytest.mark.parametrize("name", NEWTON_MODELS)
def test_newton_matrix_is_bitwise_the_shifted_jacobian_built_in_two_scalings(name, kind):
    # the kernel scales the fresh Jacobian once, by -dt w, and adds the diagonal in place; -dt w is exact
    # for w = 1/2 and 1, so it equals -dt times F_y = w J, then shifted, bit for bit
    model, u0, dt = NEWTON_MODELS[name]()
    built = []  # (a, iterate, Newton matrix) per matrix the kernel hands to the solve

    def capture(linearize, guess, tol, max_iter, scale):
        def recorded(x):
            residual, matrix = linearize(x)

            def built_matrix():
                built.append((guess, x, matrix()))
                return built[-1][2]

            return residual, built_matrix

        return newton_solve(recorded, guess, tol, max_iter, scale)

    with mock.patch.object(integrators, "newton_solve", capture):
        result = step(model, SchemeSpec(kind, dt), u0)  # no guess: Newton starts from a itself
    assert len(built) == result.newton_iterations > 0
    diag = 1.0 + dt * (0.0 if SCHEMES[kind].exponential else model.gamma_eff) / 2.0
    for a, y, mat in built:
        if kind in ("eavf", "avf_plain"):
            f_y = model.chord_jacobian(a, y)
        elif model.midpoint_pair is not None:  # the model's own F_y, in full
            f_y = model.midpoint_pair[1](a, y)
        else:
            f_y = _times(0.5, model.jacobian_conservative(0.5 * y + 0.5 * a))
        assert _bits(mat) == _bits(_times(-dt, f_y).shift(diag))


@pytest.mark.parametrize("kind", ["ek1", "ek2", "lie", "kahan2_plain"])
@pytest.mark.parametrize("name", ["burgers", "kdv", "toy"])
def test_kahan_matrix_is_bitwise_the_fresh_quadratic_matrix_plus_its_diagonal_part(name, kind, monkeypatch):
    model, u0, dt = NEWTON_MODELS[name]()
    kahan_system, calls = system.kahan_system, []  # the arguments and the matrix of every kahan_system call

    def recording(model, a, b, h, q, l, gamma=0.0):
        out = kahan_system(model, a, b, h, q, l, gamma)
        calls.append((model, b, h, q, l, gamma, out[0]))
        return out

    monkeypatch.setattr(integrators, "kahan_system", recording)
    monkeypatch.setattr(system, "kahan_system", recording)  # the lie builder's polarized_kahan_system calls it
    if kind == "lie" and model.lie_system_builder is None:
        model = replace(model, lie_system_builder=lambda a, b, dt: system.polarized_kahan_system(model, a, b, dt))
    integrate(model, SchemeSpec(kind, dt), u0, 4 * dt)
    assert len(calls) >= 3
    for model, b, h, q, l, gamma, mat in calls:
        fresh, linear = model.quadratic_matrix(-q[2] * b), model.linear_operator
        diag = 1.0 / h + l[2] * gamma
        expected = fresh.shift(diag) if linear is None else fresh + system._kahan_invariant(linear, l[2], diag)
        assert _bits(mat) == _bits(expected)


def _probes(model):
    """The bytes of what the model's field, Jacobian and operator callables return at one fixed probe."""
    p, q = np.random.default_rng(12).uniform(-1.0, 1.0, (2, model.dim))
    out = {"field": model.conservative_field(p).tobytes(), "jacobian": _bits(model.jacobian_conservative(p)),
           "chord_average": model.chord_average(p, q).tobytes(), "chord_jacobian": _bits(model.chord_jacobian(p, q))}
    if model.quadratic_matrix is not None:
        out["quadratic_matrix"] = _bits(model.quadratic_matrix(p))
        out["quadratic_bilinear"] = model.quadratic_bilinear(p, q).tobytes()
    if model.linear_operator is not None:
        out["linear_operator"] = _bits(model.linear_operator)
    return out


def _steppable():
    """(preset, kind, printed) for every preset x kind the preset model can step, and its printed variants."""
    for preset, cfg in PRESETS.items():
        model = preset_model(preset)[0]
        for kind, scheme in SCHEMES.items():
            if all(getattr(model, name) is not None for name in scheme.needs):
                yield preset, kind, False
                if kind in MODELS[cfg["model"]].printed:
                    yield preset, kind, True


@pytest.mark.parametrize("preset, kind, printed", list(_steppable()))
def test_marches_write_only_into_arrays_their_steps_allocate(preset, kind, printed, monkeypatch):
    model, u0, cfg = preset_model(preset)
    if printed:
        model = make_model(cfg["model"], preset_grid(preset), cfg["gamma"], printed_for=kind)
    before = _probes(model)
    cached, invariants = system._kahan_invariant, []  # the cached diag I - l2 L each step took, with its key

    def recording_invariant(linear, l2, diag):
        invariants.append((linear, l2, diag, cached(linear, l2, diag)))
        return invariants[-1][3]

    solve, two_field_solve, matrices = linalg.solve_periodic_banded, linalg.TwoFieldMatrix.solve, []

    def recording_solve(mat, rhs):
        matrices.append(mat)
        return solve(mat, rhs)

    def recording_two_field_solve(mat, rhs):
        matrices.append(mat)
        return two_field_solve(mat, rhs)

    monkeypatch.setattr(system, "_kahan_invariant", recording_invariant)
    monkeypatch.setattr(integrators, "solve_periodic_banded", recording_solve)
    monkeypatch.setattr(linalg, "solve_periodic_banded", recording_solve)  # newton_solve's and the Schur band's
    monkeypatch.setattr(linalg.TwoFieldMatrix, "solve", recording_two_field_solve)
    integrate(model, SchemeSpec(kind, cfg["dt"]), u0, 5 * cfg["dt"])
    assert _probes(model) == before
    for linear, l2, diag, part in invariants:
        assert _bits(part) == _bits(((-l2) * linear).shift(diag))
    # every matrix is kept alive, so no later one can reuse the memory of an earlier one
    arrays = [mat.coeffs if isinstance(mat, PeriodicBandedMatrix) else mat.rows for mat in matrices]
    assert len(arrays) >= 5
    for i, later in enumerate(arrays):
        assert not any(np.shares_memory(earlier, later) for earlier in arrays[:i])


def test_eavf_preserves_transformed_energy_per_step():
    model, u0 = burgers()
    dt = 0.009
    prefactors = SCHEMES["eavf"].prefactors(model.gamma_eff, dt)
    u1 = step(model, SchemeSpec("eavf", dt), u0).state
    gap = abs(
        model.hamiltonian(prefactors[1] * u1) - model.hamiltonian(prefactors[0] * u0)
    )
    assert gap <= 1e-11


def test_ek1_matches_dense_assembly_oracle():
    model, u0 = burgers()
    n, dt = model.dim, 0.009
    prefactors = SCHEMES["ek1"].prefactors(model.gamma_eff, dt)
    at = prefactors[0] * u0
    assert model.linear_operator is None  # Burgers has no linear part L
    L = np.zeros((n, n))
    dense = np.eye(n) / dt - model.quadratic_matrix(at).to_dense() - 0.5 * L
    bt = np.linalg.solve(dense, at / dt + 0.5 * (L @ at))
    expected = prefactors[0] * bt  # e^{-X_1} = e^{X_0}
    result = step(model, SchemeSpec("ek1", dt), u0).state
    assert np.max(np.abs(result - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_ek1_on_linear_kdv_is_transformed_trapezoid():
    # alpha = nu = 0 leaves the rho*D1 advection; Kahan collapses onto the
    # trapezoid rule applied between the exponentially rescaled endpoints
    g = build_grid(10.0, 64)
    model = make_model("kdv", g, gamma=0.05, alpha=0.0, rho=-10.0, nu=0.0)
    u0 = initial_condition("kdv", g)
    dt = 0.004
    prefactors = SCHEMES["ek1"].prefactors(model.gamma_eff, dt)
    L = np.zeros((64, 64))
    for d, c in zip(model.linear_operator.offsets, model.linear_operator.coeffs):
        L[np.arange(64), (np.arange(64) + d) % 64] += c
    at = prefactors[0] * u0
    bt = np.linalg.solve(np.eye(64) - 0.5 * dt * L, (np.eye(64) + 0.5 * dt * L) @ at)
    expected = prefactors[0] * bt  # e^{-X_1} = e^{X_0}
    result = step(model, SchemeSpec("ek1", dt), u0).state
    assert np.max(np.abs(result - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_ek1_step_is_self_adjoint():
    model, u0 = burgers()
    dt = 0.009
    prefactors = SCHEMES["ek1"].prefactors(model.gamma_eff, dt)
    forward = step(model, SchemeSpec("ek1", dt), u0).state
    # SchemeSpec rejects dt <= 0, so the reverse step calls the kernel, which
    # maps the rescaled e^{x1} u^1 back to e^{x0} u^0
    back, _, _ = _kahan1_step(model, prefactors[1] * forward, -dt, 0.0)
    assert np.max(np.abs(prefactors[1] * back - u0)) <= 1e-12 * np.max(np.abs(u0))  # e^{-X_0} = e^{X_1}


UNDAMPED_BURGERS_8 = make_model("burgers", build_grid(math.pi, 8), gamma=0.0)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, 8, elements=st.floats(-4.0, 4.0)))
def test_ek1_composition_matches_ek2_without_damping(u0):
    model = UNDAMPED_BURGERS_8
    spec1, spec2 = SchemeSpec("ek1", 0.01), SchemeSpec("ek2", 0.01)
    u1 = step(model, spec1, u0).state
    composed = step(model, spec1, u1).state
    two_step = step(model, spec2, u0, u1).state
    assert np.max(np.abs(composed - two_step)) <= 1e-11 * max(np.max(np.abs(composed)), 1.0)


def test_ek2_step_is_self_adjoint():
    model, u0 = burgers()
    dt = 0.009
    spec = SchemeSpec("ek2", dt)
    u1 = bootstrap(model, u0, spec).state
    u2 = step(model, spec, u0, u1).state
    prefactors = SCHEMES["ek2"].prefactors(model.gamma_eff, dt)
    # on rescaled states the reverse step maps (e^{x2} u^2, e^{x1} u^1) to e^{x0} u^0
    back, _, _ = _kahan2_step(model, prefactors[2] * u2, prefactors[1] * u1, -dt, 0.0)
    assert np.max(np.abs(prefactors[2] * back - u0)) <= 1e-12 * np.max(np.abs(u0))  # e^{-X_0} = e^{X_2}


def test_lie_double_step_contracts_mass_exactly():
    g = build_grid(25.0, 128)
    model = make_model("nls", g, gamma=5e-4)
    u0 = initial_condition("nls", g)
    rec = integrate(model, SchemeSpec("lie", 0.001), u0, 0.06, record_every=1)
    mass = rec.invariant_series["mass"]
    factor = math.exp(-4.0 * model.gamma_eff * 0.001)
    ratios = mass[2:] / mass[:-2]
    assert np.max(np.abs(ratios - factor)) <= 1e-12


def test_lie_marching_is_reversible_through_the_builder():
    g = build_grid(25.0, 128)
    model = make_model("nls", g, gamma=5e-4)
    u0 = initial_condition("nls", g)
    dt = 0.001
    spec = SchemeSpec("lie", dt)
    u1 = bootstrap(model, u0, spec).state
    u2 = step(model, spec, u0, u1).state
    prefactors = SCHEMES["lie"].prefactors(model.gamma_eff, dt)
    # the builder takes rescaled states: (e^{x2} u^2, e^{x1} u^1) -> e^{x0} u^0
    mat, rhs, decode = model.lie_system_builder(prefactors[2] * u2, prefactors[1] * u1, -dt)
    back = prefactors[2] * decode(solve_periodic_banded(mat, rhs))  # e^{-X_0} = e^{X_2}
    assert np.max(np.abs(back - u0)) <= 1e-12 * np.max(np.abs(u0))


def entry_points(model, spec, u0):
    """step, integrate and, for a two-step kind, bootstrap of spec on model from u0."""
    two_step = SCHEMES[spec.kind].two_step
    calls = [lambda: step(model, spec, *[u0] * (1 + two_step)), lambda: integrate(model, spec, u0, 2 * spec.dt)]
    return calls + [lambda: bootstrap(model, u0, spec)] * two_step


def test_lie_requires_a_system_builder():
    # no kernel checks the model: bind refuses it where the scheme meets it
    for call in entry_points(toy_cubic_model(), SchemeSpec("lie", 0.01), np.ones(2)):
        with pytest.raises(UnsupportedModelError, match="model toy has no lie_system_builder, which 'lie' steps call"):
            call()


@pytest.mark.parametrize("kind", ["ek1", "ek2", "kahan2_plain"])
def test_kahan_steps_reject_cubic_fields(kind):
    g = build_grid(25.0, 64)
    model = make_model("nls", g, gamma=0.0)
    message = f"model nls has no quadratic_bilinear or quadratic_matrix, which {kind!r} steps call"
    for call in entry_points(model, SchemeSpec(kind, 0.001), initial_condition("nls", g)):
        with pytest.raises(UnsupportedModelError, match=message):
            call()


# ------------------------------ damped Kahan steps as undamped Kahan in v = e^{gt} u
# g = gamma_eff: ek1 and ek2 take the undamped Kahan steps in v at a step that
# shrinks like e^{-gt}, which is why criterion 05's compensated series drifts


def _burgers_in_v():
    model, u0, cfg = preset_model("burgers-paper")
    undamped = make_model("burgers", preset_grid("burgers-paper"), gamma=0.0)
    return model, undamped, u0, model.gamma_eff, cfg["dt"]


def _two_step_kahan_in_v(undamped, u0, g, dt, n_steps):
    """v_1 by one-step Kahan at e^{-g dt/2} dt (ek2's bootstrap in v), then two-step Kahan
    at h_n = e^{-g t_n} dt.  ek1 and ek2 on an undamped model are the plain Kahan steps."""
    v = [u0, step(undamped, SchemeSpec("ek1", math.exp(-g * dt / 2.0) * dt), u0).state]
    for n in range(1, n_steps):
        v.append(step(undamped, SchemeSpec("ek2", math.exp(-g * n * dt) * dt), v[-2], v[-1]).state)
    return np.array(v)


def _rescaled_run(model, kind, u0, g, dt, n_steps):
    """e^{g t_n} u_n of a damped run."""
    rec, states = integrate_states(model, SchemeSpec(kind, dt), u0, n_steps * dt)
    return np.exp(g * rec.times)[:, None] * np.array(states)


def _relative_max_difference(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_damped_ek1_is_one_step_kahan_in_v_at_shrinking_step():
    model, undamped, u0, g, dt = _burgers_in_v()
    v = [u0]
    for n in range(200):  # h_n = e^{-g t_{n+1/2}} dt
        v.append(step(undamped, SchemeSpec("ek1", math.exp(-g * (n + 0.5) * dt) * dt), v[-1]).state)
    assert _relative_max_difference(_rescaled_run(model, "ek1", u0, g, dt, 200), np.array(v)) <= 1e-13


def test_damped_ek2_is_two_step_kahan_in_v_at_shrinking_step():
    model, undamped, u0, g, dt = _burgers_in_v()
    v = _two_step_kahan_in_v(undamped, u0, g, dt, 200)
    assert _relative_max_difference(_rescaled_run(model, "ek2", u0, g, dt, 200), v) <= 1e-13


def test_kahan_at_the_ek2_steps_reproduces_the_compensated_drift(burgers_ek2_run):
    # the series criterion 05 checks is e^{-3g dt} W(v_n, v_{n+1}), W the polarized energy:
    # undamped Kahan keeps W only at a constant step, and at the ek2 steps it drifts as much
    model, u0, rec = burgers_ek2_run
    _, undamped, _, g, dt = _burgers_in_v()
    v = _two_step_kahan_in_v(undamped, u0, g, dt, rec.n_steps)
    w = np.array([undamped.polarized.evaluate(a, b) for a, b in zip(v[:-1], v[1:])])
    drift = np.abs(w - w[0]).max() / abs(w[0])
    criterion = compensated_polarized_deviation(model, rec.polarized_transformed, dt)
    assert drift == pytest.approx(criterion, rel=1e-5)


@pytest.mark.parametrize("h", [0.0045, 0.009])
def test_two_step_kahan_keeps_the_polarized_energy_at_a_constant_step(h):
    # the drift above comes from the shrinking step: at a constant step, undamped two-step
    # Kahan started by one-step Kahan at the same h keeps W(v_n, v_{n+1}) to rounding
    _, undamped, u0, _, _ = _burgers_in_v()
    w = integrate(undamped, SchemeSpec("kahan2_plain", h), u0, 9.0).polarized_transformed[:-1]
    assert np.abs(w - w[0]).max() <= 1e-12 * abs(w[0])


def _compensated_drift_from(model, kind, u0, u1, dt, n_steps):
    """Criterion 05's compensated polarized drift of a two-step march started from the pair (u0, u1)."""
    prefactors = SCHEMES[kind].prefactors(model.gamma_eff, dt)
    e0, e1 = prefactors[:2]
    spec = SchemeSpec(kind, dt)
    window, w = (u0, u1), [model.polarized.evaluate(e0 * u0, e1 * u1)]
    for _ in range(1, n_steps):
        window = (window[1], step(model, spec, *window, prefactors=prefactors).state)
        w.append(model.polarized.evaluate(e0 * window[0], e1 * window[1]))
    return compensated_polarized_deviation(model, np.array(w), dt)


@pytest.mark.parametrize("start, ek2_drift", [("u1 x 1.001", 4.884e-7), ("u1 at 2h", 1.960e-6)])
def test_ek2_drift_follows_the_start_pair_and_lie_keeps_w_from_any(burgers_ek2_run, start, ek2_drift):
    # from its own bootstrap ek2 drifts 5.077e-7 (criterion 05); W is no invariant of ek2, so
    # another start pair gives another drift, while lie, a discrete gradient of W, keeps W
    # to rounding from any start (1.2e-13 from each of these)
    model, u0, rec = burgers_ek2_run
    drifts = {}
    for kind in ("ek2", "lie"):
        if start == "u1 x 1.001":
            u1 = 1.001 * bootstrap(model, u0, SchemeSpec(kind, rec.dt)).state
        else:
            u1 = bootstrap(model, u0, SchemeSpec(kind, 2.0 * rec.dt)).state
        drifts[kind] = _compensated_drift_from(model, kind, u0, u1, rec.dt, rec.n_steps)
    assert drifts["ek2"] == pytest.approx(ek2_drift, rel=1e-2)
    assert drifts["lie"] <= 1e-12


def test_damped_ek1_keeps_the_kahan_modified_energy_of_each_step():
    # one-step Kahan at a fixed h keeps W(x, Phi_h(x)) (Celledoni, McLachlan, Owren & Quispel 2013),
    # and damped ek1 is v_{n+1} = Phi_{h_n}(v_n) at h_n = e^{-g t_{n+1/2}} dt, so it keeps
    # W(v_n, v_{n+1}) = W(v_{n+1}, Phi_{h_n}(v_{n+1})) to rounding (6.8e-16 relative). An ek2 window
    # (v_n, v_{n+1}) lies on no orbit of one Phi_h: at its own h_n = e^{-g t_n} dt the same
    # identity fails by 2.2e-8
    model, undamped, u0, g, dt = _burgers_in_v()
    w = undamped.polarized.evaluate
    phi = lambda h, x: step(undamped, SchemeSpec("ek1", h), x).state  # one-step Kahan in v
    defects = {}
    for kind, offset in (("ek1", 0.5), ("ek2", 0.0)):
        v = _rescaled_run(model, kind, u0, g, dt, 30)
        gaps = [w(v[n], v[n + 1]) - w(v[n + 1], phi(math.exp(-g * (n + offset) * dt) * dt, v[n + 1]))
                for n in range(1, 29)]
        defects[kind] = np.abs(gaps).max() / abs(w(v[0], v[1]))
    assert defects["ek1"] <= 1e-15
    assert defects["ek2"] >= 1e-9


# ---------------------------------------------------------------- bootstrap


def test_bootstrap_exponential_kinds_exact_on_pure_decay():
    model = pure_decay_model(5, 0.4)
    u0 = np.linspace(1.0, 2.0, 5)
    for kind in ("ek2", "lie"):
        res = bootstrap(model, u0, SchemeSpec(kind, 0.01))
        expected = math.exp(-0.4 * 0.01) * u0
        assert np.max(np.abs(res.state - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_bootstrap_plain_kind_underdamps():
    model = pure_decay_model(5, 0.4)
    u0 = np.linspace(1.0, 2.0, 5)
    res = bootstrap(model, u0, SchemeSpec("kahan2_plain", 0.01))
    mu = 0.4 * 0.01
    pade = (1.0 - mu / 2.0) / (1.0 + mu / 2.0)
    assert np.max(np.abs(res.state - pade * u0)) <= 1e-14 * np.max(np.abs(u0))


def test_bootstrap_contracts_burgers_mass_conformally():
    model, u0 = burgers()
    dt = 0.009
    res = bootstrap(model, u0, SchemeSpec("ek2", dt))
    ratio = np.sum(res.state) / np.sum(u0)
    assert ratio == pytest.approx(math.exp(-model.gamma_eff * dt), rel=1e-14)


def test_bootstrap_rejects_one_step_kinds():
    model, u0 = burgers()
    with pytest.raises(ValueError):
        bootstrap(model, u0, SchemeSpec("cimp", 0.009))


@pytest.mark.parametrize("kind", ["kahan2_plain", "ek2"])
def test_two_step_kahan_conserves_pairwise_energy_on_cubic_ode(kind):
    # undamped planar system: the pairwise polarized energy evaluated on
    # consecutive states is a discrete invariant of the bootstrapped march
    toy = toy_cubic_model()
    u0 = np.array([0.4, 0.3])
    rec = integrate(toy, SchemeSpec(kind, 0.01), u0, 1.0, record_every=1)
    series = rec.polarized_transformed[:-1]  # final entry has no partner state
    assert np.all(np.isfinite(series))
    drift = np.max(np.abs(series - series[0])) / abs(series[0])
    assert drift <= 1e-10


def test_halved_exponents_break_the_mass_rate():
    # regression guard: the two-step split must use the full gamma*dt wings
    model, u0 = burgers()
    dt = 0.009
    spec = SchemeSpec("ek2", dt)
    u1 = bootstrap(model, u0, spec).state
    rate = 2.0 * model.gamma_eff * dt

    good = step(model, spec, u0, u1, prefactors=SCHEMES["ek2"].prefactors(model.gamma_eff, dt)).state
    residual = math.log(np.sum(good) / np.sum(u0)) + rate
    assert abs(residual) <= 1e-12

    halved = tuple(map(math.exp, (-model.gamma_eff * dt / 2.0, 0.0, model.gamma_eff * dt / 2.0)))
    bad = step(model, spec, u0, u1, prefactors=halved).state
    residual_bad = math.log(np.sum(bad) / np.sum(u0)) + rate
    assert abs(residual_bad) > 1e-6


# ------------------------------------------------------------ integrate loop


def test_integrate_zero_horizon_records_initial_state_only():
    model, u0 = burgers()
    rec = integrate(model, SchemeSpec("ek2", 0.009), u0, 0.0, record_every=1)
    assert rec.n_steps == 0
    assert list(rec.steps) == [0]
    assert np.array_equal(rec.final_state, u0)


def test_integrate_rejects_non_multiple_horizon():
    model, u0 = burgers()
    with pytest.raises(ValueError):
        integrate(model, SchemeSpec("ek2", 0.009), u0, 50.0)


def test_integrate_rejects_bad_cadence():
    model, u0 = burgers()
    with pytest.raises(ValueError):
        integrate(model, SchemeSpec("ek2", 0.009), u0, 0.09, record_every=0)


@pytest.mark.parametrize(
    "T, gamma, message",
    [(-0.9, 0.25, "T must be finite and >= 0"), (math.nan, 0.25, "T must be finite and >= 0"),
     (math.inf, 0.25, "T must be finite and >= 0"), (1e308, 0.25, "T must be finite and >= 0"),
     (1e300, 0.25, "steps exceed the 9223372036854775807 a record can count"),
     (0.018, 1e305, "the prefactors e^X overflow at gamma_eff*dt = 1.7999999999999998e+303")],
    ids=["negative", "nan", "inf", "T/dt-overflows", "T/dt-beyond-int64", "prefactors-overflow"],
)
def test_integrate_refuses_a_negative_or_non_finite_horizon(T, gamma, message):
    # -0.9 rounds to -100 whole steps of 0.009, 1e308 / 0.009 overflows to inf, 1e300 / 0.009
    # steps are finite but more than RunRecord.steps (int64) can count, and at gamma = 1e305 the
    # prefactor e^{gamma_eff dt} overflows: each is refused before the first step is recorded
    model, u0 = burgers(gamma)
    with pytest.raises(ValueError, match=re.escape(message)):
        integrate(model, SchemeSpec("ek2", 0.009), u0, T, observer=lambda *state: pytest.fail("a state was recorded"))


@pytest.mark.parametrize("shape", [(79,), (80, 1)])
def test_integrate_rejects_a_wrongly_shaped_initial_state(shape):
    model, _ = burgers()
    with pytest.raises(ValueError, match=re.escape(f"initial state has shape {shape}, expected (80,)")):
        integrate(model, SchemeSpec("ek2", 0.009), np.ones(shape), 0.09)


def test_integrate_recording_cadence():
    g = build_grid(math.pi, 16)
    model = make_model("burgers", g, gamma=0.1)
    u0 = initial_condition("burgers", g)
    rec = integrate(model, SchemeSpec("ek1", 0.01), u0, 1.0, record_every=7)
    assert list(rec.steps[:3]) == [0, 7, 14]
    assert rec.steps[-1] == 100
    assert len(rec.steps) == 1 + math.ceil(100 / 7)
    assert rec.times[1] == pytest.approx(0.07)


def test_integrate_observer_and_stored_states_align():
    g = build_grid(math.pi, 16)
    model = make_model("burgers", g, gamma=0.1)
    u0 = initial_condition("burgers", g)
    seen = []
    rec = integrate(
        model, SchemeSpec("cimp", 0.01), u0, 0.1,
        record_every=4, observer=lambda step, t, state: seen.append((step, t, state)),
    )
    assert [s for s, _, _ in seen] == list(rec.steps)
    assert [t for _, t, _ in seen] == list(rec.times)
    assert np.array_equal(seen[0][2], u0)
    assert seen[-1][2] is rec.final_state  # the observer receives the run's own array


def bitwise_equal(series, values):
    return np.asarray(series).tobytes() == np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize(
    "preset,kind",
    [("burgers-paper", "ek1"), ("burgers-paper", "ek2"), ("kdv-paper", "cimp"),
     ("kdv-paper", "lie"), ("kdv-paper", "kahan2_plain"), ("nls-paper", "cimp"), ("nls-paper", "lie")],
)
def test_recorded_series_equal_the_model_on_the_stored_states(preset, kind):
    model, u0, cfg = preset_model(preset)
    rec, states = integrate_states(model, SchemeSpec(kind, cfg["dt"]), u0, 20 * cfg["dt"])
    assert len(states) == 21
    for inv in model.invariants:
        assert bitwise_equal(rec.invariant_series[inv.name], [inv.evaluate(u) for u in states])
    assert bitwise_equal(rec.hamiltonian_paper, [model.hamiltonian_paper(u) for u in states])
    if not integrators.SCHEMES[kind].two_step:
        assert rec.polarized_transformed is None
        return
    e0, e1 = SCHEMES[kind].prefactors(model.gamma_eff, cfg["dt"])[:2]
    pairs = [model.polarized.evaluate(e0 * a, e1 * b) for a, b in zip(states, states[1:])]
    assert bitwise_equal(rec.polarized_transformed, pairs + [math.nan])


@pytest.mark.parametrize("kind", ["ek2", "lie", "kahan2_plain"])
def test_two_step_counters_exclude_bootstrap(kind):
    g = build_grid(25.0, 128)
    model = make_model("nls", g, gamma=5e-4) if kind == "lie" else None
    if model is None:
        model, u0 = burgers()
    else:
        u0 = initial_condition("nls", g)
    rec = integrate(model, SchemeSpec(kind, 0.005), u0, 0.25, record_every=10)
    assert rec.newton_iterations[-1] == 0
    assert rec.linear_solves[-1] == rec.n_steps - 1  # one per marching step


def test_newton_counters_track_marching_work():
    model, u0 = burgers()
    rec = integrate(model, SchemeSpec("cimp", 0.009), u0, 0.09, record_every=1)
    assert rec.newton_iterations[-1] >= rec.n_steps  # at least one sweep per step
    assert rec.linear_solves[-1] == rec.newton_iterations[-1]
    assert np.all(np.diff(rec.newton_iterations) >= 1)


# --------------------------------------------- the Newton start of a march
# from step 3 on, integrate starts each Newton kind from 3u^n - 3u^{n-1} + u^{n-2}

NEWTON_KINDS = ("cimp", "eavf", "imidpoint_plain", "avf_plain")


@pytest.mark.parametrize("kind", NEWTON_KINDS)
@pytest.mark.parametrize("preset, unpredicted", [("burgers-paper", 2), ("kdv-paper", 3), ("nls-paper", 2)])
def test_predicted_steps_take_one_iteration_fewer_and_stay_within_tolerance_of_step(preset, unpredicted, kind):
    model, u0, cfg = preset_model(preset)
    spec = SchemeSpec(kind, cfg["dt"])
    rec, states = integrate_states(model, spec, u0, 200 * cfg["dt"])
    # steps 1-2 start from u^n, the 198 after them from the extrapolation
    assert rec.newton_iterations[-1] == rec.linear_solves[-1] == 2 * unpredicted + 198 * (unpredicted - 1)
    assert np.diff(rec.newton_iterations).tolist() == [unpredicted] * 2 + [unpredicted - 1] * 198
    e0, e1 = SCHEMES[kind].prefactors(model.gamma_eff, spec.dt)
    for n, (a, b) in enumerate(zip(states, states[1:])):
        alone = step(model, spec, a).state
        if n < 2:
            assert np.array_equal(alone, b)
        else:  # both solves stop within the tolerance, 1e-12 max|e0 a|, of the same root
            assert np.abs(e1 * (alone - b)).max() <= 2e-12 * np.abs(e0 * a).max()


def test_the_newton_guess_is_the_rescaled_quadratic_extrapolation(monkeypatch):
    model, u0 = burgers()
    spec = SchemeSpec("cimp", 0.009)
    guesses = []

    def spy(linearize, guess, tol, max_iter, scale):
        guesses.append(guess)
        return newton_solve(linearize, guess, tol, max_iter, scale)

    monkeypatch.setattr(integrators, "newton_solve", spy)
    _, states = integrate_states(model, spec, u0, 6 * spec.dt)
    e0, e1 = SCHEMES["cimp"].prefactors(model.gamma_eff, spec.dt)
    assert len(guesses) == 6
    for n, guess in enumerate(guesses):
        want = e0 * states[n] if n < 2 else e1 * (3.0 * (states[n] - states[n - 1]) + states[n - 2])
        assert np.array_equal(guess, want)


@pytest.mark.parametrize("preset, kind", [
    ("burgers-paper", "ek1"), ("burgers-paper", "ek2"), ("kdv-paper", "kahan2_plain"), ("nls-paper", "lie"),
])
def test_marches_without_newton_steps_equal_step_from_each_window(preset, kind):
    # the linearly implicit kinds take no guess, and a bootstrap (lie's is a cimp step) starts from u^0
    model, u0, cfg = preset_model(preset)
    spec = SchemeSpec(kind, cfg["dt"])
    _, states = integrate_states(model, spec, u0, 20 * cfg["dt"])
    two_step = integrators.SCHEMES[kind].two_step
    if two_step:
        assert np.array_equal(states[1], bootstrap(model, u0, spec).state)
    for n in range(1 + two_step, len(states)):
        assert np.array_equal(states[n], step(model, spec, *states[n - 1 - two_step:n]).state)


def test_linearly_implicit_marching_never_enters_newton(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("newton_solve must not be called")

    monkeypatch.setattr(integrators, "newton_solve", forbidden)
    model, u0 = burgers()
    rec = integrate(model, SchemeSpec("ek2", 0.009), u0, 0.09, record_every=1)
    assert rec.n_steps == 10

    rec2 = integrate(model, SchemeSpec("kahan2_plain", 0.009), u0, 0.09, record_every=1)
    assert rec2.n_steps == 10

    # the lie marching map is equally iteration-free (its bootstrap is not,
    # so only the raw step is exercised here)
    g = build_grid(25.0, 128)
    nls = make_model("nls", g, gamma=5e-4)
    psi0 = initial_condition("nls", g)
    psi1 = math.exp(-nls.gamma_eff * 0.001) * psi0
    step(nls, SchemeSpec("lie", 0.001), psi0, psi1)
    step(model, SchemeSpec("ek1", 0.009), u0)


@pytest.mark.parametrize("kind", ["cimp", "eavf", "ek1", "ek2", "lie"])
@pytest.mark.parametrize("model_kind", ["burgers", "kdv"])
def test_per_step_linear_invariant_ratio_is_exact(kind, model_kind):
    if model_kind == "burgers":
        model, u0 = burgers()
        name = "mass"
    else:
        g = build_grid(10.0, 64)
        model = make_model("kdv", g, gamma=1e-2)
        u0 = initial_condition("kdv", g)
        name = "I1"
    dt = 0.009
    rec = integrate(model, SchemeSpec(kind, dt), u0, 20 * dt, record_every=1)
    series = rec.invariant_series[name]
    ratios = series[1:] / series[:-1]
    assert np.max(np.abs(ratios - math.exp(-model.gamma_eff * dt))) <= 1e-12


def test_nonconvergence_carries_partial_record():
    model, u0 = burgers()
    spec = SchemeSpec("cimp", 2.5, newton_max_iter=3)
    with pytest.raises(NonConvergenceError) as info:
        integrate(model, spec, u0, 25.0, record_every=1)
    partial = info.value.partial
    assert partial.n_steps == 10
    assert list(partial.steps) == [0]  # failed during the first step
    assert np.all(np.isfinite(partial.final_state))


def fail_on_solve(monkeypatch, n, failure):
    """Make the n-th linear solve inside integrators return failure(x)."""
    calls = []
    real = integrators.solve_periodic_banded

    def solve(mat, rhs):
        calls.append(None)
        x = real(mat, rhs)
        return failure(x) if len(calls) == n else x

    monkeypatch.setattr(integrators, "solve_periodic_banded", solve)


def test_singular_system_carries_partial_record(monkeypatch):
    def singular(x):
        raise SingularMatrixError("singular to working precision")

    fail_on_solve(monkeypatch, 4, singular)
    model, u0 = burgers()
    states = []
    with pytest.raises(SingularMatrixError) as info:
        integrate_states(model, SchemeSpec("ek1", 0.009), u0, 0.09, states=states)
    partial = info.value.partial
    assert partial.n_steps == 10
    assert list(partial.steps) == [0, 1, 2, 3]  # failed during the fourth step
    assert np.array_equal(partial.final_state, states[-1])
    assert list(partial.linear_solves) == [0, 1, 2, 3]


@pytest.mark.parametrize("kind", ["ek1", "ek2"])
def test_blow_up_carries_partial_record(monkeypatch, kind):
    fail_on_solve(monkeypatch, 4, lambda x: np.full_like(x, np.nan))
    model, u0 = burgers()
    states = []
    with pytest.raises(BlowUpError) as info:
        integrate_states(model, SchemeSpec(kind, 0.009), u0, 0.09, states=states)
    exc = info.value
    assert (exc.step, exc.time) == (4, pytest.approx(4 * 0.009))
    assert list(exc.partial.steps) == [0, 1, 2, 3]
    # the record ends at the last finite state, not the blown-up one
    assert np.array_equal(exc.partial.final_state, states[-1])


# ---------------------------------------------------------------- batched recording


def per_state_series(model, kind, dt, states, steps):
    """The series recorded at `steps`, each value evaluated on its state alone.

    states holds u^0 .. u^N of the march; a step without a successor there gets a NaN polarized value.
    """
    e0, e1 = SCHEMES[kind].prefactors(model.gamma_eff, dt)[:2]
    series = {inv.name: [inv.evaluate(states[n]) for n in steps] for inv in model.invariants}
    series["H_paper"] = [model.hamiltonian_paper(states[n]) for n in steps]
    series["polarized"] = [
        model.polarized.evaluate(e0 * states[n], e1 * states[n + 1]) if n + 1 < len(states) else math.nan
        for n in steps
    ]
    return {name: np.array(values, dtype=float) for name, values in series.items()}


def recorded_series(rec):
    return {**rec.invariant_series, "H_paper": rec.hamiltonian_paper, "polarized": rec.polarized_transformed}


def counting(calls, evaluate):
    """evaluate, appending the number of states (or pairs) handed to each call to calls."""

    def counted(*stacks):
        calls.append(int(np.prod(stacks[0].shape[:-1])))
        return evaluate(*stacks)

    return counted


@pytest.mark.parametrize("kind, every", [("ek2", 1), ("ek2", 3), ("lie", 3)])
def test_batched_series_equal_each_state_evaluated_alone(kind, every):
    model, u0 = burgers()
    batch = integrators._BATCH_BYTES // u0.nbytes
    n, dt = 3 * batch * every + 4, 0.009  # three full batches of recorded states and a partial one
    calls = []
    traced = replace(model, hamiltonian_paper=counting(calls, model.hamiltonian_paper))
    rec = integrate(traced, SchemeSpec(kind, dt), u0, n * dt, record_every=every)
    _, states = integrate_states(model, SchemeSpec(kind, dt), u0, n * dt)
    assert np.array_equal(rec.final_state, states[-1])
    assert len(calls) >= 4 and max(calls) <= batch
    expected = per_state_series(model, kind, dt, states, rec.steps)
    for name, values in recorded_series(rec).items():
        assert values.tobytes() == expected[name].tobytes(), name


@pytest.mark.parametrize("every", [1, 2])
@pytest.mark.parametrize("preset, kind", [("burgers-paper", "ek2"), ("kdv-paper", "lie"), ("nls-paper", "lie")])
def test_no_series_callable_is_handed_more_states_than_a_batch(preset, kind, every):
    model, u0, cfg = preset_model(preset)
    batch = integrators._BATCH_BYTES // u0.nbytes
    calls = {}  # callable -> the number of states (or pairs) handed to each of its calls
    traced = replace(
        model,
        invariants=tuple(replace(inv, evaluate=counting(calls.setdefault(inv.name, []), inv.evaluate))
                         for inv in model.invariants),
        hamiltonian_paper=counting(calls.setdefault("H_paper", []), model.hamiltonian_paper),
        polarized=replace(model.polarized, evaluate=counting(calls.setdefault("polarized", []),
                                                              model.polarized.evaluate)),
    )
    n = (2 * batch + 3) * every  # more than two batches of recorded states
    rec = integrate(traced, SchemeSpec(kind, cfg["dt"]), u0, n * cfg["dt"], record_every=every)
    every_call = [size for sizes in calls.values() for size in sizes]
    assert max(every_call) <= batch
    # each recorded state once per series, and each recorded step but the last once as a pair
    rows = rec.steps.size
    assert sum(every_call) == (len(model.invariants) + 1) * rows + rows - 1
    # a batch is evaluated once each of its states has its successor, but the run's last state has none:
    # every flush hands H~ as many pairs as it hands each series states, the last flush (4 states) one fewer
    pairs, states = calls.pop("polarized"), calls["H_paper"]
    assert all(sizes == states for sizes in calls.values())
    assert states == [batch, batch, 4] and pairs == states[:-1] + [states[-1] - 1]


@pytest.mark.parametrize("failure", ["blow-up", "non-convergence"])
def test_partial_record_carries_every_recorded_row_evaluated(monkeypatch, failure):
    def fail(x):
        if failure == "blow-up":
            return np.full_like(x, np.nan)
        raise NonConvergenceError("Newton did not converge")

    model, u0 = burgers()
    dt = 0.009
    k = integrators._BATCH_BYTES // u0.nbytes + 7  # the march fails at step k, one batch after the first
    _, states = integrate_states(model, SchemeSpec("ek2", dt), u0, (k - 1) * dt)
    fail_on_solve(monkeypatch, k, fail)
    with pytest.raises((BlowUpError, NonConvergenceError)) as info:
        integrate(model, SchemeSpec("ek2", dt), u0, 2 * k * dt, record_every=1)
    partial = info.value.partial
    assert list(partial.steps) == list(range(k))
    expected = per_state_series(model, "ek2", dt, states, partial.steps)
    for name, values in recorded_series(partial).items():
        assert values.tobytes() == expected[name].tobytes(), name
    # the last recorded state has no successor, so its polarized value stays NaN
    assert math.isnan(partial.polarized_transformed[-1])
    assert np.isfinite(partial.polarized_transformed[:-1]).all()


def poisoned(evaluate, target):
    """evaluate, with inf for each state (or pair) whose first stack row equals target."""

    def evaluated(*stacks):
        return np.where((stacks[0] == target).all(axis=-1), math.inf, evaluate(*stacks))

    return evaluated


def assert_finite_rows(partial, rows):
    """Every array of the partial record has one entry per row, and every entry is finite."""
    arrays = [partial.steps, partial.times, partial.hamiltonian_paper, partial.newton_iterations,
              partial.linear_solves, *partial.invariant_series.values()]
    if partial.polarized_transformed is not None:
        arrays.append(partial.polarized_transformed)
    assert [len(a) for a in arrays] == [rows] * len(arrays)
    assert all(np.isfinite(a).all() for a in arrays) and np.isfinite(partial.final_state).all()


@pytest.mark.parametrize("series", ["mass", "H_paper", "polarized"])
@pytest.mark.parametrize("offset", [-1, 0, 5])
@pytest.mark.parametrize("every", [1, 3])
def test_a_recorded_value_that_is_not_finite_is_a_blow_up_at_its_row(series, offset, every):
    # row `bad` gets inf in one series: at the last row of the first batch of states, whose polarized
    # value is evaluated with the second batch, at the first row of the second batch, and inside it
    model, u0 = burgers()
    dt, batch = 0.009, integrators._BATCH_BYTES // u0.nbytes
    n, bad = 3 * batch * every, batch + offset
    _, states = integrate_states(model, SchemeSpec("ek2", dt), u0, n * dt)
    target = states[bad * every]
    if series == "mass":
        mass = model.invariants[0]
        traced = replace(model, invariants=(replace(mass, evaluate=poisoned(mass.evaluate, target)),))
    elif series == "H_paper":
        traced = replace(model, hamiltonian_paper=poisoned(model.hamiltonian_paper, target))
    else:
        e0 = SCHEMES["ek2"].prefactors(model.gamma_eff, dt)[0]
        evaluate = poisoned(model.polarized.evaluate, e0 * target)
        traced = replace(model, polarized=replace(model.polarized, evaluate=evaluate))
    with pytest.raises(BlowUpError) as info:
        integrate(traced, SchemeSpec("ek2", dt), u0, n * dt, record_every=every)
    exc = info.value
    assert (exc.step, exc.time) == (bad * every, bad * every * dt)
    assert list(exc.partial.steps) == list(range(0, bad * every, every))
    assert_finite_rows(exc.partial, bad)
    expected = per_state_series(model, "ek2", dt, states, exc.partial.steps)
    for name, values in recorded_series(exc.partial).items():
        assert values.tobytes() == expected[name].tobytes(), name
    assert np.array_equal(exc.partial.final_state, states[(bad - 1) * every])  # the state of the last row kept


def test_an_energy_that_overflows_before_a_solver_failure_is_the_error_raised(monkeypatch):
    def singular(x):
        raise SingularMatrixError("singular to working precision")

    model, u0 = burgers()
    _, states = integrate_states(model, SchemeSpec("ek1", 0.009), u0, 0.09)
    traced = replace(model, hamiltonian_paper=poisoned(model.hamiltonian_paper, states[3]))
    fail_on_solve(monkeypatch, 6, singular)  # row 3 is still unevaluated when the sixth step fails
    with pytest.raises(BlowUpError) as info:
        integrate(traced, SchemeSpec("ek1", 0.009), u0, 0.09, record_every=1)
    assert isinstance(info.value.__context__, SingularMatrixError)
    assert info.value.step == 3 and list(info.value.partial.steps) == [0, 1, 2]
    assert np.array_equal(info.value.partial.final_state, states[2])


def test_an_initial_state_whose_energy_overflows_is_a_blow_up_at_step_0():
    model, u0 = burgers()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        integrate(model, SchemeSpec("ek1", 0.009), 1e200 * u0, 0.09)
    assert (info.value.step, info.value.time) == (0, 0.0)
    assert_finite_rows(info.value.partial, 0)
    assert np.array_equal(info.value.partial.final_state, 1e200 * u0)


def test_an_energy_that_overflows_on_a_grid_of_width_1e_300_is_a_blow_up():
    # D1 at dx = 8e-302 is finite, but after two ek2 steps u**3 in H_paper overflows while the state stays finite
    model, u0, spec = build_problem(resolve_config("burgers-paper", {"L": 1e-300}, {}))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(BlowUpError) as info:
        integrate(model, spec, u0, 0.018, record_every=1)
    assert info.value.step == 2
    assert list(info.value.partial.steps) == [0, 1]
    assert_finite_rows(info.value.partial, 2)


def test_step_takes_one_state_per_level_of_the_window():
    model, u0 = burgers()
    with pytest.raises(ValueError):
        step(model, SchemeSpec("ek2", 0.009), u0)
    with pytest.raises(ValueError):
        step(model, SchemeSpec("ek1", 0.009), u0, u0)


# every preset x kind that runs: the Kahan kinds need a quadratic field, which NLS has not
WINDOW_CASES = [
    (preset, kind) for preset in PRESETS for kind in integrators.SCHEMES
    if not (PRESETS[preset]["model"] == "nls" and kind in ("ek1", "ek2", "kahan2_plain"))
]


@pytest.mark.parametrize("preset, kind", WINDOW_CASES)
def test_a_step_leaves_its_window_unchanged_and_returns_a_new_array(preset, kind):
    # integrate holds recorded states by reference, and a unit prefactor hands the window's own array
    # to the kernel: a step that wrote into its window, or returned its memory, would change the record
    model, u0, cfg = preset_model(preset)
    spec = SchemeSpec(kind, cfg["dt"])
    two_step = integrators.SCHEMES[kind].two_step

    def check(window, take_step):
        before = [u.copy() for u in window]
        state = take_step().state
        for u, saved in zip(window, before):
            assert u.tobytes() == saved.tobytes()
            assert not np.shares_memory(state, u)
        return state

    u1 = check((u0,), lambda: bootstrap(model, u0, spec) if two_step else step(model, spec, u0))
    if two_step:
        check((u0, u1), lambda: step(model, spec, u0, u1))


def test_final_profile_steepens_while_decaying(burgers_ek2_run):
    from expdg.spatial import derivative_operator

    model, u0, rec = burgers_ek2_run
    d1 = derivative_operator(model.grid, 1)
    assert np.max(np.abs(rec.final_state)) < np.max(np.abs(u0))
    sharpness0 = np.max(np.abs(d1.apply(u0))) / np.max(np.abs(u0))
    sharpness_t = np.max(np.abs(d1.apply(rec.final_state))) / np.max(np.abs(rec.final_state))
    assert sharpness_t > sharpness0
