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
from expdg.diagnostics import compensated_polarized_deviation
from expdg.errors import BlowUpError, NonConvergenceError, SingularMatrixError, UnsupportedModelError
from expdg.integrators import (
    Exponents,
    SchemeSpec,
    bootstrap,
    exponents,
    integrate,
    step,
    _kahan1_step,
    _kahan2_step,
)
from expdg.linalg import NonlinearSolveSettings, newton_solve, solve_periodic_banded
from expdg.models import PRESETS, initial_condition, make_model, preset_grid, pure_decay_model
from expdg.spatial import build_grid

from conftest import dense, integrate_states, preset_model, toy_cubic_model

EXPONENTIAL_KINDS = ("cimp", "eavf", "ek1", "ek2", "lie")
PLAIN_KINDS = ("imidpoint_plain", "avf_plain", "kahan2_plain")


def burgers(gamma=0.25):
    g = preset_grid("burgers-paper")
    return make_model("burgers", g, gamma=gamma), initial_condition("burgers", g)


# ---------------------------------------------------------------- exponents


def test_exponents_vanish_without_damping():
    for kind in integrators.SCHEMES:
        e = exponents(kind, 0.0, 0.009)
        assert e.x0 == 0.0 and e.x1 == 0.0
        assert e.x2 in (None, 0.0)


def test_exponents_one_step_split():
    e = exponents("cimp", 0.5, 0.009)
    assert e.x0 == pytest.approx(-0.5 * 0.009 / 2.0, rel=1e-15)
    assert e.x1 == -e.x0
    assert e.x2 is None


def test_exponents_two_step_split():
    e = exponents("ek2", 0.5, 0.009)
    assert (e.x0, e.x1, e.x2) == (pytest.approx(-0.0045), 0.0, pytest.approx(0.0045))


def test_exponents_nls_preset_magnitudes():
    # gamma_eff = gamma/2 for the Schroedinger split
    gamma_eff = 5e-4 / 2.0
    assert exponents("eavf", gamma_eff, 0.001).x1 == pytest.approx(1.25e-7, rel=1e-12)
    assert exponents("lie", gamma_eff, 0.001).x2 == pytest.approx(2.5e-7, rel=1e-12)


def test_exponents_plain_kinds_are_identity_weights():
    for kind in PLAIN_KINDS:
        e = exponents(kind, 0.7, 0.05)
        assert e.x0 == 0.0 and e.x1 == 0.0


def test_exponents_unknown_kind():
    with pytest.raises(ValueError):
        exponents("rk4", 0.1, 0.01)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "heun", "dt": 0.01},
        {"kind": "cimp", "dt": 0.0},
        {"kind": "cimp", "dt": -0.1},
        {"kind": "cimp", "dt": 0.01, "scheme_variant": "fancy"},
        # only the midpoint kinds have an as-printed variant
        *(
            {"kind": kind, "dt": 0.01, "scheme_variant": "printed"}
            for kind in ("eavf", "ek1", "ek2", "lie", "avf_plain", "kahan2_plain")
        ),
    ],
)
def test_scheme_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SchemeSpec(**kwargs)


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
def test_plain_kinds_underdamp_at_the_pade_rate(kind):
    # folding the damping into the field leaves the (1,1) rational factor,
    # not the exponential; this is the defect the exponential kinds remove
    gamma_eff, dt = 0.5, 0.009
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
    exps = exponents("cimp", model.gamma_eff, dt)
    at = math.exp(exps.x0) * u0
    y = at.copy()
    for _ in range(500):
        residual = y - at - dt * model.conservative_field(0.5 * (y + at))
        if np.max(np.abs(residual)) <= 1e-14 * np.max(np.abs(at)):
            break
        y = y - residual
    else:
        pytest.fail("fixed-point sweep did not converge in 500 iterations")
    oracle = math.exp(-exps.x1) * y
    assert np.max(np.abs(newton - oracle)) <= 1e-11 * np.max(np.abs(oracle))


def test_cimp_reduces_to_plain_midpoint_without_damping():
    model, u0 = burgers(gamma=0.0)
    a = step(model, SchemeSpec("cimp", 0.009), u0).state
    b = step(model, SchemeSpec("imidpoint_plain", 0.009), u0).state
    assert np.array_equal(a, b)


def test_printed_midpoint_variant_differs_but_stays_close():
    model, u0 = burgers()
    canonical = step(model, SchemeSpec("cimp", 0.009), u0).state
    printed = step(model, SchemeSpec("cimp", 0.009, scheme_variant="printed"), u0).state
    gap = np.max(np.abs(printed - canonical))
    assert 1e-12 < gap < 1e-4  # same order of accuracy, different scheme
    assert np.all(np.isfinite(printed))


def test_printed_variant_rejected_for_kdv():
    g = preset_grid("kdv-paper")
    model = make_model("kdv", g, gamma=1e-2)
    u0 = initial_condition("kdv", g)
    with pytest.raises(UnsupportedModelError):
        step(model, SchemeSpec("cimp", 0.009, scheme_variant="printed"), u0)


def test_eavf_step_satisfies_chord_average_equation():
    # verify the implicit relation against a fine trapezoid chord integral
    g = preset_grid("nls-paper")
    model = make_model("nls", g, gamma=5e-4)
    u0 = initial_condition("nls", g)
    dt = 0.001
    exps = exponents("eavf", model.gamma_eff, dt)
    u1 = step(model, SchemeSpec("eavf", dt), u0).state
    at, yt = math.exp(exps.x0) * u0, math.exp(exps.x1) * u1
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
    calls, newton_matrices = [], []

    def counted(a, y):
        calls.append(y)
        return model.chord_jacobian(a, y)

    def capture(residual, jacobian, guess, settings):
        newton_matrices.append(jacobian)
        return newton_solve(residual, jacobian, guess, settings)

    with mock.patch.object(integrators, "newton_solve", capture):
        result = step(replace(model, chord_jacobian=counted), SchemeSpec("avf_plain", dt), a)
    assert len(calls) == result.newton_iterations > 0
    # the plain kind keeps the damping: (1 + dt g/2) I - dt chord_jacobian(a, y)
    expected = (1.0 + dt * model.gamma_eff / 2.0) * np.eye(model.dim) - dt * mean
    assert np.abs(dense(newton_matrices[0](y)) - expected).max() <= 1e-14 * np.abs(expected).max()


def test_eavf_preserves_transformed_energy_per_step():
    model, u0 = burgers()
    dt = 0.009
    exps = exponents("eavf", model.gamma_eff, dt)
    u1 = step(model, SchemeSpec("eavf", dt), u0).state
    gap = abs(
        model.hamiltonian(math.exp(exps.x1) * u1) - model.hamiltonian(math.exp(exps.x0) * u0)
    )
    assert gap <= 1e-11


def test_ek1_matches_dense_assembly_oracle():
    model, u0 = burgers()
    n, dt = model.dim, 0.009
    exps = exponents("ek1", model.gamma_eff, dt)
    at = math.exp(exps.x0) * u0
    assert model.linear_operator is None  # Burgers has no linear part L
    L = np.zeros((n, n))
    dense = np.eye(n) / dt - model.quadratic_matrix(at).to_dense() - 0.5 * L
    bt = np.linalg.solve(dense, at / dt + 0.5 * (L @ at))
    expected = math.exp(-exps.x1) * bt
    result = step(model, SchemeSpec("ek1", dt), u0).state
    assert np.max(np.abs(result - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_ek1_on_linear_kdv_is_transformed_trapezoid():
    # alpha = nu = 0 leaves the rho*D1 advection; Kahan collapses onto the
    # trapezoid rule applied between the exponentially rescaled endpoints
    g = build_grid(10.0, 64)
    model = make_model("kdv", g, gamma=0.05, alpha=0.0, rho=-10.0, nu=0.0)
    u0 = initial_condition("kdv", g)
    dt = 0.004
    exps = exponents("ek1", model.gamma_eff, dt)
    L = np.zeros((64, 64))
    for d, c in zip(model.linear_operator.offsets, model.linear_operator.coeffs):
        L[np.arange(64), (np.arange(64) + d) % 64] += c
    at = math.exp(exps.x0) * u0
    bt = np.linalg.solve(np.eye(64) - 0.5 * dt * L, (np.eye(64) + 0.5 * dt * L) @ at)
    expected = math.exp(-exps.x1) * bt
    result = step(model, SchemeSpec("ek1", dt), u0).state
    assert np.max(np.abs(result - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_ek1_step_is_self_adjoint():
    model, u0 = burgers()
    dt = 0.009
    exps = exponents("ek1", model.gamma_eff, dt)
    forward = step(model, SchemeSpec("ek1", dt), u0).state
    # SchemeSpec rejects dt <= 0, so the reverse step calls the kernel, which
    # maps the rescaled e^{x1} u^1 back to e^{x0} u^0
    back, _, _ = _kahan1_step(model, math.exp(exps.x1) * forward, -dt, 0.0)
    assert np.max(np.abs(math.exp(-exps.x0) * back - u0)) <= 1e-12 * np.max(np.abs(u0))


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
    exps = exponents("ek2", model.gamma_eff, dt)
    # on rescaled states the reverse step maps (e^{x2} u^2, e^{x1} u^1) to e^{x0} u^0
    back, _, _ = _kahan2_step(model, math.exp(exps.x2) * u2, math.exp(exps.x1) * u1, -dt, 0.0)
    assert np.max(np.abs(math.exp(-exps.x0) * back - u0)) <= 1e-12 * np.max(np.abs(u0))


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
    exps = exponents("lie", model.gamma_eff, dt)
    # the builder takes rescaled states: (e^{x2} u^2, e^{x1} u^1) -> e^{x0} u^0
    mat, rhs, decode = model.lie_system_builder(math.exp(exps.x2) * u2, math.exp(exps.x1) * u1, -dt)
    back = math.exp(-exps.x0) * decode(solve_periodic_banded(mat, rhs))
    assert np.max(np.abs(back - u0)) <= 1e-12 * np.max(np.abs(u0))


def test_lie_requires_a_system_builder():
    toy = toy_cubic_model()
    with pytest.raises(UnsupportedModelError):
        step(toy, SchemeSpec("lie", 0.01), np.ones(2), np.ones(2))


def test_kahan_steps_reject_cubic_fields():
    g = build_grid(25.0, 64)
    model = make_model("nls", g, gamma=0.0)
    u0 = initial_condition("nls", g)
    with pytest.raises(UnsupportedModelError):
        step(model, SchemeSpec("ek1", 0.001), u0)


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
    exps = exponents(kind, model.gamma_eff, dt)
    e0, e1 = exps.factors[:2]
    spec = SchemeSpec(kind, dt)
    window, w = (u0, u1), [model.polarized.evaluate(e0 * u0, e1 * u1)]
    for _ in range(1, n_steps):
        window = (window[1], step(model, spec, *window, exps=exps).state)
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

    good = step(model, spec, u0, u1, exps=exponents("ek2", model.gamma_eff, dt)).state
    residual = math.log(np.sum(good) / np.sum(u0)) + rate
    assert abs(residual) <= 1e-12

    halved = Exponents(-model.gamma_eff * dt / 2.0, 0.0, model.gamma_eff * dt / 2.0)
    bad = step(model, spec, u0, u1, exps=halved).state
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
     ("kdv-paper", "lie"), ("nls-paper", "cimp"), ("nls-paper", "lie")],
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
    e0, e1 = exponents(kind, model.gamma_eff, cfg["dt"]).factors[:2]
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
    e0, e1 = exponents(kind, model.gamma_eff, spec.dt).factors
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

    def spy(residual, jacobian, guess, settings):
        guesses.append(guess)
        return newton_solve(residual, jacobian, guess, settings)

    monkeypatch.setattr(integrators, "newton_solve", spy)
    _, states = integrate_states(model, spec, u0, 6 * spec.dt)
    e0, e1 = exponents("cimp", model.gamma_eff, spec.dt).factors
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
    spec = SchemeSpec("cimp", 2.5, solver=NonlinearSolveSettings(max_iterations=3))
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
    e0, e1 = exponents(kind, model.gamma_eff, dt).factors[:2]
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
    calls = []
    traced = replace(
        model,
        invariants=tuple(replace(inv, evaluate=counting(calls, inv.evaluate)) for inv in model.invariants),
        hamiltonian_paper=counting(calls, model.hamiltonian_paper),
        polarized=replace(model.polarized, evaluate=counting(calls, model.polarized.evaluate)),
    )
    n = (2 * batch + 3) * every  # more than two batches of recorded states
    rec = integrate(traced, SchemeSpec(kind, cfg["dt"]), u0, n * cfg["dt"], record_every=every)
    assert max(calls) <= batch
    # each recorded state once per series, and each recorded step but the last once as a pair
    rows = rec.steps.size
    assert sum(calls) == (len(model.invariants) + 1) * rows + rows - 1


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
