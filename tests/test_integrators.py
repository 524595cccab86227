import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import expdg.integrators as integrators
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
from expdg.linalg import NonlinearSolveSettings, solve_periodic_banded
from expdg.models import initial_condition, make_model, preset_grid, pure_decay_model
from expdg.spatial import build_grid

from conftest import toy_cubic_model

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
    rec = integrate(model, SchemeSpec(kind, dt), u0, 3 * dt, record_every=1, store_states=True)
    factor = math.exp(-gamma_eff * dt)
    for n in range(3):
        expected = factor ** (n + 1) * u0
        assert np.max(np.abs(rec.states[n + 1] - expected)) <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("kind", PLAIN_KINDS)
def test_plain_kinds_underdamp_at_the_pade_rate(kind):
    # folding the damping into the field leaves the (1,1) rational factor,
    # not the exponential; this is the defect the exponential kinds remove
    gamma_eff, dt = 0.5, 0.009
    mu = gamma_eff * dt
    model = pure_decay_model(6, gamma_eff)
    rng = np.random.default_rng(15)
    u0 = rng.standard_normal(6)
    rec = integrate(model, SchemeSpec(kind, dt), u0, 2 * dt, record_every=1, store_states=True)
    pade = (1.0 - mu / 2.0) / (1.0 + mu / 2.0)
    for n in (1, 2):
        expected = pade**n * u0
        assert np.max(np.abs(rec.states[n] - expected)) <= 1e-14 * np.max(np.abs(expected))
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
    forward = step(model, SchemeSpec("ek1", dt), u0).state
    # SchemeSpec rejects dt <= 0, so the reverse step calls the kernel
    back = _kahan1_step(model, forward, -dt, exponents("ek1", model.gamma_eff, -dt), 0.0).state
    assert np.max(np.abs(back - u0)) <= 1e-12 * np.max(np.abs(u0))


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
    back = _kahan2_step(model, u2, u1, -dt, exponents("ek2", model.gamma_eff, -dt), 0.0).state
    assert np.max(np.abs(back - u0)) <= 1e-12 * np.max(np.abs(u0))


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
    mat, rhs, decode = model.lie_system_builder(
        u2, u1, -dt, exponents("lie", model.gamma_eff, -dt)
    )
    back = decode(solve_periodic_banded(mat, rhs))
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
        record_every=4, store_states=True,
        observer=lambda step, t, state: seen.append((step, t, state.copy())),
    )
    assert [s for s, _, _ in seen] == list(rec.steps)
    assert len(rec.states) == len(rec.steps)
    assert np.array_equal(rec.states[0], u0)
    assert np.array_equal(seen[-1][2], rec.final_state)


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
    with pytest.raises(SingularMatrixError) as info:
        integrate(model, SchemeSpec("ek1", 0.009), u0, 0.09, record_every=1, store_states=True)
    partial = info.value.partial
    assert partial.n_steps == 10
    assert list(partial.steps) == [0, 1, 2, 3]  # failed during the fourth step
    assert np.array_equal(partial.final_state, partial.states[-1])
    assert list(partial.linear_solves) == [0, 1, 2, 3]


@pytest.mark.parametrize("kind", ["ek1", "ek2"])
def test_blow_up_carries_partial_record(monkeypatch, kind):
    fail_on_solve(monkeypatch, 4, lambda x: np.full_like(x, np.nan))
    model, u0 = burgers()
    with pytest.raises(BlowUpError) as info:
        integrate(model, SchemeSpec(kind, 0.009), u0, 0.09, record_every=1, store_states=True)
    exc = info.value
    assert (exc.step, exc.time) == (4, pytest.approx(4 * 0.009))
    assert list(exc.partial.steps) == [0, 1, 2, 3]
    # the record ends at the last finite state, not the blown-up one
    assert np.array_equal(exc.partial.final_state, exc.partial.states[-1])


def test_step_takes_one_state_per_level_of_the_window():
    model, u0 = burgers()
    with pytest.raises(ValueError):
        step(model, SchemeSpec("ek2", 0.009), u0)
    with pytest.raises(ValueError):
        step(model, SchemeSpec("ek1", 0.009), u0, u0)


def test_final_profile_steepens_while_decaying(burgers_ek2_run):
    from expdg.spatial import derivative_operator

    model, u0, rec = burgers_ek2_run
    d1 = derivative_operator(model.grid, 1)
    assert np.max(np.abs(rec.final_state)) < np.max(np.abs(u0))
    sharpness0 = np.max(np.abs(d1.apply(u0))) / np.max(np.abs(u0))
    sharpness_t = np.max(np.abs(d1.apply(rec.final_state))) / np.max(np.abs(rec.final_state))
    assert sharpness_t > sharpness0
