import math

import numpy as np
import pytest

from expdg.diagnostics import (
    compensated_polarized_deviation,
    interval_widths,
    l2_distance,
    observed_order,
    polarized_window_defect,
    rec_every,
    reference_solve,
    residual_series,
    transformed_polarized_series,
)
from expdg.errors import BlowUpError
from expdg.integrators import SchemeSpec, exponents
from expdg.models import initial_condition, make_model, preset_grid, pure_decay_model
from expdg.spatial import build_grid

from conftest import integrate_states, preset_model, toy_cubic_model


# ------------------------------------------------------------ residual series


def test_residual_vanishes_on_exact_decay():
    lam, dt = 0.5, 0.01
    vals = 3.0 * np.exp(-lam * dt * np.arange(20))
    r = residual_series(vals, lam, dt)
    assert np.max(np.abs(r)) <= 1e-15


def test_residual_on_constant_series_is_rate_times_dt():
    r = residual_series(np.full(6, 2.5), 0.7, 0.01)
    assert np.all(r == 0.7 * 0.01)  # log(1) is exactly zero


def test_residual_without_rate_is_raw_log_ratio():
    vals = np.array([1.0, 2.0, 8.0])
    r = residual_series(vals, None, 0.3)
    assert r == pytest.approx([math.log(2.0), math.log(4.0)], rel=1e-15)


def test_residual_marks_invalid_intervals_nan():
    r = residual_series([1.0, -1.0, -2.0], 0.1, 0.01)
    assert np.isnan(r[0]) and np.isfinite(r[1])
    r2 = residual_series([1.0, 1e-310, 1.0], 0.1, 0.01)
    assert np.all(np.isnan(r2))


def test_residual_is_scale_invariant():
    vals = np.exp(-0.3 * 0.01 * np.arange(10)) + 0.001 * np.sin(np.arange(10))
    a = residual_series(vals, 0.3, 0.01)
    b = residual_series(4.0 * vals, 0.3, 0.01)  # power of two: ratios unchanged
    assert np.array_equal(a, b)


def test_residual_accepts_per_interval_widths():
    lam = 0.5
    times = np.array([0.0, 0.1, 0.2, 0.26])  # trailing short interval
    vals = 2.0 * np.exp(-lam * times)
    r = residual_series(vals, lam, interval_widths(times))
    assert np.max(np.abs(r)) <= 1e-14
    # a scalar dt would misjudge the short interval
    r_bad = residual_series(vals, lam, 0.1)
    assert abs(r_bad[-1]) > 1e-3


def test_residual_input_validation():
    with pytest.raises(ValueError):
        residual_series([1.0], 0.1, 0.01)
    with pytest.raises(ValueError):
        residual_series(np.ones((3, 2)), 0.1, 0.01)


def test_interval_widths():
    assert np.allclose(interval_widths([0.0, 0.09, 0.18, 0.23]), [0.09, 0.09, 0.05])


# ------------------------------------------------------------------ distances


def test_l2_distance_uses_grid_measure():
    g = build_grid(math.pi, 80)
    model = make_model("burgers", g, gamma=0.25)
    a, b = np.ones(80), np.zeros(80)
    assert l2_distance(model, a, b) == pytest.approx(math.sqrt(g.spacing * 80), rel=1e-15)


def test_l2_distance_defaults_to_unit_measure():
    model = pure_decay_model(2, 0.1)
    assert l2_distance(model, [3.0, 0.0], [0.0, 4.0]) == pytest.approx(5.0, rel=1e-15)


# ------------------------------------------------------ polarized diagnostics


def test_transformed_series_matches_recorded_series():
    g = preset_grid("burgers-paper")
    model = make_model("burgers", g, gamma=0.25)
    u0 = initial_condition("burgers", g)
    rec, states = integrate_states(model, SchemeSpec("ek2", 0.009), u0, 0.045)
    series = transformed_polarized_series(
        model, states, exponents("ek2", model.gamma_eff, 0.009)
    )
    assert series.tobytes() == rec.polarized_transformed[:-1].tobytes()


@pytest.mark.parametrize(
    "preset, kind",
    [("burgers-paper", "ek2"), ("kdv-paper", "lie"), ("nls-paper", "lie"), ("kdv-paper", "kahan2_plain")],
)
def test_stacked_pair_diagnostics_equal_each_pair_evaluated_alone(preset, kind):
    model, u0, cfg = preset_model(preset)
    _, states = integrate_states(model, SchemeSpec(kind, cfg["dt"]), u0, 12 * cfg["dt"])
    exps = exponents(kind, model.gamma_eff, cfg["dt"])
    (e0, e1, e2), h = exps.factors, model.polarized.evaluate
    pairs = [h(e0 * a, e1 * b) for a, b in zip(states, states[1:])]
    windows = [abs(h(e1 * b, e2 * c) - h(e0 * a, e1 * b)) for a, b, c in zip(states, states[1:], states[2:])]
    assert transformed_polarized_series(model, states, exps).tobytes() == np.array(pairs).tobytes()
    assert polarized_window_defect(model, states, exps).tobytes() == np.array(windows).tobytes()


def test_transformed_series_requires_polarized_energy():
    model = pure_decay_model(3, 0.1)
    with pytest.raises(ValueError):
        transformed_polarized_series(model, [np.ones(3), np.ones(3)], exponents("ek2", 0.1, 0.01))


def test_window_defect_requires_polarized_energy():
    model = pure_decay_model(3, 0.1)
    with pytest.raises(ValueError, match="no polarized energy"):
        polarized_window_defect(model, [np.ones(3)] * 3, exponents("ek2", 0.1, 0.01))


def test_window_defect_vanishes_for_discrete_gradient_march():
    toy = toy_cubic_model()
    u0 = np.array([0.4, 0.3])
    _, states = integrate_states(toy, SchemeSpec("kahan2_plain", 0.01), u0, 1.0)
    exps = exponents("kahan2_plain", 0.0, 0.01)
    defects = polarized_window_defect(toy, states, exps)
    scale = abs(toy.polarized.evaluate(u0, states[1]))
    assert np.max(defects) <= 1e-12 * scale


def test_window_defect_on_nls_lie_march():
    g = build_grid(25.0, 128)
    model = make_model("nls", g, gamma=5e-4)
    u0 = initial_condition("nls", g)
    _, states = integrate_states(model, SchemeSpec("lie", 0.001), u0, 0.05)
    exps = exponents("lie", model.gamma_eff, 0.001)
    defects = polarized_window_defect(model, states, exps)
    scale = abs(model.polarized.evaluate(u0, states[1]))
    assert np.max(defects) <= 1e-12 * scale


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75, 1.0])
def test_window_defect_on_kdv_lie_march(theta):
    # the lie system is the discrete gradient of the theta-polarized energy
    g = preset_grid("kdv-paper")
    model = make_model("kdv", g, gamma=1e-2, theta=theta)
    u0 = initial_condition("kdv", g)
    _, states = integrate_states(model, SchemeSpec("lie", 0.009), u0, 0.18)
    assert len(states) == 21
    defects = polarized_window_defect(model, states, exponents("lie", model.gamma_eff, 0.009))
    scale = abs(model.polarized.evaluate(u0, states[1]))
    assert np.max(defects) <= 1e-14 * scale


def test_window_defect_needs_two_step_exponents():
    toy = toy_cubic_model()
    with pytest.raises(ValueError):
        polarized_window_defect(toy, [np.ones(2)] * 3, exponents("cimp", 0.1, 0.01))


def test_compensated_deviation_on_pure_scaling_series():
    g = preset_grid("burgers-paper")
    model = make_model("burgers", g, gamma=0.25)
    rate = model.polarized_degree * model.gamma_eff
    series = 2.7 * np.exp(-rate * 0.009 * np.arange(12))
    assert compensated_polarized_deviation(model, series, 0.009) <= 1e-13


def test_compensated_deviation_skips_non_finite_entries():
    g = preset_grid("burgers-paper")
    model = make_model("burgers", g, gamma=0.25)
    rate = model.polarized_degree * model.gamma_eff
    clean = 2.7 * np.exp(-rate * 0.009 * np.arange(6))
    holed = np.concatenate([clean, [np.nan]])
    assert compensated_polarized_deviation(model, holed, 0.009) == pytest.approx(
        compensated_polarized_deviation(model, clean, 0.009), abs=1e-16
    )
    with pytest.raises(ValueError):
        compensated_polarized_deviation(model, [1.0, np.nan], 0.009)


def test_compensated_deviation_dates_values_after_an_interior_hole():
    g = preset_grid("burgers-paper")
    model = make_model("burgers", g, gamma=0.25)
    rate = model.polarized_degree * model.gamma_eff
    series = 2.7 * np.exp(-rate * 0.009 * np.arange(12))
    series[2] = np.nan
    assert compensated_polarized_deviation(model, series, 0.009) <= 1e-13


def test_compensated_deviation_rejects_mixed_degrees():
    g = preset_grid("kdv-paper")
    model = make_model("kdv", g, gamma=1e-2)
    with pytest.raises(ValueError):
        compensated_polarized_deviation(model, np.ones(5), 0.009)


# ------------------------------------------------------------ reference solve


def test_reference_solve_exact_on_pure_decay():
    model = pure_decay_model(8, 0.5)
    u0 = np.linspace(1.0, 2.0, 8)
    end = reference_solve(model, u0, 1.0, 1e-4)
    expected = math.exp(-0.5) * u0
    assert np.max(np.abs(end - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_reference_solve_is_step_converged():
    g = preset_grid("burgers-paper")
    model = make_model("burgers", g, gamma=0.25)
    u0 = initial_condition("burgers", g)
    coarse = reference_solve(model, u0, 0.5, 1e-3)
    fine = reference_solve(model, u0, 0.5, 5e-4)
    assert l2_distance(model, coarse, fine) <= 1e-10


def test_reference_solve_self_convergence_is_fourth_order():
    g = preset_grid("burgers-paper")
    model = make_model("burgers", g, gamma=0.25)
    u0 = initial_condition("burgers", g)
    ref = reference_solve(model, u0, 0.5, 1e-5)
    dts = [1e-2, 5e-3, 2.5e-3]
    errs = [l2_distance(model, reference_solve(model, u0, 0.5, dt), ref) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 3.7 <= slope <= 4.3


def test_reference_solve_zero_horizon_returns_a_copy():
    g = preset_grid("burgers-paper")
    model = make_model("burgers", g, gamma=0.25)
    u0 = initial_condition("burgers", g)
    end = reference_solve(model, u0, 0.0, 1e-3)
    assert np.array_equal(end, u0)
    assert end is not u0 and not np.shares_memory(end, u0)


@pytest.mark.parametrize("T", [-0.5, math.inf, math.nan])
def test_reference_solve_rejects_negative_or_non_finite_horizon(T):
    g = preset_grid("burgers-paper")
    model = make_model("burgers", g, gamma=0.25)
    with pytest.raises(ValueError, match="T must be"):
        reference_solve(model, initial_condition("burgers", g), T, 1e-3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reference_solve_reports_blow_up():
    g = preset_grid("burgers-paper")
    model = make_model("burgers", g, gamma=0.0)
    u0 = initial_condition("burgers", g)
    with pytest.raises(BlowUpError):
        reference_solve(model, u0, 50.0, 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reference_solve_reports_a_state_that_overflows_after_finite_stages():
    # growth at rate 1 from 3e307: every stage is finite, their weighted sum is not
    model = pure_decay_model(2, -1.0)
    with pytest.raises(BlowUpError, match="reference solve became non-finite at step 1") as info:
        reference_solve(model, np.full(2, 3e307), 1.0, 1.0)
    assert (info.value.step, info.value.time) == (1, 1.0)


def test_reference_solve_takes_whole_steps_over_an_inexact_horizon():
    # 0.25 is no whole number of steps 0.1: the march takes ceil(2.5) = 3 equal steps of 0.25/3
    model = pure_decay_model(4, 0.5)
    u0 = np.linspace(1.0, 2.0, 4)
    expected = reference_solve(model, u0, 0.25, 0.25 / 3)
    assert reference_solve(model, u0, 0.25, 0.1).tobytes() == expected.tobytes()


def test_reference_solve_rejects_bad_step():
    model = pure_decay_model(2, 0.1)
    with pytest.raises(ValueError):
        reference_solve(model, np.ones(2), 1.0, 0.0)


# ------------------------------------------------------------- observed order


def test_observed_order_reports_rounding_floor():
    model = pure_decay_model(4, 0.3)
    u0 = np.ones(4)
    fit = observed_order(model, "ek1", [0.01, 0.005], 0.1, u0=u0)
    assert fit.floor_reached
    assert fit.slope is None
    assert len(fit.errors) == 2


def test_observed_order_validation():
    model = pure_decay_model(4, 0.3)
    with pytest.raises(ValueError):
        observed_order(model, "ek1", [0.01], 0.1, u0=np.ones(4))
    with pytest.raises(ValueError):
        observed_order(model, "ek1", [0.01, 0.005], 0.1)


def test_rec_every_keeps_roughly_fifty_rows():
    assert rec_every(50.004, 0.009) == 111
    assert rec_every(0.5, 0.1) == 1


# ------------------------------------------------------------------ drift law
#
# Residuals R_n = ln(Q_{n+1}/Q_n) + lambda dt_n should wobble around zero
# without a secular trend: |best-fit slope| * T <= std(R).
#
# Two preset series are excluded deliberately:
#   * nls momentum at aggregated cadences: the semidiscrete momentum decays
#     at a rate offset by ~9e-8 (relative) from the continuum value, which
#     reads as a trend once windows of ten steps are pooled.  At cadence 1
#     under lie the wobble dominates and the law holds (tested below).
#   * nls mass under eavf: the chord-averaged field does not exactly
#     preserve quadratic invariants, leaving a tiny secular leak.


def drift_stats(model, rec, name):
    lam = next(inv.exact_rate for inv in model.invariants if inv.name == name)
    times = np.asarray(rec.times)
    r = residual_series(rec.invariant_series[name], lam, interval_widths(times))
    ok = np.isfinite(r)
    assert ok.sum() >= 3
    slope = np.polyfit(times[1:][ok], r[ok], 1)[0]
    return abs(slope) * rec.realized_time, float(np.std(r[ok]))


@pytest.mark.parametrize(
    "fixture_name,invariant",
    [
        ("burgers_ek2_run", "mass"),
        ("burgers_cimp_run", "mass"),
        ("burgers_eavf_run", "mass"),
        ("kdv_ek2_run", "I1"),
        ("kdv_ek2_run", "I2"),
        ("nls_lie_run", "mass"),
        ("nls_lie_run", "momentum"),
    ],
)
def test_residual_trend_below_noise_cadence_one(fixture_name, invariant, request):
    bundle = request.getfixturevalue(fixture_name)
    model, _, rec = bundle[:3]
    trend, std = drift_stats(model, rec, invariant)
    assert trend <= std, f"{fixture_name} {invariant}: trend {trend:.3e} > std {std:.3e}"


@pytest.mark.parametrize(
    "preset,kind,invariant",
    [
        ("burgers-paper", "ek1", "mass"),
        ("burgers-paper", "lie", "mass"),
        ("kdv-paper", "cimp", "I1"),
        ("kdv-paper", "cimp", "I2"),
        ("kdv-paper", "eavf", "I1"),
        ("kdv-paper", "eavf", "I2"),
        ("kdv-paper", "ek1", "I1"),
        ("kdv-paper", "ek1", "I2"),
        ("kdv-paper", "lie", "I1"),
        ("kdv-paper", "lie", "I2"),
        ("nls-paper", "cimp", "mass"),
    ],
)
def test_residual_trend_below_noise_presets(preset, kind, invariant, preset_runs):
    model, _, rec = preset_runs(preset, kind)[:3]
    trend, std = drift_stats(model, rec, invariant)
    assert trend <= std, f"{preset} {kind} {invariant}: trend {trend:.3e} > std {std:.3e}"
