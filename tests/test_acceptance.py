"""End-to-end acceptance checks, one test per claimed property.

Each test prints its measured numbers so `pytest -v` doubles as a report.
The full-horizon preset runs come from session-scoped fixtures and are
shared with the diagnostics tests.
"""
import math

import numpy as np
import pytest

from expdg.diagnostics import (
    compensated_polarized_deviation,
    interval_widths,
    observed_order,
    reference_solve,
    residual_series,
)
from expdg.integrators import SchemeSpec
from expdg.models import initial_condition, make_model, preset_grid, pure_decay_model
from expdg.system import kahan_bilinear

from conftest import integrate_states, preset_model


def max_abs_residual(model, rec, name, rate):
    r = residual_series(rec.invariant_series[name], rate, interval_widths(rec.times))
    return float(np.max(np.abs(r[np.isfinite(r)])))


def test_criterion_01_zero_field_exactness():
    # Exponential kinds hit e^{-gamma_eff dt} exactly; the plain kinds land on
    # the (1,1) rational approximation instead, which is the whole point of
    # the exponential construction (see also the negative control below).
    dt = 0.009
    worst = 0.0
    for gamma_eff in (0.0, 1e-3, 0.5):
        model = pure_decay_model(6, gamma_eff)
        u0 = np.linspace(1.0, 2.0, 6)
        exact = math.exp(-gamma_eff * dt)
        for kind in ("cimp", "eavf", "ek1", "ek2", "lie"):
            _, states = integrate_states(model, SchemeSpec(kind, dt), u0, 3 * dt)
            for n in range(3):
                ratio = states[n + 1][0] / states[n][0]
                worst = max(worst, abs(ratio / exact - 1.0))
        pade = (1.0 - gamma_eff * dt / 2.0) / (1.0 + gamma_eff * dt / 2.0)
        for kind in ("imidpoint_plain", "avf_plain", "kahan2_plain"):
            _, states = integrate_states(model, SchemeSpec(kind, dt), u0, 3 * dt)
            for n in range(3):
                ratio = states[n + 1][0] / states[n][0]
                assert abs(ratio / pade - 1.0) <= 1e-14
    print(f"exponential kinds: worst relative factor error {worst:.3e}")
    assert worst <= 1e-14


def test_criterion_02_burgers_mass_dissipation(burgers_ek2_run, burgers_cimp_run):
    model, _, rec_ek2 = burgers_ek2_run
    _, _, rec_cimp = burgers_cimp_run
    rate = 2.0 * model.gamma
    r_ek2 = max_abs_residual(model, rec_ek2, "mass", rate)
    r_cimp = max_abs_residual(model, rec_cimp, "mass", rate)
    print(f"max|R_mass| ek2 {r_ek2:.3e}, cimp {r_cimp:.3e}")
    assert r_ek2 <= 1e-10
    assert r_cimp <= 1e-10


def test_criterion_03_kdv_linear_invariant(kdv_ek2_run):
    model, _, rec = kdv_ek2_run
    r_i1 = max_abs_residual(model, rec, "I1", 2.0 * model.gamma)
    r2 = residual_series(rec.invariant_series["I2"], 4.0 * model.gamma, interval_widths(rec.times))
    ok = np.isfinite(r2)
    trend = np.polyfit(rec.times[1:][ok], np.abs(r2[ok]), 1)[0]
    print(f"max|R_I1| {r_i1:.3e}, |R_I2| trend {trend:.3e} per unit time")
    assert r_i1 <= 1e-10
    assert trend <= 0.0  # quadratic-invariant defect diminishes as the wave decays


def test_criterion_04_nls_two_step_mass_relation(nls_lie_run):
    model, _, rec, _ = nls_lie_run
    mass = rec.invariant_series["mass"]
    factor = math.exp(-2.0 * model.gamma * rec.dt)
    ratios = mass[2:] / mass[:-2]
    worst = float(np.max(np.abs(ratios / factor - 1.0)))
    print(f"max relative deviation from e^(-2 gamma dt) per double step: {worst:.3e}")
    assert worst <= 1e-11


def test_criterion_05_transformed_energy_conservation(
    burgers_eavf_run, nls_eavf_run, nls_lie_run, burgers_ek2_run
):
    newton_tol = 1e-12

    _, _, _, gaps_b = burgers_eavf_run
    eavf_burgers = float(np.max(gaps_b))

    _, _, _, gaps_n = nls_eavf_run
    eavf_nls = float(np.max(gaps_n))

    model_n, u0_n, rec_n, defects = nls_lie_run
    scale_n = abs(model_n.polarized.evaluate(u0_n, u0_n))
    lie_nls = float(np.max(defects)) / scale_n

    model_b, _, rec_b = burgers_ek2_run
    ek2_burgers = compensated_polarized_deviation(
        model_b, rec_b.polarized_transformed, rec_b.dt
    )

    print(
        f"eavf per-step |dH~|: burgers {eavf_burgers:.3e}, nls {eavf_nls:.3e}; "
        f"lie window defect {lie_nls:.3e}; ek2 compensated drift {ek2_burgers:.3e}"
    )
    assert eavf_burgers <= 10.0 * newton_tol
    assert eavf_nls <= 10.0 * newton_tol
    assert lie_nls <= 1e-9
    # Known shortfall, explained: with g = gamma_eff and v = e^{gt} u, damped
    # ek2 is undamped two-step Kahan in v at the shrinking step
    # h_n = e^{-g t_n} dt from (v_{n-1}, v_n), and the series checked here is
    # e^{-3g dt} W(v_n, v_{n+1}), W the polarized energy. Two-step Kahan
    # keeps W only at a constant step (drift 1.4e-13 to t = 9 at h = 0.0045);
    # undamped Kahan driven by the ek2 step sequence reproduces this drift,
    # 5.077349e-7 against 5.077350e-7. lie, a discrete gradient of W, keeps
    # W at any step and passes above.
    assert ek2_burgers <= 1e-9, (
        f"ek2 compensated polarized drift {ek2_burgers:.4e} > 1e-9: "
        "structural damped-case defect of the two-step polarized series, "
        "not a regression; all per-step identities above pass"
    )


def test_criterion_06_second_order_convergence():
    dts = (4e-3, 2e-3, 1e-3)
    T = 0.5
    slopes = {}

    g_b = preset_grid("burgers-paper")
    model_b = make_model("burgers", g_b, gamma=0.25)
    u0_b = initial_condition("burgers", g_b)
    ref_b = reference_solve(model_b, u0_b, T, T / 32000)
    for kind in ("cimp", "eavf", "ek1", "ek2"):
        slopes[kind] = observed_order(model_b, kind, dts, T, u0=u0_b, reference=ref_b).slope

    g_n = preset_grid("nls-paper")
    model_n = make_model("nls", g_n, gamma=5e-4)
    u0_n = initial_condition("nls", g_n)
    ref_n = reference_solve(model_n, u0_n, T, T / 32000)
    slopes["lie"] = observed_order(model_n, "lie", dts, T, u0=u0_n, reference=ref_n).slope

    print("observed orders: " + ", ".join(f"{k} {s:.4f}" for k, s in slopes.items()))
    for kind, slope in slopes.items():
        assert slope is not None and 1.8 <= slope <= 2.2, f"{kind}: slope {slope}"


def test_criterion_07_conservative_reduction():
    # ek1 and lie have no separate plain counterpart (at gamma = 0 they are
    # their own reductions), leaving three pairs to check
    g = preset_grid("burgers-paper")
    model = make_model("burgers", g, gamma=0.0)
    u0 = initial_condition("burgers", g)
    scale = float(np.max(np.abs(u0)))
    horizon = 100 * 0.009
    worst = {}
    for exp_kind, plain_kind in (
        ("cimp", "imidpoint_plain"),
        ("eavf", "avf_plain"),
        ("ek2", "kahan2_plain"),
    ):
        _, states_e = integrate_states(model, SchemeSpec(exp_kind, 0.009), u0, horizon)
        _, states_p = integrate_states(model, SchemeSpec(plain_kind, 0.009), u0, horizon)
        gap = max(
            float(np.max(np.abs(a - b))) for a, b in zip(states_e, states_p)
        )
        worst[exp_kind] = gap
        assert gap <= 1e-11 * scale, f"{exp_kind} vs {plain_kind}: {gap:.3e}"
    print("max trajectory gaps over 100 undamped steps: " +
          ", ".join(f"{k} {v:.3e}" for k, v in worst.items()))


def test_criterion_08_cost_accounting(nls_lie_run, nls_eavf_run):
    _, _, rec_lie, _ = nls_lie_run
    _, _, rec_eavf, _ = nls_eavf_run
    print(
        f"wall clock: lie {rec_lie.wall_clock_seconds:.1f}s, "
        f"eavf {rec_eavf.wall_clock_seconds:.1f}s; "
        f"lie newton {rec_lie.newton_iterations[-1]}, solves {rec_lie.linear_solves[-1]}"
    )
    assert rec_lie.wall_clock_seconds < rec_eavf.wall_clock_seconds
    assert rec_lie.newton_iterations[-1] == 0
    # marching-loop accounting: the bootstrap produces step 1, every later
    # step costs exactly one linear solve
    assert rec_lie.linear_solves[-1] == rec_lie.n_steps - 1


def test_criterion_09_plain_kahan_negative_control(burgers_ek2_run, burgers_kahan2_run):
    model, _, rec_ek2 = burgers_ek2_run
    _, _, rec_plain = burgers_kahan2_run
    rate = 2.0 * model.gamma
    r_ek2 = max_abs_residual(model, rec_ek2, "mass", rate)
    r_plain = max_abs_residual(model, rec_plain, "mass", rate)
    print(f"max|R_mass| plain {r_plain:.3e} vs ek2 {r_ek2:.3e} (ratio {r_plain / r_ek2:.1e})")
    assert r_plain >= 1e3 * r_ek2


def test_criterion_10_discrete_gradient_identities():
    rng = np.random.default_rng(2026)
    for name in ("burgers-paper", "kdv-paper", "nls-paper"):
        model, _, _ = preset_model(name)
        pol = model.polarized
        for _ in range(100):
            u, v, w = (rng.standard_normal(model.dim) for _ in range(3))
            h_scale = max(abs(model.hamiltonian(u)), 1.0)
            assert abs(pol.evaluate(u, u) - model.hamiltonian(u)) <= 1e-12 * h_scale
            assert pol.evaluate(v, w) == pol.evaluate(w, v)
            gap = pol.evaluate(v, w) - pol.evaluate(u, v)
            pairing = 0.5 * float((w - u) @ pol.pdg(u, v, w))
            pair_scale = max(abs(pol.evaluate(v, w)), abs(pol.evaluate(u, v)), 1.0)
            assert abs(gap - pairing) <= 1e-11 * pair_scale
            diag = pol.pdg(u, u, u)
            grad = model.grad_H(u)
            g_scale = max(float(np.max(np.abs(grad))), 1.0)
            assert np.max(np.abs(diag - grad)) <= 1e-12 * g_scale
        if model.quadratic_bilinear is None:
            continue  # cubic field: no Kahan extension
        for _ in range(100):
            a, b = rng.standard_normal(model.dim), rng.standard_normal(model.dim)
            lhs = (
                -0.5 * model.conservative_field(a)
                + 2.0 * model.conservative_field(0.5 * (a + b))
                - 0.5 * model.conservative_field(b)
            )
            rhs = kahan_bilinear(model, a, b)
            scale = max(float(np.max(np.abs(lhs))), 1.0)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale
    print("polarized + Kahan identity suite: 100 random inputs per model, all within tolerance")
