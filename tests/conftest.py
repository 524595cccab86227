"""Shared fixtures.

Full preset runs cost seconds each, so every test that needs one pulls it
from a session-scoped cache instead of re-integrating.
"""
import math
from collections import deque

import numpy as np
import pytest

from expdg.integrators import SchemeSpec, exponents, integrate
from expdg.spatial import PeriodicBandedMatrix
from expdg.models import PRESETS, initial_condition, make_model, preset_grid
from expdg.system import ConformalModel, PolarizedEnergy, polarize_monomial


def preset_model(name):
    cfg = PRESETS[name]
    grid = preset_grid(name)
    model = make_model(
        cfg["model"], grid, cfg["gamma"],
        cfg.get("alpha"), cfg.get("rho"), cfg.get("nu"),
    )
    return model, initial_condition(cfg["model"], grid), cfg


def evaluate_invariants(model, u):
    """Every registered invariant of the model at u, as [(name, value), ...]."""
    return [(inv.name, inv.evaluate(u)) for inv in model.invariants]


def realized_horizon(cfg):
    n = max(round(cfg["T"] / cfg["dt"]), 1)
    return n, n * cfg["dt"]


def run_preset(name, kind, record_every=10, observer=None):
    model, u0, cfg = preset_model(name)
    n, horizon = realized_horizon(cfg)
    rec = integrate(
        model, SchemeSpec(kind, cfg["dt"]), u0, horizon,
        record_every=record_every, observer=observer,
    )
    return model, u0, rec


def make_transformed_gap_observer(model, exps):
    """Track |H(e^{x1} u^{n+1}) - H(e^{x0} u^n)| per step via a closure."""
    e0, e1 = math.exp(exps.x0), math.exp(exps.x1)
    prev = {}
    gaps = []

    def observer(step, t, state):
        if "u" in prev:
            gaps.append(abs(model.hamiltonian(e1 * state) - model.hamiltonian(e0 * prev["u"])))
        prev["u"] = state.copy()

    return observer, gaps


def make_window_defect_observer(model, exps):
    """Per-window |H~(b_t, c_t) - H~(a_t, b_t)| without storing the whole run."""
    e0, e2 = math.exp(exps.x0), math.exp(exps.x2)
    buf = deque(maxlen=3)
    defects = []

    def observer(step, t, state):
        buf.append(state.copy())
        if len(buf) == 3:
            a, b, c = buf
            defects.append(
                abs(model.polarized.evaluate(b, e2 * c) - model.polarized.evaluate(e0 * a, b))
            )

    return observer, defects


@pytest.fixture(scope="session")
def preset_runs():
    """Memoized (preset, kind, record_every) -> (model, u0, record)."""
    cache = {}

    def get(name, kind, record_every=10):
        key = (name, kind, record_every)
        if key not in cache:
            cache[key] = run_preset(name, kind, record_every=record_every)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def burgers_ek2_run(preset_runs):
    return preset_runs("burgers-paper", "ek2", record_every=1)


@pytest.fixture(scope="session")
def burgers_cimp_run(preset_runs):
    return preset_runs("burgers-paper", "cimp", record_every=1)


@pytest.fixture(scope="session")
def burgers_kahan2_run(preset_runs):
    return preset_runs("burgers-paper", "kahan2_plain", record_every=1)


@pytest.fixture(scope="session")
def kdv_ek2_run(preset_runs):
    return preset_runs("kdv-paper", "ek2", record_every=1)


@pytest.fixture(scope="session")
def nls_lie_run():
    """LIE on the NLS preset plus the per-window pairwise-energy defects."""
    model, u0, cfg = preset_model("nls-paper")
    exps = exponents("lie", model.gamma_eff, cfg["dt"])
    observer, defects = make_window_defect_observer(model, exps)
    n, horizon = realized_horizon(cfg)
    rec = integrate(
        model, SchemeSpec("lie", cfg["dt"]), u0, horizon,
        record_every=1, observer=observer,
    )
    return model, u0, rec, np.asarray(defects)


@pytest.fixture(scope="session")
def burgers_eavf_run():
    model, u0, cfg = preset_model("burgers-paper")
    exps = exponents("eavf", model.gamma_eff, cfg["dt"])
    observer, gaps = make_transformed_gap_observer(model, exps)
    n, horizon = realized_horizon(cfg)
    rec = integrate(
        model, SchemeSpec("eavf", cfg["dt"]), u0, horizon,
        record_every=1, observer=observer,
    )
    return model, u0, rec, np.asarray(gaps)


@pytest.fixture(scope="session")
def nls_eavf_run():
    model, u0, cfg = preset_model("nls-paper")
    exps = exponents("eavf", model.gamma_eff, cfg["dt"])
    observer, gaps = make_transformed_gap_observer(model, exps)
    n, horizon = realized_horizon(cfg)
    rec = integrate(
        model, SchemeSpec("eavf", cfg["dt"]), u0, horizon,
        record_every=1, observer=observer,
    )
    return model, u0, rec, np.asarray(gaps)


def toy_cubic_model():
    """Planar cubic-Hamiltonian system u' = S grad(sum u^3 / 3), S the symplectic unit.

    Small enough to march thousands of steps instantly, quadratic field, and
    its pairwise energy is the degree-3 nodal polarization, so it exercises
    the two-step machinery without any spatial operator.
    """
    nod3 = polarize_monomial(3)
    S = np.array([[0.0, 1.0], [-1.0, 0.0]])

    # At n=2 the +1 offset wraps, covering both off-diagonal entries:
    # entry (0,1) = row[0] and entry (1,0) = row[1].
    def quad_matrix(x):
        return PeriodicBandedMatrix(2, (1,), [[x[1], -x[0]]])

    def jac(u):
        return PeriodicBandedMatrix(2, (1,), [[2.0 * u[1], -2.0 * u[0]]])

    return ConformalModel(
        name="toy",
        dim=2,
        grid=None,
        gamma=0.0,
        gamma_eff=0.0,
        apply_S=lambda w: S @ w,
        grad_H=lambda u: u * u,
        hamiltonian=lambda u: float(np.sum(u**3)) / 3.0,
        hamiltonian_paper=lambda u: float(np.sum(u**3)) / 3.0,
        hamiltonian_rate=None,
        conservative_field=lambda u: S @ (u * u),
        jacobian_conservative=jac,
        invariants=(),
        quadratic_bilinear=lambda a, b: S @ (a * b),
        quadratic_matrix=quad_matrix,
        polarized=PolarizedEnergy(
            evaluate=lambda v, w: float(np.sum(nod3.evaluate(v, w))) / 3.0,
            pdg=lambda u, v, w: nod3.pdg(u, v, w) / 3.0,
        ),
        polarized_degree=3,
    )
