"""Shared fixtures.

Full preset runs cost seconds each, so every test that needs one pulls it
from a session-scoped cache instead of re-integrating.
"""
from collections import deque

import numpy as np
import pytest

from expdg.integrators import SchemeSpec, exponents, integrate
from expdg.spatial import PeriodicBandedMatrix
from expdg.models import PRESETS, initial_condition, make_model, preset_grid
from expdg.system import NODAL_CUBIC, ConformalModel, PolarizedEnergy, quadratic_field


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


def two_field_dense(mat):
    """The dense matrix c I + [[-diag t, -(D + diag q)], [D + diag p, diag t]] of a TwoFieldMatrix."""
    t, p, q = mat.rows
    m = t.size
    d = PeriodicBandedMatrix(m, (-1, 0, 1), (mat.off, mat.mid, mat.off)).to_dense()
    eye = mat.c * np.eye(m)
    return np.block([[eye - np.diag(t), -(d + np.diag(q))], [d + np.diag(p), eye + np.diag(t)]])


def dense(mat):
    """The dense matrix of a PeriodicBandedMatrix or a TwoFieldMatrix."""
    return mat.to_dense() if isinstance(mat, PeriodicBandedMatrix) else two_field_dense(mat)


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


def integrate_states(model, spec, u0, T, record_every=1, states=None):
    """(record, states): `integrate` with each recorded state appended to `states` by the observer.

    Pass a list as `states` to keep the states of a run that raises.  Each state is the run's
    own array, held by reference: no step writes into a state it has made.
    """
    states = [] if states is None else states
    rec = integrate(model, spec, u0, T, record_every=record_every, observer=lambda n, t, u: states.append(u))
    return rec, states


def make_transformed_gap_observer(model, exps):
    """Track |H(e^{x1} u^{n+1}) - H(e^{x0} u^n)| per step via a closure."""
    e0, e1 = exps.factors[:2]
    prev = {}
    gaps = []

    def observer(step, t, state):
        if "u" in prev:
            gaps.append(abs(model.hamiltonian(e1 * state) - model.hamiltonian(e0 * prev["u"])))
        prev["u"] = state.copy()

    return observer, gaps


def make_window_defect_observer(model, exps):
    """Per-window |H~(b_t, c_t) - H~(a_t, b_t)| without storing the whole run."""
    e0, _, e2 = exps.factors
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
    the two-step machinery without any spatial operator.  Its energies take
    states stacked on leading axes, as `integrate` evaluates them per batch.
    """
    S = np.array([[0.0, 1.0], [-1.0, 0.0]])
    # the field S (u*u): at n = 2 the +1 offset wraps, covering both off-diagonal
    # entries, (0, 1) = row[0] and (1, 0) = row[1]
    field = quadratic_field(1.0, PeriodicBandedMatrix(2, (1,), [[1.0, -1.0]]))

    return ConformalModel(
        name="toy",
        dim=2,
        grid=None,
        gamma=0.0,
        gamma_eff=0.0,
        apply_S=lambda w: S @ w,
        grad_H=lambda u: u * u,
        hamiltonian=lambda u: np.sum(u**3, axis=-1) / 3.0,
        hamiltonian_paper=lambda u: np.sum(u**3, axis=-1) / 3.0,
        hamiltonian_rate=None,
        invariants=(),
        **field,
        polarized=PolarizedEnergy(
            evaluate=lambda v, w: np.sum(NODAL_CUBIC.evaluate(v, w), axis=-1) / 3.0,
            pdg=lambda u, v, w: NODAL_CUBIC.pdg(u, v, w) / 3.0,
        ),
        polarized_degree=3,
    )
