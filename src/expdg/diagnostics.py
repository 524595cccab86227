"""Dissipation-rate diagnostics and convergence measurement.

The central quantity is the per-interval residual
    R_n = ln(Q_{n+1}/Q_n) + lambda * delta_t
which is zero exactly when the functional Q decays at rate lambda across
the interval.  Entries where the log-ratio is undefined (sign change or
magnitude below 1e-300) are reported as NaN and serialized as empty CSV
cells by the command-line layer.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import BlowUpError
from . import integrators
from .integrators import RunRecord  # re-exported: callers and tools read it here
from .system import ConformalModel


def residual_series(values, rate, dt):
    """R_n = ln(Q_{n+1}/Q_n) + rate*dt, NaN where the ratio is invalid.

    dt may be a scalar interval or an array of per-interval widths (the
    last recorded interval of a run is usually shorter).
    """
    q = np.asarray(values, dtype=float)
    if q.ndim != 1 or q.size < 2:
        raise ValueError("need a 1-d series with at least two entries")
    lam = 0.0 if rate is None else rate  # None: raw log-ratio
    q0, q1 = q[:-1], q[1:]
    out = np.full(q.size - 1, np.nan)
    valid = (q0 * q1 > 0) & (np.abs(q0) > 1e-300) & (np.abs(q1) > 1e-300)
    gaps = np.broadcast_to(np.asarray(dt, dtype=float), out.shape)
    out[valid] = np.log(q1[valid] / q0[valid]) + lam * gaps[valid]
    return out


def l2_distance(model: ConformalModel, a, b) -> float:
    dx = model.grid.spacing if model.grid is not None else 1.0
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return math.sqrt(dx * float(np.dot(d, d)))


def polarized_window_defect(model, states, prefactors) -> np.ndarray:
    """|H~(b_t, c_t) - H~(a_t, b_t)| per sliding window, each side evaluated on the stacked windows.

    prefactors are a two-step kind's (e^{X_0}, e^{X_1}, e^{X_2}).  Zero (to solver tolerance) for any
    scheme that is the discrete gradient of H~, independent of how degrees mix in H~.
    """
    if model.polarized is None:
        raise ValueError(f"model {model.name} has no polarized energy")
    if len(prefactors) != 3:
        raise ValueError("window defect needs two-step prefactors")
    (e0, e1, e2), h = prefactors, model.polarized.evaluate
    u = np.stack(states)
    middle = e1 * u[1:-1]
    return np.abs(h(middle, e2 * u[2:]) - h(e0 * u[:-2], middle))


def compensated_polarized_deviation(model, series, dt) -> float:
    """max_n |e^{p g t_n} W_n - W_0| / |W_0| for a homogeneous H~ of degree p.

    Only defined when every polarized term has the same homogeneity degree;
    mixed-degree models (KdV, NLS) have no single compensation rate.
    """
    if model.degree is None:
        raise ValueError(f"model {model.name} has no homogeneous polarized degree")
    w = np.asarray(series, dtype=float)
    n = np.flatnonzero(np.isfinite(w))  # each finite value keeps its own time n dt
    if n.size < 2:
        raise ValueError("need at least two finite polarized values")
    rate = model.degree * model.gamma_eff
    comp = w[n] * np.exp(rate * dt * n)
    return float(np.max(np.abs(comp - comp[0])) / abs(comp[0]))


def reference_solve(model: ConformalModel, u0, T: float, dt_ref: float) -> np.ndarray:
    """Endpoint of a classical fourth-order Runge-Kutta march of the full field."""
    if not (np.isfinite(dt_ref) and dt_ref > 0):
        raise ValueError(f"dt_ref must be positive, got {dt_ref}")
    n, exact = integrators.step_count(T, dt_ref)
    if not exact:
        n = max(int(math.ceil(T / dt_ref)), 1)
    h = T / max(n, 1)  # T = 0 takes no step
    u = integrators.as_state(model, u0)
    field, gamma = model.conservative_field, model.gamma_eff

    def f(state):  # the full field S grad_H - gamma_eff u; the step checks each state it makes
        return field(state) - gamma * state

    for k in range(n):
        k1 = f(u)
        k2 = f(u + 0.5 * h * k1)
        k3 = f(u + 0.5 * h * k2)
        k4 = f(u + h * k3)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(u)):
            raise BlowUpError(
                f"reference solve became non-finite at step {k + 1}",
                step=k + 1,
                time=(k + 1) * h,
            )
    return u


def observed_order(
    model: ConformalModel,
    kind: str,
    dts: Sequence[float],
    T: float,
    u0,
    reference: Optional[np.ndarray] = None,
) -> Optional[float]:
    """Least-squares slope of log endpoint error against log step size.

    The reference endpoint comes from reference_solve at dt <= min(dts)/64
    unless one is supplied.  When any error sits at the rounding floor
    the slope is meaningless and None is returned.
    """
    if len(dts) < 2:
        raise ValueError("need at least two step sizes")
    if reference is None:
        n_ref = max(int(math.ceil(64.0 * T / min(dts))), 1)
        reference = reference_solve(model, u0, T, T / n_ref)
    errors = []
    dts_sorted = sorted(dts, reverse=True)
    for dt in dts_sorted:
        # only the final state is read: record the first and last rows
        every = max(integrators.step_count(T, dt)[0], 1)
        rec = integrators.integrate(model, integrators.SchemeSpec(kind, dt), u0, T, record_every=every)
        errors.append(l2_distance(model, rec.final_state, reference))
    scale = max(math.sqrt(float(np.dot(reference, reference))), 1.0)
    if any(e < 1e-12 * scale for e in errors):
        return None
    return float(np.polyfit(np.log(dts_sorted), np.log(errors), 1)[0])
