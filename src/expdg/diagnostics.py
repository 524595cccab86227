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
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BlowUpError
from . import integrators
from .system import ConformalModel, vector_field


@dataclass
class RunRecord:
    """Time series captured while a scheme marches a model, one entry per recorded step.

    polarized_transformed (two-step kinds) is H~(e^{x0} u^n, e^{x1} u^{n+1}), NaN where u^{n+1}
    was not made.  The states are not kept: `integrate` hands each one to its observer.
    newton_iterations and linear_solves are cumulative counts over the
    marching loop; the two-step bootstrap's solver work is excluded (it is
    charged to wall_clock_seconds only).
    """

    scheme_kind: str
    dt: float
    steps: np.ndarray
    times: np.ndarray
    invariant_series: dict
    hamiltonian_paper: np.ndarray
    polarized_transformed: Optional[np.ndarray]
    newton_iterations: np.ndarray
    linear_solves: np.ndarray
    final_state: np.ndarray
    n_steps: int
    realized_time: float
    wall_clock_seconds: float


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


def interval_widths(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    return np.diff(t)


def l2_distance(model: ConformalModel, a, b) -> float:
    dx = model.grid.spacing if model.grid is not None else 1.0
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return math.sqrt(dx * float(np.dot(d, d)))


def transformed_polarized_series(model, states, exps) -> np.ndarray:
    """H~(e^{x0} u^n, e^{x1} u^{n+1}) over consecutive pairs of states, evaluated on them stacked."""
    if model.polarized is None:
        raise ValueError(f"model {model.name} has no polarized energy")
    e0, e1 = exps.factors[:2]
    u = np.stack(states)
    return model.polarized.evaluate(e0 * u[:-1], e1 * u[1:])


def polarized_window_defect(model, states, exps) -> np.ndarray:
    """|H~(b_t, c_t) - H~(a_t, b_t)| per sliding window, each side evaluated on the stacked windows.

    Zero (to solver tolerance) for any scheme that is the discrete
    gradient of H~, independent of how degrees mix in H~.
    """
    if model.polarized is None:
        raise ValueError(f"model {model.name} has no polarized energy")
    if exps.x2 is None:
        raise ValueError("window defect needs two-step exponents")
    (e0, e1, e2), h = exps.factors, model.polarized.evaluate
    u = np.stack(states)
    middle = e1 * u[1:-1]
    return np.abs(h(middle, e2 * u[2:]) - h(e0 * u[:-2], middle))


def compensated_polarized_deviation(model, series, dt) -> float:
    """max_n |e^{p g t_n} W_n - W_0| / |W_0| for a homogeneous H~ of degree p.

    Only defined when every polarized term has the same homogeneity degree;
    mixed-degree models (KdV, NLS) have no single compensation rate.
    """
    if model.polarized_degree is None:
        raise ValueError(f"model {model.name} has no homogeneous polarized degree")
    w = np.asarray(series, dtype=float)
    n = np.flatnonzero(np.isfinite(w))  # each finite value keeps its own time n dt
    if n.size < 2:
        raise ValueError("need at least two finite polarized values")
    rate = model.polarized_degree * model.gamma_eff
    comp = w[n] * np.exp(rate * dt * n)
    return float(np.max(np.abs(comp - comp[0])) / abs(comp[0]))


def reference_solve(model: ConformalModel, u0, T: float, dt_ref: float) -> np.ndarray:
    """Endpoint of a classical fourth-order Runge-Kutta march of the full field."""
    if not (np.isfinite(dt_ref) and dt_ref > 0):
        raise ValueError(f"dt_ref must be positive, got {dt_ref}")
    if not (np.isfinite(T) and T >= 0):
        raise ValueError(f"T must be finite and >= 0, got {T}")
    n, exact = integrators.step_count(T, dt_ref)
    if not exact:
        n = max(int(math.ceil(T / dt_ref)), 1)
    h = T / max(n, 1)  # T = 0 takes no step
    u = np.array(u0, dtype=float)

    def f(state):
        return vector_field(model, state)

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


@dataclass(frozen=True)
class OrderFit:
    slope: Optional[float]
    dts: tuple
    errors: tuple
    floor_reached: bool


def observed_order(
    model: ConformalModel,
    kind: str,
    dts: Sequence[float],
    T: float,
    solver=None,
    scheme_variant: str = "canonical",
    u0=None,
    reference: Optional[np.ndarray] = None,
) -> OrderFit:
    """Least-squares slope of log endpoint error against log step size.

    The reference endpoint comes from reference_solve at dt <= min(dts)/50
    unless one is supplied.  When any error sits at the rounding floor
    the slope is meaningless and reported as None.
    """
    if len(dts) < 2:
        raise ValueError("need at least two step sizes")
    if u0 is None:
        raise ValueError("observed_order needs an initial state")
    if reference is None:
        n_ref = max(int(math.ceil(64.0 * T / min(dts))), 1)
        reference = reference_solve(model, u0, T, T / n_ref)
    errors = []
    for dt in sorted(dts, reverse=True):
        kwargs = {} if solver is None else {"solver": solver}
        spec = integrators.SchemeSpec(kind=kind, dt=dt, scheme_variant=scheme_variant, **kwargs)
        rec = integrators.integrate(model, spec, u0, T, record_every=max(1, rec_every(T, dt)))
        errors.append(l2_distance(model, rec.final_state, reference))
    dts_sorted = tuple(sorted(dts, reverse=True))
    scale = max(math.sqrt(float(np.dot(reference, reference))), 1.0)
    floor = any(e < 1e-12 * scale for e in errors)
    if floor or any(e == 0.0 for e in errors):
        return OrderFit(slope=None, dts=dts_sorted, errors=tuple(errors), floor_reached=True)
    slope = float(np.polyfit(np.log(dts_sorted), np.log(errors), 1)[0])
    return OrderFit(slope=slope, dts=dts_sorted, errors=tuple(errors), floor_reached=False)


def rec_every(T: float, dt: float) -> int:
    # recording cadence only affects memory here; keep roughly 50 rows
    return max(integrators.step_count(T, dt)[0] // 50, 1)
