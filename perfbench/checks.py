"""Output checks: a march whose outputs fail any of these counts as failed.

The checks recompute everything from the recorded series with plain numpy,
so they do not rely on expdg's own diagnostics.
"""

from __future__ import annotations

import math

import numpy as np

LINEAR_KINDS = ("ek1", "ek2", "lie", "kahan2_plain")  # one banded solve per step
TWO_STEP_KINDS = ("ek2", "lie", "kahan2_plain")
PLAIN_KINDS = ("imidpoint_plain", "avf_plain", "kahan2_plain")

# per model: the invariant that decays exactly like exp(-rate t), and rate /
# gamma for the PDE's damping coefficient gamma (NLS mass has degree 2)
DECAYING = {"burgers": ("mass", 2.0), "kdv": ("I1", 2.0), "nls": ("mass", 1.0)}

# bound on |R - expected| per recorded interval: rounding level for the
# exponential linearly implicit kinds. The Newton tolerance (1e-12, relative
# to the state) limits the Newton kinds, measured up to about 3e-11 for eavf
# on NLS. kahan2_plain has a parasitic root near -1 that its damping does
# not shrink: rounding in it grows like exp(rate t) against the decaying
# mass and alternates in sign, measured up to 2e-12 after 2000 Burgers steps
# at gamma 0.275. Both bounds stay far below the plain kinds' defect of
# about 7.6e-9 per step, so a plain kind that became exact still fails.
ROUNDING_KINDS = ("ek1", "ek2", "lie")
RESIDUAL_TOL = {"rounding": 1e-13, "other": 1e-10}


class CheckError(AssertionError):
    """A program output that contradicts what the scheme guarantees."""


def expected_residual(kind: str, rate: float, dt: float, n_steps) -> np.ndarray:
    """Residual ln(Q_{n+1}/Q_n) + rate*dt*steps an exact run produces.

    Exponential kinds decay exactly: zero.  On a degree-1 invariant the
    plain kinds apply the (1,1) Pade factor (1 - x/2)/(1 + x/2), x = rate*dt,
    once per step: an O(dt^3) defect per step that must not vanish.
    """
    steps = np.asarray(n_steps, dtype=float)
    if kind not in PLAIN_KINDS:
        return np.zeros_like(steps)
    x = rate * dt
    return steps * (math.log((1.0 - x / 2.0) / (1.0 + x / 2.0)) + x)


def check_decay(kind: str, series, times, steps, rate: float, dt: float) -> float:
    """Per-interval decay residual of the exactly decaying invariant.

    Returns the largest |R - expected|; raises CheckError past the bound.
    """
    q = np.asarray(series, dtype=float)
    t = np.asarray(times, dtype=float)
    if q.size < 2 or not np.all(np.isfinite(q)) or np.any(q[:-1] * q[1:] <= 0):
        raise CheckError(f"{kind}: decaying invariant not finite and of one sign")
    resid = np.log(q[1:] / q[:-1]) + rate * np.diff(t)
    gap = np.abs(resid - expected_residual(kind, rate, dt, np.diff(steps)))
    worst = float(np.max(gap))
    tol = RESIDUAL_TOL["rounding" if kind in ROUNDING_KINDS else "other"]
    if not worst <= tol:
        raise CheckError(f"{kind}: decay residual off by {worst:.3e} > {tol:.0e}")
    return worst


def check_counters(kind: str, n_steps: int, newton_iters: int, linear_solves: int) -> None:
    """Criterion 08 accounting of the marching loop's solver work."""
    if kind in LINEAR_KINDS:
        want = n_steps - 1 if kind in TWO_STEP_KINDS else n_steps
        if newton_iters != 0 or linear_solves != want:
            raise CheckError(
                f"{kind}: newton {newton_iters}, solves {linear_solves}; "
                f"want 0 and {want} for {n_steps} steps"
            )
    elif newton_iters < 1 or linear_solves != newton_iters:
        raise CheckError(
            f"{kind}: newton {newton_iters}, solves {linear_solves} for {n_steps} steps"
        )


def check_record(kind: str, model_name: str, gamma: float, record, n_steps: int) -> None:
    """Checks on a RunRecord returned by integrate."""
    if record.n_steps != n_steps or int(record.steps[-1]) != n_steps:
        raise CheckError(f"{kind}: record ends at step {record.steps[-1]}, want {n_steps}")
    if not np.all(np.isfinite(record.final_state)):
        raise CheckError(f"{kind}: non-finite final state")
    name, factor = DECAYING[model_name]
    check_decay(
        kind, record.invariant_series[name], record.times, record.steps, factor * gamma, record.dt
    )
    check_counters(
        kind, n_steps, int(record.newton_iterations[-1]), int(record.linear_solves[-1])
    )


def check_csv(
    kind: str, text: str, model_name: str, gamma: float, dt: float, n_steps: int, record_every: int
) -> None:
    """Checks on the CSV `expdg run --record-every <record_every>` wrote.

    One data row per recorded step: 0, every record_every-th step and the
    last, so n_steps + 1 rows at record_every 1.
    """
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    want = sorted(set(range(0, n_steps + 1, record_every)) | {n_steps})
    if len(rows) != len(want):
        raise CheckError(f"{kind}: {len(rows)} CSV data rows, want {len(want)}")
    col = {name: i for i, name in enumerate(header)}
    name, factor = DECAYING[model_name]
    cells = np.array([[float(r[col[c]]) for c in ("step", "t", name)] for r in rows])
    if not np.array_equal(cells[:, 0], want):
        raise CheckError(f"{kind}: CSV steps are not the recorded steps of 0..{n_steps}")
    check_decay(kind, cells[:, 2], cells[:, 1], cells[:, 0], factor * gamma, dt)
    last = rows[-1]
    check_counters(kind, n_steps, int(last[col["newton_iters"]]), int(last[col["linear_solves"]]))
