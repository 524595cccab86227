"""Time-stepping schemes for conformal Hamiltonian systems.

Exponential kinds integrate the linear damping exactly through scalar
prefactors e^{X_alpha} applied to the states; their implicit equations only
involve the conservative field.  Plain kinds keep the damping inside the
vector field.  Two-step kinds advance a sliding overlapping window
(u^n, u^{n+1}) -> u^{n+2} so every time level gets a state.

Exponent magnitudes follow from requiring exactness on grad_H = 0:
one-step (X0, X1) = (-g dt/2, +g dt/2), two-step (X0, X1, X2) =
(-g dt, 0, +g dt) with g the effective damping rate.

Every kind is one row of the SCHEMES table (exponential or plain, one- or
two-step, step kernel, bootstrap companion); `step` takes one step of any
kind and `integrate` marches with it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import BlowUpError, NonConvergenceError, SingularMatrixError, UnsupportedModelError
from .linalg import NonlinearSolveSettings, gauss_legendre_2, newton_solve, solve_periodic_banded
from .spatial import diagonal
from .system import ConformalModel


@dataclass(frozen=True)
class SchemeSpec:
    kind: str
    dt: float
    solver: NonlinearSolveSettings = field(default_factory=NonlinearSolveSettings)
    scheme_variant: str = "canonical"

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.scheme_variant not in ("canonical", "printed"):
            raise ValueError(f"unknown scheme_variant {self.scheme_variant!r}")
        if self.scheme_variant == "printed" and SCHEMES[self.kind].kernel is not _midpoint:
            raise ValueError(f"scheme_variant 'printed' is for the midpoint kinds, not {self.kind!r}")


@dataclass(frozen=True)
class Exponents:
    x0: float
    x1: float
    x2: Optional[float] = None


@dataclass(frozen=True)
class StepResult:
    state: np.ndarray
    newton_iterations: int
    linear_solves: int


def _scaled_solver(settings: NonlinearSolveSettings, ref: np.ndarray) -> NonlinearSolveSettings:
    # tolerance follows the state scale: Burgers states decay below 1e-11
    # over the preset horizon and an absolute tolerance would stall there
    scale = max(float(np.max(np.abs(ref))), 1e-30)
    return replace(settings, tolerance=settings.tolerance * scale)


# quadrature rules (nodes, weights) on [0, 1] for the chord average of the
# field: the midpoint is the one-node Gauss rule, AVF uses two nodes, which
# is exact for the cubic fields of the models
_MIDPOINT = ((0.5,), (1.0,))
_AVF = gauss_legendre_2()


def _implicit_step(model, u_n, dt, exps, gamma, spec, rule):
    """Newton solve of y = a + dt * sum_k w_k f(xi_k y + (1 - xi_k) a).

    The midpoint rule in the printed variant uses the model's as-printed
    nonlinearity instead of f at the midpoint.
    """
    at = math.exp(exps.x0) * u_n
    back = math.exp(-exps.x1)
    printed = spec.scheme_variant == "printed"  # midpoint kinds only
    if printed and model.printed_midpoint_field is None:
        raise UnsupportedModelError(
            f"model {model.name} has no as-printed midpoint nonlinearity"
        )
    nodes, weights = rule
    at_packed = model.pack(at)

    def residual(y_packed):
        y = model.unpack(y_packed)
        if printed:
            rhs = model.printed_midpoint_field(at, y)
        else:
            rhs = np.zeros_like(y)
            for xi, w in zip(nodes, weights):
                rhs += w * model.conservative_field(xi * y + (1.0 - xi) * at)
        if gamma:
            rhs = rhs - gamma * 0.5 * (y + at)
        return y_packed - at_packed - dt * model.pack(rhs)

    def jacobian(y_packed):
        y = model.unpack(y_packed)
        mat = diagonal(model.dim, 1.0 + (dt * gamma / 2.0 if gamma else 0.0))
        if printed:
            return mat + (-dt) * model.printed_midpoint_jacobian(at, y)
        for xi, w in zip(nodes, weights):
            mat = mat + (-dt * w * xi) * model.jacobian_conservative(xi * y + (1.0 - xi) * at)
        return mat

    y, iters = newton_solve(residual, jacobian, at_packed, _scaled_solver(spec.solver, at))
    return StepResult(back * model.unpack(y), iters, iters)


def _require_bilinear(model):
    if model.quadratic_bilinear is None or model.quadratic_matrix is None:
        raise UnsupportedModelError(
            f"model {model.name} has no quadratic conservative field for Kahan steps"
        )


def _kahan1_step(model, u_n, dt, exps, gamma, spec=None):
    _require_bilinear(model)
    at = math.exp(exps.x0) * u_n
    back = math.exp(-exps.x1)
    mat = diagonal(model.dim, 1.0 / dt + gamma / 2.0) + (-1.0) * model.quadratic_matrix(at)
    rhs = at / dt
    linear = model.linear_operator
    if linear is not None:
        mat = mat + (-0.5) * linear
        rhs = rhs + 0.5 * linear.apply(at)
    if gamma:
        rhs = rhs - gamma / 2.0 * at
    bt = solve_periodic_banded(mat, rhs)
    return StepResult(back * bt, 0, 1)


def _kahan2_step(model, u_n, u_np1, dt, exps, gamma, spec=None):
    _require_bilinear(model)
    at = math.exp(exps.x0) * u_n
    bt = math.exp(exps.x1) * u_np1
    back = math.exp(-exps.x2)
    mat = diagonal(model.dim, 1.0 / (2.0 * dt) + gamma / 4.0) + (-0.5) * model.quadratic_matrix(bt)
    rhs = at / (2.0 * dt) + 0.5 * model.quadratic_bilinear(bt, at)
    linear = model.linear_operator
    if linear is not None:
        mat = mat + (-0.25) * linear
        rhs = rhs + 0.25 * linear.apply(at + 2.0 * bt)
    if gamma:
        rhs = rhs - gamma / 4.0 * (at + 2.0 * bt)
    ct = solve_periodic_banded(mat, rhs)
    return StepResult(back * ct, 0, 1)


def _lie_step(model, u_n, u_np1, dt, exps, gamma, spec=None):
    if model.lie_system_builder is None:
        raise UnsupportedModelError(f"model {model.name} has no polarized linear system")
    mat, rhs, decode = model.lie_system_builder(u_n, u_np1, dt, exps)
    return StepResult(decode(solve_periodic_banded(mat, rhs)), 0, 1)


@dataclass(frozen=True)
class Scheme:
    """One row of the scheme table.

    exponential: the damping goes into the prefactors e^{X}, else it stays
    in the field.  two_step: the kernel maps (u^{n-1}, u^n) to u^{n+1}.
    kernel(model, *window, dt, exps, gamma, spec) takes one step, with gamma
    the damping rate left in the field.  bootstrap: the one-step companion
    that produces u^1 for a two-step scheme.
    """

    exponential: bool
    two_step: bool
    kernel: Callable
    bootstrap: Optional["Scheme"] = None

    def exponents(self, gamma_eff: float, dt: float) -> Exponents:
        if not self.exponential:
            return Exponents(0.0, 0.0, 0.0 if self.two_step else None)
        if self.two_step:
            return Exponents(-gamma_eff * dt, 0.0, gamma_eff * dt)
        return Exponents(-gamma_eff * dt / 2.0, gamma_eff * dt / 2.0)

    def advance(self, model, spec, window, exps=None) -> StepResult:
        if len(window) != 1 + self.two_step:
            raise ValueError(f"{spec.kind!r} steps from {1 + self.two_step} states, got {len(window)}")
        exps = exps or self.exponents(model.gamma_eff, spec.dt)
        gamma = 0.0 if self.exponential else model.gamma_eff
        return self.kernel(model, *window, spec.dt, exps, gamma, spec)


_midpoint = partial(_implicit_step, rule=_MIDPOINT)
_avf = partial(_implicit_step, rule=_AVF)
_CIMP = Scheme(True, False, _midpoint)
_EK1 = Scheme(True, False, _kahan1_step)
# kind -> Scheme(exponential, two_step, kernel, bootstrap)
SCHEMES = {
    "cimp": _CIMP,
    "eavf": Scheme(True, False, _avf),
    "ek1": _EK1,
    "ek2": Scheme(True, True, _kahan2_step, bootstrap=_EK1),
    "lie": Scheme(True, True, _lie_step, bootstrap=_CIMP),
    "imidpoint_plain": Scheme(False, False, _midpoint),
    "avf_plain": Scheme(False, False, _avf),
    "kahan2_plain": Scheme(False, True, _kahan2_step, bootstrap=Scheme(False, False, _kahan1_step)),
}


def exponents(kind: str, gamma_eff: float, dt: float) -> Exponents:
    if kind not in SCHEMES:
        raise ValueError(f"unknown scheme kind {kind!r}")
    return SCHEMES[kind].exponents(gamma_eff, dt)


def step(model, spec: SchemeSpec, *window, exps: Optional[Exponents] = None) -> StepResult:
    """One step of spec.kind from (u^n,), or (u^{n-1}, u^n) for two-step kinds."""
    return SCHEMES[spec.kind].advance(model, spec, window, exps)


def bootstrap(model, u0, spec: SchemeSpec) -> StepResult:
    """Produce u^1 for a two-step scheme from its one-step companion.

    The companion solves in the canonical variant, to a Newton tolerance of
    at most 1e-13 (the start of a two-step march must be accurate).
    """
    companion = SCHEMES[spec.kind].bootstrap
    if companion is None:
        raise ValueError(f"{spec.kind!r} is not a two-step kind")
    solver = replace(spec.solver, tolerance=min(spec.solver.tolerance, 1e-13))
    return companion.advance(model, replace(spec, solver=solver, scheme_variant="canonical"), (u0,))


def step_count(T: float, dt: float) -> tuple[int, bool]:
    """The number n of steps dt nearest to the horizon T, and whether n*dt is T to 1e-9 relative."""
    n = int(round(T / dt))
    return n, abs(n * dt - T) <= 1e-9 * max(abs(T), dt)


def integrate(
    model: ConformalModel,
    spec: SchemeSpec,
    u0: np.ndarray,
    T: float,
    record_every: int = 10,
    store_states: bool = False,
    observer=None,
):
    """March u0 over [0, T] with the scheme in `spec`; returns a RunRecord.

    T must be an integer multiple of spec.dt to within 1e-9 relative.  The
    initial state, every record_every-th step, and the final step are
    recorded.  Solver failures, singular systems and blow-ups raise with the
    partial record up to the last finite state attached to the exception.
    """
    from .diagnostics import RunRecord  # deferred: diagnostics imports this module

    dt = spec.dt
    n_steps, exact = step_count(T, dt)
    if not exact:
        raise ValueError(f"T={T} is not an integer multiple of dt={dt}")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")

    u = np.array(u0, dtype=float)
    if u.shape != (model.dim,):
        raise ValueError(f"initial state has shape {u.shape}, expected ({model.dim},)")

    two_step = SCHEMES[spec.kind].two_step
    exps = SCHEMES[spec.kind].exponents(model.gamma_eff, dt)
    track_polarized = two_step and model.polarized is not None
    e_x0 = math.exp(exps.x0) if track_polarized else None
    e_x1 = math.exp(exps.x1) if track_polarized else None

    steps_rec: list = []
    times_rec: list = []
    inv_rec: dict = {inv.name: [] for inv in model.invariants}
    ham_rec: list = []
    pol_rec: list = []
    newton_rec: list = []
    solves_rec: list = []
    states_rec: list = []
    newton_total = 0
    solves_total = 0
    wall = 0.0

    def record(n, state):
        steps_rec.append(n)
        times_rec.append(n * dt)
        for inv in model.invariants:
            inv_rec[inv.name].append(inv.evaluate(state))
        ham_rec.append(model.hamiltonian_paper(state))
        if track_polarized:
            pol_rec.append(math.nan)  # filled once the next state exists
        newton_rec.append(newton_total)
        solves_rec.append(solves_total)
        if store_states:
            states_rec.append(state.copy())
        if observer is not None:
            observer(n, n * dt, state)

    def build_record(final_state):
        return RunRecord(
            scheme_kind=spec.kind,
            dt=dt,
            steps=np.asarray(steps_rec, dtype=int),
            times=np.asarray(times_rec, dtype=float),
            invariant_series={k: np.asarray(v) for k, v in inv_rec.items()},
            hamiltonian_paper=np.asarray(ham_rec),
            polarized_transformed=np.asarray(pol_rec) if track_polarized else None,
            newton_iterations=np.asarray(newton_rec, dtype=int),
            linear_solves=np.asarray(solves_rec, dtype=int),
            final_state=final_state,
            n_steps=n_steps,
            realized_time=n_steps * dt,
            wall_clock_seconds=wall,
            states=states_rec if store_states else None,
        )

    record(0, u)
    prev = None  # u^{n-1}; a two-step kind bootstraps while it is None
    step_index = 0
    try:
        while step_index < n_steps:
            tic = time.perf_counter()
            if two_step and prev is None:
                res = bootstrap(model, u, spec)
            else:
                res = step(model, spec, *((prev, u) if two_step else (u,)), exps=exps)
                # counters attribute solver work to the scheme kind itself; the
                # one-off bootstrap cost stays in the wall clock but not here,
                # so a linearly implicit run reports zero Newton iterations
                newton_total += res.newton_iterations
                solves_total += res.linear_solves
            wall += time.perf_counter() - tic
            step_index += 1
            if not np.all(np.isfinite(res.state)):
                t = step_index * dt
                raise BlowUpError(f"state became non-finite at step {step_index}", step=step_index, time=t)
            prev, u = u, res.state
            if track_polarized and steps_rec[-1] == step_index - 1:
                pol_rec[-1] = model.polarized.evaluate(e_x0 * prev, e_x1 * u)
            if step_index == n_steps or step_index % record_every == 0:
                record(step_index, u)
    except (NonConvergenceError, BlowUpError, SingularMatrixError) as exc:
        if exc.partial is None:
            exc.partial = build_record(u)
        raise

    return build_record(u)
