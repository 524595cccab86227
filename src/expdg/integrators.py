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
kind and `integrate` marches with it.  Only `Scheme.advance` applies the
prefactors: kernels step the rescaled states e^{X_k} u^k.  Every Kahan and
quadratic-field `lie` system is built by `system.kahan_system`.  The midpoint
and AVF kinds share one Newton kernel for y = a + dt (F(a, y) - gamma (a + y)/2):
the midpoint takes F = f((a + y)/2) (or the model's as-printed pair), AVF the
model's closed-form mean of f over the chord [a, y], `chord_average`, with
its Jacobian `chord_jacobian`.  `integrate` starts its Newton solve from
3u^n - 3u^{n-1} + u^{n-2} after step 2; bootstraps and `step` start from u^n.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import BlowUpError, NonConvergenceError, SingularMatrixError, UnsupportedModelError
from .linalg import NonlinearSolveSettings, newton_solve, solve_periodic_banded
from .system import ConformalModel, kahan_system


SCHEME_VARIANTS = ("canonical", "printed")  # printed: the midpoint kinds' as-printed nonlinearity


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
        if self.scheme_variant not in SCHEME_VARIANTS:
            raise ValueError(f"unknown scheme_variant {self.scheme_variant!r}")
        if self.scheme_variant == "printed" and SCHEMES[self.kind].kernel is not _midpoint:
            raise ValueError(f"scheme_variant 'printed' is for the midpoint kinds, not {self.kind!r}")


@dataclass(frozen=True)
class Exponents:
    x0: float
    x1: float
    x2: Optional[float] = None

    @cached_property
    def factors(self) -> tuple:
        """The prefactors e^{x_k}, one per exponent that is set; cached, as every step applies them."""
        return tuple(math.exp(x) for x in (self.x0, self.x1, self.x2) if x is not None)

    @cached_property
    def inverse_factors(self) -> tuple:
        """e^{-x_k} for the same exponents; `advance` scales a step's result by the last one it uses."""
        return tuple(math.exp(-x) for x in (self.x0, self.x1, self.x2) if x is not None)


class StepResult(NamedTuple):  # a tuple: built once per step
    state: np.ndarray
    newton_iterations: int
    linear_solves: int


def _scaled_solver(settings: NonlinearSolveSettings, ref: np.ndarray) -> NonlinearSolveSettings:
    # tolerance follows the state scale: Burgers states decay below 1e-11
    # over the preset horizon and an absolute tolerance would stall there
    scale = max(float(np.abs(ref).max()), 1e-30)
    return NonlinearSolveSettings(settings.tolerance * scale, settings.max_iterations)


def _implicit_step(model, a, dt, gamma, spec, pair, guess=None):
    """Newton solve of y = a + dt (F(a, y) - gamma (a + y)/2), with (F, F_y) = pair(model, spec).

    F is the kind's mean of the field f over the chord [a, y] and F_y its Jacobian in y, so the
    Newton matrix is (1 + dt gamma/2) I - dt F_y(a, y).  Newton starts from `guess` (default a);
    the tolerance scales with a either way.
    """
    field, jacobian = pair(model, spec)
    diag = 1.0 + dt * gamma / 2.0

    def residual(y):
        rhs = field(a, y)
        if gamma:
            rhs = rhs - gamma * 0.5 * (y + a)
        return y - a - dt * rhs

    y, iters = newton_solve(residual, lambda y: ((-dt) * jacobian(a, y)).shift(diag),
                            a if guess is None else guess, _scaled_solver(spec.solver, a))
    return y, iters, iters


def _midpoint_pair(model, spec):
    """f at the midpoint and half its Jacobian there, or the model's as-printed midpoint pair."""
    if spec.scheme_variant == "canonical":
        return (lambda a, y: model.conservative_field(0.5 * y + 0.5 * a),
                lambda a, y: 0.5 * model.jacobian_conservative(0.5 * y + 0.5 * a))
    if model.printed_midpoint_field is None:
        raise UnsupportedModelError(f"model {model.name} has no as-printed midpoint nonlinearity")
    return model.printed_midpoint_field, model.printed_midpoint_jacobian


def _avf_pair(model, spec):
    """The mean of f over the chord and its Jacobian, in the model's closed form."""
    return model.chord_average, model.chord_jacobian


def _kahan1_step(model, a, dt, gamma, spec=None):
    mat, rhs = kahan_system(model, a, a, dt, (0.0, 0.0, 1.0), (0.5, 0.0, 0.5), gamma)
    return solve_periodic_banded(mat, rhs), 0, 1


def _kahan2_step(model, a, b, dt, gamma, spec=None):
    mat, rhs = kahan_system(model, a, b, 2.0 * dt, (0.5, 0.0, 0.5), (0.25, 0.5, 0.25), gamma)
    return solve_periodic_banded(mat, rhs), 0, 1


def _lie_step(model, a, b, dt, gamma, spec=None):
    if model.lie_system_builder is None:
        raise UnsupportedModelError(f"model {model.name} has no polarized linear system")
    mat, rhs, decode = model.lie_system_builder(a, b, dt)
    return decode(solve_periodic_banded(mat, rhs)), 0, 1


@dataclass(frozen=True)
class Scheme:
    """One row of the scheme table.

    exponential: the damping goes into the prefactors e^{X}, else it stays in the field.
    two_step: the kernel maps (u^{n-1}, u^n) to u^{n+1}.  kernel(model, *window, dt, gamma,
    spec) takes one step on the rescaled window e^{X_k} u^k and returns (rescaled next
    state, Newton iterations, linear solves), with gamma the damping rate left in the field;
    `advance` applies the prefactors, so no kernel sees them, and rescales a Newton kernel's
    guess of u^{n+1} alike.  bootstrap: the one-step companion that produces u^1 for a
    two-step scheme.
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

    def advance(self, model, spec, window, exps=None, guess=None) -> StepResult:
        if len(window) != 1 + self.two_step:
            raise ValueError(f"{spec.kind!r} steps from {1 + self.two_step} states, got {len(window)}")
        exps = exps or self.exponents(model.gamma_eff, spec.dt)
        gamma = 0.0 if self.exponential else model.gamma_eff
        # 1.0 * u == u, so a unit prefactor is skipped: kernels never write into the window and return new arrays
        scaled = [u if e == 1.0 else e * u for e, u in zip(exps.factors, window)]
        extra = {} if guess is None else {"guess": exps.factors[len(window)] * guess}  # Newton kinds only
        state, newton_iterations, linear_solves = self.kernel(model, *scaled, spec.dt, gamma, spec, **extra)
        scale = exps.inverse_factors[len(window)]
        return StepResult(state if scale == 1.0 else scale * state, newton_iterations, linear_solves)


_midpoint = partial(_implicit_step, pair=_midpoint_pair)
_avf = partial(_implicit_step, pair=_avf_pair)
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

    The companion solves to a Newton tolerance of at most 1e-13 (the start
    of a two-step march must be accurate).
    """
    companion = SCHEMES[spec.kind].bootstrap
    if companion is None:
        raise ValueError(f"{spec.kind!r} is not a two-step kind")
    solver = replace(spec.solver, tolerance=min(spec.solver.tolerance, 1e-13))
    return companion.advance(model, replace(spec, solver=solver), (u0,))


# bytes of recorded states that integrate holds before it evaluates their
# series, one call per series: no call is handed more states than fit in it
_BATCH_BYTES = 1 << 16


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
    observer=None,
):
    """March u0 over [0, T] with the scheme in `spec`; returns a RunRecord.

    T must be an integer multiple of spec.dt to within 1e-9 relative.  The
    initial state, every record_every-th step, and the final step are
    recorded.  From step 3 on, a Newton kind starts from 3u^n - 3u^{n-1} + u^{n-2}, so a
    marched step differs from `step` on the same state by at most the Newton tolerance.
    Solver failures, singular systems and blow-ups raise with the
    partial record up to the last finite state attached to the exception.
    observer(step, time, state) is called per recorded state as it is recorded.  state is the
    run's own array, held by reference until the invariants and energies are evaluated on its
    batch of recorded states: the observer may keep it, but must not write into it.
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

    scheme = SCHEMES[spec.kind]
    two_step = scheme.two_step
    exps = scheme.exponents(model.gamma_eff, dt)
    polarized = model.polarized.evaluate if two_step and model.polarized is not None else None

    rows: list = []  # (step, time, Newton iterations, linear solves) per recorded state
    inv_rec: dict = {inv.name: [] for inv in model.invariants}
    ham_rec: list = []
    pol_rec: list = []  # one value per recorded step whose successor exists, in row order
    # (extend, callable) per series evaluated on the recorded states, in order
    series = [(inv_rec[inv.name].extend, inv.evaluate) for inv in model.invariants]
    series.append((ham_rec.extend, model.hamiltonian_paper))
    add_row = rows.append
    newton_total = 0
    solves_total = 0
    wall = 0.0
    # every step returns a new array, so the recorded states are held by reference
    batch = max(1, _BATCH_BYTES // u.nbytes)
    pending: list = []  # recorded states whose series are not evaluated yet
    pairs: list = []  # (u^n, u^{n+1}) per recorded step n whose polarized value is not evaluated yet

    def flush():
        """Evaluate each series once on the stacked pending states and each polarized pair."""
        if pending:
            stacked = np.stack(pending)
            for extend, evaluate in series:
                extend(evaluate(stacked).tolist())
            pending.clear()
        if pairs:
            before, after = zip(*pairs)
            pol_rec.extend(polarized(e0 * np.stack(before), e1 * np.stack(after)).tolist())
            pairs.clear()

    def record(n, state):
        add_row((n, n * dt, newton_total, solves_total))
        pending.append(state)
        if observer is not None:
            observer(n, n * dt, state)
        if len(pending) == batch:  # a pair follows its row, so pairs never outnumber batch either
            flush()

    def build_record(final_state):
        flush()
        steps, times, newton, solves = zip(*rows)
        return RunRecord(
            scheme_kind=spec.kind,
            dt=dt,
            steps=np.asarray(steps, dtype=int),
            times=np.asarray(times, dtype=float),
            invariant_series={k: np.asarray(v) for k, v in inv_rec.items()},
            hamiltonian_paper=np.asarray(ham_rec),
            # NaN for a row without a successor: the last one, of a finished or a failed run
            polarized_transformed=(
                None if polarized is None else np.asarray(pol_rec + [math.nan] * (len(rows) - len(pol_rec)))
            ),
            newton_iterations=np.asarray(newton, dtype=int),
            linear_solves=np.asarray(solves, dtype=int),
            final_state=final_state,
            n_steps=n_steps,
            realized_time=n_steps * dt,
            wall_clock_seconds=wall,
        )

    clock, advance = time.perf_counter, scheme.advance
    e0, e1 = exps.factors[:2]
    record(0, u)
    prev = None  # u^{n-1}; a two-step kind bootstraps while it is None
    prev2 = None  # u^{n-2}; a Newton kind predicts its step once it is set
    predicts = scheme.kernel in (_midpoint, _avf)
    step_index = 0
    try:
        while step_index < n_steps:
            tic = clock()
            if two_step and prev is None:
                res = bootstrap(model, u, spec)
            else:
                guess = 3.0 * (u - prev) + prev2 if predicts and prev2 is not None else None
                res = advance(model, spec, (prev, u) if two_step else (u,), exps, guess)
                # counters attribute solver work to the scheme kind itself; the
                # one-off bootstrap cost stays in the wall clock but not here,
                # so a linearly implicit run reports zero Newton iterations
                newton_total += res.newton_iterations
                solves_total += res.linear_solves
            wall += clock() - tic
            step_index += 1
            if not np.isfinite(res.state).all():
                t = step_index * dt
                raise BlowUpError(f"state became non-finite at step {step_index}", step=step_index, time=t)
            prev2, prev, u = prev, u, res.state
            if polarized is not None and rows[-1][0] == step_index - 1:
                pairs.append((prev, u))
            if step_index == n_steps or step_index % record_every == 0:
                record(step_index, u)
    except (NonConvergenceError, BlowUpError, SingularMatrixError) as exc:
        if exc.partial is None:
            exc.partial = build_record(u)
        raise

    return build_record(u)
