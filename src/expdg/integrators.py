"""Time-stepping schemes for conformal Hamiltonian systems.

Exponential kinds integrate the linear damping exactly through scalar
prefactors e^{X_alpha} applied to the states; their implicit equations only
involve the conservative field.  Plain kinds keep the damping inside the
vector field.  Two-step kinds advance a sliding overlapping window
(u^n, u^{n+1}) -> u^{n+2} so every time level gets a state.

Exponent magnitudes follow from requiring exactness on grad_H = 0:
one-step (X0, X1) = (-g dt/2, +g dt/2), two-step (X0, X1, X2) =
(-g dt, 0, +g dt) with g the effective damping rate.  `Scheme.prefactors` gives
them as the tuple (e^{X0}, e^{X1}[, e^{X2}]) that `bind` returns and every step reads.

Every kind is one row of the SCHEMES table (exponential or plain, one- or
two-step, step kernel, bootstrap companion); `step` takes one step of any
kind and `integrate` marches with it.  Only `Scheme.advance` applies the
prefactors: kernels step the rescaled states e^{X_k} u^k.  Every Kahan and
quadratic-field `lie` system is built by `system.kahan_system`, and every linearly
implicit kernel returns decode(solve(mat, rhs)) of its (mat, rhs, decode): the
two-step rows solve for u^{n+1} + u^{n-1}, so no operator acts on u^{n-1}.  The midpoint
and AVF kinds share one Newton kernel for y = a + dt (F(a, y) - gamma (a + y)/2):
the midpoint takes F = f((a + y)/2) (or the model's own midpoint pair), AVF the
model's closed-form mean of f over the chord [a, y], `chord_average`, with
its Jacobian `chord_jacobian`.  A Newton iterate forms its midpoint once, for its residual
and for its matrix, built only when a Newton step follows.  Every matrix a step solves is one
new coefficient array: the Newton matrix one scaled `shift` of the fresh Jacobian, a Kahan
matrix the fresh `quadratic_matrix` with its diagonal added in place.  A step
writes only into the new arrays made for it.  `integrate` starts its Newton solve from
3u^n - 3u^{n-1} + u^{n-2} after step 2; bootstraps and `step` start from u^n.  No kernel
checks the model: `bind` refuses, before any step, a model that lacks a field the kind calls.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import BlowUpError, ExpdgError, UnsupportedModelError
from .linalg import newton_solve, solve_periodic_banded
from .system import ConformalModel, kahan_system


@dataclass(frozen=True)
class SchemeSpec:
    kind: str
    dt: float
    newton_tol: float = 1e-12
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise ValueError(f"unknown scheme kind {self.kind!r} (known: {', '.join(SCHEMES)})")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not math.isfinite(1.0 / self.dt):  # the Kahan and lie systems divide by dt
            raise ValueError(f"dt must have a finite reciprocal, got {self.dt}")
        if not (np.isfinite(self.newton_tol) and self.newton_tol > 0):
            raise ValueError(f"newton_tol must be finite and positive, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError(f"newton_max_iter must be >= 1, got {self.newton_max_iter}")


class StepResult(NamedTuple):  # a tuple: built once per step
    state: np.ndarray
    newton_iterations: int
    linear_solves: int


def _implicit_step(model, a, dt, gamma, spec, guess=None, *, terms):
    """Newton solve of y = a + dt (F(a, y) - gamma (a + y)/2), with (point, field, jacobian, w) = terms(model).

    F = field(*point(a, y)) is the kind's mean of the field f over the chord [a, y], and its Jacobian in y
    is F_y = w jacobian(*point(a, y)).  `linearize` forms the point once per Newton iterate, for the
    residual and for the Newton matrix (1 + dt gamma/2) I - dt w jacobian, which `newton_solve` builds only
    when a Newton step follows.  `shift` builds it in one new array from the fresh Jacobian.
    Newton starts from `guess` (default a) and stops at residual newton_tol * (1 + dt gamma/2) max|a|.
    """
    point, field, jacobian, weight = terms(model)
    diag = 1.0 + dt * gamma / 2.0
    # relative to the size of the terms: an absolute tolerance stalls on the Burgers decay below
    # 1e-11, and at stiff damping the rounding of dt gamma (a + y)/2 grows with diag
    scale = diag * max(float(np.abs(a).max()), 1e-30)

    def linearize(y):
        at = point(a, y)
        rhs = field(*at)
        if gamma:
            rhs = rhs - gamma * 0.5 * (y + a)
        # -dt w is exact for w = 1/2 or 1: (-dt w) J is (-dt)(w J)
        return y - a - dt * rhs, lambda: jacobian(*at).shift(diag, -dt * weight)

    y, iters = newton_solve(linearize, a if guess is None else guess, spec.newton_tol, spec.newton_max_iter, scale)
    return y, iters, iters


def _at_midpoint(a, y):
    return (0.5 * y + 0.5 * a,)


def _on_chord(a, y):
    return a, y


def _midpoint_terms(model):
    """f and J at the midpoint with w = 1/2, or the model's own midpoint pair (F, F_y) on the chord with w = 1."""
    if model.midpoint_pair is None:
        return _at_midpoint, model.conservative_field, model.jacobian_conservative, 0.5
    return (_on_chord, *model.midpoint_pair, 1.0)


def _kahan1_step(model, a, dt, gamma, spec=None):
    mat, rhs, decode = kahan_system(model, a, a, dt, (0.0, 0.0, 1.0), (0.5, 0.0, 0.5), gamma)
    return decode(solve_periodic_banded(mat, rhs)), 0, 1


def _kahan2_step(model, a, b, dt, gamma, spec=None):
    mat, rhs, decode = kahan_system(model, a, b, 2.0 * dt, (0.5, 0.0, 0.5), (0.25, 0.5, 0.25), gamma)
    return decode(solve_periodic_banded(mat, rhs)), 0, 1


def _lie_step(model, a, b, dt, gamma, spec=None):
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
    guess of u^{n+1} alike, passed after spec.  bootstrap: the one-step companion that
    produces u^1 for a two-step scheme.  needs: the optional model fields its kernel and bootstrap call.
    """

    exponential: bool
    two_step: bool
    kernel: Callable
    bootstrap: Optional["Scheme"] = None
    needs: tuple = ()

    def prefactors(self, gamma_eff: float, dt: float) -> tuple:
        """The row's prefactors (e^{X_0}, e^{X_1}[, e^{X_2}]) at (gamma_eff, dt); ValueError when one overflows."""
        if not self.exponential:
            return (1.0,) * (2 + self.two_step)
        g = gamma_eff * dt
        try:
            factors = tuple(map(math.exp, (-g, 0.0, g) if self.two_step else (-g / 2.0, g / 2.0)))
            if all(map(math.isfinite, factors)):
                return factors
        except OverflowError:  # math.exp raises on a finite overflow, and returns inf for inf
            pass
        raise ValueError(f"the prefactors e^X overflow at gamma_eff*dt = {g!r}")

    def advance(self, model, spec, window, prefactors, guess=None) -> StepResult:
        gamma = 0.0 if self.exponential else model.gamma_eff
        # 1.0 * u == u, so a unit prefactor is skipped: kernels never write into the window and return new arrays
        scaled = [u if e == 1.0 else e * u for e, u in zip(prefactors, window)]
        # the guess follows spec positionally (Newton kinds only): no keyword dict is built per step
        extra = () if guess is None else (prefactors[len(window)] * guess,)
        state, newton_iterations, linear_solves = self.kernel(model, *scaled, spec.dt, gamma, spec, *extra)
        scale = prefactors[0]  # e^{-X_last}: every row's exponents are antisymmetric, X_last = -X_0
        return StepResult(state if scale == 1.0 else scale * state, newton_iterations, linear_solves)


_midpoint = partial(_implicit_step, terms=_midpoint_terms)
# the model's closed-form chord mean and its Jacobian, with w = 1
_avf = partial(_implicit_step, terms=lambda model: (_on_chord, model.chord_average, model.chord_jacobian, 1.0))
_QUADRATIC = ("quadratic_bilinear", "quadratic_matrix")  # what system.kahan_system calls
_CIMP = Scheme(True, False, _midpoint)
_EK1 = Scheme(True, False, _kahan1_step, needs=_QUADRATIC)
# kind -> Scheme(exponential, two_step, kernel, bootstrap, needs)
SCHEMES = {
    "cimp": _CIMP,
    "eavf": Scheme(True, False, _avf),
    "ek1": _EK1,
    "ek2": Scheme(True, True, _kahan2_step, bootstrap=_EK1, needs=_QUADRATIC),
    "lie": Scheme(True, True, _lie_step, bootstrap=_CIMP, needs=("lie_system_builder",)),
    "imidpoint_plain": Scheme(False, False, _midpoint),
    "avf_plain": Scheme(False, False, _avf),
    "kahan2_plain": Scheme(False, True, _kahan2_step, bootstrap=Scheme(False, False, _kahan1_step), needs=_QUADRATIC),
}


def bind(model, spec: SchemeSpec) -> tuple:
    """spec.kind's prefactors on model: the check `step`, `bootstrap`, `integrate` and the CLI make first.

    UnsupportedModelError when the model lacks a field the kind needs; ValueError when a prefactor overflows.
    """
    scheme = SCHEMES[spec.kind]
    missing = [name for name in scheme.needs if getattr(model, name) is None]
    if missing:
        raise UnsupportedModelError(f"model {model.name} has no {' or '.join(missing)}, which {spec.kind!r} steps call")
    return scheme.prefactors(model.gamma_eff, spec.dt)


def step(model, spec: SchemeSpec, *window, prefactors: Optional[tuple] = None) -> StepResult:
    """One step of spec.kind from (u^n,), or (u^{n-1}, u^n) for two-step kinds; prefactors default to bind's."""
    scheme, prefactors = SCHEMES[spec.kind], prefactors or bind(model, spec)
    if len(window) != 1 + scheme.two_step:  # `integrate` and `bootstrap` build their windows themselves
        raise ValueError(f"{spec.kind!r} steps from {1 + scheme.two_step} states, got {len(window)}")
    return scheme.advance(model, spec, window, prefactors)


def bootstrap(model, u0, spec: SchemeSpec) -> StepResult:
    """Produce u^1 for a two-step scheme from its one-step companion.

    The companion solves to a Newton tolerance of at most 1e-13 (the start
    of a two-step march must be accurate).
    """
    companion = SCHEMES[spec.kind].bootstrap
    if companion is None:
        raise ValueError(f"{spec.kind!r} is not a two-step kind")
    bind(model, spec)
    tight = replace(spec, newton_tol=min(spec.newton_tol, 1e-13))
    return companion.advance(model, tight, (u0,), companion.prefactors(model.gamma_eff, spec.dt))


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


# bytes of recorded states that integrate holds before it evaluates their
# series, one call per series: no call is handed more states than fit in it
_BATCH_BYTES = 1 << 16
_MAX_STEPS = np.iinfo(np.int64).max  # RunRecord.steps is int64


def step_count(T: float, dt: float) -> tuple[int, bool]:
    """The number n of steps dt nearest to the horizon T, and whether n*dt is T to 1e-9 relative.

    The one horizon check: T must be finite and >= 0, and T/dt finite, with n at most the int64
    maximum, since the record counts its steps in int64.
    """
    if not (math.isfinite(T) and T >= 0):
        raise ValueError(f"T must be finite and >= 0, got {T}")
    if not math.isfinite(T / dt):
        raise ValueError(f"T must be finite and >= 0 with T/dt finite, got T={T}, dt={dt}")
    n = int(round(T / dt))
    if n > _MAX_STEPS:
        raise ValueError(f"T/dt = {T / dt!r} steps exceed the {_MAX_STEPS} a record can count")
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

    T must be finite, >= 0 and an integer multiple of spec.dt to within 1e-9 relative.  The
    initial state, every record_every-th step, and the final step are
    recorded.  From step 3 on, a Newton kind starts from 3u^n - 3u^{n-1} + u^{n-2}, so a
    marched step differs from `step` on the same state by at most the Newton tolerance.
    An ExpdgError of the march raises with the partial record up to the last finite state attached.  A
    recorded value that is not finite is a blow-up at its row's step, whose partial record ends at the row before.
    The values are evaluated per batch of recorded states, when the row after the batch is recorded or
    when the march ends or fails, so a blow-up of a value surfaces up to one batch and one row past its row.
    observer(step, time, state) is called per recorded state as it is recorded.  state is the
    run's own array, held by reference until the invariants and energies are evaluated on its
    batch of recorded states: the observer may keep it, but must not write into it.
    """
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
    prefactors = bind(model, spec)
    polarized = model.polarized.evaluate if two_step and model.polarized is not None else None

    rows: list = []  # (step, time, Newton iterations, linear solves) per recorded state
    inv_rec: dict = {inv.name: [] for inv in model.invariants}
    ham_rec: list = []
    pol_rec: list = []  # one value per recorded step whose successor exists, in row order
    # (extend, callable) per series evaluated on the recorded states, in order
    series = [(inv_rec[inv.name].extend, inv.evaluate) for inv in model.invariants]
    series.append((ham_rec.extend, model.hamiltonian_paper))
    newton_total = 0
    solves_total = 0
    wall = 0.0
    # every step returns a new array, so the recorded states are held by reference
    batch = max(1, _BATCH_BYTES // u.nbytes)
    pending: list = []  # recorded states whose series are not evaluated yet
    successors: list = []  # u^{n+1} of each pending state u^n that has one (two-step kinds with H~ only)
    last = [u]  # the state of the last row evaluated, all its values finite

    def flush():
        """Evaluate each series once on the stacked pending states, and H~ on those with a successor."""
        stacked = np.stack(pending)
        new = [(extend, evaluate(stacked).tolist()) for extend, evaluate in series]
        if successors:
            pairs = polarized(e0 * stacked[: len(successors)], e1 * np.stack(successors))
            new.append((pol_rec.extend, pairs.tolist()))
        bad = min([i for _, values in new for i, v in enumerate(values) if not math.isfinite(v)], default=len(pending))
        for extend, values in new:
            extend(values[:bad])
        if bad < len(pending):
            kept = len(rows) - len(pending) + bad
            n, t = rows[kept][:2]
            del rows[kept:]
            partial = build_record(pending[bad - 1] if bad else last[0])
            raise BlowUpError(f"a recorded value is not finite at step {n}", step=n, time=t, partial=partial)
        last[0] = pending[-1]
        pending.clear()
        successors.clear()

    def record(n, state):
        if len(pending) == batch:  # a later row is recorded, so every pending state has its successor
            flush()
        rows.append((n, n * dt, newton_total, solves_total))
        pending.append(state)
        if observer is not None:
            observer(n, n * dt, state)

    def build_record(final_state):
        steps, times, newton, solves = zip(*rows) if rows else ((),) * 4
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
    e0, e1 = prefactors[:2]
    record(0, u)
    prev = None  # u^{n-1}; a two-step kind bootstraps while it is None
    prev2 = None  # u^{n-2}; a Newton kind predicts its step once it is set
    predicts = scheme.kernel in (_midpoint, _avf)
    try:
        for step_index in range(1, n_steps + 1):
            tic = clock()
            if two_step and prev is None:
                res = bootstrap(model, u, spec)
            else:
                guess = 3.0 * (u - prev) + prev2 if predicts and prev2 is not None else None
                res = advance(model, spec, (prev, u) if two_step else (u,), prefactors, guess)
                # counters attribute solver work to the scheme kind itself; the
                # one-off bootstrap cost stays in the wall clock but not here,
                # so a linearly implicit run reports zero Newton iterations
                newton_total += res.newton_iterations
                solves_total += res.linear_solves
            wall += clock() - tic
            if not np.isfinite(res.state).all():
                raise BlowUpError(f"state became non-finite at step {step_index}",
                                  step=step_index, time=step_index * dt)
            prev2, prev, u = prev, u, res.state
            if polarized is not None and rows[-1][0] == step_index - 1:
                successors.append(u)
            if step_index == n_steps or step_index % record_every == 0:
                record(step_index, u)
    except ExpdgError as exc:
        if exc.partial is None:
            flush()
            exc.partial = build_record(u)
        raise

    flush()
    return build_record(u)
