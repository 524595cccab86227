"""Running and checking the marches of a workload against expdg."""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import expdg
from expdg import cli, integrators, models

import checks
import stats

PERTURBATION = 1e-3  # seeded perturbation amplitude relative to max |u0|


def perturbation(grid, u0: np.ndarray, modes) -> np.ndarray:
    """Smooth periodic zero-mean perturbation; NLS perturbs both halves."""
    m = grid.size
    halves = u0.size // m
    phase = math.pi * (grid.nodes + grid.half_length) / grid.half_length
    delta = np.zeros_like(u0)
    for half, k, amp, shift in modes:
        if half < halves:
            delta[half * m : (half + 1) * m] += amp * np.sin(k * phase + shift)
    return PERTURBATION * float(np.max(np.abs(u0))) * delta


def build_library(march, inp):
    """Grid, model, seeded initial state and spec of a library march."""
    cfg = models.PRESETS[march.preset]
    grid = expdg.build_grid(cfg["L"], cfg["M"])
    model = expdg.make_model(cfg["model"], grid, cfg["gamma"], cfg.get("alpha"), cfg.get("rho"), cfg.get("nu"))
    u0 = expdg.initial_condition(cfg["model"], grid)
    u0 = u0 + perturbation(grid, u0, inp.modes)
    return model, u0, expdg.SchemeSpec(march.kind, cfg["dt"])


def cli_flags(workload, march, inp) -> dict:
    cfg = models.PRESETS[march.preset]
    return {
        "scheme": march.kind,
        "gamma": cfg["gamma"] * inp.gamma_factor,
        "T": march.n_steps * cfg["dt"],
        "record_every": workload.record_every,
    }


def build_cli(workload, march, inp):
    """What `expdg run` resolves before its first step: config and problem."""
    return cli.build_problem(cli.resolve_config(march.preset, {}, cli_flags(workload, march, inp)))


def build(workload, march, inp):
    return build_cli(workload, march, inp) if workload.via_cli else build_library(march, inp)


BLOCK_SAMPLES = 100  # a block's steps cost about the same, so their samples are pooled
QUIET_PCT = 1.0  # host contention only adds time: a block costs this percentile of its samples


@dataclass
class StepClock:
    """Per-step times from integrate's observer hook, pooled per block of steps.

    A sample is the time of one recorded interval divided by its steps. The
    k-th sample of the march set in `march` joins the block (march index,
    k // BLOCK_SAMPLES); integrate runs unobserved while `march` is None.
    """

    march: int | None = None
    samples: dict = field(default_factory=dict)  # block -> array of ms per step
    block_steps: dict = field(default_factory=dict)  # block -> steps it covers in one march
    observed_s: float = 0.0  # first to last observer call of the latest observed integrate

    def install(self, patches) -> None:
        integrate = integrators.integrate
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if self.march is None:
                return integrate(*args, **kwargs)
            stamps = []
            kwargs["observer"] = lambda step, t, state: stamps.append((clock(), step))
            record = integrate(*args, **kwargs)
            steps = Counter()
            for k, ((t0, s0), (t1, s1)) in enumerate(zip(stamps, stamps[1:])):
                block = (self.march, k // BLOCK_SAMPLES)
                self.samples.setdefault(block, array("d")).append(1e3 * (t1 - t0) / (s1 - s0))
                steps[block] += s1 - s0
            self.block_steps.update(steps)
            self.observed_s = stamps[-1][0] - stamps[0][0]
            return record

        patches.everywhere(integrate, timed)

    def quiet_step_ms(self) -> list:
        """(ms per step, steps) of every block: QUIET_PCT of its samples."""
        return [
            (stats.percentile(self.samples[block], QUIET_PCT), steps)
            for block, steps in self.block_steps.items()
        ]


def run_library(workload, march, inp) -> float:
    """One checked library march; returns its program time in seconds."""
    start = time.perf_counter()
    model, u0, spec = build_library(march, inp)
    record = expdg.integrate(model, spec, u0, march.n_steps * spec.dt, record_every=workload.record_every)
    elapsed = time.perf_counter() - start
    cfg = models.PRESETS[march.preset]
    checks.check_record(march.kind, cfg["model"], cfg["gamma"], record, march.n_steps)
    return elapsed


def run_cli(workload, march, inp, csv_path: str) -> float:
    """One checked `expdg run -o csv_path` in process; returns its program time in seconds."""
    flags = cli_flags(workload, march, inp)
    argv = ["run", "--preset", march.preset, "--scheme", march.kind]
    argv += ["--record-every", str(flags["record_every"]), "--gamma", repr(flags["gamma"])]
    argv += ["--T", repr(flags["T"]), "-o", csv_path]
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise checks.CheckError(f"{march.kind}: exit code {code}: {err.getvalue().strip()}")
    try:
        with open(csv_path, encoding="utf-8") as fh:
            text = fh.read()
    finally:
        os.remove(csv_path)
    cfg = models.PRESETS[march.preset]
    checks.check_csv(
        march.kind, text, cfg["model"], flags["gamma"], cfg["dt"], march.n_steps, flags["record_every"]
    )
    return elapsed


@dataclass
class RoundResult:
    wall_s: float  # program time of the round's marches that passed
    unobserved_s: dict  # march index -> program time outside the observed intervals
    attempted: int
    failed: int


def run_round(workload, inputs, csv_path: str, clock=None, tracer=None) -> RoundResult:
    """Every march of the workload once, in order; a failing march is counted, not fatal.

    Marches are observed by `clock` if one is given, and spanned by `tracer`.
    """
    wall = 0.0
    unobserved = {}
    failed = 0
    for i, (march, inp) in enumerate(zip(workload.marches, inputs)):
        if tracer is not None:
            tracer.begin_march()
        if clock is not None:
            clock.march = i
        try:
            if workload.via_cli:
                elapsed = run_cli(workload, march, inp, csv_path)
            else:
                elapsed = run_library(workload, march, inp)
        except Exception as exc:  # any failure of the program counts against fail_frac
            failed += 1
            print(f"march {march} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            continue
        finally:
            if clock is not None:
                clock.march = None
        wall += elapsed
        if clock is not None:
            unobserved[i] = elapsed - clock.observed_s
    return RoundResult(wall, unobserved, len(workload.marches), failed)


def quiet_metrics(clock: StepClock, rounds) -> dict:
    """wall_s, steps_per_s and step_ms_p50/p90 of one round on an uncontended host.

    Observed steps cost what their blocks cost (see StepClock); the rest of a
    march, such as building it or writing its CSV, costs its fastest round.
    """
    quiet = clock.quiet_step_ms()
    if not quiet:  # every march failed
        return dict.fromkeys(("wall_s", "steps_per_s", "step_ms_p50", "step_ms_p90"), 0.0)
    observed_s = sum(ms * steps for ms, steps in quiet) / 1e3
    marches = {i for r in rounds for i in r.unobserved_s}
    unobserved_s = sum(min(r.unobserved_s[i] for r in rounds if i in r.unobserved_s) for i in marches)
    per_step = [ms for ms, steps in quiet for _ in range(steps)]
    return {
        "wall_s": observed_s + unobserved_s,
        "steps_per_s": len(per_step) / observed_s,
        "step_ms_p50": stats.percentile(per_step, 50.0),
        "step_ms_p90": stats.percentile(per_step, 90.0),
    }
