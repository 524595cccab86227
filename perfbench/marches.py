"""What each workload marches, and the seeded inputs it marches from.

Plain data and the standard library only, so that a set-up probe can load
this before it starts timing `import expdg`.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

SCHEME_KINDS = ("cimp", "eavf", "ek1", "ek2", "lie", "imidpoint_plain", "avf_plain", "kahan2_plain")
NEWTON_KINDS = ("cimp", "eavf", "imidpoint_plain", "avf_plain")


@dataclass(frozen=True)
class March:
    preset: str
    kind: str
    n_steps: int  # a multiple of 10 keeps the NLS lie two-step mass relation per recorded interval


@dataclass(frozen=True)
class Workload:
    marches: tuple
    via_cli: bool  # run through `expdg run` in process instead of the library
    record_every: int


WORKLOADS = {
    "linear-implicit": Workload(
        marches=(March("kdv-paper", "ek2", 200), March("kdv-paper", "lie", 200), March("nls-paper", "lie", 600)),
        via_cli=False,
        record_every=10,
    ),
    "newton-nls": Workload(
        marches=(March("nls-paper", "cimp", 200), March("nls-paper", "eavf", 200)),
        via_cli=False,
        record_every=10,
    ),
    "cli-record": Workload(
        # a RunRecord build per step copies every row so far: at 2000 steps the
        # builds outweigh the solves; the Newton kinds, which cost twice as
        # much per step, march 500 so that a round is short enough to repeat
        # six or more times in 30 s
        marches=tuple(March("burgers-paper", kind, 500 if kind in NEWTON_KINDS else 2000) for kind in SCHEME_KINDS),
        via_cli=True,
        record_every=1,
    ),
}


WARMUP_STEPS = 20


def warm_up(workload: Workload) -> Workload:
    """The workload with every march cut to WARMUP_STEPS: runs each code path once."""
    marches = tuple(dataclasses.replace(m, n_steps=min(m.n_steps, WARMUP_STEPS)) for m in workload.marches)
    return dataclasses.replace(workload, marches=marches)


@dataclass(frozen=True)
class MarchInput:
    gamma_factor: float  # CLI marches: gamma = preset gamma * gamma_factor
    modes: tuple  # library marches: (half, wavenumber, amplitude, phase) of the perturbation


def draw_inputs(workload: Workload, seed: int) -> list:
    """One MarchInput per march; the same seed gives the same inputs."""
    rng = random.Random(seed)
    inputs = []
    for _ in workload.marches:
        gamma_factor = 1.0 + rng.uniform(-0.1, 0.1)
        modes = tuple(
            (half, k, rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))
            for half in (0, 1)
            for k in (1, 2, 3)
        )
        inputs.append(MarchInput(gamma_factor, modes))
    return inputs
