"""Time one step of every preset x scheme kind in two expdg source trees, interleaved in one interpreter.

    python3 tools/step_ab.py PARENT_SRC CHANGE_SRC [PRESET/KIND ...]

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts. Both
trees are imported into this interpreter, as the packages `expdg_parent` and
`expdg_change`, so that they share one process, one heap and one CPU state:
timings of one tree in two separate processes drift by far more than a
per-step saving of 10-20% on a small shared host.

For each preset x canonical scheme kind that runs (the NLS Kahan kinds are
skipped), or for each case named as PRESET/KIND (e.g. `nls-paper/lie
kdv-paper/ek2`), each tree builds the preset problem and its start window, (u0,) or
(u0, u1) with u1 from the tree's bootstrap. Then 25 rounds alternate between
the trees, the first tree of a round alternating too; in each a tree times a
block of `Scheme.advance` calls from that same window, so every call does
the same work, a block of the band solves of that step, and one whole
`integrate` from u0 at record_every=1, the same number of steps (about one
block's worth) in both trees, so that the cost of recording shows. A step
block starts from its fixed window without the march's history, so its
Newton solves start from u^n and cannot show the extrapolated start that
`integrate` gives the Newton kinds from step 3 on; the march can. The
table gives per tree:

    us/step      the median over the rounds of a step block's mean time of
                 one step, in microseconds
    step/solve   that time over the median time of the band solves the step
                 makes (every `solve_periodic_banded` call, timed alone on
                 the systems the step assembled)
    solve us/step  that median time of one step's band solves
    march us/step  the median time of the whole `integrate` per step
    march newton/step  that `integrate`'s Newton iterations per step

and, for the step, its solves and the march, change/parent: the median over the
rounds of each round's ratio of the change tree's time to the parent
tree's. Both trees are timed back to back within a round, so host drift
slower than a round cancels in its ratio, and the median discards the
rounds that a burst of contention hit on one side only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys
import time
from unittest import mock

BLOCK_SECONDS = 0.02  # length of one timed block of steps
ROUNDS = 25  # blocks per tree and case


def load_tree(src: str, name: str):
    """Import the expdg package under `src` as the top-level package `name`."""
    path = os.path.join(os.path.abspath(src), "expdg")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class March:
    """One preset x kind of one tree: a step from a fixed window, and the systems it solves."""

    def __init__(self, tree, preset, kind):
        models, integrators = sys.modules[f"{tree}.models"], sys.modules[f"{tree}.integrators"]
        self.linalg = sys.modules[f"{tree}.linalg"]
        self.integrators = integrators
        cfg = models.PRESETS[preset]
        grid = models.preset_grid(preset)
        model = models.make_model(cfg["model"], grid, cfg["gamma"], cfg.get("alpha"), cfg.get("rho"), cfg.get("nu"))
        spec = integrators.SchemeSpec(kind, cfg["dt"])
        u0 = models.initial_condition(cfg["model"], grid)
        scheme = integrators.SCHEMES[kind]
        window = (u0, integrators.bootstrap(model, u0, spec).state) if scheme.two_step else (u0,)
        exps = scheme.exponents(model.gamma_eff, spec.dt)
        self.advance = lambda: scheme.advance(model, spec, window, exps)
        self.march = lambda steps: integrators.integrate(model, spec, u0, steps * spec.dt, record_every=1)
        self.systems = self._systems()

    def _systems(self) -> list:
        """The (matrix, rhs) of every band solve one step makes."""
        solve, systems = self.linalg.solve_periodic_banded, []

        def record(mat, rhs):
            systems.append((mat, rhs))
            return solve(mat, rhs)

        with mock.patch.object(self.linalg, "solve_periodic_banded", record), mock.patch.object(
            self.integrators, "solve_periodic_banded", record
        ):
            self.advance()
        return systems

    def solve_all(self):
        for mat, rhs in self.systems:
            self.linalg.solve_periodic_banded(mat, rhs)


def block_time(fn, calls: int) -> float:
    """Mean seconds of one call over a block of `calls` calls."""
    clock = time.perf_counter
    tic = clock()
    for _ in range(calls):
        fn()
    return (clock() - tic) / calls


def calls_per_block(fn) -> int:
    return max(1, int(BLOCK_SECONDS / max(block_time(fn, 3), 1e-7)))


def compare(trees, cases) -> None:
    unsupported = tuple(sys.modules[f"{tree}.errors"].UnsupportedModelError for tree in trees)
    print(
        f"{'case':<30}" + "".join(f"{t + ' us/step':>22}{'step/solve':>12}" for t in trees) + f"{'change/parent':>15}"
        + "".join(f"{t + ' solve us/step':>28}" for t in trees) + f"{'change/parent':>15}"
        + "".join(f"{t + ' march us/step':>28}" for t in trees) + f"{'change/parent':>15}"
        + "".join(f"{t + ' march newton/step':>32}" for t in trees)
    )
    median = statistics.median
    for preset, kind in cases:
        try:
            marches = [March(tree, preset, kind) for tree in trees]
        except unsupported as exc:  # e.g. a Kahan kind on the cubic NLS field
            print(f"{preset + '/' + kind:<30} skipped: {type(exc).__name__}")
            continue
        step_calls = [calls_per_block(m.advance) for m in marches]
        solve_calls = [calls_per_block(m.solve_all) for m in marches]
        march_steps = calls_per_block(marches[0].advance)
        steps, solves, whole = ([], []), ([], []), ([], [])  # per tree, one time per round
        gc.disable()
        try:
            for r in range(ROUNDS):
                for i in (0, 1) if r % 2 == 0 else (1, 0):
                    m = marches[i]
                    steps[i].append(block_time(m.advance, step_calls[i]))
                    solves[i].append(block_time(m.solve_all, solve_calls[i]))
                    whole[i].append(block_time(lambda: m.march(march_steps), 1) / march_steps)
        finally:
            gc.enable()
        iterations = "".join(f"{m.march(march_steps).newton_iterations[-1] / march_steps:>32.2f}" for m in marches)
        cells = "".join(f"{1e6 * median(s):>22.1f}{median(s) / median(v):>12.2f}" for s, v in zip(steps, solves))
        print(
            f"{preset + '/' + kind:<30}{cells}{ratio(steps):>15.3f}"
            f"{per_tree(solves)}{ratio(solves):>15.3f}{per_tree(whole)}{ratio(whole):>15.3f}{iterations}"
        )


def ratio(times) -> float:
    """The median over the rounds of the change tree's time over the parent tree's."""
    return statistics.median(c / p for p, c in zip(*times))


def per_tree(times) -> str:
    """Each tree's median time in microseconds, in 28-wide cells."""
    return "".join(f"{1e6 * statistics.median(t):>28.1f}" for t in times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("cases", nargs="*", metavar="PRESET/KIND", help="the cases to time (default: all)")
    args = parser.parse_args(argv)
    trees = ("expdg_parent", "expdg_change")
    for src, name in zip((args.parent_src, args.change_src), trees):
        print(f"{name} from {os.path.dirname(load_tree(src, name).__file__)}")
    presets, kinds = sys.modules[f"{trees[0]}.models"].PRESETS, sys.modules[f"{trees[0]}.integrators"].SCHEMES
    every = [(preset, kind) for preset in presets for kind in kinds]
    cases = [tuple(case.partition("/")[::2]) for case in args.cases] or every
    unknown = [f"{preset}/{kind}" for preset, kind in cases if (preset, kind) not in every]
    if unknown:
        parser.error(f"unknown case {', '.join(unknown)}: a case is PRESET/KIND, e.g. nls-paper/lie")
    compare(trees, cases)
    return 0


if __name__ == "__main__":
    sys.exit(main())
