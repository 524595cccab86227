"""Spans around calls into expdg's modules, installed from outside the package.

Every wrapper replaces a function at each place expdg looks it up (module
globals, the package namespace, class attributes, model fields), so the
program runs unmodified and the wrappers are removed again between rounds.
A span is [name, march id, parent span id, start, end]; its id is its index
in `Tracer.spans`.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import statistics
import sys
import time
import types
from collections import Counter, defaultdict


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.march = -1
        self._stack: list = []
        self.build_span = None  # open RunRecord build span, see install_spans

    def begin_march(self) -> None:
        """Start a new march id; drops spans a failed march left open."""
        self.march += 1
        self._stack.clear()
        self.build_span = None

    def current(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def open(self, name: str) -> list:
        span = [name, self.march, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """fn with a span around each call; count(args, result) runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,march,parent,start,end\n")
            for i, (name, march, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{name},{march},{parent},{start!r},{end!r}\n")


def covered_length(start: float, end: float, intervals) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0.0
    cur = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur is None or s > cur[1]:
            if cur is not None:
                total += cur[1] - cur[0]
            cur = [s, e]
        else:
            cur[1] = max(cur[1], e)
    if cur is not None:
        total += cur[1] - cur[0]
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span[2] >= 0:
            children[span[2]].append((span[3], span[4]))
    return [
        (end - start) - covered_length(start, end, children.get(i, ()))
        for i, (_, _, _, start, end) in enumerate(spans)
    ]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement) -> None:
        """Replace `original` in every loaded expdg module that binds it."""
        for name, module in list(sys.modules.items()):
            if name != "expdg" and not name.startswith("expdg."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# model fields -> span name
_MODEL_FIELDS = (
    ("conservative_field", "models.field"),
    ("quadratic_bilinear", "models.field"),
    ("jacobian_conservative", "models.assembly"),
    ("quadratic_matrix", "models.assembly"),
    ("lie_system_builder", "models.assembly"),
    ("hamiltonian_paper", "system.invariant"),
)


def trace_model(tracer: Tracer, model):
    """Copy of `model` whose field, assembly and invariant callables are spanned."""
    fields = {
        attr: tracer.wrap(name, getattr(model, attr))
        for attr, name in _MODEL_FIELDS
        if getattr(model, attr) is not None
    }
    fields["invariants"] = tuple(
        dataclasses.replace(inv, evaluate=tracer.wrap("system.invariant", inv.evaluate))
        for inv in model.invariants
    )
    if model.polarized is not None:
        fields["polarized"] = dataclasses.replace(
            model.polarized, evaluate=tracer.wrap("system.invariant", model.polarized.evaluate)
        )
    return dataclasses.replace(model, **fields)


def install_spans(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public functions of every expdg layer; undo with patches.undo()."""
    import numpy
    from expdg import cli, diagnostics, integrators, linalg, models, spatial

    wrap = tracer.wrap
    op = spatial.PeriodicStencilOperator
    patches.set(op, "apply", wrap("spatial.apply", op.apply))
    patches.everywhere(spatial.apply_stencil, wrap("spatial.apply", spatial.apply_stencil))

    patches.everywhere(
        linalg.solve_periodic_banded, wrap("linalg.solve", linalg.solve_periodic_banded)
    )
    to_dense = linalg.PeriodicBandedMatrix.to_dense

    def counted_to_dense(self):
        if tracer.current() == "linalg.solve":
            tracer.counts["linalg.dense_solves"] += 1
        return to_dense(self)

    patches.set(linalg.PeriodicBandedMatrix, "to_dense", counted_to_dense)

    def count_newton(args, result):
        tracer.counts["linalg.newton_iters"] += result[1]

    patches.everywhere(linalg.newton_solve, wrap("linalg.newton", linalg.newton_solve, count_newton))

    make_model = models.make_model
    patches.everywhere(make_model, lambda *a, **k: trace_model(tracer, make_model(*a, **k)))

    patches.everywhere(integrators.bootstrap, wrap("integrators.bootstrap", integrators.bootstrap))
    patches.everywhere(integrators.integrate, wrap("integrators.integrate", integrators.integrate))

    # integrate builds each RunRecord in a closure whose np.asarray argument
    # conversions run before the constructor is entered: the build span opens
    # at the first np.asarray integrators makes (it makes no others) and
    # closes when the constructor returns
    traced_np = types.ModuleType("numpy")
    traced_np.__dict__.update(vars(numpy))

    def asarray(*args, **kwargs):
        if tracer.build_span is None:
            tracer.build_span = tracer.open("diagnostics.record_build")
        return numpy.asarray(*args, **kwargs)

    traced_np.asarray = asarray
    patches.set(integrators, "np", traced_np)
    record_cls = diagnostics.RunRecord

    def build_record(*args, **kwargs):
        span, tracer.build_span = tracer.build_span, None
        if span is None:
            span = tracer.open("diagnostics.record_build")
        try:
            return record_cls(*args, **kwargs)
        finally:
            tracer.close(span)

    patches.everywhere(record_cls, build_record)

    patches.everywhere(cli.resolve_config, wrap("cli.config", cli.resolve_config))
    patches.everywhere(cli.build_problem, wrap("cli.config", cli.build_problem))

    def count_rows(args, result):
        tracer.counts["cli.csv_rows"] += int(args[2].steps.size)

    patches.everywhere(cli.write_run_csv, wrap("cli.csv_write", cli.write_run_csv, count_rows))


def per_layer(tracer: Tracer, n_rounds: int, n_steps: int) -> dict:
    """name -> (value, unit) per round, from the spans and counts of n_rounds rounds.

    Counts and times are averages per round; solve_ms_p50 is the median
    solve span; the ratios are taken over all rounds.
    """
    for span in tracer.spans:  # spans a failed march left open end where they began
        if span[4] is None:
            span[4] = span[3]
    selfs = self_times(tracer.spans)
    calls: Counter = Counter()
    own: Counter = Counter()
    total: Counter = Counter()
    solve_ms = []
    for span, self_s in zip(tracer.spans, selfs):
        name = span[0]
        calls[name] += 1
        own[name] += self_s
        total[name] += span[4] - span[3]
        if name == "linalg.solve":
            solve_ms.append(1e3 * (span[4] - span[3]))
    counts = tracer.counts
    per = 1.0 / n_rounds
    return {
        "spatial.apply_calls": (calls["spatial.apply"] * per, "count"),
        "spatial.apply_s": (own["spatial.apply"] * per, "s"),
        "models.field_calls": (calls["models.field"] * per, "count"),
        "models.field_s": (own["models.field"] * per, "s"),
        "models.assembly_calls": (calls["models.assembly"] * per, "count"),
        "models.assembly_s": (own["models.assembly"] * per, "s"),
        "linalg.solve_calls": (calls["linalg.solve"] * per, "count"),
        "linalg.solve_s": (own["linalg.solve"] * per, "s"),
        "linalg.solve_ms_p50": (statistics.median(solve_ms) if solve_ms else 0.0, "ms"),
        "linalg.dense_solves": (counts["linalg.dense_solves"] * per, "count"),
        "linalg.dense_share": (_ratio(counts["linalg.dense_solves"], calls["linalg.solve"]), "ratio"),
        "linalg.newton_calls": (calls["linalg.newton"] * per, "count"),
        "linalg.newton_iters": (counts["linalg.newton_iters"] * per, "count"),
        "linalg.newton_iters_per_call": (
            _ratio(counts["linalg.newton_iters"], calls["linalg.newton"]),
            "ratio",
        ),
        "linalg.newton_self_s": (own["linalg.newton"] * per, "s"),
        "system.invariant_calls": (calls["system.invariant"] * per, "count"),
        "system.invariant_s": (own["system.invariant"] * per, "s"),
        "diagnostics.record_builds": (calls["diagnostics.record_build"] * per, "count"),
        "diagnostics.record_builds_per_step": (
            _ratio(calls["diagnostics.record_build"], n_steps),
            "ratio",
        ),
        "diagnostics.record_build_s": (own["diagnostics.record_build"] * per, "s"),
        "integrators.bootstrap_s": (total["integrators.bootstrap"] * per, "s"),
        "integrators.self_s": (own["integrators.integrate"] * per, "s"),
        "cli.config_s": (total["cli.config"] * per, "s"),
        "cli.csv_write_s": (own["cli.csv_write"] * per, "s"),
        "cli.csv_rows": (counts["cli.csv_rows"] * per, "count"),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0
