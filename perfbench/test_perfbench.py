"""Tests of the benchmark's own arithmetic and checks: python3 -m pytest perfbench"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from expdg import cli, integrators, linalg, models  # noqa: E402
from expdg.integrators import SchemeSpec  # noqa: E402


def span(parent, start, end, name="x"):
    return [name, 0, parent, start, end]


def test_self_time_subtracts_children():
    tree = [span(-1, 0.0, 10.0), span(0, 1.0, 3.0), span(0, 5.0, 6.0), span(1, 1.5, 2.0)]
    assert spans.self_times(tree) == pytest.approx([7.0, 1.5, 1.0, 0.5])


def test_self_time_counts_overlapping_children_once():
    tree = [span(-1, 0.0, 10.0), span(0, 1.0, 4.0), span(0, 3.0, 6.0), span(0, 2.0, 3.5)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)  # union [1, 6]


def test_self_time_clips_children_to_parent():
    tree = [span(-1, 2.0, 8.0), span(0, 0.0, 3.0), span(0, 7.0, 12.0)]
    assert spans.self_times(tree)[0] == pytest.approx(4.0)
    assert spans.covered_length(0.0, 1.0, [(2.0, 3.0)]) == 0.0


@pytest.mark.parametrize(
    "n, pct",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct


def test_percentile_matches_numpy():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    for pct in (0.0, 50.0, 90.0, 100.0):
        assert stats.percentile(xs, pct) == pytest.approx(np.percentile(xs, pct))


def test_relative_iqr():
    assert stats.relative_iqr([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert stats.relative_iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_quiet_metrics_take_block_percentile_and_fastest_rest():
    clock = workloads.StepClock()
    clock.samples = {(0, 0): [2.0, 10.0] + [1.0] * 9 + [1.5] * 40, (1, 0): [4.0] * 5}
    clock.block_steps = {(0, 0): 100, (1, 0): 50}
    rounds = [
        workloads.RoundResult(9.0, {0: 0.5}, 2, 1),
        workloads.RoundResult(9.0, {0: 0.2, 1: 0.1}, 2, 0),
    ]
    metrics = workloads.quiet_metrics(clock, rounds)
    assert metrics["wall_s"] == pytest.approx((1.0 * 100 + 4.0 * 50) / 1e3 + 0.2 + 0.1)
    assert metrics["steps_per_s"] == pytest.approx(150 / 0.3)
    assert (metrics["step_ms_p50"], metrics["step_ms_p90"]) == (1.0, 4.0)


def test_step_clock_pools_samples_per_block():
    clock = workloads.StepClock()
    patches = spans.Patches()
    clock.install(patches)
    try:
        burgers_run("ek2")  # unobserved: march is None
        assert clock.samples == {}
        clock.march = 3
        burgers_run("ek2", n_steps=250)
    finally:
        patches.undo()
    assert clock.block_steps == {(3, 0): 100, (3, 1): 100, (3, 2): 50}
    assert [len(clock.samples[b]) for b in sorted(clock.samples)] == [100, 100, 50]
    assert clock.observed_s > 0.0


def burgers_run(kind, n_steps=20, gamma=0.25):
    grid = models.preset_grid("burgers-paper")
    model = models.make_model("burgers", grid, gamma)
    u0 = models.initial_condition("burgers", grid)
    rec = integrators.integrate(model, SchemeSpec(kind, 0.009), u0, n_steps * 0.009, record_every=1)
    return rec


@pytest.mark.parametrize("kind", ["ek2", "cimp", "kahan2_plain", "avf_plain"])
def test_checks_accept_real_runs(kind):
    checks.check_record(kind, "burgers", 0.25, burgers_run(kind), 20)


def test_checks_reject_mass_scaled_after_step_one():
    rec = burgers_run("ek2")
    rec.invariant_series["mass"][2:] *= 1.0 + 1e-8
    with pytest.raises(checks.CheckError, match="decay residual"):
        checks.check_record("ek2", "burgers", 0.25, rec, 20)


def test_checks_reject_plain_kind_that_decays_exactly():
    rec = burgers_run("kahan2_plain")
    mass = rec.invariant_series["mass"]
    mass[:] = mass[0] * np.exp(-0.5 * rec.times)
    with pytest.raises(checks.CheckError, match="decay residual"):
        checks.check_record("kahan2_plain", "burgers", 0.25, rec, 20)


def test_checks_reject_bad_counters():
    with pytest.raises(checks.CheckError):
        checks.check_counters("lie", 20, 0, 20)  # bootstrap solve counted
    with pytest.raises(checks.CheckError):
        checks.check_counters("ek2", 20, 3, 19)
    with pytest.raises(checks.CheckError):
        checks.check_counters("eavf", 20, 40, 39)
    checks.check_counters("ek1", 20, 0, 20)


def test_csv_check(tmp_path):
    out = tmp_path / "run.csv"
    argv = ["run", "--preset", "burgers-paper", "--scheme", "lie", "--record-every", "1"]
    assert cli.main(argv + ["--T", repr(30 * 0.009), "-o", str(out)]) == 0
    text = out.read_text()
    checks.check_csv("lie", text, "burgers", 0.25, 0.009, 30, 1)
    with pytest.raises(checks.CheckError, match="data rows"):
        checks.check_csv("lie", text, "burgers", 0.25, 0.009, 31, 1)
    with pytest.raises(checks.CheckError, match="data rows"):
        checks.check_csv("lie", text, "burgers", 0.25, 0.009, 30, 10)
    with pytest.raises(checks.CheckError, match="decay residual"):
        checks.check_csv("lie", text, "burgers", 0.26, 0.009, 30, 1)  # wrong damping


def test_spans_cover_every_layer_and_undo():
    originals = (integrators.integrate, linalg.solve_periodic_banded, models.make_model, integrators.np)
    tracer = spans.Tracer()
    patches = spans.Patches()
    spans.install_spans(tracer, patches)
    try:
        tracer.begin_march()
        rec = burgers_run("ek2")
    finally:
        patches.undo()
    assert (integrators.integrate, linalg.solve_periodic_banded, models.make_model, integrators.np) == originals
    metrics = {k: v for k, (v, _) in spans.per_layer(tracer, 1, rec.n_steps).items()}
    assert metrics["linalg.solve_calls"] == 20  # 19 steps plus the ek1 bootstrap
    assert metrics["linalg.dense_solves"] == 20  # n = 80 takes the dense path
    assert metrics["linalg.newton_calls"] == 0
    # one partial record per step, then the returned one
    assert metrics["diagnostics.record_builds"] == rec.n_steps + 1
    assert metrics["integrators.bootstrap_s"] > 0.0
    assert all(s[4] is not None and s[4] >= s[3] for s in tracer.spans)
    names = {s[0] for s in tracer.spans}
    assert {"spatial.apply", "models.field", "models.assembly", "system.invariant"} <= names
    integrate_ids = [i for i, s in enumerate(tracer.spans) if s[0] == "integrators.integrate"]
    assert len(integrate_ids) == 1
    solves = [s for s in tracer.spans if s[0] == "linalg.solve"]
    assert all(s[2] >= 0 for s in solves)  # every solve has a parent inside integrate
    selfs = spans.self_times(tracer.spans)
    assert min(selfs) >= -1e-12
    whole = tracer.spans[integrate_ids[0]]
    assert math.isclose(sum(selfs), whole[4] - whole[3], rel_tol=1e-9)
