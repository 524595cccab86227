"""expdg benchmark: march the preset experiments and report cost per step.

One run:    python3 perfbench/run.py --workload linear-implicit --seed 7 --seconds 30 --trace 0
Everything: python3 perfbench/run.py --all

A run prints each metric as `name value unit` and, as its last line, one
JSON object {"correct", "attempted", "failed", "metrics"}.  --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones from spans.  --all runs
every workload untraced and traced, each in a fresh interpreter, and writes
.bench_out/summary.json.  See README.md in this directory.
"""

import os

# BLAS gets one thread before numpy loads: on 2 CPUs a 248x248 dense solve
# takes 0.84 ms on one thread and 110-190 ms when OpenBLAS threads contend
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_PROBES = 9

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def probe_setup(workload_name: str, seed: int) -> float:
    """Seconds of `import expdg` plus building every march, in this fresh interpreter."""
    import importlib

    from marches import WORKLOADS, draw_inputs

    workload = WORKLOADS[workload_name]
    inputs = draw_inputs(workload, seed)
    start = time.perf_counter()
    importlib.import_module("expdg.cli" if workload.via_cli else "expdg")
    imported = time.perf_counter() - start
    import workloads

    start = time.perf_counter()
    for march, inp in zip(workload.marches, inputs):
        workloads.build(workload, march, inp)
    return imported + time.perf_counter() - start


def setup_once(workload_name: str, seed: int) -> float:
    """One set-up in its own interpreter; see probe_setup."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload_name, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run(workload_name: str, seed: int, seconds: float, trace: bool):
    """One time-boxed run: a warm-up round, then rounds until `seconds` have passed.

    Traced runs alternate traced and untraced rounds, so the tracing
    overhead is measured against the same workload in the same process.
    Untraced runs do a set-up after each of their first SETUP_PROBES rounds,
    and any left over at the end, so that the set-ups spread over the run.
    Returns the result object and extra lines for the report.
    """
    setup_times = []

    import spans
    import workloads
    from marches import WORKLOADS, draw_inputs, warm_up

    workload = WORKLOADS[workload_name]
    inputs = draw_inputs(workload, seed)
    OUT.mkdir(exist_ok=True)
    csv_path = str(OUT / f"run-{os.getpid()}.csv")
    base = spans.Patches()
    clock = workloads.StepClock()
    clock.install(base)
    tracer = spans.Tracer() if trace else None
    traced_rounds, plain_rounds = [], []
    try:
        warmup = workloads.run_round(warm_up(workload), inputs, csv_path)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not plain_rounds or (trace and not traced_rounds):
            if trace and len(traced_rounds) <= len(plain_rounds):
                patches = spans.Patches()
                spans.install_spans(tracer, patches)
                try:
                    traced_rounds.append(workloads.run_round(workload, inputs, csv_path, tracer=tracer))
                finally:
                    patches.undo()
            else:
                plain_rounds.append(workloads.run_round(workload, inputs, csv_path, clock=clock))
                if not trace and len(setup_times) < SETUP_PROBES:
                    setup_times.append(setup_once(workload_name, seed))
    finally:
        base.undo()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = [warmup] + plain_rounds + traced_rounds
    result = {
        "correct": all(r.failed == 0 for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    info = {"rounds": len(plain_rounds) + len(traced_rounds), "fail_frac": result["failed"] / result["attempted"]}
    if trace:
        n_steps = len(traced_rounds) * sum(m.n_steps for m in workload.marches)
        metrics = spans.per_layer(tracer, len(traced_rounds), n_steps)
        traced_wall = statistics.median(r.wall_s for r in traced_rounds)
        overhead = traced_wall / statistics.median(r.wall_s for r in plain_rounds) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        tracer.write(OUT / f"trace-{workload_name}-seed{seed}.csv.gz")
    else:
        import stats

        values = workloads.quiet_metrics(clock, plain_rounds)
        while len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_once(workload_name, seed))
        values.update(setup_s=statistics.median(setup_times), peak_rss_mb=peak_rss_mb)
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        samples = [x for block in clock.samples.values() for x in block] or [0.0]  # [0.0]: every march failed
        tail = stats.tail_percentile(len(samples))
        info["median_round_s"] = statistics.median(r.wall_s for r in plain_rounds)
        info["step_samples"] = len(samples)
        info["step_tail"] = f"p{tail:g} {stats.percentile(samples, tail):.4f} ms" if tail else "n/a"
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result, info


def report(workload_name: str, seed: int, trace: bool, result: dict, info: dict) -> None:
    print(f"workload {workload_name} seed {seed} trace {int(trace)}")
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for name, value in info.items():
        print(f"  {name} {value}")
    print(f"  machine {json.dumps(machine(), sort_keys=True)}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh interpreter."""
    from marches import WORKLOADS

    summary = {"seed": seed, "seconds": seconds, "machine": machine(), "workloads": {}}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write("".join(out.stdout.splitlines(keepends=True)[:-1]))
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                print(f"workload {name} trace {trace} exited with {out.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(out.stdout.splitlines()[-1])
            summary["workloads"].setdefault(name, {})[f"trace{trace}"] = result
            status = status or (0 if result["correct"] else 1)
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT / 'summary.json'}")
    return status


def main(argv=None) -> int:
    from marches import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "expdg" / "__init__.py").is_file():
        print(f"error: no expdg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    if args.probe_setup:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, args.seed, bool(args.trace), result, info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
