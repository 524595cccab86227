"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload newton-nls --seeds 1-10 --seconds 10

Runs perfbench/run.py once per seed, one after another, and prints how long
each run took. Then it prints for each metric its median and its quartile
spread (Q3 - Q1) / median, next to the metric's bound in BENCHMARK.json
when that file is present.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import relative_iqr

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()

    spec = HERE.parent / "BENCHMARK.json"
    bounds = {}
    if spec.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    values: dict = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", "0"]
        start = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
        elapsed = time.perf_counter() - start
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} marches failed", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({elapsed:.1f} s): " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    print(f"{'metric':<32} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name, vals in values.items():
        spread = relative_iqr(vals) if len(vals) > 1 and statistics.median(vals) else float("nan")
        bound = bounds.get(name, "")
        print(f"{name:<32} {statistics.median(vals):>12.6g} {spread:>11.4f} {bound!s:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
