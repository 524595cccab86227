"""Compare two expdg source trees case by case: trajectories, counters, exit codes, CSV bytes.

    python3 tools/golden_check.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts. Each
tree runs in its own interpreter (with PYTHONPATH set to it) over every
preset x scheme kind x scheme variant, 20 steps at the preset's dt, once
through `integrate` (record_every=1, every state stored) and through
`expdg run` (CSV written to a file) at record_every=1 and at
record_every=7, which records steps 0, 7, 14 and 20: a short last interval,
and steps whose predecessor was not recorded. Per case the table gives:

    lib      bitwise, the max relative difference of the stored states, the
             final state and the polarized column, or the error types
    newton/solves  the final Newton and linear-solve counts of each tree
    exit     the exit codes of `expdg run` at each cadence, with the other
             tree's after a | where they differ
    csv      whether the CSVs of both cadences are byte-equal

The exit status is 0 when every case is bitwise equal with equal counters,
errors, exit codes, stderr lines (less the wall clock) and CSV bytes, else 1.
A closing line counts the library runs that are bitwise equal, within 1e-15
relative and above it, each with its largest relative difference. The last
two lines give the line count of `expdg/*.py` in each tree.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

VARIANTS = ("canonical", "printed")
STEPS = 20
CADENCES = (1, 7)  # record_every of the `expdg run` cases


def _cases():
    from expdg import integrators, models

    for preset in models.PRESETS:
        for kind in integrators.SCHEMES:
            for variant in VARIANTS:
                yield f"{preset}/{kind}/{variant}", preset, kind, variant


def _library_case(preset, kind, variant):
    """Arrays of one integrate run, or the name of the error it raised."""
    from expdg import integrators, models
    from expdg.spatial import build_grid

    cfg = models.PRESETS[preset]
    grid = build_grid(cfg["L"], cfg["M"])
    try:
        model = models.make_model(cfg["model"], grid, cfg["gamma"], cfg.get("alpha"), cfg.get("rho"), cfg.get("nu"))
        spec = integrators.SchemeSpec(kind, cfg["dt"], scheme_variant=variant)
        rec = integrators.integrate(
            model, spec, models.initial_condition(cfg["model"], grid), STEPS * cfg["dt"],
            record_every=1, store_states=True,
        )
    except Exception as exc:  # the error type is the result of the case
        return {"error": type(exc).__name__}, {}
    arrays = {"states": np.asarray(rec.states), "final": rec.final_state}
    if rec.polarized_transformed is not None:
        arrays["polarized"] = rec.polarized_transformed
    counters = [int(rec.newton_iterations[-1]), int(rec.linear_solves[-1])]
    return {"error": None, "counters": counters}, arrays


def _cli_case(preset, kind, variant, record_every, csv_path):
    from expdg import cli, models

    argv = [
        "run", "--preset", preset, "--scheme", kind, "--scheme-variant", variant,
        "--T", repr(STEPS * models.PRESETS[preset]["dt"]), "--record-every", str(record_every),
        "--output", csv_path,
    ]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = [ln for ln in err.getvalue().splitlines() if not ln.startswith("wall_clock_seconds=")]
    csv = open(csv_path, "rb").read().hex() if os.path.exists(csv_path) else None
    return {"exit": code, "stderr": lines, "csv": csv}


def dump(out_dir):
    """Run every case on the expdg importable here; write cases.json and arrays.npz to out_dir."""
    import expdg

    print(f"expdg from {os.path.dirname(expdg.__file__)}")
    results, arrays = {}, {}
    for case, preset, kind, variant in _cases():
        lib, lib_arrays = _library_case(preset, kind, variant)
        arrays.update({f"{case}/{name}": value for name, value in lib_arrays.items()})
        cli = []
        for every in CADENCES:
            csv_path = os.path.join(out_dir, f"{case.replace('/', '_')}_every{every}.csv")
            cli.append(_cli_case(preset, kind, variant, every, csv_path))
        results[case] = {"lib": lib, "cli": cli}
    with open(os.path.join(out_dir, "cases.json"), "w") as fh:
        json.dump(results, fh)
    np.savez(os.path.join(out_dir, "arrays.npz"), **arrays)


def _run_tree(src, out_dir):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    cmd = [sys.executable, os.path.abspath(__file__), "--dump", out_dir]
    subprocess.run(cmd, env=env, check=True, cwd=out_dir)
    with open(os.path.join(out_dir, "cases.json")) as fh:
        return json.load(fh), np.load(os.path.join(out_dir, "arrays.npz"))


def _relative_difference(a, b):
    scale = float(np.nanmax(np.abs(a))) or 1.0
    return float(np.nanmax(np.abs(a - b))) / scale


def _summary(differences) -> str:
    """One line: how many runs are bitwise, within 1e-15 and above it, and the largest difference of each."""
    groups = {"bitwise": [], "within 1e-15": [], "above 1e-15": []}
    for bitwise, diff in differences:
        groups["bitwise" if bitwise else "within 1e-15" if diff <= 1e-15 else "above 1e-15"].append(diff)
    counts = ", ".join(
        f"{len(diffs)} {name} (largest {max(diffs):.2e})" if diffs else f"0 {name}" for name, diffs in groups.items()
    )
    return f"{len(differences)} library runs: {counts}"


def compare(parent, change) -> bool:
    (cases_p, arrays_p), (cases_c, arrays_c) = parent, change
    all_equal = True
    differences = []  # (bitwise, max relative difference) per library run that both trees completed
    print(f"{'case':40s} {'lib':>21s} {'newton/solves':>13s} {'exit':>5s} {'csv':>5s}")
    for case, p in cases_p.items():
        c = cases_c[case]
        lib_p, lib_c = p["lib"], c["lib"]
        if lib_p["error"] or lib_c["error"]:
            equal = lib_p["error"] == lib_c["error"]
            lib = lib_p["error"] if equal else f"{lib_p['error']}|{lib_c['error']}"
            counters = "-"
        else:
            names = sorted(k for k in arrays_p.files if k.startswith(case + "/"))
            bitwise = all(arrays_p[k].tobytes() == arrays_c[k].tobytes() for k in names)
            diff = 0.0 if bitwise else max(_relative_difference(arrays_p[k], arrays_c[k]) for k in names)
            differences.append((bitwise, diff))
            lib = "bitwise" if bitwise else f"{diff:.2e}"
            equal = bitwise and lib_p["counters"] == lib_c["counters"]
            counters = "/".join(map(str, lib_p["counters"]))
            if lib_p["counters"] != lib_c["counters"]:
                counters += " vs " + "/".join(map(str, lib_c["counters"]))
        cli_p, cli_c = p["cli"], c["cli"]
        exits_p, exits_c = ("/".join(str(run["exit"]) for run in runs) for runs in (cli_p, cli_c))
        exit_code = exits_p if exits_p == exits_c else f"{exits_p}|{exits_c}"
        csv = "equal" if all(a["csv"] == b["csv"] for a, b in zip(cli_p, cli_c)) else "DIFF"
        equal = equal and cli_p == cli_c
        all_equal = all_equal and equal
        print(f"{case:40s} {lib:>21s} {counters:>13s} {exit_code:>5s} {csv:>5s}{'' if equal else '  *'}")
    print("every case bitwise equal" if all_equal else "cases marked * differ")
    print(_summary(differences))
    return all_equal


def _line_count(src) -> int:
    """Lines of the package modules SRC/expdg/*.py, as `wc -l` counts them."""
    paths = glob.glob(os.path.join(src, "expdg", "*.py"))
    return sum(open(path, "rb").read().count(b"\n") for path in paths)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="SRC", help="PARENT_SRC CHANGE_SRC")
    parser.add_argument("--dump", help=argparse.SUPPRESS)  # child mode: one tree into this directory
    args = parser.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    if len(args.trees) != 2:
        parser.error("give PARENT_SRC and CHANGE_SRC")
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for label, src in zip(("parent", "change"), args.trees):
            out_dir = os.path.join(tmp, label)
            os.mkdir(out_dir)
            runs.append(_run_tree(src, out_dir))
        equal = compare(*runs)
    for label, src in zip(("parent", "change"), args.trees):
        print(f"{label}: {_line_count(src)} lines in {os.path.join(src, 'expdg', '*.py')}")
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
