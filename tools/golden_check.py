"""Compare two expdg source trees case by case: trajectories, counters, exit codes, CSV bytes.

    python3 tools/golden_check.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts. Each
tree runs in its own interpreter (with PYTHONPATH set to it) over every
preset x scheme kind x scheme variant, 20 steps at the preset's dt, once
through `integrate` (record_every=1, a copy of every recorded state
collected through its observer) and through
`expdg run` (CSV written to a file) at record_every=1 and at
record_every=7, which records steps 0, 7, 14 and 20: a short last interval,
and steps whose predecessor was not recorded. Two long cases per preset run
the preset's own scheme and `eavf` the same way for LONG_STEPS steps: enough
for `integrate` to evaluate its recorded series in three or more batches, and
for a change in the rounding of the AVF chord mean to show its drift over a
long horizon, not only over 20 steps.
Per case the table gives:

    states   bitwise, or the max relative difference of the recorded states and
             the final state, or the error types
    series   the same for the recorded invariants, H_paper and polarized column
    newton/solves  the final Newton and linear-solve counts of each tree
    exit     the exit codes of `expdg run` at each cadence, with the other
             tree's after a | where they differ
    csv      whether the CSVs of both cadences are byte-equal; below a DIFF
             row, each cadence whose CSV differs lists the columns that
             differ with their largest absolute and relative difference

The exit status is 0 when every case is bitwise equal with equal counters,
errors, exit codes, stderr lines (less the wall clock) and CSV bytes, else 1.
Closing lines count the library runs whose states, and whose recorded
series, are bitwise equal, within 1e-15 relative and above it, each with its
largest relative difference, and give the largest difference of each CSV
column over all cases. The last two lines give the line count of
`expdg/*.py` in each tree.
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
# steps of the long cases of each preset: a state of Burgers (n = 80), KdV (n = 248)
# and NLS (2 x 1024) takes 640, 1984 and 16384 bytes, so each long march records
# about 1 MB of states, three or more batches of up to 256 KiB
LONG_STEPS = {"burgers-paper": 1500, "kdv-paper": 500, "nls-paper": 60}
CADENCES = (1, 7)  # record_every of the `expdg run` cases


def _cases():
    from expdg import integrators, models

    for preset in models.PRESETS:
        for kind in integrators.SCHEMES:
            for variant in VARIANTS:
                yield f"{preset}/{kind}/{variant}", preset, kind, variant, STEPS
    for preset, steps in LONG_STEPS.items():
        for kind in (models.PRESETS[preset]["scheme"], "eavf"):
            yield f"{preset}/{kind}/{steps} steps", preset, kind, "canonical", steps


def _library_case(preset, kind, variant, steps):
    """Arrays of one integrate run, or the name of the error it raised."""
    from expdg import integrators, models
    from expdg.spatial import build_grid

    cfg = models.PRESETS[preset]
    grid = build_grid(cfg["L"], cfg["M"])
    try:
        model = models.make_model(cfg["model"], grid, cfg["gamma"], cfg.get("alpha"), cfg.get("rho"), cfg.get("nu"))
        spec = integrators.SchemeSpec(kind, cfg["dt"], scheme_variant=variant)
        states = []
        rec = integrators.integrate(
            model, spec, models.initial_condition(cfg["model"], grid), steps * cfg["dt"],
            record_every=1, observer=lambda n, t, u: states.append(u.copy()),
        )
    except Exception as exc:  # the error type is the result of the case
        return {"error": type(exc).__name__}, {}
    arrays = {"states": np.asarray(states), "final": rec.final_state, "series/H_paper": rec.hamiltonian_paper}
    arrays.update({f"series/{name}": values for name, values in rec.invariant_series.items()})
    if rec.polarized_transformed is not None:
        arrays["series/polarized"] = rec.polarized_transformed
    counters = [int(rec.newton_iterations[-1]), int(rec.linear_solves[-1])]
    return {"error": None, "counters": counters}, arrays


def _cli_case(preset, kind, variant, steps, record_every, csv_path):
    from expdg import cli, models

    argv = [
        "run", "--preset", preset, "--scheme", kind, "--scheme-variant", variant,
        "--T", repr(steps * models.PRESETS[preset]["dt"]), "--record-every", str(record_every),
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
    for case, preset, kind, variant, steps in _cases():
        lib, lib_arrays = _library_case(preset, kind, variant, steps)
        arrays.update({f"{case}/{name}": value for name, value in lib_arrays.items()})
        cli = []
        for every in CADENCES:
            csv_path = os.path.join(out_dir, f"{case.replace('/', '_').replace(' ', '_')}_every{every}.csv")
            cli.append(_cli_case(preset, kind, variant, steps, every, csv_path))
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


def _difference(names, arrays_p, arrays_c):
    """(bitwise, max relative difference) over the named arrays, or None when there are none."""
    if not names:
        return None
    if all(arrays_p[k].tobytes() == arrays_c[k].tobytes() for k in names):
        return True, 0.0
    return False, max(_relative_difference(arrays_p[k], arrays_c[k]) for k in names)


def _cell(difference) -> str:
    return "-" if difference is None else "bitwise" if difference[0] else f"{difference[1]:.2e}"


def _summary(label, differences) -> str:
    """One line: how many runs are bitwise, within 1e-15 and above it, and the largest difference of each."""
    groups = {"bitwise": [], "within 1e-15": [], "above 1e-15": []}
    for bitwise, diff in differences:
        groups["bitwise" if bitwise else "within 1e-15" if diff <= 1e-15 else "above 1e-15"].append(diff)
    counts = ", ".join(
        f"{len(diffs)} {name} (largest {max(diffs):.2e})" if diffs else f"0 {name}" for name, diffs in groups.items()
    )
    return f"{len(differences)} library runs, {label}: {counts}"


def _csv_columns(hex_bytes) -> dict:
    """Column name -> the list of its cells."""
    lines = bytes.fromhex(hex_bytes).decode().splitlines()
    return dict(zip(lines[0].split(","), zip(*(line.split(",") for line in lines[1:]))))


def _column_differences(csv_p, csv_c):
    """Column name -> (largest absolute, largest relative difference) of the columns whose cells differ.

    A string instead says why the CSVs cannot be compared by column.
    """
    if csv_p is None or csv_c is None:
        return "only one tree wrote a CSV"
    cols_p, cols_c = _csv_columns(csv_p), _csv_columns(csv_c)
    if list(cols_p) != list(cols_c) or any(len(cols_p[k]) != len(cols_c[k]) for k in cols_p):
        return "the headers or row counts differ"
    out = {}
    for name, cells in cols_p.items():
        if cells != cols_c[name]:
            a, b = (np.array([float(c) if c else np.nan for c in col]) for col in (cells, cols_c[name]))
            if not np.array_equal(np.isnan(a), np.isnan(b)):
                return f"the empty cells of {name} differ"
            out[name] = (float(np.nanmax(np.abs(a - b))), _relative_difference(a, b))
    return out


def compare(parent, change) -> bool:
    (cases_p, arrays_p), (cases_c, arrays_c) = parent, change
    all_equal = True
    states, series = [], []  # (bitwise, max relative difference) per library run that both trees completed
    columns = {}  # CSV column -> largest (absolute, relative) difference over all cases
    print(f"{'case':40s} {'states':>21s} {'series':>9s} {'newton/solves':>13s} {'exit':>5s} {'csv':>5s}")
    for case, p in cases_p.items():
        c = cases_c[case]
        lib_p, lib_c = p["lib"], c["lib"]
        if lib_p["error"] or lib_c["error"]:
            equal = lib_p["error"] == lib_c["error"]
            lib = lib_p["error"] if equal else f"{lib_p['error']}|{lib_c['error']}"
            recorded = counters = "-"
        else:
            names = sorted(k for k in arrays_p.files if k.startswith(case + "/"))
            state_diff = _difference([k for k in names if "/series/" not in k], arrays_p, arrays_c)
            series_diff = _difference([k for k in names if "/series/" in k], arrays_p, arrays_c)
            states.append(state_diff)
            series.append(series_diff)
            lib, recorded = _cell(state_diff), _cell(series_diff)
            equal = state_diff[0] and series_diff[0] and lib_p["counters"] == lib_c["counters"]
            counters = "/".join(map(str, lib_p["counters"]))
            if lib_p["counters"] != lib_c["counters"]:
                counters += " vs " + "/".join(map(str, lib_c["counters"]))
        cli_p, cli_c = p["cli"], c["cli"]
        exits_p, exits_c = ("/".join(str(run["exit"]) for run in runs) for runs in (cli_p, cli_c))
        exit_code = exits_p if exits_p == exits_c else f"{exits_p}|{exits_c}"
        csv = "equal" if all(a["csv"] == b["csv"] for a, b in zip(cli_p, cli_c)) else "DIFF"
        equal = equal and cli_p == cli_c
        all_equal = all_equal and equal
        print(f"{case:40s} {lib:>21s} {recorded:>9s} {counters:>13s} {exit_code:>5s} {csv:>5s}{'' if equal else '  *'}")
        for every, a, b in zip(CADENCES, cli_p, cli_c):
            if a["csv"] == b["csv"]:
                continue
            diffs = _column_differences(a["csv"], b["csv"])
            if isinstance(diffs, str):
                print(f"    record_every={every}: {diffs}")
                continue
            for name, (absolute, relative) in diffs.items():
                old = columns.get(name, (0.0, 0.0))
                columns[name] = (max(old[0], absolute), max(old[1], relative))
            cells = ", ".join(f"{name} {ab:.2e} ({rel:.2e} rel)" for name, (ab, rel) in diffs.items())
            print(f"    record_every={every}: {cells}")
    print("every case bitwise equal" if all_equal else "cases marked * differ")
    print(_summary("recorded and final states", states))
    print(_summary("recorded series", series))
    if columns:
        cells = ", ".join(f"{name} {ab:.2e} ({rel:.2e} rel)" for name, (ab, rel) in columns.items())
        print(f"CSV columns that differ, largest over all cases: {cells}")
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
