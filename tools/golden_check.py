"""Compare two expdg source trees case by case: trajectories, counters, exit codes, CSV bytes.

    python3 tools/golden_check.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the `src` directories of two checkouts. Each
tree runs in its own interpreter (with PYTHONPATH set to it) over every
preset x scheme kind x scheme variant, 20 steps at the preset's dt, once
through `integrate` on the problem that `cli.resolve_config` and
`cli.build_problem` make of the preset, kind and variant (record_every=1,
a copy of every recorded state collected through its observer) and through
`expdg run` (CSV written to a file) at record_every=1 and at
record_every=7, which records steps 0, 7, 14 and 20: a short last interval,
and steps whose predecessor was not recorded. Two long cases per preset run
the preset's own scheme and `eavf` the same way for LONG_STEPS steps: enough
for `integrate` to evaluate its recorded series in three or more batches, and
for a change in the rounding of the AVF chord mean to show its drift over a
long horizon, not only over 20 steps. Twenty cases run only `expdg run`: twelve
bad inputs (an output under a missing directory, --T 1e308, whose T/dt
overflows, --gamma 1e305, whose prefactors overflow, --dt 0, --dt 1e-320 at
--T 1e-318, whose 1/dt overflows, --newton-tol -1,
--newton-max-iter 0, --record-every 0, KdV cimp --scheme-variant printed, which has no
as-printed variant, and grids too fine for their stencils: KdV and NLS at
--L 1e-300, where dx**2 underflows, and KdV at --L 1e-155, where 1/dx**2
overflows), Burgers cimp at --newton-max-iter 1, which exits 3 with
the partial record of `integrate`, and Burgers cimp at --newton-tol 5e-324 and
imidpoint_plain at --gamma 1e7 --newton-tol 1e308, whose tolerance times the
state's scale under- or overflows (exit 3), Burgers ek2 at --L 1e-300, whose
H_paper overflows on a finite state at step 2 (exit 4), --T 0.001, below dt/2, a
--config file, and two plain Newton kinds at the stiff damping --gamma 1e7. Five cases
run only `expdg compare`: each preset over every kind its model can step, 20
steps, and Burgers ek2,cimp at --newton-max-iter 1 and at --newton-tol 5e-324,
whose cimp rows fail; the cells of their wall_clock_seconds column are emptied
before the CSVs are compared.
Per case the table gives:

    states   bitwise, or the max relative difference of the recorded states and
             the final state, or the error types
    series   the same for the recorded invariants, H_paper and polarized column
    newton/solves  the final Newton and linear-solve counts of each tree
    exit     the exit codes of `expdg run` at each cadence, or the type of the
             error it let escape, with the other tree's after a | where
             they differ
    csv      whether the CSVs of both cadences are byte-equal; below a DIFF
             row, each cadence whose CSV differs lists the columns that
             differ with their largest absolute and relative difference

The exit status is 0 when every case is bitwise equal with equal counters,
errors, exit codes, stderr lines (less the wall clock) and CSV bytes, else 1.
Closing lines count the library runs whose states, and whose recorded
series, are bitwise equal, within 1e-15 relative and above it, each with its
largest relative difference, and give the largest difference of each CSV
column over all cases. The lines after them give, for each tree, the line
count of `expdg/*.py`, whether `import expdg.cli`, in a fresh
interpreter with PYTHONPATH set to the tree, puts `scipy.linalg` into
`sys.modules`, and how many statements of `expdg/*.py` no case reaches, with
`raise` statements counted apart. The last lines list the change tree's other
unreached statements as file:line. The dump child installs a line tracer
(`sys.settrace`) on the package's modules before it imports `expdg`, so
import-time lines count as reached; a statement is reached when any of its own
lines ran. Tracing slows the child's cases by about a factor of two.
"""

from __future__ import annotations

import argparse
import ast
import collections
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
# case -> argv of an `expdg run` on bad input, a solver failure, a horizon below dt/2, a config
# file or at stiff damping, run in the tree's output directory; no library run
RUN_ONLY = {
    "burgers-paper/unwritable output": ["run", "--preset", "burgers-paper", "--T", "0.018",
                                        "--output", "missing/out.csv"],
    "burgers-paper/T 1e308": ["run", "--preset", "burgers-paper", "--T", "1e308", "--output", "t1e308.csv"],
    "burgers-paper/gamma 1e305": ["run", "--preset", "burgers-paper", "--gamma", "1e305", "--T", "0.018",
                                  "--output", "gamma1e305.csv"],
    "burgers-paper/dt 0": ["run", "--preset", "burgers-paper", "--dt", "0", "--T", "0.018", "--output", "dt0.csv"],
    "burgers-paper/dt 1e-320": ["run", "--preset", "burgers-paper", "--dt", "1e-320", "--T", "1e-318",
                                "--output", "dt1e-320.csv"],
    "burgers-paper/newton-tol -1": ["run", "--preset", "burgers-paper", "--newton-tol", "-1", "--T", "0.018",
                                    "--output", "tol.csv"],
    "burgers-paper/newton-max-iter 0": ["run", "--preset", "burgers-paper", "--newton-max-iter", "0", "--T", "0.018",
                                        "--output", "maxiter0.csv"],
    "burgers-paper/record-every 0": ["run", "--preset", "burgers-paper", "--record-every", "0", "--T", "0.018",
                                     "--output", "every0.csv"],
    "kdv-paper/cimp printed": ["run", "--preset", "kdv-paper", "--scheme", "cimp", "--scheme-variant", "printed",
                               "--T", "0.018", "--output", "kdvprinted.csv"],
    "burgers-paper/cimp newton-max-iter 1": ["run", "--preset", "burgers-paper", "--scheme", "cimp",
                                             "--newton-max-iter", "1", "--T", "0.018", "--output", "maxiter1.csv"],
    "kdv-paper/L 1e-300": ["run", "--preset", "kdv-paper", "--L", "1e-300", "--T", "0.018", "--output", "kdvL.csv"],
    "nls-paper/L 1e-300": ["run", "--preset", "nls-paper", "--L", "1e-300", "--T", "0.002", "--output", "nlsL.csv"],
    "kdv-paper/L 1e-155": ["run", "--preset", "kdv-paper", "--L", "1e-155", "--T", "0.018", "--output", "kdvL155.csv"],
    "burgers-paper/cimp newton-tol 5e-324": ["run", "--preset", "burgers-paper", "--scheme", "cimp", "--newton-tol",
                                             "5e-324", "--T", "0.018", "--output", "tol5e-324.csv"],
    "burgers-paper/imidpoint_plain gamma 1e7 newton-tol 1e308": [
        "run", "--preset", "burgers-paper", "--scheme", "imidpoint_plain", "--gamma", "1e7", "--newton-tol", "1e308",
        "--T", "0.018", "--output", "tol1e308.csv"],
    "burgers-paper/L 1e-300": ["run", "--preset", "burgers-paper", "--L", "1e-300", "--T", "0.018",
                               "--output", "burgersL.csv"],
    "burgers-paper/T 0.001": ["run", "--preset", "burgers-paper", "--T", "0.001", "--output", "t0001.csv"],
    "burgers-paper/config file": ["run", "--preset", "burgers-paper", "--config", "golden.cfg", "--T", "0.09",
                                  "--output", "config.csv"],
    "burgers-paper/imidpoint_plain gamma 1e7": ["run", "--preset", "burgers-paper", "--scheme", "imidpoint_plain",
                                                "--gamma", "1e7", "--T", "0.09", "--output", "burgers1e7.csv"],
    "kdv-paper/avf_plain gamma 1e7": ["run", "--preset", "kdv-paper", "--scheme", "avf_plain", "--gamma", "1e7",
                                      "--T", "0.09", "--output", "kdv1e7.csv"],
}

# golden.cfg of the config file case, written into the tree's output directory
CONFIG_TEXT = "[run]\nscheme = ek2  # a comment\n\nrecord_every = 4\n"


def _compare_cases():
    """case -> argv of an `expdg compare` of each preset over every kind its model can step, and of a failing row."""
    from expdg import cli, integrators, models
    from expdg.errors import UnsupportedModelError

    cases = {}
    for preset in models.PRESETS:
        kinds = []
        for kind in integrators.SCHEMES:
            try:
                cli.build_problem(cli.resolve_config(preset, {}, {"scheme": kind}))
            except UnsupportedModelError:
                continue
            kinds.append(kind)
        horizon = repr(STEPS * models.PRESETS[preset]["dt"])
        cases[f"{preset}/compare"] = ["compare", "--preset", preset, "--schemes", ",".join(kinds), "--T", horizon,
                                      "--output", f"{preset}_compare.csv"]
    cases["burgers-paper/compare newton-max-iter 1"] = [
        "compare", "--preset", "burgers-paper", "--schemes", "ek2,cimp", "--newton-max-iter", "1", "--T", "0.018",
        "--output", "compare_maxiter1.csv"]
    cases["burgers-paper/compare newton-tol 5e-324"] = [
        "compare", "--preset", "burgers-paper", "--schemes", "ek2,cimp", "--newton-tol", "5e-324", "--T", "0.018",
        "--output", "compare_tol.csv"]
    return cases


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
    """Arrays of one integrate run on the problem `expdg run` builds, or the name of the error it raised."""
    from expdg import cli, integrators

    try:
        model, u0, spec = cli.build_problem(cli.resolve_config(preset, {}, {"scheme": kind, "scheme_variant": variant}))
        states = []
        rec = integrators.integrate(model, spec, u0, steps * spec.dt, record_every=1,
                                    observer=lambda n, t, u: states.append(u.copy()))
    except Exception as exc:  # the error type is the result of the case
        return {"error": type(exc).__name__}, {}
    arrays = {"states": np.asarray(states), "final": rec.final_state, "series/H_paper": rec.hamiltonian_paper}
    arrays.update({f"series/{name}": values for name, values in rec.invariant_series.items()})
    if rec.polarized_transformed is not None:
        arrays["series/polarized"] = rec.polarized_transformed
    counters = [int(rec.newton_iterations[-1]), int(rec.linear_solves[-1])]
    return {"error": None, "counters": counters}, arrays


def _cli_argv(preset, kind, variant, steps, record_every, csv_path):
    from expdg import models

    return [
        "run", "--preset", preset, "--scheme", kind, "--scheme-variant", variant,
        "--T", repr(steps * models.PRESETS[preset]["dt"]), "--record-every", str(record_every),
        "--output", csv_path,
    ]


def _cli_case(argv):
    """Exit code (or the type of the error that escaped), stderr lines and CSV bytes of one `expdg` run."""
    from expdg import cli

    csv_path = argv[argv.index("--output") + 1]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # the error type is the result of the case
            code = type(exc).__name__
    lines = [ln for ln in err.getvalue().splitlines() if not ln.startswith("wall_clock_seconds=")]
    csv = open(csv_path, "rb").read() if os.path.exists(csv_path) else None
    if csv is not None and argv[0] == "compare":
        csv = _without_wall_clock(csv)
    return {"exit": code, "stderr": lines, "csv": None if csv is None else csv.hex()}


def _without_wall_clock(csv: bytes) -> bytes:
    """The CSV with the cells of its wall_clock_seconds column emptied: the one column that differs run to run."""
    header, *rows = csv.split(b"\n")
    column = header.split(b",").index(b"wall_clock_seconds")
    out = [header]
    for row in rows:
        cells = row.split(b",")
        if len(cells) > column:
            cells[column] = b""
        out.append(b",".join(cells))
    return b"\n".join(out)


def _trace_package():
    """Install a tracer that records the lines run in the importable expdg's modules; returns its {file: lines}.

    Only frames of code in the package's directory are traced line by line, so other code pays one call event.
    """
    import importlib.util

    package = os.path.dirname(importlib.util.find_spec("expdg").origin)  # found, not imported
    reached = collections.defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if os.path.dirname(frame.f_code.co_filename) == package else None

    sys.settrace(on_call)
    return reached


def dump(out_dir):
    """Run every case on the expdg importable here; write cases.json, arrays.npz and reached.json to out_dir."""
    reached = _trace_package()  # before expdg is imported, so its import-time lines are recorded too
    import expdg

    print(f"expdg from {os.path.dirname(expdg.__file__)}")
    results, arrays = {}, {}
    for case, preset, kind, variant, steps in _cases():
        lib, lib_arrays = _library_case(preset, kind, variant, steps)
        arrays.update({f"{case}/{name}": value for name, value in lib_arrays.items()})
        cli = []
        for every in CADENCES:
            csv_path = os.path.join(out_dir, f"{case.replace('/', '_').replace(' ', '_')}_every{every}.csv")
            cli.append(_cli_case(_cli_argv(preset, kind, variant, steps, every, csv_path)))
        results[case] = {"lib": lib, "cli": cli}
    with open(os.path.join(out_dir, "golden.cfg"), "w") as fh:
        fh.write(CONFIG_TEXT)
    for case, argv in {**RUN_ONLY, **_compare_cases()}.items():
        results[case] = {"lib": None, "cli": [_cli_case(argv)]}
    with open(os.path.join(out_dir, "cases.json"), "w") as fh:
        json.dump(results, fh)
    np.savez(os.path.join(out_dir, "arrays.npz"), **arrays)
    sys.settrace(None)
    with open(os.path.join(out_dir, "reached.json"), "w") as fh:
        json.dump({os.path.basename(path): sorted(lines) for path, lines in reached.items()}, fh)


def _run_tree(src, out_dir):
    """(cases, arrays) of the dump of one tree, and the lines its cases reached per module."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    cmd = [sys.executable, os.path.abspath(__file__), "--dump", out_dir]
    subprocess.run(cmd, env=env, check=True, cwd=out_dir)
    with open(os.path.join(out_dir, "cases.json")) as fh, open(os.path.join(out_dir, "reached.json")) as rh:
        return (json.load(fh), np.load(os.path.join(out_dir, "arrays.npz"))), json.load(rh)


def _statements(source):
    """{first line: statement} of the statements of a module that run code, and {line: the innermost of them}.

    Docstrings and `global`/`nonlocal` declarations run nothing and are left out.  A statement's lines are
    its decorators and its own lines less those of the statements in its body.
    """
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body
        and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    statements, owner = {}, {}
    for node in ast.walk(tree):  # breadth first: a nested statement is visited after the one holding it
        if not isinstance(node, ast.stmt) or id(node) in docstrings or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        statements[first] = node
        for line in range(first, node.end_lineno + 1):
            owner[line] = first
    return statements, owner


def _unreached(src, reached):
    """{module: [(first line, is a raise), ...]} of the statements of SRC/expdg/*.py that no case ran."""
    out = {}
    for path in sorted(glob.glob(os.path.join(src, "expdg", "*.py"))):
        name = os.path.basename(path)
        with open(path) as fh:
            statements, owner = _statements(fh.read())
        ran = {owner[line] for line in reached.get(name, ()) if line in owner}
        out[name] = [(line, isinstance(node, ast.Raise)) for line, node in statements.items() if line not in ran]
    return out


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
    table = []  # per case: its cells, whether it is equal, and the lines that describe its CSV differences
    for case, p in cases_p.items():
        c = cases_c[case]
        lib_p, lib_c = p["lib"], c["lib"]
        if lib_p is None:  # a run-only case: no library run
            equal, lib = True, "-"
            recorded = counters = "-"
        elif lib_p["error"] or lib_c["error"]:
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
        details = []
        for every, a, b in zip(CADENCES if lib_p is not None else ("preset",), cli_p, cli_c):
            if a["csv"] == b["csv"]:
                continue
            diffs = _column_differences(a["csv"], b["csv"])
            if isinstance(diffs, str):
                details.append(f"    record_every={every}: {diffs}")
                continue
            for name, (absolute, relative) in diffs.items():
                old = columns.get(name, (0.0, 0.0))
                columns[name] = (max(old[0], absolute), max(old[1], relative))
            cells = ", ".join(f"{name} {ab:.2e} ({rel:.2e} rel)" for name, (ab, rel) in diffs.items())
            details.append(f"    record_every={every}: {cells}")
        table.append(((case, lib, recorded, counters, exit_code, csv), equal, details))
    # each column as wide as its widest cell or header: the case left-aligned, the others right-aligned
    header = ("case", "states", "series", "newton/solves", "exit", "csv")
    widths = [max(len(cell) for cell in column) for column in zip(header, *(cells for cells, _, _ in table))]

    def line(cells):
        return " ".join([cells[0].ljust(widths[0])] + [cell.rjust(width) for cell, width in zip(cells[1:], widths[1:])])

    print(line(header))
    for cells, equal, details in table:
        print(line(cells) + ("" if equal else "  *"))
        for detail in details:
            print(detail)
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


def _loads_scipy_linalg(src) -> bool:
    """Whether `import expdg.cli` imports scipy.linalg, in a fresh interpreter on SRC."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = "import sys, expdg.cli; print('scipy.linalg' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    return run.stdout.strip() == "True"


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
        runs, unreached = [], []
        for label, src in zip(("parent", "change"), args.trees):
            out_dir = os.path.join(tmp, label)
            os.mkdir(out_dir)
            run, reached = _run_tree(src, out_dir)
            runs.append(run)
            unreached.append(_unreached(src, reached))
        equal = compare(*runs)
    for label, src, missed in zip(("parent", "change"), args.trees, unreached):
        scipy_linalg = "loads" if _loads_scipy_linalg(src) else "does not load"
        print(f"{label}: {_line_count(src)} lines in {os.path.join(src, 'expdg', '*.py')}; "
              f"`import expdg.cli` {scipy_linalg} scipy.linalg")
        raises = sum(is_raise for statements in missed.values() for _, is_raise in statements)
        total = sum(map(len, missed.values()))
        print(f"{label}: {total - raises} statements that no case reaches, and {raises} raise statements")
    print("change: the statements other than raise that no case reaches:")
    for name, statements in unreached[1].items():
        lines = [f"{name}:{line}" for line, is_raise in sorted(statements) if not is_raise]
        if lines:
            print("    " + " ".join(lines))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
