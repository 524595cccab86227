"""Command-line front end: single runs and scheme comparisons.

Configuration is flat ``key = value`` text; ``#`` starts a comment and
``[section]`` headers are tolerated and ignored.  The settings are the
fields of `RunConfig`: every config key is also a flag, with ``_`` written
as ``-`` (``record_every`` is ``--record-every``), and ``-o`` is short for
``--output``; ``expdg run --help`` lists them.  Resolution order is
preset < config file < command-line flags.  Exit codes: 0 success, 2 configuration
problem (among them a newton_tol or newton_max_iter out of range, a dt whose reciprocal
overflows, a horizon T/dt that overflows or exceeds int64, damping whose prefactors e^X
overflow, a grid too fine or too coarse for its difference stencils, a kind the model cannot
step and a printed variant the model lacks, all refused before any march, and an output that
cannot be opened, found after the marches), 3 solver non-convergence (a Newton tolerance
that under- or overflows at the state's scale too) or a singular linear system, 4 numeric
blow-up: a state, or a recorded value such as an energy, that is not finite.  Commands run
with numpy's floating-point warnings off: the typed error of a failure is its one report on stderr.
"""

import argparse
import contextlib
import dataclasses
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import diagnostics, integrators, models
from .errors import (
    BlowUpError,
    ConfigError,
    ExpdgError,
    NonConvergenceError,
    SingularMatrixError,
)
from .spatial import build_grid

# solver failure -> (compare row status, exit code)
_SOLVER_FAILURES = {
    NonConvergenceError: ("nonconvergence", 3),
    SingularMatrixError: ("singular", 3),
    BlowUpError: ("blowup", 4),
}


@dataclass
class RunConfig:
    """The run settings; a field's annotation coerces its config value and its flag.

    A field's metadata holds the argparse `choices` and `help` of its flag.
    """

    model: str = field(default=None, metadata={"choices": tuple(models.MODELS)})
    scheme: str = field(default=None, metadata={"choices": tuple(integrators.SCHEMES)})
    gamma: float = 0.0
    alpha: float = None
    rho: float = None
    nu: float = None
    theta: float = None
    L: float = field(default=None, metadata={"help": "domain half-length"})
    M: int = field(default=None, metadata={"help": "number of grid nodes"})
    dt: float = None
    T: float = None
    record_every: int = 10
    newton_tol: float = integrators.SchemeSpec.newton_tol
    newton_max_iter: int = integrators.SchemeSpec.newton_max_iter
    # printed: the model's as-printed variant for the scheme kind (models.MODELS lists the pairs)
    scheme_variant: str = field(default="canonical", metadata={"choices": ("canonical", "printed")})
    output: str = field(default=None, metadata={"help": "CSV destination, '-' for stdout"})


_SETTINGS = {f.name: f for f in dataclasses.fields(RunConfig)}


def parse_config(text: str) -> dict:
    """Flat key=value parser; unknown keys are reported with line numbers."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        coerce = _SETTINGS[key].type
        try:
            out[key] = coerce(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: cannot parse {value!r} as {coerce.__name__}") from None
    return out


def resolve_config(preset: Optional[str], file_values: dict, flag_values: dict) -> RunConfig:
    merged: dict = {}
    if preset is not None:
        if preset not in models.PRESETS:
            known = ", ".join(sorted(models.PRESETS))
            raise ConfigError(f"unknown preset {preset!r} (known: {known})")
        merged.update(models.PRESETS[preset])
    merged.update(file_values)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    cfg = RunConfig(**{k: merged[k] for k in merged if k in _SETTINGS})
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """The checks the library does not make; build_problem turns the library's refusals into ConfigError."""
    for name in ("model", "scheme", "L", "M", "dt", "T"):
        if getattr(cfg, name) is None:
            raise ConfigError(f"missing required setting {name!r}")
    if cfg.T <= 0 or not math.isfinite(cfg.T):  # the library marches T = 0
        raise ConfigError(f"T must be positive, got {cfg.T}")
    if cfg.record_every < 1:  # integrate checks it only when a march starts
        raise ConfigError(f"record_every must be >= 1, got {cfg.record_every}")
    variants = _SETTINGS["scheme_variant"].metadata["choices"]
    if cfg.scheme_variant not in variants:  # a config file is not held to the flag's choices
        raise ConfigError(f"unknown scheme_variant {cfg.scheme_variant!r} (known: {', '.join(variants)})")


def build_problem(cfg: RunConfig):
    """Model, initial state, spec and horizon (n_steps, T, exact) of a config; every library refusal comes here."""
    try:
        grid = build_grid(cfg.L, cfg.M)
        spec = integrators.SchemeSpec(cfg.scheme, cfg.dt, cfg.newton_tol, cfg.newton_max_iter)
        printed_for = cfg.scheme if cfg.scheme_variant == "printed" else None
        model = models.make_model(cfg.model, grid, cfg.gamma, cfg.alpha, cfg.rho, cfg.nu, cfg.theta,
                                  printed_for=printed_for)
        integrators.bind(model, spec)  # refuses a kind the model cannot step, and prefactors that overflow
        n, exact = integrators.step_count(cfg.T, cfg.dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    horizon = (n, n * cfg.dt, exact) if n else (1, cfg.dt, False)  # the nearest nonzero multiple of dt to T
    return model, models.initial_condition(cfg.model, grid), spec, horizon


def _residual_columns(model, record):
    """Residual series per diagnostic quantity, aligned to arrival rows."""
    gaps = np.diff(record.times)
    cols = {}
    for inv in model.invariants:
        series = record.invariant_series[inv.name]
        cols["R_" + inv.name] = diagnostics.residual_series(series, inv.exact_rate, gaps)
    cols["R_H_paper_gamma"] = diagnostics.residual_series(
        record.hamiltonian_paper, model.gamma, gaps
    )
    if model.degree is not None:
        cols["R_H_derived"] = diagnostics.residual_series(
            record.hamiltonian_paper, model.degree * model.gamma_eff, gaps
        )
    return cols


def _cells(values: np.ndarray) -> list:
    """The CSV cells of float values: repr of each value, NaN as an empty cell."""
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = ""
    return cells


def write_run_csv(handle, model, record) -> None:
    """One row per recorded step; each residual sits on the row that closes its interval."""
    residuals = {name: [""] + _cells(r) for name, r in _residual_columns(model, record).items()}
    columns = {"step": list(map(str, record.steps.tolist())), "t": _cells(record.times)}
    for inv in model.invariants:
        columns[inv.name] = _cells(record.invariant_series[inv.name])
        columns["R_" + inv.name] = residuals.pop("R_" + inv.name)
    columns["H_paper"] = _cells(record.hamiltonian_paper)
    columns.update(residuals)  # R_H_paper_gamma, then R_H_derived if the model has its rate
    if record.polarized_transformed is not None:
        columns["H_polarized_transformed"] = _cells(record.polarized_transformed)
    columns["newton_iters"] = list(map(str, record.newton_iterations.tolist()))
    columns["linear_solves"] = list(map(str, record.linear_solves.tolist()))
    rows = map(",".join, zip(*columns.values()))
    handle.write(",".join(columns) + "\n" + "\n".join(rows) + "\n")


def _config_file_values(args) -> dict:
    if not args.config:
        return {}
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None


def _sink(output):
    """The CSV stream, stdout for None or '-'; opened after the march, so a failed run writes no file."""
    if output is None or output == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(output, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def cmd_run(args) -> int:
    cfg = resolve_config(args.preset, _config_file_values(args), _flag_values(args))
    model, u0, spec, (n_steps, realized, exact) = build_problem(cfg)
    print(f"model={cfg.model} scheme={cfg.scheme} dt={cfg.dt!r} n_steps={n_steps}", file=sys.stderr)
    print(f"realized_T={realized!r}" + ("" if exact else f" (requested T={cfg.T!r})"), file=sys.stderr)
    record = integrators.integrate(model, spec, u0, realized, record_every=cfg.record_every)
    with _sink(cfg.output) as out:
        write_run_csv(out, model, record)
    print(f"wall_clock_seconds={record.wall_clock_seconds!r}", file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    file_values = _config_file_values(args)
    schemes = [s.strip() for s in (args.schemes or "").split(",") if s.strip()]
    if not schemes:
        raise ConfigError("compare needs at least one scheme (--schemes a,b,...)")
    flags = _flag_values(args)
    # every scheme's refusal comes before the first march
    configs = [resolve_config(args.preset, file_values, dict(flags, scheme=scheme)) for scheme in schemes]
    problems = [build_problem(cfg) for cfg in configs]
    inv_names = [inv.name for inv in problems[0][0].invariants]
    rows = []
    failures = []
    for cfg, (model, u0, spec, (_, realized, _)) in zip(configs, problems):
        try:
            record = integrators.integrate(model, spec, u0, realized, record_every=cfg.record_every)
        except tuple(_SOLVER_FAILURES) as exc:
            status, code = _SOLVER_FAILURES[type(exc)]
            rows.append([cfg.scheme, status] + [""] * (len(inv_names) + 4))
            failures.append(code)
            continue
        residuals = _residual_columns(model, record)
        floats = []  # max |R| over each invariant's finite residuals, NaN (an empty cell) if none; final H; wall
        for name in inv_names:
            r = residuals["R_" + name]
            finite = r[np.isfinite(r)]
            floats.append(np.max(np.abs(finite)) if finite.size else math.nan)
        floats += [record.hamiltonian_paper[-1], record.wall_clock_seconds]
        cells = [cfg.scheme, "ok", *_cells(np.array(floats))]
        cells += [str(int(record.newton_iterations[-1])), str(int(record.linear_solves[-1]))]
        rows.append(cells)
    header = ["scheme", "status"]
    header += ["max_R_" + name for name in inv_names]
    header += ["final_H_paper", "wall_clock_seconds", "newton_iters", "linear_solves"]
    with _sink(cfg.output) as out:
        out.write(",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows))
    return failures[0] if len(failures) == len(schemes) else 0


def _flag_values(args) -> dict:
    return {name: getattr(args, name, None) for name in _SETTINGS}


def _add_settings(parser, skip=()) -> None:
    """One flag per RunConfig field but those in skip; None stands for "not given"."""
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--preset", help="named experiment preset")
    for name, setting in _SETTINGS.items():
        if name not in skip:
            flags = ["--" + name.replace("_", "-")] + (["-o"] if name == "output" else [])
            parser.add_argument(*flags, dest=name, type=setting.type, **setting.metadata)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expdg",
        description="Structure-preserving integrators for damped Hamiltonian PDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="integrate one model/scheme and write a CSV time series")
    _add_settings(p_run)
    p_run.set_defaults(func=cmd_run)
    p_cmp = sub.add_parser("compare", help="run several schemes on one problem, one CSV row each")
    _add_settings(p_cmp, skip=("scheme",))  # compare takes --schemes
    p_cmp.add_argument("--schemes", help="comma-separated scheme kinds")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # every failure is reported by its typed error, not by numpy warnings
            return args.func(args)
    except ExpdgError as exc:  # a refused setting, model or output exits 2
        print(f"error: {exc}", file=sys.stderr)
        return _SOLVER_FAILURES.get(type(exc), (None, 2))[1]


if __name__ == "__main__":
    sys.exit(main())
