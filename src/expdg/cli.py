"""Command-line front end: single runs and scheme comparisons.

Configuration is flat ``key = value`` text; ``#`` starts a comment and
``[section]`` headers are tolerated and ignored.  Resolution order is
preset < config file < command-line flags.  Exit codes: 0 success,
2 configuration problem, 3 solver non-convergence or a singular linear
system, 4 numeric blow-up.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import diagnostics, integrators, models
from .errors import (
    BlowUpError,
    ConfigError,
    NonConvergenceError,
    SingularMatrixError,
    UnsupportedModelError,
)
from .linalg import NonlinearSolveSettings
from .spatial import build_grid

# key name -> coercion
_CONFIG_KEYS = {
    "model": str,
    "scheme": str,
    "gamma": float,
    "alpha": float,
    "rho": float,
    "nu": float,
    "theta": float,
    "L": float,
    "M": int,
    "dt": float,
    "T": float,
    "record_every": int,
    "newton_tol": float,
    "newton_max_iter": int,
    "scheme_variant": str,
    "output": str,
}

_MODEL_KINDS = ("burgers", "kdv", "nls")

# solver failure -> (compare row status, exit code)
_SOLVER_FAILURES = {
    NonConvergenceError: ("nonconvergence", 3),
    SingularMatrixError: ("singular", 3),
    BlowUpError: ("blowup", 4),
}


@dataclass
class RunConfig:
    model: Optional[str] = None
    scheme: Optional[str] = None
    gamma: float = 0.0
    alpha: Optional[float] = None
    rho: Optional[float] = None
    nu: Optional[float] = None
    theta: Optional[float] = None
    L: Optional[float] = None
    M: Optional[int] = None
    dt: Optional[float] = None
    T: Optional[float] = None
    record_every: int = 10
    newton_tol: float = 1e-12
    newton_max_iter: int = 50
    scheme_variant: str = "canonical"
    output: Optional[str] = None


def parse_config(text: str) -> dict:
    """Flat key=value parser; unknown keys are reported with line numbers."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        if "#" in line:
            line = line.split("#", 1)[0].strip()
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse {value!r} as {_CONFIG_KEYS[key].__name__}"
            ) from None
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
    cfg = RunConfig(**{k: merged[k] for k in merged if k in _CONFIG_KEYS})
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    for name in ("model", "scheme", "L", "M", "dt", "T"):
        if getattr(cfg, name) is None:
            raise ConfigError(f"missing required setting {name!r}")
    if cfg.model not in _MODEL_KINDS:
        raise ConfigError(f"unknown model {cfg.model!r} (known: {', '.join(_MODEL_KINDS)})")
    if cfg.scheme not in integrators.SCHEMES:
        known = ", ".join(integrators.SCHEMES)
        raise ConfigError(f"unknown scheme {cfg.scheme!r} (known: {known})")
    if cfg.scheme_variant not in ("canonical", "printed"):
        raise ConfigError(f"unknown scheme_variant {cfg.scheme_variant!r}")
    if cfg.scheme_variant == "printed":
        ok = (cfg.model == "burgers" and cfg.scheme in ("cimp", "imidpoint_plain")) or (
            cfg.model == "nls" and cfg.scheme == "lie"
        )
        if not ok:
            raise ConfigError(
                "scheme_variant=printed is defined for the burgers midpoint schemes "
                "and the nls lie scheme only"
            )
    if cfg.dt <= 0 or not math.isfinite(cfg.dt):
        raise ConfigError(f"dt must be positive, got {cfg.dt}")
    if cfg.T <= 0 or not math.isfinite(cfg.T):
        raise ConfigError(f"T must be positive, got {cfg.T}")
    if cfg.record_every < 1:
        raise ConfigError(f"record_every must be >= 1, got {cfg.record_every}")
    if cfg.newton_tol <= 0 or cfg.newton_max_iter < 1:
        raise ConfigError("newton_tol must be positive and newton_max_iter >= 1")


def build_problem(cfg: RunConfig):
    """Model, initial state, and scheme spec for a resolved config."""
    try:
        grid = build_grid(cfg.L, cfg.M)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        model = models.make_model(cfg.model, grid, cfg.gamma, cfg.alpha, cfg.rho, cfg.nu, cfg.theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    variant = cfg.scheme_variant
    if variant == "printed" and cfg.model == "nls":
        # scheme unchanged; the pairwise energy column switches to the
        # as-printed polarization
        pol = dataclasses.replace(model.polarized, evaluate=model.polarized.evaluate_printed)
        model = dataclasses.replace(model, polarized=pol)
        variant = "canonical"
    u0 = models.initial_condition(cfg.model, grid)
    solver = NonlinearSolveSettings(tolerance=cfg.newton_tol, max_iterations=cfg.newton_max_iter)
    spec = integrators.SchemeSpec(kind=cfg.scheme, dt=cfg.dt, solver=solver, scheme_variant=variant)
    return model, u0, spec


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    return repr(v)


def _residual_columns(model, record):
    """Residual series per diagnostic quantity, aligned to arrival rows."""
    gaps = diagnostics.interval_widths(record.times)
    cols = {}
    for inv in model.invariants:
        series = record.invariant_series[inv.name]
        cols["R_" + inv.name] = diagnostics.residual_series(series, inv.exact_rate, gaps)
    cols["R_H_paper_gamma"] = diagnostics.residual_series(
        record.hamiltonian_paper, model.gamma, gaps
    )
    if model.hamiltonian_rate is not None:
        cols["R_H_derived"] = diagnostics.residual_series(
            record.hamiltonian_paper, model.hamiltonian_rate, gaps
        )
    return cols


def write_run_csv(handle, model, record) -> None:
    residuals = _residual_columns(model, record)
    header = ["step", "t"]
    for inv in model.invariants:
        header += [inv.name, "R_" + inv.name]
    header += ["H_paper", "R_H_paper_gamma"]
    if "R_H_derived" in residuals:
        header.append("R_H_derived")
    if record.polarized_transformed is not None:
        header.append("H_polarized_transformed")
    header += ["newton_iters", "linear_solves"]
    handle.write(",".join(header) + "\n")
    n_rows = record.steps.size
    for i in range(n_rows):
        row = [str(int(record.steps[i])), _fmt(record.times[i])]
        for inv in model.invariants:
            row.append(_fmt(record.invariant_series[inv.name][i]))
            row.append(_fmt(residuals["R_" + inv.name][i - 1]) if i > 0 else "")
        row.append(_fmt(record.hamiltonian_paper[i]))
        row.append(_fmt(residuals["R_H_paper_gamma"][i - 1]) if i > 0 else "")
        if "R_H_derived" in residuals:
            row.append(_fmt(residuals["R_H_derived"][i - 1]) if i > 0 else "")
        if record.polarized_transformed is not None:
            row.append(_fmt(record.polarized_transformed[i]))
        row.append(str(int(record.newton_iterations[i])))
        row.append(str(int(record.linear_solves[i])))
        handle.write(",".join(row) + "\n")


def _realized_horizon(cfg: RunConfig):
    """Steps, horizon and exactness of the nearest nonzero multiple of dt to T."""
    n, exact = integrators.step_count(cfg.T, cfg.dt)
    if n == 0:
        return 1, cfg.dt, False
    return n, n * cfg.dt, exact


def _config_file_values(args) -> dict:
    if not args.config:
        return {}
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None


def cmd_run(args) -> int:
    cfg = resolve_config(args.preset, _config_file_values(args), _flag_values(args))
    model, u0, spec = build_problem(cfg)
    n_steps, realized, exact = _realized_horizon(cfg)
    print(f"model={cfg.model} scheme={cfg.scheme} dt={cfg.dt!r} n_steps={n_steps}", file=sys.stderr)
    if exact:
        print(f"realized_T={realized!r}", file=sys.stderr)
    else:
        print(f"realized_T={realized!r} (requested T={cfg.T!r})", file=sys.stderr)
    record = integrators.integrate(
        model, spec, u0, realized, record_every=cfg.record_every
    )
    out = cfg.output if cfg.output is not None else args.output
    if out is None or out == "-":
        write_run_csv(sys.stdout, model, record)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_run_csv(fh, model, record)
    print(f"wall_clock_seconds={record.wall_clock_seconds!r}", file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    file_values = _config_file_values(args)
    schemes = [s.strip() for s in (args.schemes or "").split(",") if s.strip()]
    if not schemes:
        raise ConfigError("compare needs at least one scheme (--schemes a,b,...)")
    rows = []
    failures = []
    inv_names = None
    for scheme in schemes:
        flags = _flag_values(args)
        flags["scheme"] = scheme
        cfg = resolve_config(args.preset, file_values, flags)
        model, u0, spec = build_problem(cfg)
        if inv_names is None:
            inv_names = [inv.name for inv in model.invariants]
        realized = _realized_horizon(cfg)[1]
        try:
            record = integrators.integrate(model, spec, u0, realized, record_every=cfg.record_every)
        except tuple(_SOLVER_FAILURES) as exc:
            status, code = _SOLVER_FAILURES[type(exc)]
            rows.append([scheme, status] + [""] * (len(inv_names) + 4))
            failures.append(code)
            continue
        residuals = _residual_columns(model, record)
        cells = [scheme, "ok"]
        for name in inv_names:
            r = residuals["R_" + name]
            finite = r[np.isfinite(r)]
            cells.append(_fmt(np.max(np.abs(finite))) if finite.size else "")
        cells.append(_fmt(record.hamiltonian_paper[-1]))
        cells.append(_fmt(record.wall_clock_seconds))
        cells.append(str(int(record.newton_iterations[-1])))
        cells.append(str(int(record.linear_solves[-1])))
        rows.append(cells)
    header = ["scheme", "status"]
    header += ["max_R_" + name for name in inv_names]
    header += ["final_H_paper", "wall_clock_seconds", "newton_iters", "linear_solves"]
    text = ",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows)
    if args.output is None or args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    if len(failures) == len(schemes):
        return failures[0]
    return 0


def _flag_values(args) -> dict:
    keys = (
        "model scheme gamma alpha rho nu theta L M dt T "
        "record_every newton_tol newton_max_iter scheme_variant"
    ).split()
    return {k: getattr(args, k, None) for k in keys}


def _add_common(parser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--preset", help="named experiment preset")
    parser.add_argument("--model", choices=_MODEL_KINDS)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--rho", type=float)
    parser.add_argument("--nu", type=float)
    parser.add_argument("--theta", type=float)
    parser.add_argument("--L", type=float, help="domain half-length")
    parser.add_argument("--M", type=int, help="number of grid nodes")
    parser.add_argument("--dt", type=float)
    parser.add_argument("--T", type=float)
    parser.add_argument("--record-every", dest="record_every", type=int)
    parser.add_argument("--newton-tol", dest="newton_tol", type=float)
    parser.add_argument("--newton-max-iter", dest="newton_max_iter", type=int)
    parser.add_argument("--scheme-variant", dest="scheme_variant", choices=["canonical", "printed"])
    parser.add_argument("--output", "-o", help="CSV destination, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expdg",
        description="Structure-preserving integrators for damped Hamiltonian PDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="integrate one model/scheme and write a CSV time series")
    _add_common(p_run)
    p_run.add_argument("--scheme", choices=tuple(integrators.SCHEMES))
    p_run.set_defaults(func=cmd_run)
    p_cmp = sub.add_parser("compare", help="run several schemes on one problem, one CSV row each")
    _add_common(p_cmp)
    p_cmp.add_argument("--schemes", help="comma-separated scheme kinds")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UnsupportedModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except tuple(_SOLVER_FAILURES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _SOLVER_FAILURES[type(exc)][1]


if __name__ == "__main__":
    sys.exit(main())
