import dataclasses
import io
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import expdg.integrators as integrators
from expdg.cli import (
    RunConfig,
    _flag_values,
    _fmt,
    _residual_columns,
    build_parser,
    build_problem,
    main,
    parse_config,
    resolve_config,
    write_run_csv,
)
from expdg.diagnostics import RunRecord
from expdg.errors import BlowUpError, ConfigError, SingularMatrixError
from expdg.models import PRESETS
from expdg.system import Invariant

PI = repr(math.pi)

SMALL_RUN = [
    "run", "--model", "burgers", "--scheme", "ek2", "--gamma", "0.25",
    "--L", PI, "--M", "16", "--dt", "0.01", "--T", "1.0", "--record-every", "7",
]

STARVED_PROBLEM = [
    "--model", "burgers", "--gamma", "0.25",
    "--L", PI, "--M", "80", "--dt", "2.5", "--T", "25.0", "--newton-max-iter", "3",
]
STARVED = ["--scheme", "cimp"] + STARVED_PROBLEM


# -------------------------------------------------------------------- parsing


def test_parse_config_tolerates_comments_and_sections():
    text = "\n".join(
        [
            "# full experiment",
            "[problem]",
            "model = burgers",
            "gamma = 0.25  # damping",
            "",
            "[run]  # coarse",
            "M = 80",
        ]
    )
    assert parse_config(text) == {"model": "burgers", "gamma": 0.25, "M": 80}


def test_parse_config_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2: unknown key 'bogus_key'"):
        parse_config("model = burgers\nbogus_key = 3\n")
    with pytest.raises(ConfigError, match="line 1: expected key = value"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="empty value for 'dt'"):
        parse_config("dt =\n")
    with pytest.raises(ConfigError, match="cannot parse 'eighty' as int"):
        parse_config("M = eighty\n")


def test_resolve_config_precedence():
    cfg = resolve_config(
        "burgers-paper",
        {"gamma": 0.5, "M": 40},
        {"M": 16, "dt": None},  # None flags are "not given"
    )
    assert cfg.gamma == 0.5  # file over preset
    assert cfg.M == 16  # flag over file
    assert cfg.dt == PRESETS["burgers-paper"]["dt"]  # preset survives None flag
    assert cfg.scheme == "ek2"


def test_resolve_config_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset 'kdv2'"):
        resolve_config("kdv2", {}, {})


@pytest.mark.parametrize(
    "overrides,match",
    [
        ({"model": None}, "missing required setting 'model'"),
        ({"model": "heat"}, "unknown model 'heat'"),
        ({"scheme": "rk4"}, "unknown scheme 'rk4'"),
        ({"scheme_variant": "fancy"}, "unknown scheme_variant"),
        ({"scheme_variant": "printed"}, "printed"),  # burgers + ek2
        ({"dt": -0.1}, "dt must be positive"),
        ({"T": 0.0}, "T must be positive"),
        ({"record_every": 0}, "record_every"),
        ({"newton_tol": -1.0}, "newton_tol"),
        ({"newton_tol": math.nan}, "newton_tol"),
        ({"newton_tol": math.inf}, "newton_tol"),
    ],
)
def test_validate_rejects_bad_settings(overrides, match):
    base = dict(PRESETS["burgers-paper"])
    base.update(overrides)
    with pytest.raises(ConfigError, match=match):
        resolve_config(None, {k: v for k, v in base.items() if v is not None}, {})


# a value of each type that differs from every burgers-paper setting and default
SAMPLE_VALUES = {int: "7", float: "0.5", str: "out.csv"}


def resolved_one_way(command, setting, value, as_flag):
    """The RunConfig of burgers-paper with scheme cimp and one setting given in a file or as a flag."""
    text = "scheme = cimp\n"  # printed is defined for the burgers midpoint schemes
    argv = [command]
    if as_flag:
        argv += ["--" + setting.replace("_", "-"), value]
    else:
        text += f"{setting} = {value}\n"
    return resolve_config("burgers-paper", parse_config(text), _flag_values(build_parser().parse_args(argv)))


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("setting", dataclasses.fields(RunConfig), ids=lambda f: f.name)
def test_every_setting_is_a_config_key_and_a_flag(command, setting):
    if command == "compare" and setting.name == "scheme":  # compare takes --schemes instead
        assert "scheme" not in vars(build_parser().parse_args(["compare"]))
        return
    choices = setting.metadata.get("choices")
    value = choices[-1] if choices else SAMPLE_VALUES[setting.type]
    from_file = getattr(resolved_one_way(command, setting.name, value, as_flag=False), setting.name)
    from_flag = getattr(resolved_one_way(command, setting.name, value, as_flag=True), setting.name)
    assert from_file == from_flag == setting.type(value)
    assert type(from_file) is type(from_flag) is setting.type
    assert from_file != getattr(resolve_config("burgers-paper", {"scheme": "cimp"}, {}), setting.name)


@pytest.mark.parametrize(
    "preset,scheme,ok",
    [
        ("burgers-paper", "cimp", True),
        ("burgers-paper", "imidpoint_plain", True),
        ("nls-paper", "lie", True),
        ("kdv-paper", "cimp", False),
        ("burgers-paper", "ek2", False),
    ],
)
def test_printed_variant_combinations(preset, scheme, ok):
    values = {"scheme": scheme, "scheme_variant": "printed"}
    if ok:
        cfg = resolve_config(preset, values, {})
        assert cfg.scheme_variant == "printed"
    else:
        with pytest.raises(ConfigError):
            resolve_config(preset, values, {})


def test_build_problem_wraps_model_errors():
    cfg = resolve_config("burgers-paper", {"gamma": -1.0}, {})
    with pytest.raises(ConfigError):
        build_problem(cfg)


@pytest.mark.parametrize("grid, message", [({"M": 7}, "size must be"), ({"L": -1.0}, "half_length must be")])
def test_build_problem_wraps_grid_errors(grid, message):
    cfg = resolve_config("burgers-paper", grid, {})
    with pytest.raises(ConfigError, match=message):
        build_problem(cfg)


def test_build_problem_printed_nls_swaps_polarization():
    canonical, _, _ = build_problem(resolve_config("nls-paper", {"M": 64}, {}))
    printed, _, spec = build_problem(
        resolve_config("nls-paper", {"M": 64, "scheme_variant": "printed"}, {})
    )
    assert spec.scheme_variant == "canonical"  # the lie scheme itself is unchanged
    rng = np.random.default_rng(3)
    v, w = rng.standard_normal(128), rng.standard_normal(128)
    assert printed.polarized.evaluate(v, w) == canonical.polarized.evaluate_printed(v, w)
    assert printed.polarized.evaluate(v, w) != canonical.polarized.evaluate(v, w)


def test_fmt_cells():
    assert _fmt(None) == ""
    assert _fmt(float("nan")) == ""
    assert _fmt(7) == "7"
    assert _fmt(np.int64(7)) == "7"
    assert _fmt(0.25) == "0.25"
    assert _fmt(1.3836777871933497e-11) == "1.3836777871933497e-11"


# ------------------------------------------------------------------- run mode


def read_csv(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_run_small_burgers_csv_contract(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(SMALL_RUN + ["-o", str(out)]) == 0

    header, rows = read_csv(out)
    assert header == [
        "step", "t", "mass", "R_mass", "H_paper", "R_H_paper_gamma",
        "R_H_derived", "H_polarized_transformed", "newton_iters", "linear_solves",
    ]
    # N=100 at cadence 7: steps 0,7,...,98 then the arrival row at 100
    assert len(rows) == 16
    assert rows[0][0] == "0" and rows[-1][0] == "100"
    assert rows[1][0] == "7"

    # residual cells are per-interval: empty on the initial row
    assert rows[0][3] == "" and rows[0][5] == "" and rows[0][6] == ""
    assert rows[1][3] != ""

    # every float cell round-trips through repr
    for row in rows:
        for cell in row[1:8]:
            if cell:
                assert repr(float(cell)) == cell

    # R_mass on each arrival row matches the recorded mass column
    for prev, row in zip(rows[:-1], rows[1:]):
        m0, m1 = float(prev[2]), float(row[2])
        width = float(row[1]) - float(prev[1])
        expected = math.log(m1 / m0) + 0.5 * width  # gamma_eff = 2 gamma
        assert float(row[3]) == pytest.approx(expected, rel=1e-12, abs=1e-17)

    err = capsys.readouterr().err
    assert "realized_T=1.0" in err
    assert err.strip().splitlines()[-1].startswith("wall_clock_seconds=")
    assert b"\r" not in out.read_bytes()  # LF-only output


def test_run_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(SMALL_RUN + ["-o", str(a)]) == 0
    assert main(SMALL_RUN + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_writes_to_stdout_by_default(capsys):
    assert main(SMALL_RUN + ["--record-every", "50", "-o", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("step,t,mass,")
    assert out.endswith("\n")


def test_run_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "model = burgers\nscheme = ek2\ngamma = 0.25\n"
        f"L = {PI}\nM = 16\ndt = 0.01\nT = 0.5\nrecord_every = 10\n"
    )
    out = tmp_path / "run.csv"
    assert main(["run", "--config", str(cfg), "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert rows[-1][0] == "50"
    # flags still win over the file
    out2 = tmp_path / "run2.csv"
    assert main(["run", "--config", str(cfg), "--T", "0.2", "-o", str(out2)]) == 0
    assert read_csv(out2)[1][-1][0] == "20"


@pytest.mark.parametrize("command", [["run"], ["compare", "--schemes", "ek1,ek2"]])
def test_output_flag_wins_over_the_config_file_and_the_file_entry_is_read(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o.cfg").write_text("output = fromfile.csv\n")
    argv = command + ["--preset", "burgers-paper", "--T", "0.018", "--config", "o.cfg"]
    assert main(argv + ["-o", "fromflag.csv"]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["fromflag.csv"]
    assert main(argv) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["fromfile.csv", "fromflag.csv"]
    assert capsys.readouterr().out == ""


def per_cell_run_csv(handle, model, record):
    """The CSV writer that formats one cell at a time: the oracle for write_run_csv's bytes."""
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
    for i in range(record.steps.size):
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


# the Kahan kinds need a quadratic field, which NLS lacks: those runs exit 2
# before writing (test_exit_2_scheme_needs_quadratic_field)
CSV_CASES = [
    (preset, kind)
    for preset in PRESETS
    for kind in integrators.SCHEMES
    if not (preset == "nls-paper" and kind in ("ek1", "ek2", "kahan2_plain"))
]


@pytest.mark.parametrize("preset,kind", CSV_CASES)
def test_run_csv_bytes_equal_the_per_cell_writer(preset, kind, tmp_path, capsys):
    horizon = 20 * PRESETS[preset]["dt"]
    model, u0, spec = build_problem(resolve_config(preset, {}, {"scheme": kind, "T": horizon}))
    expected = io.StringIO()
    per_cell_run_csv(expected, model, integrators.integrate(model, spec, u0, horizon, record_every=1))
    argv = ["run", "--preset", preset, "--scheme", kind, "--T", repr(horizon), "--record-every", "1"]
    out = tmp_path / "run.csv"
    assert main(argv + ["-o", str(out)]) == 0
    assert out.read_bytes() == expected.getvalue().encode("utf-8")
    capsys.readouterr()
    assert main(argv + ["-o", "-"]) == 0
    assert capsys.readouterr().out == expected.getvalue()


# NaN, infinities, signed zero, subnormals and values that need all 17 digits
EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.225073858507201e-308, 0.1 + 0.2,
               1.7976931348623157e308, 1.3836777871933497e-11)
FLOAT_COLUMNS = st.integers(2, 12).flatmap(
    lambda rows: st.tuples(*[arrays(np.float64, rows, elements=st.floats() | st.sampled_from(EDGE_FLOATS))] * 5)
)


@settings(max_examples=150, deadline=None)
@given(FLOAT_COLUMNS, st.booleans(), st.booleans(), st.integers(0, 2**62))
def test_write_run_csv_equals_the_per_cell_writer_on_any_floats(columns, polarized, derived, counter):
    times, mass, momentum, energy, pairwise = columns
    rows = times.size
    model = SimpleNamespace(
        invariants=(Invariant("mass", None, 0.5), Invariant("momentum", None, None)),
        gamma=0.25,
        hamiltonian_rate=0.75 if derived else None,
    )
    record = RunRecord(
        scheme_kind="lie", dt=0.5, steps=np.arange(rows), times=times,
        invariant_series={"mass": mass, "momentum": momentum}, hamiltonian_paper=energy,
        polarized_transformed=pairwise if polarized else None,
        newton_iterations=np.full(rows, counter), linear_solves=np.arange(rows) * 3,
        final_state=np.zeros(1), n_steps=rows - 1, realized_time=0.5 * (rows - 1), wall_clock_seconds=0.0,
    )
    expected, written = io.StringIO(), io.StringIO()
    with np.errstate(all="ignore"):  # residuals of infinite or opposite-signed values
        per_cell_run_csv(expected, model, record)
        write_run_csv(written, model, record)
    assert written.getvalue() == expected.getvalue()


# ------------------------------------------------------------------ exit codes


def test_exit_2_unknown_preset(capsys):
    assert main(["run", "--preset", "nosuch"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_exit_2_invalid_parameter(capsys):
    assert main(["run", "--preset", "burgers-paper", "--gamma", "-1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_2_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = burgers\nbogus_key = 1\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_exit_2_missing_config_file(capsys):
    assert main(["run", "--config", "/nonexistent/path.cfg"]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_exit_2_scheme_needs_quadratic_field(capsys):
    assert main(["run", "--preset", "nls-paper", "--scheme", "ek2", "--T", "0.01"]) == 2
    assert "no quadratic conservative field" in capsys.readouterr().err


def test_exit_2_theta_outside_kdv(capsys):
    assert main(["run", "--preset", "nls-paper", "--theta", "0.5", "--T", "0.002"]) == 2
    assert "theta applies to the kdv model only" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--alpha", "--rho", "--nu"])
def test_exit_2_parameter_the_model_does_not_read(flag, capsys):
    assert main(["run", "--preset", "burgers-paper", flag, "99", "--T", "0.018"]) == 2
    assert f"{flag[2:]} applies to the " in capsys.readouterr().err


def test_run_kdv_accepts_theta(tmp_path):
    argv = ["run", "--preset", "kdv-paper", "--scheme", "lie", "--T", "0.018", "--output"]
    assert main(argv + [str(tmp_path / "default.csv")]) == 0
    assert main(argv + [str(tmp_path / "quarter.csv"), "--theta", "0.25"]) == 0
    assert (tmp_path / "default.csv").read_text() != (tmp_path / "quarter.csv").read_text()


def test_exit_3_nonconvergence(capsys):
    assert main(["run"] + STARVED) == 3
    assert "error:" in capsys.readouterr().err


def test_exit_4_blow_up(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise BlowUpError("state became non-finite at step 7", step=7, time=0.07)

    monkeypatch.setattr(integrators, "integrate", explode)
    assert main(SMALL_RUN) == 4
    assert "non-finite" in capsys.readouterr().err


def singular_kahan_solves(monkeypatch):
    # Kahan and lie steps solve through integrators; Newton steps do not
    def singular(*args, **kwargs):
        raise SingularMatrixError("singular to working precision")

    monkeypatch.setattr(integrators, "solve_periodic_banded", singular)


def test_exit_3_singular_system(monkeypatch, capsys):
    singular_kahan_solves(monkeypatch)
    assert main(SMALL_RUN) == 3
    assert "singular" in capsys.readouterr().err


# -------------------------------------------------------------------- compare


def test_compare_preset_schemes(tmp_path):
    out = tmp_path / "cmp.csv"
    argv = ["compare", "--preset", "burgers-paper", "--schemes", "ek2,cimp", "-o", str(out)]
    assert main(argv) == 0
    header, rows = read_csv(out)
    assert header == [
        "scheme", "status", "max_R_mass", "final_H_paper",
        "wall_clock_seconds", "newton_iters", "linear_solves",
    ]
    assert [r[0] for r in rows] == ["ek2", "cimp"]
    col = {name: i for i, name in enumerate(header)}
    for row in rows:
        assert row[1] == "ok"
        assert float(row[col["max_R_mass"]]) <= 1e-10
        assert float(row[col["wall_clock_seconds"]]) > 0.0
    ek2, cimp = rows
    assert ek2[col["newton_iters"]] == "0"
    assert int(ek2[col["linear_solves"]]) == 5555  # one solve per marching step
    # late in the decay some steps converge at the initial guess, so the
    # newton count can undershoot the step count slightly
    assert int(cimp[col["newton_iters"]]) == int(cimp[col["linear_solves"]]) > 5000


def test_compare_counts_solver_work(tmp_path):
    cfg = tmp_path / "nls.cfg"
    cfg.write_text(
        "model = nls\nalpha = 2.0\ngamma = 5e-4\nL = 25.0\nM = 128\n"
        "dt = 0.001\nT = 1.0\nrecord_every = 10\n"
    )
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--config", str(cfg), "--schemes", "lie,eavf", "-o", str(out)]) == 0
    header, rows = read_csv(out)
    assert header[:4] == ["scheme", "status", "max_R_mass", "max_R_momentum"]
    col = {name: i for i, name in enumerate(header)}
    lie, eavf = rows
    assert (lie[1], lie[col["newton_iters"]], lie[col["linear_solves"]]) == ("ok", "0", "999")
    assert eavf[1] == "ok"
    # two iterations on each of the first two steps, from u^n; one on each later step, from
    # the quadratic extrapolation of the last three states
    assert eavf[col["newton_iters"]] == eavf[col["linear_solves"]] == "1002"


def test_compare_keeps_going_after_a_failure(capsys):
    argv = ["compare", "--schemes", "ek1,cimp"] + STARVED_PROBLEM
    assert main(argv) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[1].startswith("ek1,ok,")
    assert lines[2] == "cimp,nonconvergence,,,,,"


def test_compare_all_failures_exit_3(capsys):
    argv = ["compare", "--schemes", "cimp"] + STARVED_PROBLEM
    assert main(argv) == 3
    assert "cimp,nonconvergence" in capsys.readouterr().out


def test_compare_keeps_going_after_a_singular_system(monkeypatch, capsys):
    singular_kahan_solves(monkeypatch)
    argv = ["compare", "--preset", "burgers-paper", "--T", "0.09", "--schemes", "ek1,cimp,ek2"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "ek1,singular,,,,,"
    assert lines[2].startswith("cimp,ok,")
    assert lines[3] == "ek2,singular,,,,,"


def test_compare_all_singular_exit_3(monkeypatch, capsys):
    singular_kahan_solves(monkeypatch)
    argv = ["compare", "--preset", "burgers-paper", "--T", "0.09", "--schemes", "ek1"]
    assert main(argv) == 3
    assert "ek1,singular" in capsys.readouterr().out


def test_compare_checks_every_scheme_before_the_first_march(monkeypatch, capsys):
    marches, integrate = [], integrators.integrate

    def counted(model, spec, *args, **kwargs):
        marches.append(spec.kind)
        return integrate(model, spec, *args, **kwargs)

    monkeypatch.setattr(integrators, "integrate", counted)
    argv = ["compare", "--preset", "burgers-paper", "--T", "0.09", "--scheme-variant", "printed"]
    assert main(argv + ["--schemes", "cimp,ek2"]) == 2  # printed is defined for cimp, not ek2
    assert marches == []
    captured = capsys.readouterr()
    assert "scheme_variant=printed is defined for" in captured.err
    assert captured.out == ""


def test_compare_requires_schemes(capsys):
    assert main(["compare", "--preset", "burgers-paper"]) == 2
    assert "at least one scheme" in capsys.readouterr().err


def test_run_rounds_the_horizon_to_whole_steps(tmp_path, capsys):
    # T = 0.1 is 11.1 steps of 0.009: the run takes 11 and says so, while
    # integrate, which counts steps the same way, refuses the horizon itself
    argv = ["run", "--preset", "burgers-paper", "--scheme", "ek1", "-o", str(tmp_path / "a.csv")]
    assert main(argv + ["--T", "0.1"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].endswith("n_steps=11")
    assert lines[1] == f"realized_T={11 * 0.009!r} (requested T=0.1)"
    assert integrators.step_count(0.1, 0.009) == (11, False)
    model = build_problem(resolve_config("burgers-paper", {}, {"scheme": "ek1"}))[0]
    with pytest.raises(ValueError, match="not an integer multiple"):
        integrators.integrate(model, integrators.SchemeSpec("ek1", 0.009), np.zeros(model.dim), 0.1)
    # a horizon below half a step still takes one step
    assert main(argv + ["--T", "0.004"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].endswith("n_steps=1")
    assert lines[1] == "realized_T=0.009 (requested T=0.004)"
