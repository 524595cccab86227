import math

import numpy as np
import pytest

import expdg.integrators as integrators
from expdg.cli import (
    RunConfig,
    _fmt,
    build_problem,
    main,
    parse_config,
    resolve_config,
)
from expdg.errors import BlowUpError, ConfigError, SingularMatrixError
from expdg.models import PRESETS

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
    ],
)
def test_validate_rejects_bad_settings(overrides, match):
    base = dict(PRESETS["burgers-paper"])
    base.update(overrides)
    with pytest.raises(ConfigError, match=match):
        resolve_config(None, {k: v for k, v in base.items() if v is not None}, {})


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
    assert eavf[col["newton_iters"]] == eavf[col["linear_solves"]] == "2000"


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
