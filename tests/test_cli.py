import math
import os
import subprocess
import sys

import numpy as np
import pytest

from curvlab import __version__
from curvlab.cli import build_parser, main
from curvlab.report_store import load, make_record, save
from frozen_outputs import (
    DATA,
    FUNCTIONALS_HEAD,
    FUNCTIONALS_TABLES,
    MASS_REPORTS,
    MODELS_LIST,
    POTENTIAL_TABLES,
    ROOT,
    VERIFY_REPORTS,
    frozen_runs,
    run_cli,
    strip_timestamp,
    write_inputs,
)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "curvlab" in cp.stdout


def test_models_lists_builtins():
    # Every model's description, in the listed order, with no stamp.
    cp = run_cli("models")
    assert cp.returncode == 0
    assert cp.stdout == (DATA / MODELS_LIST).read_text()


def test_verify_schwarzschild_equalities():
    cp = run_cli("verify", "--model", "schwarzschild", "--mass", "1")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.count("EqualityDetected") >= 5
    for name in (
        "boundary_gradient_estimate",
        "a1_upper_bound",
        "area_comparison",
        "area_capacity_inequality",
        "volume_comparison",
    ):
        line = next(ln for ln in cp.stdout.splitlines() if ln.startswith(f"check {name} "))
        assert "EqualityDetected" in line


def test_verify_stdout_deterministic_modulo_timestamp():
    a = run_cli("verify", "--model", "schwarzschild", "--mass", "1", "--grid", "32")
    b = run_cli("verify", "--model", "schwarzschild", "--mass", "1", "--grid", "32")
    assert a.returncode == b.returncode == 0
    assert strip_timestamp(a.stdout) == strip_timestamp(b.stdout)


def test_mass_mollified():
    cp = run_cli("mass", "--model", "mollified-schwarzschild", "--mass", "1", "--r0", "1")
    assert cp.returncode == 0, cp.stderr
    values = {}
    for line in cp.stdout.splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, val = line.partition("=")
            values[key] = val
    assert abs(float(values["m_surface"]) - 1.0) <= 1e-3
    assert abs(float(values["m_volume"]) - 1.0) <= 1e-2


def test_custom_non_monotone_csv_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    rows = ["s,f", "1.0,2.0", "0.5,3.0"] + [f"{i}.0,{i + 2}.0" for i in range(2, 10)]
    bad.write_text("\n".join(rows) + "\n")
    cp = run_cli(
        "verify", "--model", "custom", "--profile", str(bad), "--assume-nonnegative-r", "true"
    )
    assert cp.returncode == 2
    assert "strictly increasing" in cp.stderr


def test_custom_negative_curvature_exits_1(tmp_path):
    csv = tmp_path / "rneg.csv"
    ss = np.linspace(0.0, 60.0, 601)
    lines = ["s,f"] + [f"{float(s)!r},{2.0 + float(s) ** 2 / (2.0 + 0.4 * float(s))!r}" for s in ss]
    csv.write_text("\n".join(lines) + "\n")
    cp = run_cli(
        "verify",
        "--model", "custom",
        "--profile", str(csv),
        "--assume-nonnegative-r", "false",
        "--grid", "32",
    )
    assert cp.returncode == 1, cp.stderr
    assert "hypothesis violated" in cp.stdout
    assert "r_nonneg_confirmed=false" in cp.stdout


def test_grid_too_small_exits_2():
    cp = run_cli("verify", "--model", "schwarzschild", "--mass", "1", "--grid", "4")
    assert cp.returncode == 2
    assert cp.stderr == "error: grid must be at least 8\n"  # the key a user types


def test_missing_model_exits_2():
    cp = run_cli("verify")
    assert cp.returncode == 2


def _usage_error(capsys, *argv: str) -> str:
    """Run the CLI in process; assert exit 2 before any output and return stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    return captured.err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_bad_tol_exits_2(capsys, tol):
    err = _usage_error(capsys, "verify", "--model", "schwarzschild", "--grid", "16", "--tol", tol)
    assert "--tol" in err


@pytest.mark.parametrize(
    "flags",
    [
        ("--model", "euclidean", "--t-max-factor", "inf"),
        ("--model", "euclidean", "--t-min-factor", "nan"),
        ("--model", "schwarzschild", "--mass", "nan"),
        ("--model", "mollified-schwarzschild", "--r0", "inf"),
        ("--model", "perturbed-schwarzschild", "--amplitude", "nan"),
        ("--model", "perturbed-schwarzschild", "--offset=-inf"),
    ],
)
def test_non_finite_values_exit_2(capsys, flags):
    err = _usage_error(capsys, "potential", "--grid", "8", *flags)
    assert "must be finite" in err


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=euclidean\ngird=16\n")
    err = _usage_error(capsys, "potential", "--config", str(cfg))
    assert "gird" in err


def test_unparsable_config_value_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=euclidean\ngrid=sixteen\n")
    err = _usage_error(capsys, "potential", "--config", str(cfg))
    assert "grid" in err


@pytest.mark.parametrize("key", ["save_report", "assume_nonnegative_r"])
def test_bad_boolean_config_value_names_its_key(capsys, tmp_path, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model=euclidean\n{key}=maybe\n")
    assert _usage_error(capsys, "potential", "--config", str(cfg)) == f"error: bad value for {key}: 'maybe'\n"


def test_config_line_without_a_key_names_its_line(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=euclidean\n=5\n")
    assert _usage_error(capsys, "potential", "--config", str(cfg)) == f"error: {cfg}:2: expected key=value\n"


def test_config_key_given_twice_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=euclidean\ngrid=8\n# finer\ngrid = 16\n")
    assert _usage_error(capsys, "potential", "--config", str(cfg)) == f"error: {cfg}:4: grid is given twice\n"


def test_config_file_with_byte_order_mark(capsys, tmp_path):
    # Spreadsheet and Windows editors write a UTF-8 byte-order mark first.
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfmodel=euclidean\ngrid=8\n")
    assert main(["potential", "--config", str(cfg)]) == 0
    table = strip_timestamp(capsys.readouterr().out)
    assert main(["potential", "--model", "euclidean", "--grid", "8"]) == 0
    assert table == strip_timestamp(capsys.readouterr().out)


def test_undecodable_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("model=euclidean\n# r\u00e9glage\n".encode("latin-1"))
    err = _usage_error(capsys, "potential", "--config", str(cfg))
    assert "cannot read config" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--model", "schwarzschild", "--mass", "1e300"),
        ("verify", "--model", "mollified-schwarzschild", "--mass", "1", "--r0", "1e-300"),
        ("mass", "--model", "mollified-schwarzschild", "--mass", "1e200", "--r0", "1"),
    ],
    ids=["overflow", "zero-division", "mass-overflow"],
)
def test_arithmetic_error_exits_2(capsys, argv):
    # Finite parameters so extreme that float arithmetic overflows or divides
    # by zero get one error line, not a traceback.
    err = _usage_error(capsys, *argv)
    assert err.count("\n") == 1


def test_builtin_models_do_not_import_numpy():
    # The built-in path runs on the standard library; so does --model custom
    # (see test_csv_profiles_do_not_import_numpy).
    script = (
        "import sys\n"
        "from curvlab import cli\n"
        "for argv in (\n"
        "    ['verify', '--model', 'schwarzschild', '--mass', '1', '--grid', '16'],\n"
        "    ['functionals', '--model', 'euclidean', '--grid', '8'],\n"
        "    ['potential', '--model', 'perturbed-schwarzschild', '--grid', '8'],\n"
        "    ['mass', '--model', 'mollified-schwarzschild', '--mass', '1', '--r0', '1'],\n"
        "):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cp = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[-1] == "[]"


def test_csv_profiles_do_not_import_numpy(tmp_path):
    # The CSV spline is built and evaluated in the standard library, in both
    # layouts; numpy and scipy are test-only dependencies.
    from curvlab.profile import mollified_schwarzschild

    write_inputs(tmp_path)  # rneg.csv, an s,f profile, and moll.csv, an r,w one
    c = mollified_schwarzschild(1.0, 1.0)
    rs = [0.25 * k for k in range(41)]
    assert (tmp_path / "moll.csv").read_text() == "r,w\n" + "".join(f"{r!r},{c.w(r)!r}\n" for r in rs)
    script = (
        "import contextlib, io, sys\n"
        "from curvlab import cli\n"
        "for name, assume in (('rneg.csv', 'false'), ('moll.csv', 'true')):\n"
        "    argv = ['verify', '--model', 'custom', '--profile', name, '--assume-nonnegative-r', assume, '--grid', '16']\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    assert code in (0, 1), (argv, code)  # a verdict, not a usage or data error\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cp = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[-1] == "[]"


def test_functionals_golden_head():
    args, name = FUNCTIONALS_HEAD
    cp = run_cli("functionals", *args)
    assert cp.returncode == 0, cp.stderr
    got = strip_timestamp(cp.stdout).strip().splitlines()
    expected = (DATA / name).read_text().strip().splitlines()
    assert got[: len(expected)] == expected


@pytest.mark.parametrize(("args", "name"), FUNCTIONALS_TABLES)
def test_functionals_table_frozen(args, name):
    # Every functional column, the boundary ones included, lands on the same bits.
    cp = run_cli("functionals", *args)
    assert cp.returncode == 0, cp.stderr
    assert strip_timestamp(cp.stdout) + "\n" == (DATA / name).read_text()


@pytest.mark.parametrize(("args", "name"), MASS_REPORTS)
def test_mass_report_frozen(args, name):
    cp = run_cli("mass", *args)
    assert cp.returncode == 0, cp.stderr
    assert strip_timestamp(cp.stdout) + "\n" == (DATA / name).read_text()


@pytest.mark.parametrize(("args", "name"), POTENTIAL_TABLES)
def test_potential_table_frozen(args, name):
    # Every level solve lands on the same bits as when the file was written.
    cp = run_cli("potential", *args)
    assert cp.returncode == 0, cp.stderr
    assert strip_timestamp(cp.stdout) + "\n" == (DATA / name).read_text()


@pytest.mark.parametrize(("args", "name", "code"), VERIFY_REPORTS)
def test_verify_report_frozen(tmp_path, args, name, code):
    # Every margin, tolerance, note and annotation lands on the same bits as
    # when the file was written.
    write_inputs(tmp_path)
    cp = run_cli("verify", *args, cwd=tmp_path)
    assert cp.returncode == code, cp.stderr
    assert strip_timestamp(cp.stdout) + "\n" == (DATA / name).read_text()


def test_functionals_to_directory(tmp_path):
    cp = run_cli("functionals", "--model", "euclidean", "--grid", "8", "--out", str(tmp_path))
    assert cp.returncode == 0
    content = (tmp_path / "functionals.csv").read_text()
    assert content.startswith("t,s,u,area,grad,H,R,Fhat,G,F,A1,A1tilde,a,B1,Fprime,Gprime,volume\n")


def test_potential_to_directory(tmp_path, capsys):
    # --out writes the table that stdout carries without it; at the parent
    # the flag was read and ignored, and no file was made.
    argv = ["potential", "--model", "euclidean", "--grid", "8"]
    assert main(argv) == 0
    table = strip_timestamp(capsys.readouterr().out) + "\n"
    assert main([*argv, "--out", str(tmp_path / "potout")]) == 0
    path = tmp_path / "potout" / "potential.csv"
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# generated_at=") and lines[1:] == [f"wrote {path}"]
    assert path.read_text() == table


def test_save_report_creates_run_record(tmp_path):
    cp = run_cli(
        "verify", "--model", "schwarzschild", "--mass", "1", "--grid", "16",
        "--out", str(tmp_path), "--save-report",
    )
    assert cp.returncode == 0, cp.stderr
    records = list(tmp_path.glob("run-*.txt"))
    assert len(records) == 1
    assert (tmp_path / "verify.csv").exists()


def test_save_report_beside_a_record_of_the_previous_version(tmp_path):
    # A 0.1.0 record of the same config holds checks that 0.2.0 dropped; the
    # version is part of the run_id, so the new record gets its own file.
    argv = ["verify", "--model", "schwarzschild", "--mass", "1", "--grid", "16", "--save-report"]
    assert main([*argv, "--out", str(tmp_path / "fresh")]) == 0
    current = load(next((tmp_path / "fresh").glob("run-*.txt")))
    stale = tmp_path / "stale"
    old = save(
        make_record(
            current.config_echo,
            current.reports + "\ncheck deficit_nonnegative EqualityDetected 0.0 0.5 1e-09",
            "0.1.0",
            "2026-01-01T00:00:00",
        ),
        stale,
    )
    assert main([*argv, "--out", str(stale)]) == 0
    (new,) = set(stale.glob("run-*.txt")) - {old}
    assert load(new).version == __version__ != "0.1.0"
    assert load(new).reports == current.reports


def test_save_report_over_an_undecodable_record_exits_2(tmp_path, capsys):
    argv = ["verify", "--model", "euclidean", "--grid", "8", "--out", str(tmp_path), "--save-report"]
    assert main(argv) == 0
    (record,) = tmp_path.glob("run-*.txt")
    record.write_bytes(record.read_bytes() + b"\xff\n")
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "cannot read" in err and err.count("\n") == 1
    # The record is saved before the report is printed: a failed save leaves
    # no report on stdout to read as a finished run.
    assert not any(line.startswith("check ") for line in out.splitlines())


@pytest.mark.parametrize(
    ("argv", "name"),
    [
        (["potential", "--model", "euclidean", "--grid", "8"], "potential.csv"),
        (["functionals", "--model", "euclidean", "--grid", "8"], "functionals.csv"),
        (["verify", "--model", "euclidean", "--grid", "8"], "verify.csv"),
        (["mass", "--model", "euclidean"], "mass.csv"),
    ],
    ids=["potential", "functionals", "verify", "mass"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv, name):
    # A directory where the output file goes: one error line, exit 2 (not 1,
    # the failed-check code), and nothing on stdout.
    (tmp_path / name).mkdir()
    assert main([*argv, "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write ") and name in err and err.count("\n") == 1


def test_rneg_csv_fails_exactly_the_g_signs_and_riccati(tmp_path, capsys):
    write_inputs(tmp_path)
    code = main(
        ["verify", "--model", "custom", "--profile", str(tmp_path / "rneg.csv"),
         "--assume-nonnegative-r", "false", "--grid", "32"]
    )
    checks = [ln.split() for ln in capsys.readouterr().out.splitlines() if ln.startswith("check ")]
    assert code == 1
    assert {c[1] for c in checks if c[2] == "Fail"} == {"g_monotone", "g_nonpositive", "riccati_growth"}


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=schwarzschild\nmass=1.0\ngrid=16\n")
    cp = run_cli("verify", "--config", str(cfg), "--grid", "24")
    assert cp.returncode == 0, cp.stderr


def test_potential_table():
    cp = run_cli("potential", "--model", "euclidean", "--grid", "8")
    assert cp.returncode == 0
    lines = strip_timestamp(cp.stdout).strip().splitlines()
    assert "t,s,u,grad" in lines
    data = [ln for ln in lines if ln and not ln.startswith("#") and ln[0].isdigit()]
    assert len(data) == 8


def test_tol_flag_rescales_checks():
    cp = run_cli(
        "verify", "--model", "schwarzschild", "--mass", "1", "--grid", "16", "--tol", "1e-6"
    )
    assert cp.returncode == 0, cp.stderr
    line = next(ln for ln in cp.stdout.splitlines() if ln.startswith("check a1_upper_bound "))
    assert line.rstrip().endswith("1e-06")


def test_functionals_euclidean_closed_form():
    # Flat space: s = t, u = 1 - 1/t, area = 4 pi t^2, volume = 4 pi t^3/3, Fhat = 0.
    cp = run_cli("functionals", "--model", "euclidean", "--grid", "64")
    assert cp.returncode == 0, cp.stderr
    lines = strip_timestamp(cp.stdout).strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
    assert len(rows) == 64
    for row in rows:
        t = row["t"]
        assert abs(row["s"] - t) <= 1e-13 * t
        assert abs(row["u"] - (1.0 - 1.0 / t)) <= 1e-13
        assert abs(row["area"] - 4.0 * math.pi * t * t) <= 1e-13 * 4.0 * math.pi * t * t
        assert abs(row["volume"] - 4.0 * math.pi * t ** 3 / 3.0) <= 1e-13 * 4.0 * math.pi * t ** 3 / 3.0
        assert abs(row["Fhat"]) <= 1e-13


def test_tol_flag_at_default_reproduces_default_report():
    # --tol names the relative base tolerance; the absolute one scales with it,
    # so the documented default value must give the default report.
    default = run_cli("verify", "--model", "perturbed-schwarzschild", "--grid", "32")
    flagged = run_cli("verify", "--model", "perturbed-schwarzschild", "--grid", "32", "--tol", "1e-8")
    assert default.returncode == flagged.returncode == 0, flagged.stderr
    assert strip_timestamp(flagged.stdout) == strip_timestamp(default.stdout)


def test_potential_reaches_far_levels(capsys):
    # t up to 1e9 C reads anchors near x_ref 2^30, whose integrals on the
    # unit-scale map of [x, oo) did not converge.
    code = main(["potential", "--model", "perturbed-schwarzschild", "--grid", "8", "--t-max-factor", "1e9"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert lines[0] == "t,s,u,grad" and len(lines) == 9


def test_potential_failed_level_writes_no_table(capsys):
    # Every level is solved before the first line is written: a level that
    # cannot be solved leaves stdout empty instead of a partial table.  The
    # far anchors converge, so these levels fail in the bracket walk.
    err = _usage_error(
        capsys, "potential", "--model", "euclidean", "--t-min-factor", "1e300", "--t-max-factor", "1e301", "--grid", "8"
    )
    assert "level lies beyond the resolvable range" in err


def _verify_lines(capsys, *argv: str) -> tuple[int, dict[str, str], list[str]]:
    """Run verify in process: (exit code, header fields, check lines)."""
    code = main(["verify", *argv])
    lines = capsys.readouterr().out.splitlines()
    fields = dict(ln.split("=", 1) for ln in lines if "=" in ln and not ln.startswith(("#", "check ")))
    return code, fields, [ln for ln in lines if ln.startswith("check ")]


def test_verify_skips_fd_checks_when_no_level_clears_the_stencil(capsys):
    # At C ~ 1.4e-6 the stencil step 1e-4 max(1, t) reaches below C/2 at
    # every grid level: the three finite-difference checks have no margin.
    code, _, checks = _verify_lines(
        capsys, "--model", "perturbed-schwarzschild", "--mass", "1e-6", "--amplitude", "1e-6",
        "--offset", "1e-6", "--t-max-factor", "100",
    )
    assert code == 0
    skipped = {ln.split()[1] for ln in checks if ln.split()[2] == "Skipped"}
    assert skipped == {"gprime_vs_fd", "fprime_vs_fd", "riccati_growth"}
    assert all(ln.endswith("# no grid level admits the check") for ln in checks if "Skipped" in ln)


@pytest.mark.parametrize("argv", [("--mass", "0.001"), ("--mass", "1e-6", "--t-max-factor", "100")])
def test_small_schwarzschild_is_an_equality_case(capsys, argv):
    # R = 0 exactly; its rounding noise grows like eps/f^2 at small scale and
    # must not read as a hypothesis violation.
    code, fields, checks = _verify_lines(capsys, "--model", "schwarzschild", *argv, "--grid", "64")
    assert code == 0
    assert fields["r_nonneg_confirmed"] == "true"
    assert not any(key == "annotation" for key in fields)
    assert not any(" Fail " in ln for ln in checks)


def _finite_rows(header: str) -> list[str]:
    return [header] + [f"{i + 1}.0,{i + 3}.0" for i in range(10)]


@pytest.mark.parametrize(
    ("header", "row", "value"),
    [("s,f", 4, "nan"), ("s,f", 4, "inf"), ("s,f", 0, "-inf"), ("r,w", 6, "inf")],
)
def test_non_finite_csv_value_exits_2(capsys, tmp_path, header, row, value):
    rows = _finite_rows(header)
    rows[row + 1] = f"{row + 1}.0,{value}"
    csv = tmp_path / "bad.csv"
    csv.write_text("\n".join(rows) + "\n")
    err = _usage_error(capsys, "verify", "--model", "custom", "--profile", str(csv), "--assume-nonnegative-r", "true")
    assert f"{csv}:{row + 2}: values must be finite" in err


@pytest.mark.parametrize("case", ["missing", "directory", "undecodable"])
def test_unreadable_profile_exits_2(capsys, tmp_path, case):
    path = tmp_path / "profile.csv"
    if case == "directory":
        path.mkdir()
    elif case == "undecodable":
        path.write_bytes(b"s,f\n\xff,1.0\n")
    err = _usage_error(capsys, "verify", "--model", "custom", "--profile", str(path), "--assume-nonnegative-r", "true")
    assert f"cannot read profile {path}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--model", "schwarzschild", "--grid", "8"),
        ("verify", "--model", "schwarzschild", "--grid", "8", "--save-report"),
        ("functionals", "--model", "euclidean", "--grid", "8"),
        ("potential", "--model", "euclidean", "--grid", "8"),
        ("mass", "--model", "euclidean"),
    ],
)
def test_out_below_a_file_exits_2_before_any_output(capsys, tmp_path, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    err = _usage_error(capsys, *argv, "--out", str(blocker / "sub"))
    assert "cannot create output directory" in err


_OUT_RUNS = [run for run in frozen_runs() if run[0] != ("models",)]


@pytest.mark.parametrize(("argv", "name", "code"), _OUT_RUNS, ids=[name for _, name, _ in _OUT_RUNS])
def test_out_writes_every_file_before_stdout(capsys, tmp_path, monkeypatch, argv, name, code):
    # Each frozen run, repeated with --out (verify also with --save-report):
    # the same exit code, then stdout is the stamp, the frozen body (empty
    # for the tables, which go to their files) and one line per file.
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    command = argv[0]
    save = ["--save-report"] if command == "verify" else []
    assert main([*argv, "--out", "out", *save]) == code
    stamp, *lines = capsys.readouterr().out.splitlines(True)
    assert stamp.startswith("# generated_at=")
    frozen = (DATA / name).read_text()
    table = command in ("potential", "functionals")
    announced = [f"wrote out/{command}.csv\n"]
    if command == "verify":
        (record,) = (tmp_path / "out").glob("run-*.txt")
        announced.append(f"saved out/{record.name}\n")
        csv_rows = (tmp_path / "out" / "verify.csv").read_text().splitlines()[1:]
        assert len(csv_rows) == sum(line.startswith("check ") for line in frozen.splitlines())
    assert "".join(lines) == ("" if table else frozen) + "".join(announced)
    if table:
        assert (tmp_path / "out" / f"{command}.csv").read_text() == frozen


@pytest.mark.parametrize(
    "argv",
    [
        ("mass", "--model", "schwarzschild"),
        ("potential", "--model", "euclidean", "--t-min-factor", "1e300", "--t-max-factor", "1e301", "--grid", "8"),
    ],
    ids=["usage-error", "failed-level"],
)
def test_run_that_exits_2_makes_no_output_directory(capsys, tmp_path, argv):
    # The directory is made only once every output is ready to be written.
    _usage_error(capsys, *argv, "--out", str(tmp_path / "new"))
    assert not (tmp_path / "new").exists()


def test_mass_warning_comes_before_the_wrote_line(capsys, tmp_path):
    out = tmp_path / "heavy"
    assert main(["mass", "--model", "mollified-schwarzschild", "--mass", "50", "--r0", "1", "--out", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["warning: the two estimators disagree beyond 1%", f"wrote {out / 'mass.csv'}"]


@pytest.mark.parametrize("mass", ["10", "50", "99"])
def test_heavy_mollified_model_runs(capsys, mass):
    # A harmonic end of mass m has f_s - 1 ~ -m/r, twice w - 1: to_warped
    # declared these ends flat from w at r >= 1e3 and the profile refused
    # them from f_s at x = 100, so every subcommand exited 2.  The mass
    # subcommand exits 1 on its own gate: its two estimators disagree
    # beyond 1 % at these masses.
    model = ["--model", "mollified-schwarzschild", "--mass", mass, "--r0", "1"]
    assert main(["verify", *model, "--grid", "32"]) == 0
    assert main(["mass", *model]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith("warning: the two estimators disagree beyond 1%\n")


@pytest.fixture
def parser_builds(monkeypatch):
    """Count the parser trees built from an empty per-process parser cache."""
    from curvlab import cli

    builds = []
    build = cli.build_parser

    def counted():
        builds.append(None)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    yield builds
    cli._parser.cache_clear()


def test_parser_is_built_once_per_process(parser_builds, capsys, tmp_path):
    for argv in (
        ["models"],
        ["potential", "--model", "euclidean", "--grid", "8"],
        ["functionals", "--model", "euclidean", "--grid", "8"],
        ["verify", "--model", "euclidean", "--grid", "16"],
        ["mass", "--model", "mollified-schwarzschild", "--mass", "1", "--r0", "1"],
    ):
        assert main(argv) == 0, argv
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    assert exc.value.code == 2
    assert main(["verify", "--model", "euclidean", "--grid", "4"]) == 2
    # A config file's values hold for its own run only.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=euclidean\ngrid=8\n")
    capsys.readouterr()
    assert main(["potential", "--config", str(cfg)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 4 + 8 and rows[-9] == "t,s,u,grad"
    assert main(["potential", "--model", "euclidean", "--t-max-factor", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4 + 256
    assert main(["potential"]) == 2
    assert "--model is required" in capsys.readouterr().err
    assert len(parser_builds) == 1
    assert build_parser() is not build_parser()


def _replay_frozen_runs(capsys, runs) -> None:
    for argv, name, code in runs:
        assert main(list(argv)) == code, name
        assert strip_timestamp(capsys.readouterr().out) + "\n" == (DATA / name).read_text(), name


def test_frozen_runs_replay_in_one_process(capsys, tmp_path, monkeypatch):
    # Every frozen run, in listed order and then reversed, through one
    # process's main: no call leaves state that moves another's bytes.
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    runs = list(frozen_runs())
    _replay_frozen_runs(capsys, runs)
    _replay_frozen_runs(capsys, runs[::-1])


@pytest.mark.parametrize(
    ("argv", "code"),
    [(("--help",), 0), (("verify", "--help"), 0), (("verify", "--bogus"), 2)],
    ids=["help", "verify-help", "usage-error"],
)
def test_cached_parser_prints_what_a_fresh_process_prints(capsys, monkeypatch, argv, code):
    # argparse wraps help to the terminal width; pin it on both sides.
    monkeypatch.setenv("COLUMNS", "80")
    cp = run_cli(*argv)
    assert main(["models"]) == 0  # the parser is built, so the request below reuses it
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == cp.returncode == code
    assert (captured.out, captured.err) == (cp.stdout, cp.stderr)
