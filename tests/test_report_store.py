import io
import os
import re
import subprocess
import sys

import pytest

from curvlab import __version__
from curvlab.errors import ReportStoreError, SchemaMismatch
from curvlab.potential import default_t_grid
from curvlab.report_store import diff, load, make_record, save
from curvlab.verify import run_battery, write_report_text
from frozen_outputs import ROOT


def _report_text(sol, grid_points=32):
    report = run_battery(sol, default_t_grid(sol, grid_points))
    buf = io.StringIO()
    write_report_text(report, buf)
    return buf.getvalue()


@pytest.fixture(scope="module")
def schw_record(schw1_sol):
    return make_record("model=schwarzschild\nmass=1.0", _report_text(schw1_sol), "0.1.0", "2026-01-01T00:00:00")


def test_round_trip(tmp_path, schw_record):
    path = save(schw_record, tmp_path)
    loaded = load(path)
    assert loaded == schw_record
    assert loaded.run_id == schw_record.run_id
    assert loaded.config_echo == schw_record.config_echo
    assert loaded.reports == schw_record.reports
    assert loaded.version == schw_record.version


def test_identical_save_is_noop(tmp_path, schw_record):
    path1 = save(schw_record, tmp_path)
    stamp = path1.stat().st_mtime_ns
    path2 = save(schw_record, tmp_path)
    assert path1 == path2
    assert path2.stat().st_mtime_ns == stamp


def test_distinct_configs_get_distinct_ids(schw1_sol):
    text = _report_text(schw1_sol)
    a = make_record("model=schwarzschild\ngrid=32", text, "0.1.0", "t0")
    b = make_record("model=schwarzschild\ngrid=64", text, "0.1.0", "t0")
    assert a.run_id != b.run_id


def test_run_id_deterministic(schw1_sol):
    text = _report_text(schw1_sol)
    a = make_record("cfg", text, "0.1.0", "2026-01-01")
    b = make_record("cfg", text, "0.1.0", "2026-06-30")  # created_at not hashed
    assert a.run_id == b.run_id


def test_run_id_is_pinned():
    # The first 16 hex digits of sha256(config echo + "\n" + version); a
    # change here would give every saved record a new file name.
    assert make_record("model=schwarzschild\nmass=1.0", "", "0.1.0", "t0").run_id == "8557e761286f3e3f"
    assert make_record("model=schwarzschild\nmass=1.0\n", "r", "0.2.0", "t1").run_id == "d6a9d77363987dc4"


# Prints which of hashlib and _hashlib (OpenSSL's libcrypto) are loaded
# after the import, after a verify, and after a verify with --save-report.
_HASHLIB_PROBE = """
import contextlib, io, sys
import curvlab.cli
def loaded():
    return [name for name in ("hashlib", "_hashlib") if name in sys.modules]
seen = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    assert curvlab.cli.main(["verify", "--model", "schwarzschild", "--grid", "16"]) == 0
    seen.append(loaded())
    assert curvlab.cli.main(["verify", "--model", "schwarzschild", "--grid", "16", "--save-report", "--out", sys.argv[1]]) == 0
seen.append(loaded())
print(seen)
"""


def test_hashlib_is_loaded_only_to_hash_a_record(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cp = subprocess.run(
        [sys.executable, "-c", _HASHLIB_PROBE, str(tmp_path)], capture_output=True, text=True, env=env
    )
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == "[[], [], ['hashlib', '_hashlib']]\n"
    assert len(list(tmp_path.glob("run-*.txt"))) == 1


def test_corrupted_file_surfaces_error(tmp_path, schw_record):
    path = save(schw_record, tmp_path)
    text = path.read_text().replace("model=schwarzschild", "model=tampered")
    path.write_text(text)
    with pytest.raises(ReportStoreError):
        load(path)
    with pytest.raises(ReportStoreError):
        save(schw_record, tmp_path)  # never silently overwrites


def test_undecodable_file_surfaces_error(tmp_path, schw_record):
    path = save(schw_record, tmp_path)
    path.write_bytes(path.read_bytes().replace(b"schwarzschild", b"schwarzschild\xe9"))
    with pytest.raises(ReportStoreError, match="cannot read"):
        load(path)
    with pytest.raises(ReportStoreError):
        save(schw_record, tmp_path)


def test_diff_of_identical_records_is_empty(schw_record):
    assert diff(schw_record, schw_record) == ""


def test_diff_flags_margin_and_status_changes(schw1_sol, perturbed_sol):
    a = make_record("cfg-a", _report_text(schw1_sol), "0.1.0", "t")
    b = make_record("cfg-b", _report_text(perturbed_sol), "0.1.0", "t")
    out = diff(a, b)
    assert "a1_upper_bound" in out
    assert "EqualityDetected -> Pass" in out


def test_diff_schema_mismatch(schw1_sol, euclid_sol):
    a = make_record("cfg-a", _report_text(schw1_sol), "0.1.0", "t")
    b = make_record("cfg-b", _report_text(euclid_sol), "0.1.0", "t")
    with pytest.raises(SchemaMismatch):
        diff(a, b)


# Check lines of a 0.1.0 Schwarzschild report that 0.2.0 no longer writes:
# algebraic identities of functional_row, asserted in test_properties.
_DROPPED_IN_0_2_0 = """\
check deficit_nonnegative EqualityDetected 0.0 0.5 1e-09
check identity_f_from_gprime Pass -9.006933485619723e-16 7.533289028156558 1e-09
check identity_a1_g Pass -2.8271597168564594e-16 0.530713867287078 1e-10
check flux_constancy Pass -2.8271597168564594e-16 1.0534171779489063 1e-09
check cauchy_schwarz_growth EqualityDetected -2.700193954655488e-27 678.7536785637899 1e-09
check a1_growth_lower_bound EqualityDetected -1.2126102489933225e-14 30.57804860811336 1e-08"""


def test_diff_against_a_0_1_0_record_names_the_dropped_checks(schw1_sol):
    new = make_record("cfg", _report_text(schw1_sol), __version__, "t")
    old = make_record("cfg", new.reports + "\n" + _DROPPED_IN_0_2_0, "0.1.0", "t")
    dropped = sorted(line.split()[1] for line in _DROPPED_IN_0_2_0.splitlines())
    with pytest.raises(SchemaMismatch, match=re.escape(f"only-a={dropped}, only-b=[]")):
        diff(old, new)
