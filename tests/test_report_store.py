import io
import json
import os
import re
import subprocess
import sys

import pytest

from curvlab.errors import ReportStoreError
from curvlab.potential import default_t_grid
from curvlab.report_store import load, make_record, save
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


# In a fresh process: after `import curvlab`, after `import curvlab.cli` and
# after each run, the curvlab modules loaded, which of hashlib and _hashlib
# (OpenSSL's libcrypto) are, and whether datetime is; then the names of
# curvlab.__all__ that `from curvlab import *` leaves unbound.
_IMPORT_PROBE = """
import contextlib, io, json, sys
def loaded():
    return [
        sorted(name for name in sys.modules if name.partition(".")[0] == "curvlab"),
        [name for name in ("hashlib", "_hashlib") if name in sys.modules],
        "datetime" in sys.modules,
    ]
import curvlab
seen = [loaded()]
import curvlab.cli
seen.append(loaded())
runs = [
    ["potential", "--model", "perturbed-schwarzschild", "--grid", "8"],
    ["functionals", "--model", "euclidean", "--grid", "8"],
    ["mass", "--model", "euclidean"],
    ["verify", "--model", "schwarzschild", "--grid", "16"],
    ["verify", "--model", "schwarzschild", "--grid", "16", "--save-report", "--out", sys.argv[1]],
]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        assert curvlab.cli.main(argv) == 0, argv
        seen.append(loaded())
names = {}
exec("from curvlab import *", names)
print(json.dumps([seen, [name for name in curvlab.__all__ if name not in names]]))
"""


@pytest.fixture(scope="module")
def import_probe(tmp_path_factory):
    """The probe's steps, its unbound names, and the directory its --save-report wrote to."""
    out = tmp_path_factory.mktemp("probe")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cp = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(out)], capture_output=True, text=True, env=env)
    assert cp.returncode == 0, cp.stderr
    seen, unbound = json.loads(cp.stdout)
    return seen, unbound, out


def test_hashlib_is_loaded_only_to_hash_a_record(import_probe):
    seen, _, out = import_probe
    assert [hashes for _, hashes, _ in seen] == [[]] * 6 + [["hashlib", "_hashlib"]]
    assert len(list(out.glob("run-*.txt"))) == 1


def test_each_command_imports_only_the_modules_it_runs(import_probe):
    # `import curvlab` resolves its exports on first access; the level-map
    # modules come with the CLI, and mass, verify and report_store with the
    # runs that execute them.  No step imports datetime.
    seen, unbound, _ = import_probe
    cli = ["cli", "errors", "functionals", "numerics", "potential", "profile"]
    steps = [[], cli, cli, cli, [*cli, "mass"], [*cli, "mass", "verify"], [*cli, "mass", "verify", "report_store"]]
    expected = [sorted(["curvlab", *(f"curvlab.{name}" for name in step)]) for step in steps]
    assert [modules for modules, _, _ in seen] == expected
    assert [datetime for _, _, datetime in seen] == [False] * 7
    assert unbound == []


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


def test_save_refuses_a_different_record_under_its_run_id(tmp_path, schw_record):
    # run_id hashes the config echo and the version, not the reports.
    path = save(schw_record, tmp_path)
    other = make_record(schw_record.config_echo, "check other", schw_record.version, "t")
    assert other.run_id == schw_record.run_id
    message = f"{path} already holds a different record for run_id {other.run_id}"
    with pytest.raises(ReportStoreError, match=f"^{re.escape(message)}$"):
        save(other, tmp_path)
    assert load(path) == schw_record


def test_save_that_cannot_write_leaves_no_record(tmp_path, schw_record):
    # A directory where the temp file goes fails the write for every user, root included.
    (tmp_path / f"run-{schw_record.run_id}.tmp").mkdir()
    path = tmp_path / f"run-{schw_record.run_id}.txt"
    with pytest.raises(ReportStoreError, match=f"^{re.escape(f'cannot write {path}: ')}"):
        save(schw_record, tmp_path)
    assert not path.exists()


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        (lambda lines: lines[:7], "not a schema=1 run record"),
        (lambda lines: ["schema=2", *lines[1:]], "not a schema=1 run record"),
        (lambda lines: [lines[0], "id" + lines[1][len("run_id"):], *lines[2:]], "expected run_id= on line 2"),
        (lambda lines: [line for line in lines if line != "reports-end"], "missing section markers"),
    ],
    ids=["short", "schema", "run_id", "markers"],
)
def test_load_refuses_a_malformed_record(tmp_path, schw_record, edit, message):
    path = save(schw_record, tmp_path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ReportStoreError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load(path)
