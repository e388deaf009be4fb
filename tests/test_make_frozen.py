import pytest

from make_frozen import report, update

_OLD = """\
schema=1
annotation=first
annotation=second
check a Pass -1.0 2.0 1e-09
check b EqualityDetected 0.0 0.5 1e-09 # a note
check c Pass -3.0 4.0 1e-08
"""


def test_report_names_a_dropped_check_and_keeps_the_other_lines_aligned(capsys):
    new = _OLD.replace("check b EqualityDetected 0.0 0.5 1e-09 # a note\n", "").replace("-3.0", "-3.5")
    report("v.txt", _OLD, new)
    assert capsys.readouterr().out.splitlines() == [
        "v.txt: 1 lines removed, 0 added, 1 fields changed, largest move 1.13e+15 ulp",
        "  removed check b",
        "  check c margin: -3.0 -> -3.5 (1.13e+15 ulp)",
    ]


def test_report_names_an_added_check_and_repeated_keys(capsys):
    new = _OLD.replace("annotation=second", "annotation=other") + "check d Fail -2.0 1.0 1e-09\n"
    report("v.txt", _OLD, new)
    assert capsys.readouterr().out.splitlines() == [
        "v.txt: 0 lines removed, 1 added, 1 fields changed",
        "  added check d",
        "  annotation #2: second -> other",
    ]


@pytest.fixture
def data_dir(tmp_path, monkeypatch):
    import make_frozen

    monkeypatch.setattr(make_frozen, "DATA", tmp_path)
    (tmp_path / "v.txt").write_text(_OLD)
    return tmp_path


def test_check_passes_when_no_output_moves(data_dir, capsys):
    assert update({"v.txt": _OLD}, check=True) == 0
    assert capsys.readouterr().out == "v.txt: unchanged\n"
    assert (data_dir / "v.txt").read_text() == _OLD


def test_check_reports_a_move_and_writes_nothing(data_dir, capsys):
    new = _OLD.replace("-3.0", "-3.5")
    assert update({"v.txt": new, "w.txt": "x=1\n"}, check=True) == 1
    assert capsys.readouterr().out.splitlines() == [
        "v.txt: 0 lines removed, 0 added, 1 fields changed, largest move 1.13e+15 ulp",
        "  check c margin: -3.0 -> -3.5 (1.13e+15 ulp)",
        "w.txt: new file",
    ]
    assert (data_dir / "v.txt").read_text() == _OLD
    assert sorted(p.name for p in data_dir.iterdir()) == ["v.txt"]


def test_update_writes_every_output(data_dir, capsys):
    new = _OLD.replace("-3.0", "-3.5")
    assert update({"v.txt": new, "w.txt": "x=1\n"}, check=False) == 0
    assert (data_dir / "v.txt").read_text() == new
    assert (data_dir / "w.txt").read_text() == "x=1\n"
