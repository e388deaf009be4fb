from make_frozen import report

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
