#!/usr/bin/env python3
"""Regenerate the byte-frozen CLI outputs in tests/data from the current code.

Run from the repository root:  python tests/make_frozen.py [--check]

Each run listed in frozen_outputs.py is made in a scratch directory, and its
stdout, without the ``# generated_at`` line, replaces its file; for a run of
LEVEL_MAP_DIGESTS the file holds the sha256 of that text instead.  For every
file the script prints each line removed or added (``removed check X``) and
each changed field as old -> new, with the move in units in the last place
of the old value, and the largest such move; a file that does not exist yet
is written and reported as new.  A run whose exit code differs from the one
listed writes nothing and fails the script.

``--check`` prints the same report and writes nothing; it exits 1 when any
frozen output would change or be new, and 0 when every file holds the bytes
the current code prints.
"""

import argparse
import math
import pathlib
import sys
import tempfile
from collections import Counter

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from frozen_outputs import DATA, LEVEL_MAP_DIGESTS, digest, frozen_runs, frozen_text, run_cli, write_inputs

_CHECK_COLUMNS = ("status", "margin", "t", "tol")


def fields(text: str) -> dict[str, dict[str, str]]:
    """Every field of a frozen output, grouped by the line it sits on.

    A ``check`` line is named ``check <name>`` and holds its columns (and
    its note), a ``key=value`` line is named by its key and holds
    ``value``, and a CSV data row is named ``row <k>`` and holds its cells
    by column.  A name seen before (a second ``annotation``) gets `` #<n>``
    appended.
    """
    out: dict[str, dict[str, str]] = {}
    seen: Counter[str] = Counter()
    header = None
    rows = 0
    for line in text.splitlines():
        if line.startswith("check "):
            head, _, note = line.partition(" # ")
            _, name, *cols = head.split()
            unit, values = f"check {name}", dict(zip(_CHECK_COLUMNS, cols))
            if note:
                values["note"] = note
        elif "," in line and "=" not in line:
            cells = line.split(",")
            if header is None:
                header = cells
                continue
            rows += 1
            unit, values = f"row {rows}", dict(zip(header, cells))
        else:
            key, _, value = line.lstrip("# ").partition("=")
            unit, values = key, {"value": value}
        seen[unit] += 1
        out[unit if seen[unit] == 1 else f"{unit} #{seen[unit]}"] = values
    return out


def ulps(old: str, new: str) -> float | None:
    """|new - old| in units in the last place of old, when both are finite floats."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if not (math.isfinite(a) and math.isfinite(b)):
        return None
    return abs(b - a) / math.ulp(a)


def report(name: str, old: str, new: str) -> None:
    """Print the lines removed and added and every changed field of a common line."""
    if old == new:
        print(f"{name}: unchanged")
        return
    before, after = fields(old), fields(new)
    changed = []
    for unit in (u for u in before if u in after):
        a, b = before[unit], after[unit]
        for col in dict.fromkeys([*a, *b]):
            if a.get(col) != b.get(col):
                label = unit if col == "value" else f"{unit} {col}"
                changed.append((label, a.get(col, "(none)"), b.get(col, "(none)")))
    moves = [ulps(a, b) for _, a, b in changed]
    finite = [m for m in moves if m is not None]
    largest = f", largest move {max(finite):.3g} ulp" if finite else ""
    removed = [u for u in before if u not in after]
    added = [u for u in after if u not in before]
    print(f"{name}: {len(removed)} lines removed, {len(added)} added, {len(changed)} fields changed{largest}")
    for unit in removed:
        print(f"  removed {unit}")
    for unit in added:
        print(f"  added {unit}")
    for (label, a, b), m in zip(changed, moves):
        print(f"  {label}: {a} -> {b}" + (f" ({m:.3g} ulp)" if m is not None else ""))


def update(outputs: dict[str, str], check: bool) -> int:
    """Report each output against its file in DATA and, unless ``check``, write it.

    Returns 1 when ``check`` finds an output that differs from its file or
    has none, and 0 otherwise.
    """
    moved = False
    for name, text in outputs.items():
        path = DATA / name
        if path.exists():
            old = path.read_text()
            report(name, old, text)
            moved |= old != text
        else:
            print(f"{name}: new file")
            moved = True
        if not check:
            path.write_text(text)
    return 1 if check and moved else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check the byte-frozen CLI outputs.")
    parser.add_argument("--check", action="store_true", help="report every change, write nothing, exit 1 on any")
    check = parser.parse_args(argv).check
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = pathlib.Path(tmp)
        write_inputs(cwd)
        runs = [(*run, frozen_text) for run in frozen_runs()]
        runs += [(argv_run, name, 0, digest) for argv_run, name in LEVEL_MAP_DIGESTS]
        for argv_run, name, code, keep in runs:
            cp = run_cli(*argv_run, cwd=cwd)
            if cp.returncode != code:
                print(f"{name}: exit code {cp.returncode}, expected {code}; nothing written\n{cp.stderr}")
                return 1
            outputs[name] = keep(cp.stdout)
    return update(outputs, check)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
