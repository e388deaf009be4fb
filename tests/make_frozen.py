#!/usr/bin/env python3
"""Regenerate the byte-frozen CLI outputs in tests/data from the current code.

Run from the repository root:  python tests/make_frozen.py

Each run listed in frozen_outputs.py is made in a scratch directory, and its
stdout, without the ``# generated_at`` line, replaces its file.  For every
file the script prints each changed field as old -> new, with the move in
units in the last place of the old value, and the largest such move; a file
that does not exist yet is written and reported as new.  A run
whose exit code differs from the one listed writes nothing and fails the
script.
"""

import math
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from frozen_outputs import DATA, frozen_runs, run_cli, strip_timestamp, write_inputs

_CHECK_COLUMNS = ("status", "margin", "t", "tol")


def fields(text: str) -> dict[str, str]:
    """Every field of a frozen output, labelled by line number and name.

    CSV cells are named by their column, ``check`` lines by the check and
    its column, and ``key=value`` lines by the key.
    """
    out = {}
    header = None
    for n, line in enumerate(text.splitlines(), 1):
        if line.startswith("check "):
            head, _, note = line.partition(" # ")
            _, name, *cols = head.split()
            out.update((f"line {n} {name} {c}", v) for c, v in zip(_CHECK_COLUMNS, cols))
            if note:
                out[f"line {n} {name} note"] = note
        elif "," in line and "=" not in line:
            cells = line.split(",")
            if header is None:
                header = cells
            else:
                out.update((f"line {n} {c}", v) for c, v in zip(header, cells))
        else:
            key, _, value = line.lstrip("# ").partition("=")
            out[f"line {n} {key}"] = value
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
    if old == new:
        print(f"{name}: unchanged")
        return
    before, after = fields(old), fields(new)
    if before.keys() != after.keys():
        print(f"{name}: the lines changed shape; compare the files by hand")
        return
    changed = [(k, before[k], after[k]) for k in before if before[k] != after[k]]
    moves = [ulps(a, b) for _, a, b in changed]
    finite = [m for m in moves if m is not None]
    largest = f", largest move {max(finite):.3g} ulp" if finite else ""
    print(f"{name}: {len(changed)} fields changed{largest}")
    for (label, a, b), m in zip(changed, moves):
        print(f"  {label}: {a} -> {b}" + (f" ({m:.3g} ulp)" if m is not None else ""))


def main() -> int:
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = pathlib.Path(tmp)
        write_inputs(cwd)
        for argv, name, code in frozen_runs():
            cp = run_cli(*argv, cwd=cwd)
            if cp.returncode != code:
                print(f"{name}: exit code {cp.returncode}, expected {code}; nothing written\n{cp.stderr}")
                return 1
            outputs[name] = strip_timestamp(cp.stdout) + "\n"
    for name, text in outputs.items():
        path = DATA / name
        if path.exists():
            report(name, path.read_text(), text)
        else:
            print(f"{name}: new file")
        path.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
