"""The README's library sketch runs as written, its asserts included."""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def _sketch() -> str:
    """The fenced python block under the "Library sketch" heading."""
    section = README.read_text(encoding="utf-8").split("## Library sketch", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library sketch"
    return match.group(1)


def test_library_sketch_runs():
    exec(compile(_sketch(), f"{README}:Library sketch", "exec"), {"__name__": "readme_sketch"})
