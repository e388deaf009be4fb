"""The CLI runs whose stdout is frozen byte for byte in tests/data.

``test_cli.py`` compares each run with its file; ``make_frozen.py``
rewrites the files from the current code.  Both read the lists below.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent
DATA = pathlib.Path(__file__).parent / "data"

# The file of `models`: every model's description, in the listed order.
MODELS_LIST = "models.txt"

# (args, file) of `functionals`: the head of its CSV on the Euclidean closed form.
FUNCTIONALS_HEAD = (("--model", "euclidean", "--grid", "8"), "euclid_functionals_head.csv")

# (args, file) of `functionals`, whole: the boundary functional columns
# (G through Gprime), which are nan in the Euclidean head, and the volume
# column of a boundaryless profile that is not in closed form.
FUNCTIONALS_TABLES = [
    (("--model", "perturbed-schwarzschild", "--grid", "16"), "perturbed_functionals_grid16.csv"),
    (
        ("--model", "mollified-schwarzschild", "--mass", "1.3", "--r0", "0.7", "--grid", "64"),
        "mollified_functionals_grid64.csv",
    ),
]

# (args, file) of `potential`: every level solve lands on these bits.
POTENTIAL_TABLES = [
    (("--model", "perturbed-schwarzschild", "--grid", "64"), "perturbed_potential_grid64.txt"),
    (
        ("--model", "mollified-schwarzschild", "--mass", "1.3", "--r0", "0.7", "--grid", "64"),
        "mollified_potential_grid64.txt",
    ),
]

# (full argv, file) of `potential` and `functionals` at the 4096 levels of
# the benchmark's level maps: the file holds the sha256 of the stdout
# (without its stamp), which is too long to freeze whole.
LEVEL_MAP_DIGESTS = [
    (
        ("potential", "--model", "perturbed-schwarzschild", "--mass", "1.3", "--amplitude", "0.2", "--grid", "4096"),
        "perturbed_potential_grid4096.sha256",
    ),
    (
        ("functionals", "--model", "perturbed-schwarzschild", "--mass", "1.3", "--amplitude", "0.2", "--grid", "4096"),
        "perturbed_functionals_grid4096.sha256",
    ),
    (
        ("potential", "--model", "mollified-schwarzschild", "--mass", "0.8", "--r0", "1.6", "--grid", "4096"),
        "mollified_potential_grid4096.sha256",
    ),
    (
        ("functionals", "--model", "mollified-schwarzschild", "--mass", "0.8", "--r0", "1.6", "--grid", "4096"),
        "mollified_functionals_grid4096.sha256",
    ),
]

# (args, file, exit code) of `verify`, run in a directory that write_inputs
# has filled: every margin, tolerance, note and annotation.
VERIFY_REPORTS = [
    (("--model", "perturbed-schwarzschild"), "perturbed_verify.txt", 0),
    (("--model", "euclidean"), "euclidean_verify.txt", 0),
    # R < 0 and a non-minimal spline boundary: both annotations and the
    # Skipped comparison checks.
    (
        ("--model", "custom", "--profile", "rneg.csv", "--assume-nonnegative-r", "false", "--grid", "32"),
        "rneg_csv_verify_grid32.txt",
        1,
    ),
    # The equality case of every boundary comparison.
    (("--model", "schwarzschild", "--mass", "1"), "schwarzschild_verify.txt", 0),
    # The r,w spline path: w, w' and w'' of a tabulated conformal factor and
    # its harmonic tail; R < 0 is annotated near the pole.
    (
        ("--model", "custom", "--profile", "moll.csv", "--assume-nonnegative-r", "true", "--grid", "32"),
        "moll_csv_verify_grid32.txt",
        1,
    ),
]

# (args, file) of `mass`: both estimators and the worst volume sample.
MASS_REPORTS = [
    (("--model", "mollified-schwarzschild", "--mass", "1", "--r0", "1"), "mollified_mass.txt"),
]


def write_inputs(directory: pathlib.Path) -> None:
    """Write the CSV profiles the verify runs read.

    rneg.csv: ten s,f rows of f = 2 + s^2/(2 + 0.4 s) on [0, 60], a profile
    with R < 0.  moll.csv: r,w rows at r = 0.25 k, k = 0..40, of the w of
    mollified_schwarzschild(1, 1), written in its closed form
    1 + (3 - r^2)/4 inside r = 1 and 1 + 1/(2 r) outside, which is the same
    float as the model's w at every row.
    """
    ss = [60.0 * k / 9 for k in range(10)]
    lines = ["s,f"] + [f"{s!r},{2.0 + s * s / (2.0 + 0.4 * s)!r}" for s in ss]
    (directory / "rneg.csv").write_text("\n".join(lines) + "\n")
    rs = [0.25 * k for k in range(41)]
    ws = [1.0 + 1.0 / (2.0 * r) if r >= 1.0 else 1.0 + (3.0 - r * r) / 4.0 for r in rs]
    (directory / "moll.csv").write_text("r,w\n" + "".join(f"{r!r},{w!r}\n" for r, w in zip(rs, ws)))


def rneg_profile(directory: pathlib.Path):
    """The rneg.csv profile, written into ``directory`` and read with R >= 0 not assumed."""
    from curvlab.profile import profile_from_csv

    write_inputs(directory)
    return profile_from_csv(str(directory / "rneg.csv"), False)


def run_cli(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "curvlab", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd)


def strip_timestamp(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("# generated_at="))


def frozen_text(stdout: str) -> str:
    """What a frozen file holds of a run's stdout: every line but the stamp."""
    return strip_timestamp(stdout) + "\n"


def digest(stdout: str) -> str:
    """What a LEVEL_MAP_DIGESTS file holds of a run's stdout: the sha256 of its frozen text."""
    return hashlib.sha256(frozen_text(stdout).encode()).hexdigest() + "\n"


def frozen_runs():
    """(full argv, file, exit code) of every frozen run; verify runs need write_inputs in cwd."""
    yield ("models",), MODELS_LIST, 0
    args, name = FUNCTIONALS_HEAD
    yield ("functionals", *args), name, 0
    for args, name in FUNCTIONALS_TABLES:
        yield ("functionals", *args), name, 0
    for args, name in POTENTIAL_TABLES:
        yield ("potential", *args), name, 0
    for args, name, code in VERIFY_REPORTS:
        yield ("verify", *args), name, code
    for args, name in MASS_REPORTS:
        yield ("mass", *args), name, 0
