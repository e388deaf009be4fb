"""Seeded job lists and the correctness gate of the three benchmark workloads.

A job is a short list of CLI invocations, each an argv for
``curvlab.cli.main``.  Every input (model parameters, tabulated CSV files)
comes from the workload seed; curvlab sees only the generated argv and files.

Parameters are drawn by blocked stratified sampling: inside each block of
consecutive jobs every parameter takes one value from each of ``block``
equal-width strata of its range, in a seeded order.  A run completes a
different number of jobs per seed, and the blocks keep the mean cost of any
prefix of the list close to the mean over the whole parameter range, so the
run-to-run spread of the end-to-end times comes from the program rather
than from which parameters a seed happened to draw.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("builtin-verify", "tabulated-verify", "level-maps")

# Parameter ranges of the built-in models.
M_RANGE = (0.5, 2.0)
AMPLITUDE_RANGE = (0.1, 0.5)
OFFSET_RANGE = (0.5, 2.0)
R0_RANGE = (0.5, 2.0)

# Tabulated R < 0 family f = a + s^2/(b + c s) on s in [0, S_MAX].  The cost
# of a tabulated verify grows by ~0.85 s per knot and is flat in --grid, so
# the row count is fixed: varying it would make the job cost depend on the
# seed.
# Knots are equally spaced and a, b, c stay within 5% of 2, 2, 0.4: knot
# jitter and wider ranges spread the job cost by +-20% between seeds.
TAB_A = (1.9, 2.1)
TAB_B = (1.9, 2.1)
TAB_C = (0.38, 0.42)
TAB_S_MAX = 60.0
TAB_ROWS = 10

LEVEL_GRID = 4096


@dataclass
class Job:
    """One unit of closed-loop work: CLI calls issued one after another."""

    calls: list[list[str]]
    files: dict[str, str] = field(default_factory=dict)  # relative path -> content


@dataclass(frozen=True)
class Size:
    """Knobs that separate a full run from the quick self-test run."""

    jobs: int
    traced_jobs: dict[str, int]
    verify_grid: int | None  # None = the CLI default of 256
    tab_rows: int
    level_grid: int


# A traced run issues a fixed number of jobs, so that its counts repeat
# exactly for a seed; the numbers make it last about 30 s at the seed commit.
FULL = Size(
    jobs=64,
    traced_jobs={"builtin-verify": 8, "tabulated-verify": 2, "level-maps": 4},
    verify_grid=None,
    tab_rows=TAB_ROWS,
    level_grid=LEVEL_GRID,
)
QUICK = Size(
    jobs=1,
    traced_jobs={"builtin-verify": 1, "tabulated-verify": 1, "level-maps": 1},
    verify_grid=64,
    tab_rows=8,
    level_grid=256,
)


def _num(x: float) -> str:
    return repr(float(x))


def _strata(rng: random.Random, lo: float, hi: float, n: int, block: int) -> list[float]:
    out: list[float] = []
    while len(out) < n:
        order = list(range(block))
        rng.shuffle(order)
        out.extend(lo + (hi - lo) * (k + rng.random()) / block for k in order)
    return out[:n]


def _grid_args(grid: int | None) -> list[str]:
    return [] if grid is None else ["--grid", str(grid)]


def builtin_verify_jobs(seed: int, size: Size) -> list[Job]:
    rng = random.Random(seed)
    n = size.jobs
    m_s, m_p, m_m = (_strata(rng, *M_RANGE, n, 8) for _ in range(3))
    amp = _strata(rng, *AMPLITUDE_RANGE, n, 8)
    off = _strata(rng, *OFFSET_RANGE, n, 8)
    r0 = _strata(rng, *R0_RANGE, n, 8)
    grid = _grid_args(size.verify_grid)
    return [
        Job(
            calls=[
                ["verify", "--model", "schwarzschild", "--mass", _num(m_s[k]), *grid],
                [
                    "verify", "--model", "perturbed-schwarzschild", "--mass", _num(m_p[k]),
                    "--amplitude", _num(amp[k]), "--offset", _num(off[k]), *grid,
                ],
                ["verify", "--model", "euclidean", *grid],
                [
                    "verify", "--model", "mollified-schwarzschild", "--mass", _num(m_m[k]),
                    "--r0", _num(r0[k]), *grid,
                ],
            ]
        )
        for k in range(n)
    ]


def tabulated_csv(a: float, b: float, c: float, rows: int) -> str:
    ss = [TAB_S_MAX * k / (rows - 1) for k in range(rows)]
    return "s,f\n" + "".join(f"{s!r},{a + s * s / (b + c * s)!r}\n" for s in ss)


def tabulated_verify_jobs(seed: int, size: Size) -> list[Job]:
    rng = random.Random(seed)
    n = size.jobs
    a = _strata(rng, *TAB_A, n, 4)
    b = _strata(rng, *TAB_B, n, 4)
    c = _strata(rng, *TAB_C, n, 4)
    jobs = []
    for k in range(n):
        name = f"tab{k:03d}.csv"
        jobs.append(
            Job(
                calls=[[
                    "verify", "--model", "custom", "--profile", name,
                    "--assume-nonnegative-r", "false", "--grid", "32",
                ]],
                files={name: tabulated_csv(a[k], b[k], c[k], size.tab_rows)},
            )
        )
    return jobs


def level_maps_jobs(seed: int, size: Size) -> list[Job]:
    rng = random.Random(seed)
    n = size.jobs
    m_l, m_mass = (_strata(rng, *M_RANGE, n, 8) for _ in range(2))
    amp = _strata(rng, *AMPLITUDE_RANGE, n, 8)
    off = _strata(rng, *OFFSET_RANGE, n, 8)
    r0_l, r0_mass = (_strata(rng, *R0_RANGE, n, 8) for _ in range(2))
    # Each pair of consecutive jobs maps one perturbed and one mollified
    # model, in seeded order, so both level-map costs weigh equally.
    perturbed = []
    while len(perturbed) < n:
        pair = [True, False]
        rng.shuffle(pair)
        perturbed.extend(pair)
    grid = ["--grid", str(size.level_grid)]
    jobs = []
    for k in range(n):
        if perturbed[k]:
            model = [
                "--model", "perturbed-schwarzschild", "--mass", _num(m_l[k]),
                "--amplitude", _num(amp[k]), "--offset", _num(off[k]),
            ]
        else:
            model = ["--model", "mollified-schwarzschild", "--mass", _num(m_l[k]), "--r0", _num(r0_l[k])]
        jobs.append(
            Job(
                calls=[
                    ["potential", *model, *grid],
                    ["functionals", *model, *grid, "--out", "out"],
                    [
                        "mass", "--model", "mollified-schwarzschild", "--mass", _num(m_mass[k]),
                        "--r0", _num(r0_mass[k]),
                    ],
                ]
            )
        )
    return jobs


def make_jobs(workload: str, seed: int, size: Size) -> list[Job]:
    if workload == "builtin-verify":
        return builtin_verify_jobs(seed, size)
    if workload == "tabulated-verify":
        return tabulated_verify_jobs(seed, size)
    if workload == "level-maps":
        return level_maps_jobs(seed, size)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


@dataclass
class CallResult:
    argv: list[str]
    code: int
    stdout: str
    stderr: str


def _check_statuses(stdout: str) -> dict[str, str]:
    """check name -> status from a verify report."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("check "):
            parts = line.split()
            out[parts[1]] = parts[2]
    return out


def _model(argv: list[str]) -> str:
    return argv[argv.index("--model") + 1]


def _flag(argv: list[str], name: str) -> float:
    return float(argv[argv.index(name) + 1])


def _summary_value(stdout: str, key: str) -> float | None:
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return float(line.split("=", 1)[1])
    return None


def _last_error(r: CallResult) -> str:
    lines = r.stderr.strip().splitlines()
    return f" ({lines[-1]})" if lines else ""


def _data_rows(text: str, header: str) -> int | None:
    lines = text.splitlines()
    if header not in lines:
        return None
    return len(lines) - lines.index(header) - 1


def gate(workload: str, results: list[CallResult], size: Size, workdir: str) -> tuple[list[str], list[float]]:
    """Check one job's outputs.

    Returns the list of failed conditions (empty when the job is correct)
    and the relative errors |m_volume - m|/m of its mass calls.
    """
    failures: list[str] = []
    mass_errors: list[float] = []
    for r in results:
        model = _model(r.argv)
        what = f"{r.argv[0]} {model}"
        statuses = _check_statuses(r.stdout)
        if workload == "builtin-verify":
            if r.code != 0:
                failures.append(f"{what}: exit {r.code}{_last_error(r)}")
            fails = [name for name, status in statuses.items() if status == "Fail"]
            if fails:
                failures.append(f"{what}: Fail on {','.join(fails)}")
            if model == "schwarzschild":
                equal = sum(status == "EqualityDetected" for status in statuses.values())
                if equal < 5:
                    failures.append(f"{what}: only {equal} EqualityDetected")
            if model == "perturbed-schwarzschild":
                for name in ("area_comparison", "volume_comparison", "a1_upper_bound"):
                    if statuses.get(name) == "EqualityDetected":
                        failures.append(f"{what}: EqualityDetected on {name}")
        elif workload == "tabulated-verify":
            if r.code != 1:
                failures.append(f"{what}: exit {r.code}, expected 1{_last_error(r)}")
            if "hypothesis violated: scalar curvature negative" not in r.stdout:
                failures.append(f"{what}: no negative-curvature annotation")
            if "r_nonneg_confirmed=false" not in r.stdout:
                failures.append(f"{what}: r_nonneg_confirmed is not false")
        else:
            if r.code != 0:
                failures.append(f"{what}: exit {r.code}{_last_error(r)}")
            if r.argv[0] == "potential":
                rows = _data_rows(r.stdout, "t,s,u,grad")
                if rows != size.level_grid:
                    failures.append(f"{what}: {rows} rows, expected {size.level_grid}")
            elif r.argv[0] == "functionals":
                path = os.path.join(workdir, "out", "functionals.csv")
                try:
                    with open(path, encoding="utf-8") as fh:
                        text = fh.read()
                except OSError as exc:
                    failures.append(f"{what}: {exc}")
                    continue
                header = text.split("\n", 1)[0]
                rows = _data_rows(text, header) if header.startswith("t,s,u,") else None
                if rows != size.level_grid:
                    failures.append(f"{what}: CSV has {rows} rows, expected {size.level_grid}")
            elif r.argv[0] == "mass":
                m = _flag(r.argv, "--mass")
                m_surface = _summary_value(r.stdout, "m_surface")
                m_volume = _summary_value(r.stdout, "m_volume")
                if m_surface is None or m_volume is None:
                    failures.append(f"{what}: mass estimates missing")
                    continue
                if abs(m_surface - m_volume) > 0.01 * m:
                    failures.append(f"{what}: estimates {m_surface!r} and {m_volume!r} differ by more than 1%")
                mass_errors.append(abs(m_volume - m) / m)
    return failures, mass_errors
