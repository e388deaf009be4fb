"""Command-line entry point.

Subcommands wire profiles -> potential -> functionals -> verify/mass:

    curvlab models
    curvlab potential   --model schwarzschild --mass 1
    curvlab functionals --model schwarzschild --mass 1 --out results/
    curvlab verify      --model schwarzschild --mass 1
    curvlab mass        --model mollified-schwarzschild --mass 1 --r0 1

Exit codes: 0 when every check passes or detects equality, 1 when any
check fails or a hypothesis violation is annotated, 2 for usage/input
errors, undecodable files, output files that cannot be written and
parameters that overflow float arithmetic.  Output files are written
before stdout, so a run that exits 2 on a write prints nothing.
Flags override values from a flat key=value config file
(--config).

``main(argv)`` may be called repeatedly in one process.  The argparse
tree is built once per process, on the first call, and every call parses
its argv into a fresh namespace and does all of its own numerical work;
nothing that depends on argv is kept between calls.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Callable

from . import __version__
from .errors import CurvlabError
from .functionals import build_series, write_series_csv
from .mass import mass_report, write_mass_csv
from .numerics import Tolerance
from .potential import default_t_grid, grad_value, levels, solve
from .profile import (
    MetricProfile,
    euclidean,
    mollified_schwarzschild,
    perturbed_schwarzschild,
    profile_from_csv,
    schwarzschild,
    to_warped,
)
from .report_store import make_record, save
from .verify import DEFAULT_CHECK_TOLERANCE, run_battery, write_report_csv, write_report_text

__all__ = ["main", "RunConfig", "build_parser"]

_MODELS = {
    "schwarzschild": "with boundary; exact equality case of every comparison (needs --mass)",
    "euclidean": "boundaryless flat space; equality case of the boundaryless comparisons",
    "mollified-schwarzschild": "boundaryless, R >= 0, harmonically flat end (needs --mass, --r0)",
    "perturbed-schwarzschild": "with boundary, R > 0, strict inequalities (optional --mass/--amplitude/--offset)",
    "custom": "tabulated CSV profile (needs --profile and --assume-nonnegative-r)",
}


_FLOAT_FIELDS = ("mass", "r0", "amplitude", "offset", "t_min_factor", "t_max_factor")


class UsageError(CurvlabError):
    pass


@dataclass
class RunConfig:
    model: str
    mass: float = 1.0
    r0: float = 1.0
    amplitude: float = 0.3
    offset: float = 1.0
    profile_path: str | None = None
    assume_nonnegative_r: bool | None = None
    grid_points: int = 256
    t_min_factor: float = 1.0
    t_max_factor: float = 1000.0
    tol: float | None = None  # base relative check tolerance; None = the battery's pinned defaults
    output_dir: str | None = None
    save_report: bool = False

    def validate(self) -> None:
        if self.model not in _MODELS:
            raise UsageError(f"unknown model {self.model!r}; see `curvlab models`")
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0.0):
            raise UsageError(f"--tol must be positive and finite, got {self.tol!r}")
        if self.grid_points < 8:
            raise UsageError("grid_points must be at least 8")
        if self.t_min_factor < 1.0:
            raise UsageError("t_min_factor must be >= 1")
        if self.t_max_factor <= self.t_min_factor:
            raise UsageError("t_max_factor must exceed t_min_factor")
        if self.model == "custom":
            if not self.profile_path:
                raise UsageError("--model custom needs --profile <csv>")
            if self.assume_nonnegative_r is None:
                raise UsageError("--model custom needs --assume-nonnegative-r true|false")

    def echo(self) -> str:
        lines = [
            f"model={self.model}",
            f"mass={self.mass!r}",
            f"r0={self.r0!r}",
            f"amplitude={self.amplitude!r}",
            f"offset={self.offset!r}",
            f"profile={self.profile_path or ''}",
            f"assume_nonnegative_r={self.assume_nonnegative_r}",
            f"grid={self.grid_points}",
            f"t_min_factor={self.t_min_factor!r}",
            f"t_max_factor={self.t_max_factor!r}",
            f"tol_rel={self.tol!r}" if self.tol is not None else "tol_rel=default",
        ]
        return "\n".join(lines)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise UsageError(f"expected true/false, got {text!r}")


def load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{ln}: expected key=value")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="Level-set curvature comparison laboratory for rotationally symmetric 3-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help="built-in model name or 'custom'")
    common.add_argument("--mass", type=float, help="mass parameter of the model")
    common.add_argument("--r0", type=float, help="matching radius of the mollified model")
    common.add_argument("--amplitude", type=float, help="perturbation amplitude")
    common.add_argument("--offset", type=float, help="perturbation pole offset")
    common.add_argument("--profile", help="CSV file for --model custom (header r,w or s,f)")
    common.add_argument(
        "--assume-nonnegative-r",
        choices=("true", "false"),
        help="declared sign of the scalar curvature for custom profiles",
    )
    common.add_argument("--grid", type=int, help="number of t-grid points (>= 8)")
    common.add_argument("--t-min-factor", type=float, help="grid start as a multiple of C/2")
    common.add_argument("--t-max-factor", type=float, help="grid end as a multiple of C")
    common.add_argument("--tol", type=float, help="base relative check tolerance of the verify battery")
    common.add_argument("--out", help="output directory for CSV artifacts")
    common.add_argument("--save-report", action="store_const", const="true", help="persist a run record")
    common.add_argument("--config", help="flat key=value config file (flags override)")

    sub.add_parser("models", help="list built-in models")
    sub.add_parser("potential", parents=[common], help="emit the u / |grad u| / capacity table")
    sub.add_parser("functionals", parents=[common], help="emit the functional series CSV")
    sub.add_parser("verify", parents=[common], help="run the inequality battery")
    sub.add_parser("mass", parents=[common], help="run both ADM mass estimators")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads argv with, built on first use and kept for the process."""
    return build_parser()


# Each config key is a flag's name, and its argparse dest: key -> (RunConfig
# field, parser of the config-file text).  A flag overrides the file; a key
# given by neither keeps the RunConfig default.
_CONFIG_FIELDS = {
    "model": ("model", str),
    "profile": ("profile_path", str),
    "out": ("output_dir", str),
    "assume_nonnegative_r": ("assume_nonnegative_r", _parse_bool),
    "grid": ("grid_points", int),
    "tol": ("tol", float),
    "save_report": ("save_report", _parse_bool),
    **{key: (key, float) for key in _FLOAT_FIELDS},
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_values) - set(_CONFIG_FIELDS))
    if unknown:
        accepted = ", ".join(sorted(_CONFIG_FIELDS))
        raise UsageError(f"unknown config key(s) {', '.join(unknown)}; accepted: {accepted}")

    def pick(key: str, cast):
        value = getattr(args, key)
        if value is None:
            value = file_values.get(key)
        if value is None:
            return None
        try:
            return cast(value)
        except ValueError as exc:
            raise UsageError(f"bad value for {key}: {value!r}") from exc

    values = {name: pick(key, cast) for key, (name, cast) in _CONFIG_FIELDS.items()}
    if not values["model"]:
        raise UsageError("--model is required (see `curvlab models`)")
    cfg = RunConfig(**{name: value for name, value in values.items() if value is not None})
    cfg.validate()
    return cfg


def _build_profile(cfg: RunConfig) -> MetricProfile:
    if cfg.model == "schwarzschild":
        return schwarzschild(cfg.mass)
    if cfg.model == "euclidean":
        return euclidean()
    if cfg.model == "mollified-schwarzschild":
        return to_warped(mollified_schwarzschild(cfg.mass, cfg.r0))
    if cfg.model == "perturbed-schwarzschild":
        return perturbed_schwarzschild(cfg.mass, cfg.amplitude, cfg.offset)
    return profile_from_csv(cfg.profile_path, cfg.assume_nonnegative_r)


def _stamp(out: io.TextIOBase) -> None:
    out.write(f"# generated_at={datetime.now(timezone.utc).isoformat()}\n")


def _outdir(cfg: RunConfig) -> Path:
    path = Path(cfg.output_dir) if cfg.output_dir else Path(".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _write_file(path: Path, write: Callable[[IO[str]], None]) -> None:
    """Write one output file through ``write``; a file that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def cmd_models(out: io.TextIOBase) -> int:
    for name, description in _MODELS.items():
        out.write(f"{name}: {description}\n")
    return 0


def cmd_potential(cfg: RunConfig, out: io.TextIOBase) -> int:
    outdir = _outdir(cfg) if cfg.output_dir else None
    sol = solve(_build_profile(cfg))
    grid = default_t_grid(sol, cfg.grid_points, cfg.t_min_factor, cfg.t_max_factor)
    # Solve every level before writing, so a failed level leaves no partial table.
    rows = [f"{lp.t!r},{lp.s!r},{lp.u!r},{grad_value(sol, lp.s)!r}\n" for lp in levels(sol, grid)]
    cap = sol.capacity
    table = [
        f"# profile={sol.profile.label}\n",
        f"# capacity={cap!r}\n" if cap is not None else "# capacity=nan (boundaryless)\n",
        "t,s,u,grad\n",
        *rows,
    ]
    if outdir:
        path = outdir / "potential.csv"
        _write_file(path, lambda fh: fh.writelines(table))
        _stamp(out)
        out.write(f"wrote {path}\n")
    else:
        _stamp(out)
        out.writelines(table)
    return 0


def cmd_functionals(cfg: RunConfig, out: io.TextIOBase) -> int:
    outdir = _outdir(cfg) if cfg.output_dir else None
    sol = solve(_build_profile(cfg))
    grid = default_t_grid(sol, cfg.grid_points, cfg.t_min_factor, cfg.t_max_factor)
    series = build_series(sol, grid)
    if outdir:
        path = outdir / "functionals.csv"
        _write_file(path, lambda fh: write_series_csv(series, fh))
        _stamp(out)
        out.write(f"wrote {path}\n")
    else:
        _stamp(out)
        write_series_csv(series, out)
    return 0


def cmd_verify(cfg: RunConfig, out: io.TextIOBase) -> int:
    outdir = _outdir(cfg) if cfg.output_dir or cfg.save_report else None
    sol = solve(_build_profile(cfg))
    grid = default_t_grid(sol, cfg.grid_points, cfg.t_min_factor, cfg.t_max_factor)
    tol = None
    if cfg.tol is not None:
        # Scale the pinned default pair, so --tol 1e-8 reproduces the defaults.
        base = DEFAULT_CHECK_TOLERANCE
        tol = Tolerance(rel=cfg.tol, abs=(cfg.tol / base.rel) * base.abs)
    report = run_battery(sol, grid, tol=tol)
    buffer = io.StringIO()
    write_report_text(report, buffer)
    # Write the files before printing, so a failed write leaves no report on stdout.
    written = []
    if cfg.output_dir:
        path = outdir / "verify.csv"
        _write_file(path, lambda fh: write_report_csv(report, fh))
        written.append(f"wrote {path}\n")
    if cfg.save_report:
        record = make_record(
            cfg.echo(),
            buffer.getvalue(),
            __version__,
            datetime.now(timezone.utc).isoformat(),
        )
        written.append(f"saved {save(record, outdir)}\n")
    _stamp(out)
    out.write(buffer.getvalue())
    out.writelines(written)
    return 1 if report.blocking() else 0


def cmd_mass(cfg: RunConfig, out: io.TextIOBase) -> int:
    if cfg.model not in ("euclidean", "mollified-schwarzschild"):
        raise UsageError("the mass subcommand needs a boundaryless conformal model: euclidean or mollified-schwarzschild")
    outdir = _outdir(cfg) if cfg.output_dir else None
    sol = solve(_build_profile(cfg))
    report = mass_report(sol.profile.conformal, sol)
    if outdir:
        path = outdir / "mass.csv"
        _write_file(path, lambda fh: write_mass_csv(report, fh))
    _stamp(out)
    out.write(f"profile={report.profile_label}\n")
    out.write(f"mass_tag={report.mass_tag!r}\n")
    out.write(f"m_surface={report.m_surface!r}\n")
    out.write(f"m_volume={report.m_volume!r}\n")
    worst = min(m for _, m in report.samples)
    out.write(f"min_m_est={worst!r}\n")
    if outdir:
        out.write(f"wrote {path}\n")
    if report.mass_tag is not None and report.mass_tag > 0.0:
        agree = abs(report.m_surface - report.m_volume) <= 0.01 * report.mass_tag
        if not agree:
            out.write("warning: the two estimators disagree beyond 1%\n")
            return 1
    if worst < -1e-9:
        out.write("warning: a volume mass sample is negative beyond tolerance\n")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "models":
            return cmd_models(out)
        cfg = resolve_config(args)
        if args.command == "potential":
            return cmd_potential(cfg, out)
        if args.command == "functionals":
            return cmd_functionals(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out)
        if args.command == "mass":
            return cmd_mass(cfg, out)
        raise UsageError(f"unknown command {args.command!r}")
    except CurvlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # Parameters so extreme that float arithmetic overflows or divides by zero.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
