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
parameters that overflow float arithmetic.  Flags override values from a
flat key=value config file (--config).

A command computes its whole output before anything is written.  ``main``
then makes the --out directory, if a file goes there, writes every file,
and only then prints the ``# generated_at=`` stamp, the body (ending in
``mass``'s warning, if any) and one ``wrote``/``saved`` line per file; a
run that exits 2 prints nothing.  ``main(argv)`` may be called repeatedly
in one process: the argparse tree is built once, on the first call, and
each call parses its argv afresh and keeps nothing that depends on it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Callable, NamedTuple

from . import __version__
from .errors import CurvlabError
from .functionals import build_series, write_series_csv
from .mass import mass_report, write_mass_csv
from .numerics import Tolerance
from .potential import default_t_grid, grad_value, levels, solve
from .profile import (
    euclidean, euclidean_conformal, mollified_schwarzschild, perturbed_schwarzschild, profile_from_csv,
    schwarzschild, to_warped,
)
from .report_store import make_record, save
from .verify import DEFAULT_CHECK_TOLERANCE, run_battery, write_report_csv, write_report_text

__all__ = ["main", "RunConfig", "build_parser"]


class _Model(NamedTuple):
    description: str
    build: Callable  # RunConfig -> MetricProfile; both builders call this module's names, which perfbench rebinds
    conformal: Callable | None = None  # RunConfig -> ConformalProfile of a boundaryless model: `mass` runs on it


_MODELS = {
    "schwarzschild": _Model(
        "with boundary; exact equality case of every comparison (needs --mass)",
        lambda cfg: schwarzschild(cfg.mass),
    ),
    "euclidean": _Model(
        "boundaryless flat space; equality case of the boundaryless comparisons",
        lambda cfg: euclidean(),
        lambda cfg: euclidean_conformal(),
    ),
    "mollified-schwarzschild": _Model(
        "boundaryless, R >= 0, harmonically flat end (needs --mass, --r0)",
        lambda cfg: to_warped(mollified_schwarzschild(cfg.mass, cfg.r0)),
        lambda cfg: mollified_schwarzschild(cfg.mass, cfg.r0),
    ),
    "perturbed-schwarzschild": _Model(
        "with boundary, R > 0, strict inequalities (optional --mass/--amplitude/--offset)",
        lambda cfg: perturbed_schwarzschild(cfg.mass, cfg.amplitude, cfg.offset),
    ),
    "custom": _Model(
        "tabulated CSV profile (needs --profile and --assume-nonnegative-r)",
        lambda cfg: profile_from_csv(cfg.profile, cfg.assume_nonnegative_r),
    ),
}

_FLOAT_FIELDS = ("mass", "r0", "amplitude", "offset", "t_min_factor", "t_max_factor")


class UsageError(CurvlabError):
    pass


class RunConfig(NamedTuple):
    model: str
    mass: float = 1.0
    r0: float = 1.0
    amplitude: float = 0.3
    offset: float = 1.0
    profile: str | None = None
    assume_nonnegative_r: bool | None = None
    grid: int = 256
    t_min_factor: float = 1.0
    t_max_factor: float = 1000.0
    tol: float | None = None  # base relative check tolerance; None = the battery's pinned defaults
    out: str | None = None
    save_report: bool = False

    def validate(self) -> None:
        if self.model not in _MODELS:
            raise UsageError(f"unknown model {self.model!r}; see `curvlab models`")
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0.0):
            raise UsageError(f"tol must be positive and finite, got {self.tol!r}")
        if self.grid < 8:
            raise UsageError("grid must be at least 8")
        if self.t_min_factor < 1.0:
            raise UsageError("t_min_factor must be >= 1")
        if self.t_max_factor <= self.t_min_factor:
            raise UsageError("t_max_factor must exceed t_min_factor")
        if self.model == "custom" and not self.profile:
            raise UsageError("model=custom needs profile=<csv>")
        if self.model == "custom" and self.assume_nonnegative_r is None:
            raise UsageError("model=custom needs assume_nonnegative_r=true|false")

    def echo(self) -> str:
        return "\n".join([
            f"model={self.model}",
            f"mass={self.mass!r}",
            f"r0={self.r0!r}",
            f"amplitude={self.amplitude!r}",
            f"offset={self.offset!r}",
            f"profile={self.profile or ''}",
            f"assume_nonnegative_r={self.assume_nonnegative_r}",
            f"grid={self.grid}",
            f"t_min_factor={self.t_min_factor!r}",
            f"t_max_factor={self.t_max_factor!r}",
            f"tol_rel={self.tol!r}" if self.tol is not None else "tol_rel=default",
        ])


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"expected true/false, got {text!r}")
    return lowered in ("true", "1", "yes")


def load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise UsageError(f"{path}:{ln}: expected key=value")
                if key in out:
                    raise UsageError(f"{path}:{ln}: {key} is given twice")
                out[key] = value.strip()
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

    for name, (run, help_text) in _COMMANDS.items():
        parents = [] if name == "models" else [common]
        sub.add_parser(name, parents=parents, help=help_text).set_defaults(run=run)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads argv with, built on first use and kept for the process."""
    return build_parser()


# Each config key is a flag's name, its argparse dest and its RunConfig
# field: key -> parser of the config-file text.  A flag overrides the file;
# a key given by neither keeps the RunConfig default.
_CONFIG_FIELDS = {
    "model": str,
    "profile": str,
    "out": str,
    "assume_nonnegative_r": _parse_bool,
    "grid": int,
    "tol": float,
    "save_report": _parse_bool,
    **dict.fromkeys(_FLOAT_FIELDS, float),
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - set(_CONFIG_FIELDS))
    if unknown:
        accepted = ", ".join(sorted(_CONFIG_FIELDS))
        raise UsageError(f"unknown config key(s) {', '.join(unknown)}; accepted: {accepted}")

    def pick(key: str, cast):
        value = getattr(args, key)
        value = file_values.get(key) if value is None else value
        if value is None:
            return None
        try:
            return cast(value)
        except ValueError as exc:
            raise UsageError(f"bad value for {key}: {value!r}") from exc

    values = {key: pick(key, cast) for key, cast in _CONFIG_FIELDS.items()}
    if not values["model"]:
        raise UsageError("model is required (see `curvlab models`)")
    cfg = RunConfig(**{key: value for key, value in values.items() if value is not None})
    cfg.validate()
    return cfg


# A command returns (exit code, stdout lines, outputs); an output writes one file and returns its announcement.
_Output = Callable[[Path], str]
_Result = tuple[int, list[str], list[_Output]]


class _Lines(list):
    """A text stream that keeps what is written to it, as stdout lines, without copying."""
    write = list.append
    writelines = list.extend


def _file(name: str, write: Callable[[IO[str]], None]) -> _Output:
    """The output that writes ``name`` through ``write``; a file that cannot be written is a usage error."""
    def output(outdir: Path) -> str:
        path = outdir / name
        try:
            with open(path, "w", encoding="utf-8") as fh:
                write(fh)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc}") from exc
        return f"wrote {path}\n"

    return output


def _table(cfg: RunConfig, name: str, write: Callable[[IO[str]], None]) -> _Result:
    """A table goes to the file ``name`` under --out, and to stdout without it."""
    if cfg.out:
        return 0, [], [_file(name, write)]
    lines = _Lines()
    write(lines)
    return 0, lines, []


def _solve_grid(cfg: RunConfig):
    sol = solve(_MODELS[cfg.model].build(cfg))
    return sol, default_t_grid(sol, cfg.grid, cfg.t_min_factor, cfg.t_max_factor)


def _models(cfg: None) -> _Result:
    return 0, [f"{name}: {model.description}\n" for name, model in _MODELS.items()], []


def _potential(cfg: RunConfig) -> _Result:
    sol, grid = _solve_grid(cfg)
    # Solve every level before writing, so a failed level leaves no partial table.
    rows = [f"{lp.t!r},{lp.s!r},{lp.u!r},{grad_value(sol, lp.s)!r}\n" for lp in levels(sol, grid)]
    cap = sol.capacity
    capacity = f"# capacity={cap!r}\n" if cap is not None else "# capacity=nan (boundaryless)\n"
    table = [f"# profile={sol.profile.label}\n", capacity, "t,s,u,grad\n", *rows]
    return _table(cfg, "potential.csv", lambda fh: fh.writelines(table))


def _functionals(cfg: RunConfig) -> _Result:
    series = build_series(*_solve_grid(cfg))
    return _table(cfg, "functionals.csv", lambda fh: write_series_csv(series, fh))


def _verify(cfg: RunConfig) -> _Result:
    # Scale the pinned default pair, so --tol 1e-8 reproduces the defaults.
    base = DEFAULT_CHECK_TOLERANCE
    tol = None
    if cfg.tol is not None:
        try:
            tol = Tolerance(rel=cfg.tol, abs=(cfg.tol / base.rel) * base.abs)
        except ValueError as exc:  # the scaled abs overflows
            raise UsageError(f"tol={cfg.tol!r} is too large: {exc}") from exc
    sol, grid = _solve_grid(cfg)
    report = run_battery(sol, grid, tol=tol)
    lines = _Lines()
    write_report_text(report, lines)
    outputs = []
    if cfg.out:
        outputs.append(_file("verify.csv", lambda fh: write_report_csv(report, fh)))
    if cfg.save_report:
        record = make_record(cfg.echo(), "".join(lines), __version__, datetime.now(timezone.utc).isoformat())
        outputs.append(lambda outdir: f"saved {save(record, outdir)}\n")
    return (1 if report.blocking() else 0), lines, outputs


def _mass(cfg: RunConfig) -> _Result:
    conformal = _MODELS[cfg.model].conformal
    if conformal is None:
        names = " or ".join(name for name, model in _MODELS.items() if model.conformal)
        raise UsageError(f"the mass subcommand needs a boundaryless conformal model: {names}")
    report = mass_report(conformal(cfg))
    worst = min(m for _, m in report.samples)
    body = [
        f"profile={report.profile_label}\n",
        f"mass_tag={report.mass_tag!r}\n",
        f"m_surface={report.m_surface!r}\n",
        f"m_volume={report.m_volume!r}\n",
        f"min_m_est={worst!r}\n",
    ]
    tag, warnings = report.mass_tag, []
    if tag is not None and tag > 0.0 and not abs(report.m_surface - report.m_volume) <= 0.01 * tag:
        warnings.append("warning: the two estimators disagree beyond 1%\n")
    elif worst < -1e-9:
        warnings.append("warning: a volume mass sample is negative beyond tolerance\n")
    outputs = [_file("mass.csv", lambda fh: write_mass_csv(report, fh))] if cfg.out else []
    return (1 if warnings else 0), body + warnings, outputs


# Each subcommand: name -> (command, help).  `models` alone takes no flags, config or stamp.
_COMMANDS = {
    "models": (_models, "list built-in models"),
    "potential": (_potential, "emit the u / |grad u| / capacity table"),
    "functionals": (_functionals, "emit the functional series CSV"),
    "verify": (_verify, "run the inequality battery"),
    "mass": (_mass, "run both ADM mass estimators"),
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = resolve_config(args) if "config" in args else None  # `models` has no flags
        code, body, outputs = args.run(cfg)
        announced = []
        if outputs:
            outdir = Path(cfg.out or ".")
            try:
                outdir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise UsageError(f"cannot create output directory {outdir}: {exc}") from exc
            announced = [output(outdir) for output in outputs]
    except CurvlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # Parameters so extreme that float arithmetic overflows or divides by zero.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    stamp = [f"# generated_at={datetime.now(timezone.utc).isoformat()}\n"] if cfg is not None else []
    for chunk in (stamp, body, announced):
        sys.stdout.writelines(chunk)
    return code


if __name__ == "__main__":
    sys.exit(main())
