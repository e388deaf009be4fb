"""Command-line entry point: profiles -> potential -> functionals -> verify/mass.

One table says what a run reads: ``_FLAGS`` holds every flag, each ``_COMMANDS``
entry names the flags its command reads, and each ``_MODELS`` builder takes the
parameters its model reads.  A subcommand accepts only its own flags, refusing any
other under its own usage line, and a model parameter or config key the run does
not read is a usage error.

Exit codes: 0 when every check passes or detects equality, 1 when any
check fails or a hypothesis violation is annotated, 2 for usage/input
errors, undecodable files, output that cannot be written (a closed stdout
included) and parameters that overflow float arithmetic.  Flags override
values from a flat key=value config file (--config).

A command computes its whole output before anything is written.  ``main``
then makes the --out directory, if a file goes there, writes every file,
and only then prints the ``# generated_at=`` stamp, the body (ending in
``mass``'s warning, if any) and one ``wrote``/``saved`` line per file; a
usage or input error prints nothing.  ``main(argv)`` may be called repeatedly
in one process: the argparse tree is built once, on the first call, and
each call parses its argv afresh and keeps nothing that depends on it.

A run imports only the modules its command executes.  ``profile``,
``numerics``, ``potential`` and ``functionals`` are imported at the top,
because every command that maps levels runs them; ``_verify`` imports
``verify``, its ``--save-report`` branch ``report_store``, and ``_mass``
imports ``mass``.  The stamp and a record's time come from ``_utc_now``,
which reads the ``time`` module, so no command imports ``datetime``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from pathlib import Path
from typing import IO, Callable, NamedTuple

from . import __version__
from .errors import CurvlabError
from .functionals import build_series, write_series_csv
from .numerics import Tolerance
from .potential import _grads, default_t_grid, levels, solve
from .profile import (
    euclidean, euclidean_conformal, mollified_schwarzschild, perturbed_schwarzschild, profile_from_csv,
    schwarzschild, to_warped,
)

__all__ = ["main", "RunConfig", "build_parser"]


class _Model(NamedTuple):
    description: str
    # Each builder takes the RunConfig fields the model reads, by name, and
    # calls this module's constructor names at call time: perfbench rebinds them.
    build: Callable  # -> MetricProfile
    conformal: Callable | None = None  # -> ConformalProfile of a boundaryless model: `mass` runs on it

    @property
    def params(self) -> tuple[str, ...]:
        """The RunConfig fields the model reads: the parameter names of its builders."""
        code = self.build.__code__
        return code.co_varnames[: code.co_argcount]


_MODELS = {
    "schwarzschild": _Model("with boundary; exact equality case of every comparison", lambda mass: schwarzschild(mass)),
    "euclidean": _Model(
        "boundaryless flat space; equality case of the boundaryless comparisons",
        lambda: euclidean(),
        lambda: euclidean_conformal(),
    ),
    "mollified-schwarzschild": _Model(
        "boundaryless, R >= 0, harmonically flat end",
        lambda mass, r0: to_warped(mollified_schwarzschild(mass, r0)),
        lambda mass, r0: mollified_schwarzschild(mass, r0),
    ),
    "perturbed-schwarzschild": _Model(
        "with boundary, R > 0, strict inequalities",
        lambda mass, amplitude, offset: perturbed_schwarzschild(mass, amplitude, offset),
    ),
    "custom": _Model(
        "tabulated CSV profile",
        lambda profile, assume_nonnegative_r: profile_from_csv(profile, assume_nonnegative_r),
    ),
}
_PARAMS = {key for model in _MODELS.values() for key in model.params}


class UsageError(CurvlabError):
    pass


class RunConfig(NamedTuple):
    model: str
    mass: float = 1.0
    r0: float = 1.0
    amplitude: float = 0.3
    offset: float = 1.0
    profile: str | None = None  # a model parameter that defaults to None is required by the models that read it
    assume_nonnegative_r: bool | None = None
    grid: int = 256
    t_min_factor: float = 1.0
    t_max_factor: float = 1000.0
    tol: float | None = None  # base relative check tolerance; None = the battery's pinned defaults
    out: str | None = None
    save_report: bool = False

    def validate(self) -> None:
        """The range rules.  A flag the run does not read keeps its default, which passes them."""
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0.0):
            raise UsageError(f"tol must be positive and finite, got {self.tol!r}")
        for name, value in zip(self._fields, self):
            if type(value) is float and not math.isfinite(value):
                raise UsageError(f"{name} must be finite")
        if self.grid < 8:
            raise UsageError("grid must be at least 8")
        if self.t_min_factor < 1.0:
            raise UsageError("t_min_factor must be >= 1")
        if self.t_max_factor <= self.t_min_factor:
            raise UsageError("t_max_factor must exceed t_min_factor")

    def echo(self) -> str:
        """A run record's config: ``key=value`` for each field before tol, then ``tol_rel``."""
        shown = zip(self._fields[: self._fields.index("tol")], self._replace(profile=self.profile or ""))
        tol = "default" if self.tol is None else repr(self.tol)
        return "\n".join([*(f"{key}={value}" for key, value in shown), f"tol_rel={tol}"])


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"expected true/false, got {text!r}")
    return lowered in ("true", "1", "yes")


# Every flag: config key (its RunConfig field; the flag is --key, - for _) -> (cast of its text, argparse keywords).
# argparse keeps the text; resolve_config casts it, from argv and the config file alike.
_FLAGS = {
    "model": (str, {"help": "built-in model name or 'custom'"}),
    "mass": (float, {"help": "mass parameter of the model"}),
    "r0": (float, {"help": "matching radius of the mollified model"}),
    "amplitude": (float, {"help": "perturbation amplitude"}),
    "offset": (float, {"help": "perturbation pole offset"}),
    "profile": (str, {"help": "CSV file for --model custom (header r,w or s,f)"}),
    "assume_nonnegative_r": (
        _parse_bool, {"choices": ("true", "false"), "help": "declared sign of the scalar curvature for custom profiles"}
    ),
    "grid": (int, {"help": "number of t-grid points (>= 8)"}),
    "t_min_factor": (float, {"help": "grid start as a multiple of C/2"}),
    "t_max_factor": (float, {"help": "grid end as a multiple of C"}),
    "tol": (float, {"help": "base relative check tolerance of the verify battery"}),
    "out": (str, {"help": "output directory for CSV artifacts"}),
    "save_report": (_parse_bool, {"action": "store_const", "const": "true", "help": "persist a run record"}),
}


def load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = (part.strip() for part in line.partition("="))
                if not sep or not key:
                    raise UsageError(f"{path}:{ln}: expected key=value")
                if key in out:
                    raise UsageError(f"{path}:{ln}: {key} is given twice")
                out[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="Level-set curvature comparison laboratory for rotationally symmetric 3-manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, help_text, reads) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(run=run, reads=reads, refuse=command.error)
        for key, (_, keywords) in _FLAGS.items():
            if key in reads:
                if (name, key) == ("mass", "model"):
                    keywords = {**keywords, "help": f"boundaryless conformal model: {_MASS_MODELS}"}
                command.add_argument("--" + key.replace("_", "-"), **keywords)
        if reads:
            command.add_argument("--config", help="flat key=value config file (flags override)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads argv with, built on first use and kept for the process."""
    return build_parser()


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Each flag the command reads: from argv, else from the config file, else its RunConfig default."""
    file_values = load_config_file(args.config) if args.config else {}
    unread = sorted(set(file_values) - args.reads)
    if unread:
        accepted = ", ".join(sorted(args.reads))
        raise UsageError(f"{args.command} does not read config key(s) {', '.join(unread)}; it reads: {accepted}")
    values = {}
    for key, (cast, _) in _FLAGS.items():
        text = getattr(args, key, None)  # a flag the command does not read has no attribute
        text = file_values.get(key) if text is None else text
        if text is not None:
            try:
                values[key] = cast(text)
            except ValueError as exc:
                raise UsageError(f"bad value for {key}: {text!r}") from exc
    model = values.get("model")
    if not model:
        raise UsageError("model is required (see `curvlab models`)")
    if model not in _MODELS:
        raise UsageError(f"unknown model {model!r}; see `curvlab models`")
    params = _MODELS[model].params
    unread = [key for key in values if key in _PARAMS and key not in params]
    if unread:
        raise UsageError(f"model={model} does not read {', '.join(unread)}")
    for key in params:
        if key in args.reads and key not in values and RunConfig._field_defaults[key] is None:
            raise UsageError(f"model={model} needs {key}")
    cfg = RunConfig(**values)
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


def _utc_now() -> str:
    """Now, as ``datetime.now(timezone.utc).isoformat()`` writes it: to the microsecond, none at a whole second."""
    seconds, us = divmod(time.time_ns() // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{stamp}.{us:06d}+00:00" if us else f"{stamp}+00:00"


def _builder_args(cfg: RunConfig) -> list:
    return [getattr(cfg, key) for key in _MODELS[cfg.model].params]


def _solve_grid(cfg: RunConfig):
    sol = solve(_MODELS[cfg.model].build(*_builder_args(cfg)))
    return sol, default_t_grid(sol, cfg.grid, cfg.t_min_factor, cfg.t_max_factor)


def _param_text(key: str) -> str:
    default = RunConfig._field_defaults[key]
    return f"--{key.replace('_', '-')} ({'required' if default is None else f'default {default!r}'})"


def _models(cfg: None) -> _Result:
    return 0, [
        f"{name}: {model.description}; reads {', '.join(map(_param_text, model.params)) or 'no parameter'}\n"
        for name, model in _MODELS.items()
    ], []


def _potential(cfg: RunConfig) -> _Result:
    sol, grid = _solve_grid(cfg)
    # Solve every level before writing, so a failed level leaves no partial table.
    ts, ss, us = levels(sol, grid)
    grads = _grads(sol.c_norm, [f for f, _ in map(sol.profile.metric, ss)])  # one metric read per level
    rows = [f"{t!r},{s!r},{u!r},{g!r}\n" for t, s, u, g in zip(ts, ss, us, grads)]
    cap = sol.capacity
    capacity = f"# capacity={cap!r}\n" if cap is not None else "# capacity=nan (boundaryless)\n"
    table = [f"# profile={sol.profile.label}\n", capacity, "t,s,u,grad\n", *rows]
    return _table(cfg, "potential.csv", lambda fh: fh.writelines(table))


def _functionals(cfg: RunConfig) -> _Result:
    series = build_series(*_solve_grid(cfg))
    return _table(cfg, "functionals.csv", lambda fh: write_series_csv(series, fh))


def _verify(cfg: RunConfig) -> _Result:
    from .verify import DEFAULT_CHECK_TOLERANCE, run_battery, write_report_csv, write_report_text

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
    outputs = [_file("verify.csv", lambda fh: write_report_csv(report, fh))] if cfg.out else []
    if cfg.save_report:
        from .report_store import make_record, save

        record = make_record(cfg.echo(), "".join(lines), __version__, _utc_now())
        outputs.append(lambda outdir: f"saved {save(record, outdir)}\n")
    return (1 if report.blocking() else 0), lines, outputs


def _mass(cfg: RunConfig) -> _Result:
    conformal = _MODELS[cfg.model].conformal
    if conformal is None:
        raise UsageError(f"the mass subcommand needs a boundaryless conformal model: {_MASS_MODELS}")
    from .mass import mass_report, write_mass_csv

    report = mass_report(conformal(*_builder_args(cfg)))
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


# Each subcommand: name -> (command, help, the config keys of the flags it reads).  `models` reads none.
# `mass` runs only the models with a conformal builder; its --model help and its refusal name them.
_MASS_MODELS = " or ".join(name for name, model in _MODELS.items() if model.conformal)
_LEVEL_MAP = frozenset({"model", *_PARAMS, "grid", "t_min_factor", "t_max_factor", "out"})
_MASS = frozenset({"model", "out", *(key for model in _MODELS.values() if model.conformal for key in model.params)})
_COMMANDS = {
    "models": (_models, "list built-in models", frozenset()),
    "potential": (_potential, "emit the u / |grad u| / capacity table", _LEVEL_MAP),
    "functionals": (_functionals, "emit the functional series CSV", _LEVEL_MAP),
    "verify": (_verify, "run the inequality battery", _LEVEL_MAP | {"tol", "save_report"}),
    "mass": (_mass, "run both ADM mass estimators", _MASS),
}


def main(argv: list[str] | None = None) -> int:
    args, unread = _parser().parse_known_args(argv)
    if unread:  # refused under the subcommand's own usage line, not the top-level one
        args.refuse(f"unrecognized arguments: {' '.join(unread)}")
    try:
        cfg = resolve_config(args) if args.reads else None
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
    stamp = [f"# generated_at={_utc_now()}\n"] if cfg is not None else []
    try:
        sys.stdout.writelines([*stamp, *body, *announced])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`): the rest goes to the null device, so exit raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code

