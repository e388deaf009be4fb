"""Inequality and monotonicity battery with equality-case detection.

Each check reports its worst margin over the grid, normalised by the
natural scale of its bound (pi, 4 pi, the Schwarzschild area/volume, ...).
Status rules:

  * Fail            iff worst_margin < -tolerance;
  * EqualityDetected when every |margin| stays within 100x the tolerance
    (the rigidity cases: Schwarzschild with boundary, Euclidean without);
  * identity-type checks (two-sided) never report equality.

Hypothesis violations (negative scalar curvature, non-minimal boundary)
do not abort the battery; they annotate the report and the CLI exit code
signals them.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import IO, NamedTuple, Sequence

from .errors import GridTooCoarse
from .functionals import FunctionalSeries, build_series, coarea_volumes, functional_columns
from .numerics import Tolerance, difference_quotient, difference_stencil
from .potential import PotentialSolution, default_t_grid
from .profile import _FOUR_PI, sample_scalar_curvature_sign, sphere_geometry

__all__ = [
    "CheckStatus",
    "CheckResult",
    "VerificationReport",
    "run_battery",
    "schwarzschild_comparison_volume",
    "write_report_text",
    "write_report_csv",
]

# Base check tolerance, pinned to the acceptance contract: rel drives the
# normalised theorem margins, abs the sign/monotonicity margins.
DEFAULT_CHECK_TOLERANCE = Tolerance(rel=1e-8, abs=1e-9)
TOL_FD_REL = 1e-5
EQUALITY_FACTOR = 100.0
_FD_SUBSAMPLE = 16  # derivative-consistency points inside the battery
_RICCATI_SCALE = 1e-3  # differentiation scale for a(t); larger than the
# default to keep cancellation noise under the 1e-8 margin


class CheckStatus(str, Enum):
    PASS = "Pass"
    FAIL = "Fail"
    EQUALITY = "EqualityDetected"
    SKIPPED = "Skipped"


class CheckResult(NamedTuple):
    name: str
    status: CheckStatus
    worst_margin: float
    worst_t: float
    tolerance_used: float
    note: str = ""


class VerificationReport(NamedTuple):
    profile_label: str
    kind: str
    capacity: float
    r_nonneg_confirmed: bool
    annotations: tuple[str, ...]
    checks: tuple[CheckResult, ...]

    def has_failures(self) -> bool:
        return any(c.status is CheckStatus.FAIL for c in self.checks)

    def blocking(self) -> bool:
        """True when the CLI must exit non-zero: failures or violated hypotheses."""
        return self.has_failures() or bool(self.annotations)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _judge(
    name: str,
    margins: Sequence[float],
    ts: Sequence[float],
    tol: float,
    identity: bool = False,
    note: str = "",
) -> CheckResult:
    if not margins:  # e.g. every finite-difference stencil reaches below C/2
        return CheckResult(name, CheckStatus.SKIPPED, math.nan, math.nan, tol, "no grid level admits the check")
    worst = min(margins)
    worst_t = ts[margins.index(worst)]
    if worst < -tol:
        status = CheckStatus.FAIL
    elif not identity and max(map(abs, margins)) <= EQUALITY_FACTOR * tol:
        status = CheckStatus.EQUALITY
    else:
        status = CheckStatus.PASS
    return CheckResult(name, status, worst, worst_t, tol, note)


def schwarzschild_comparison_volume(cap: float, t: float) -> float:
    """Closed form of Int_{C/2}^t 4 pi s^2 (1 + C/2s)^6 ds (the volume bound).

    Antiderivative: s^3/3 + 3 a s^2 + 15 a^2 s + 20 a^3 ln s - 15 a^4/s
    - 3 a^5/s^2 - a^6/(3 s^3) with a = C/2; at the lower limit s = a the
    power terms cancel exactly, leaving 20 a^3 ln a.  The one-element
    column of ``_comparison_volumes``.
    """
    return _comparison_volumes(cap, (t,))[0]


def _comparison_volumes(cap: float, ts: Sequence[float]) -> list[float]:
    """``schwarzschild_comparison_volume(cap, t)`` for each t of ts, as one column.

    The coefficients c1 = 3a, c2 = 15 a^2, c3 = 20 a^3, c4 = 15 a^4,
    c5 = 3 a^5, c6 = a^6 of the antiderivative and its value c3 ln a at the
    lower limit are formed once.  Each is the subexpression its term forms
    first, left to right (3 a t t is (3 a) t t, 15 a a t is (15 a a) t), so
    every bit is the term's.
    """
    a = 0.5 * cap
    c1, c2, c3, c4, c5, c6 = 3.0 * a, 15.0 * a * a, 20.0 * a ** 3, 15.0 * a ** 4, 3.0 * a ** 5, a ** 6
    at_a = c3 * math.log(a)
    log = math.log
    return [
        _FOUR_PI
        * (t ** 3 / 3.0 + c1 * t * t + c2 * t + c3 * log(t) - c4 / t - c5 / (t * t) - c6 / (3.0 * t ** 3) - at_a)
        for t in ts
    ]


def _excess(value: float, bound: float) -> float:
    """Margin of value >= bound, relative to the bound."""
    return (value - bound) / bound


def _fd_indices(n: int, count: int) -> list[int]:
    interior = list(range(2, n - 2))
    if len(interior) <= count:
        return interior
    stride = max(1, len(interior) // count)
    return interior[::stride][:count]


def _sign_checks(
    sol: PotentialSolution, name: str, values: Sequence[float], ts: list[float], tol: Tolerance
) -> list[CheckResult]:
    """``<name>_monotone`` and ``<name>_nonpositive``: the functional never
    decreases along the grid and stays at or below zero."""
    note = "" if sol.grad_vanishes_at_infinity else "hypothesis unverified: |grad u| -> 0 at infinity"
    steps = [b - a for a, b in zip(values, values[1:])]
    return [
        _judge(f"{name}_monotone", steps, ts[1:], tol.abs, note=note),
        _judge(f"{name}_nonpositive", [-v for v in values], ts, tol.abs, note=note),
    ]


def _coarea_crosscheck(
    sol: PotentialSolution, series: FunctionalSeries, ts: list[float], tol: Tolerance
) -> CheckResult:
    """The series' radial sub-level volume against the coarea one at three
    grid levels, swept in one pass."""
    n = len(ts)
    picks = (n // 4, n // 2, (3 * n) // 4)
    coarea = coarea_volumes(sol, [ts[i] for i in picks])
    margins = [-abs(series.volume[i] - c) / series.volume[i] for i, c in zip(picks, coarea)]
    return _judge("coarea_crosscheck", margins, [ts[i] for i in picks], tol.rel, identity=True)


def _boundary_checks(
    sol: PotentialSolution, series: FunctionalSeries, ts: list[float], tol: Tolerance, skip_note: str
) -> list[CheckResult]:
    """The battery of a boundary solution.  A ``skip_note`` (the boundary is
    not minimal) reports the comparison checks as Skipped."""
    cap = sol.capacity
    n = len(ts)
    t_b = [0.5 * cap]
    bs = series.boundary_sample

    def comparison(name: str, margins: list[float], at: Sequence[float], check_tol: float) -> CheckResult:
        if skip_note:
            return CheckResult(name, CheckStatus.SKIPPED, math.nan, math.nan, check_tol, skip_note)
        return _judge(name, margins, at, check_tol)

    area_margins = [
        _excess(a, _FOUR_PI * t * t * (1.0 + cap / (2.0 * t)) ** 4) for t, a in zip(ts, series.area)
    ]
    # Both sides of the volume comparison vanish identically at the boundary
    # level, where the closed form is pure cancellation noise: leave it out.
    volume_levels = [(t, v) for t, v in zip(ts, series.volume) if t > 0.5 * cap * (1.0 + 1e-12)]
    volume_ts = [t for t, _ in volume_levels]
    volume_margins = [_excess(v, b) for (_, v), b in zip(volume_levels, _comparison_volumes(cap, volume_ts))]
    checks = [
        # boundary gradient estimate, margin scaled by pi
        comparison("boundary_gradient_estimate", [(math.pi - bs.int_grad_sq) / math.pi], t_b, tol.rel),
        # A1 <= 4 pi
        comparison("a1_upper_bound", [(_FOUR_PI - a) / _FOUR_PI for a in series.A1], ts, tol.rel),
        comparison("area_comparison", area_margins, ts, tol.rel),
        comparison("area_capacity_inequality", [_excess(math.sqrt(bs.area / (16.0 * math.pi)), cap)], t_b, tol.rel),
        # against the closed-form Schwarzschild volume
        comparison("volume_comparison", volume_margins, volume_ts, 10.0 * tol.rel),
        *_sign_checks(sol, "g", series.G, ts, tol),
    ]

    # Central differences at subsampled interior points: the analytic G' and
    # F', and the Riccati inequality a' >= (1/t)(1 - 4 pi/A1 - a^2/4).  The
    # stencil levels of every difference are solved in one sorted sweep and
    # each row is shared by the differences that read it.
    fd_stencils, riccati_stencils = [], []
    for i in _fd_indices(n, _FD_SUBSAMPLE):
        t = ts[i]
        h, xs = difference_stencil(t)
        if t - 2.0 * h > 0.5 * cap:
            fd_stencils.append((i, h, xs))
        h = _RICCATI_SCALE * max(1.0, t)
        if t - 2.0 * h > 0.5 * cap:
            riccati_stencils.append((i, *difference_stencil(t, h)))
    stencil_ts = sorted({x for _, _, xs in fd_stencils + riccati_stencils for x in xs})
    stencil = functional_columns(sol, stencil_ts)[1]
    at = {x: k for k, x in enumerate(stencil_ts)}

    def derivative(column: str, h: float, xs: Sequence[float]) -> float:
        return difference_quotient([getattr(stencil, column)[at[x]] for x in xs], h)

    g_margins, f_margins = [], []
    for i, h, xs in fd_stencils:
        t = ts[i]
        g_scale = max(abs(series.Gprime_analytic[i]), _FOUR_PI / t)
        f_scale = max(abs(series.Fprime_analytic[i]), _FOUR_PI)
        g_margins.append(-abs(series.Gprime_analytic[i] - derivative("G", h, xs)) / g_scale)
        f_margins.append(-abs(series.Fprime_analytic[i] - derivative("F", h, xs)) / f_scale)
    r_margins = []
    for i, h, xs in riccati_stencils:
        t = ts[i]
        rhs = (1.0 - _FOUR_PI / series.A1[i] - series.a_growth[i] ** 2 / 4.0) / t
        r_margins.append(derivative("a", h, xs) - rhs)
    fd_ts = [ts[i] for i, _, _ in fd_stencils]
    r_ts = [ts[i] for i, _, _ in riccati_stencils]
    return [
        *checks,
        _judge("gprime_vs_fd", g_margins, fd_ts, TOL_FD_REL, identity=True),
        _judge("fprime_vs_fd", f_margins, fd_ts, TOL_FD_REL, identity=True),
        _judge("riccati_growth", r_margins, r_ts, 10.0 * tol.abs),
        _coarea_crosscheck(sol, series, ts, tol),
    ]


def _boundaryless_checks(
    sol: PotentialSolution, series: FunctionalSeries, ts: list[float], tol: Tolerance
) -> list[CheckResult]:
    area_margins = [_excess(a, _FOUR_PI * t * t) for t, a in zip(ts, series.area)]
    volume_margins = [_excess(v, _FOUR_PI * t ** 3 / 3.0) for t, v in zip(ts, series.volume)]
    return [
        _judge("area_comparison", area_margins, ts, 0.1 * tol.rel),
        _judge("volume_comparison", volume_margins, ts, 0.1 * tol.rel),
        *_sign_checks(sol, "fhat", series.Fhat, ts, tol),
        _coarea_crosscheck(sol, series, ts, tol),
    ]


def run_battery(
    sol: PotentialSolution,
    t_grid: Sequence[float] | None = None,
    tol: Tolerance | None = None,
) -> VerificationReport:
    """Run every applicable check of the main theorem and its proof machinery.

    ``tol`` sets the base check tolerance (rel for normalised comparison
    margins, abs for sign margins); the default is the acceptance contract.
    Each check scales it by a fixed factor.
    """
    ts = [float(t) for t in (t_grid if t_grid is not None else default_t_grid(sol))]
    if len(ts) < 8:
        raise GridTooCoarse(f"verification grid needs at least 8 points, got {len(ts)}")
    tol = tol or DEFAULT_CHECK_TOLERANCE

    p = sol.profile
    annotations: list[str] = []

    r_ok, worst_x, worst_r = sample_scalar_curvature_sign(p)
    if not r_ok:
        annotations.append(
            f"hypothesis violated: scalar curvature negative (R = {worst_r!r} at x = {worst_x!r})"
        )
        if p.assume_nonnegative_R:
            annotations.append("profile declared R >= 0 but the sampled check found a violation")

    boundary = sol.capacity is not None
    skip_note = ""
    if boundary:
        _, h_boundary = sphere_geometry(p, p.x_min)
        h_scaled = abs(h_boundary) * p.f(p.x_min) / 2.0
        if h_scaled > 1e-8:
            skip_note = f"boundary not minimal (H = {h_boundary!r})"
            annotations.append(f"hypothesis violated: {skip_note}")

    series = build_series(sol, ts)
    if boundary:
        checks = _boundary_checks(sol, series, ts, tol, skip_note)
    else:
        checks = _boundaryless_checks(sol, series, ts, tol)

    return VerificationReport(
        profile_label=p.label,
        kind="capacitary_with_boundary" if boundary else "green_boundaryless",
        capacity=sol.capacity if boundary else math.nan,
        r_nonneg_confirmed=r_ok,
        annotations=tuple(annotations),
        checks=tuple(checks),
    )


def write_report_text(report: VerificationReport, stream: IO[str]) -> None:
    """One check per line: name status worst_margin worst_t tolerance."""
    stream.write("schema=1\n")
    stream.write(f"profile={report.profile_label}\n")
    stream.write(f"kind={report.kind}\n")
    stream.write(f"capacity={report.capacity!r}\n")
    stream.write(f"r_nonneg_confirmed={'true' if report.r_nonneg_confirmed else 'false'}\n")
    for a in report.annotations:
        stream.write(f"annotation={a}\n")
    for c in report.checks:
        line = f"check {c.name} {c.status.value} {c.worst_margin!r} {c.worst_t!r} {c.tolerance_used!r}"
        if c.note:
            line += f" # {c.note}"
        stream.write(line + "\n")


def write_report_csv(report: VerificationReport, stream: IO[str]) -> None:
    stream.write("name,status,worst_margin,worst_t,tolerance,note\n")
    for c in report.checks:
        stream.write(
            f"{c.name},{c.status.value},{c.worst_margin!r},{c.worst_t!r},{c.tolerance_used!r},{c.note}\n"
        )
