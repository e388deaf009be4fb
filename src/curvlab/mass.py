"""ADM mass two ways on asymptotically flat boundaryless models.

Surface route: for g = w^4 g_eucl the flux integrand of the ADM limit
reduces radially; with dsigma_eucl = 4 pi r^2 on coordinate spheres,

    m(r) = (1/16 pi) * (-8 w^3 w') * 4 pi r^2 = -2 r^2 w(r)^3 w'(r),

followed by Richardson extrapolation in 1/r (exact for harmonically flat
ends, where m(r) is a cubic polynomial in 1/r).

Volume route: the sub-level expansion
Vol({u <= 1 - 1/t}) = (4/3) pi t^3 + 4 pi m t^2 + o(t^2) inverted as

    m_est(t) = [Vol({u <= 1 - 1/t}) - (4/3) pi t^3] / (4 pi t^2),

at the 25 fixed levels geometric_grid(10, 1000, 25), then a least-squares
fit of m + c/t over the largest decade of t, its 13 levels t >= 100 (the
built-in family's next correction is O(1/t)), solved from its 2x2 normal
equations in x = 1/t with math.fsum sums.  Positivity of every m_est(t) is
the desk-scale positive mass inequality.

``mass_report(c)`` reads both from one conformal profile: the flux of c and
the volumes of ``solve(to_warped(c))``, so the two cannot disagree on the model.
"""

from __future__ import annotations

import math
from typing import IO, NamedTuple

from .errors import ProfileDataError, WrongKind
from .numerics import extrapolate_to_zero, geometric_grid
from .potential import PotentialSolution, levels, solve, volumes
from .profile import _FOUR_PI, ConformalProfile, to_warped

__all__ = [
    "MassReport",
    "adm_surface",
    "mass_from_volume",
    "mass_report",
    "write_mass_csv",
]


class MassReport(NamedTuple):
    profile_label: str
    mass_tag: float | None
    m_surface: float
    m_volume: float
    samples: tuple[tuple[float, float], ...]


def adm_surface(c: ConformalProfile) -> float:
    """ADM mass via the flux -2 r^2 w^3 w' at 8 radii, Richardson-extrapolated in 1/r."""
    lo = max(4.0 * max(c.r_min, c.harmonic_radius or 0.0, 1.0), 10.0)
    rs = geometric_grid(lo, 1e3 * lo, 8)
    fluxes = [-2.0 * r * r * w ** 3 * dw for r, (w, dw, _) in zip(rs, map(c.jet, rs))]
    # + 0.0 turns the -0.0 of a flat end into 0.0 and leaves every other value as it is.
    return extrapolate_to_zero([1.0 / r for r in rs], fluxes) + 0.0


def mass_from_volume(sol: PotentialSolution) -> tuple[float, list[tuple[float, float]]]:
    """Volume-expansion mass estimator and its per-sample values, at the module docstring's 25 levels."""
    if sol.capacity is not None:
        raise WrongKind("the volume estimator needs a boundaryless solution")
    if not sol.profile.asymptotically_flat:
        raise ProfileDataError("the volume estimator needs an asymptotically flat profile")
    ts = geometric_grid(10.0, 1000.0, 25)
    ss = levels(sol, ts)[1]
    samples = [(t, (vol - _FOUR_PI * t ** 3 / 3.0) / (_FOUR_PI * t * t)) for t, vol in zip(ts, volumes(sol, ss))]

    fit = [(t, m) for t, m in samples if t >= 0.1 * ts[-1]]
    xs = [1.0 / t for t, _ in fit]
    ms = [m for _, m in fit]
    m_mean = math.fsum(ms) / len(ms)
    # Normal equations of m + c x, centred at the means so the slope does
    # not cancel digits.
    x_mean = math.fsum(xs) / len(xs)
    dxs = [x - x_mean for x in xs]
    slope = math.fsum(d * (m - m_mean) for d, m in zip(dxs, ms)) / math.fsum(d * d for d in dxs)
    return m_mean - slope * x_mean, samples


def mass_report(c: ConformalProfile) -> MassReport:
    """Both estimators on one conformal model: the flux of c and the volumes of ``solve(to_warped(c))``."""
    sol = solve(to_warped(c))
    m_surf = adm_surface(c)
    m_vol, samples = mass_from_volume(sol)
    return MassReport(
        profile_label=c.label,
        mass_tag=c.mass_tag,
        m_surface=m_surf,
        m_volume=m_vol,
        samples=tuple(samples),
    )


def write_mass_csv(report: MassReport, stream: IO[str]) -> None:
    """`t,m_est` rows plus summary lines."""
    stream.write("t,m_est\n")
    for t, m_est in report.samples:
        stream.write(f"{t!r},{m_est!r}\n")
    stream.write(f"# m_surface={report.m_surface!r}\n")
    stream.write(f"# m_volume={report.m_volume!r}\n")
    if report.mass_tag is not None:
        stream.write(f"# mass_tag={report.mass_tag!r}\n")
