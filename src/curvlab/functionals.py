"""Monotone level-set functionals and their analytic first variations.

Boundary case (capacity C, P = 1 + C/2t, I2 = Int |grad u|^2, IH = Int |grad u| H):

    G(t)   = -pi C^2/t + (t/4) P^4 I2
    G'(t)  =  pi C^2/t^2 + (1/4) P^3 (1 - 3C/2t) I2 - (C/4t) P^2 IH
    F(t)   =  4 pi t + (t^3/C^2) P^3 (1 - 3C/2t) I2 - (t^2/C) P^2 IH
    A1(t)  = (t^2/C^2) P^4 I2           = 4 pi + (4t/C^2) G(t)
    A1'(t) = (2t/C^2) P^3 (1 - C/2t) I2 - (1/C) P^2 IH
    a(t)   = t A1'/A1
    A      = F(C/2) = 2C (pi - I2 at the boundary)   (FunctionalSeries.deficit_A)

In the rotationally symmetric reduction the traceless second fundamental
form and tangential gradient vanish, so with q = 4u/(1-u^2) |grad u| - H:

    |B|^2 / |grad u|^2 = (3/2) q^2,   B1(t) = Int (3/2) q^2 dsigma
    F'(t) = Int [R/2 + (3/4) q^2] dsigma

(the first variation carries 4 pi - Int R^Sigma/2, which Gauss-Bonnet
makes zero on the round level spheres).

Boundaryless case:  Fhat(t) = -4 pi / t + t * Int |grad u|^2 dsigma.

One level: functional_row(level_integrals(sol, t), sol.capacity) (the capacity
is None without a boundary, where only Fhat is defined).  An ordered list of
levels: functional_rows, which solves them in one levels sweep.  A grid:
build_series, which reads functional_rows and adds A, A1~ = A1 + A/2t and the
volumes that coarea_volumes cross-checks.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import IO, NamedTuple, Sequence

from .numerics import NodeIntegrand, Tolerance, integrate
from .potential import (
    LevelSetSample,
    PotentialSolution,
    _round_sphere,
    _sample,
    level_integrals,
    levels,
    t_of_level,
    u_value,
    volumes,
)

__all__ = [
    "FunctionalSeries",
    "FunctionalRow",
    "functional_row",
    "functional_rows",
    "coarea_volumes",
    "build_series",
    "write_series_csv",
    "SERIES_CSV_HEADER",
]

_FOUR_PI = 4.0 * math.pi
_COAREA_TOL = Tolerance(rel=1e-10, abs=1e-12, max_refinements=48)

# (CSV column, FunctionalSeries field) in the order write_series_csv emits them.
_SERIES_COLUMNS = (
    ("t", "t_grid"), ("s", "s"), ("u", "u"), ("area", "area"), ("grad", "grad"),
    ("H", "mean_curvature"), ("R", "scalar_R"), ("Fhat", "Fhat"), ("G", "G"), ("F", "F"),
    ("A1", "A1"), ("A1tilde", "A1tilde"), ("a", "a_growth"), ("B1", "B1"),
    ("Fprime", "Fprime_analytic"), ("Gprime", "Gprime_analytic"), ("volume", "volume"),
)
SERIES_CSV_HEADER = ",".join(name for name, _ in _SERIES_COLUMNS)


def _q(u: float, grad: float, mean_h: float) -> float:
    """q = 4u/(1-u^2) |grad u| - H; at the boundary u = 0 kills the first factor."""
    return 4.0 * u / (1.0 - u * u) * grad - mean_h


class FunctionalRow(NamedTuple):
    """Every functional of one level set; nan where the solution kind leaves it undefined."""

    Fhat: float
    G: float
    Gprime: float
    F: float
    Fprime: float
    A1: float
    A1prime: float
    a: float
    B1: float


def functional_row(ls: LevelSetSample, cap: float | None) -> FunctionalRow:
    """Evaluate the functionals of the module docstring on one level set.

    ``cap`` is the capacity of a boundary solution, or None for a boundaryless
    one, where only Fhat is defined.
    """
    t = ls.t
    nan = math.nan
    if cap is None:
        return FunctionalRow(-_FOUR_PI / t + t * ls.int_grad_sq, nan, nan, nan, nan, nan, nan, nan, nan)
    i2 = ls.int_grad_sq
    ih = ls.int_grad_H
    p = 1.0 + cap / (2.0 * t)
    m1 = 1.0 - cap / (2.0 * t)
    m3 = 1.0 - 3.0 * cap / (2.0 * t)
    q = _q(ls.u, ls.grad, ls.mean_curvature)
    p3 = p ** 3
    p4 = p ** 4
    a1_val = t * t / (cap * cap) * p4 * i2
    a1_prime_val = 2.0 * t / (cap * cap) * p3 * m1 * i2 - p * p / cap * ih
    # Fields in declaration order: Fhat, G, Gprime, F, Fprime, A1, A1prime, a, B1.
    return FunctionalRow(
        nan,
        -math.pi * cap * cap / t + 0.25 * t * p4 * i2,
        math.pi * cap * cap / (t * t) + 0.25 * p3 * m3 * i2 - cap / (4.0 * t) * p * p * ih,
        _FOUR_PI * t + t ** 3 / (cap * cap) * p3 * m3 * i2 - t * t / cap * p * p * ih,
        ls.area * (0.5 * ls.scalar_R + 0.75 * q * q),
        a1_val,
        a1_prime_val,
        t * a1_prime_val / a1_val,
        ls.area * 1.5 * q * q,
    )


def functional_rows(sol: PotentialSolution, ts: Sequence[float]) -> tuple[list[LevelSetSample], list[FunctionalRow]]:
    """The sample and the functional row of each level of ts, solved in one levels sweep."""
    samples = [_sample(sol, lp) for lp in levels(sol, ts)]
    return samples, [functional_row(ls, sol.capacity) for ls in samples]


def coarea_volumes(sol: PotentialSolution, ts: Sequence[float]) -> list[float]:
    """Sub-level volumes at the levels ts through the coarea representation:
    one quadrature in the level parameter per segment [lower, t1], [t1, t2],
    ..., accumulated.  Each Gauss-Kronrod panel hands its 15 nodes over in
    one list, solved sorted in one levels sweep; a level's bits do not depend
    on the sweep it is solved in.

    This is the cross-check route for the radial volume column of
    build_series (Int 4 pi f^2 ds up to the level).  The lower end is the
    boundary level C/2; the boundaryless integrand vanishes like 4 pi s^2
    toward s = 0, so there it is cut at s = 1e-4 t1 with an O((s/t)^3)
    remainder, largest at t1 and far below the 1e-8 comparison tolerance.
    Each segment is split at the levels of the profile breakpoints (kinks).
    """
    p = sol.profile
    kinks = [t_of_level(sol, u_value(sol, x)) for x in p.breakpoints if x > p.x_min]
    cap = sol.capacity
    boundary = cap is not None
    lower = 0.5 * cap if boundary else 1e-4 * ts[0]

    def integrand(ss: list[float]) -> list[float]:
        inv = {lp.t: _round_sphere(sol, p.f(lp.s))[2] for lp in levels(sol, sorted(ss))}
        if boundary:
            return [cap / (s * s) * (1.0 + cap / (2.0 * s)) ** -2 * inv[s] for s in ss]
        return [inv[s] / (s * s) for s in ss]

    segments = zip([lower, *ts], ts)
    nodes = NodeIntegrand(integrand)
    return list(accumulate(integrate(nodes, lo, hi, _COAREA_TOL, points=kinks).value for lo, hi in segments))


class FunctionalSeries(NamedTuple):
    """Parallel columns of every functional over a t-grid (nan where
    undefined) and, for a boundary solution, the sample of the boundary level
    t = C/2 (None without one)."""

    deficit_A: float
    t_grid: tuple[float, ...]
    s: tuple[float, ...]
    u: tuple[float, ...]
    area: tuple[float, ...]
    grad: tuple[float, ...]
    mean_curvature: tuple[float, ...]
    scalar_R: tuple[float, ...]
    Fhat: tuple[float, ...]
    G: tuple[float, ...]
    F: tuple[float, ...]
    A1: tuple[float, ...]
    A1tilde: tuple[float, ...]
    a_growth: tuple[float, ...]
    B1: tuple[float, ...]
    Fprime_analytic: tuple[float, ...]
    Gprime_analytic: tuple[float, ...]
    volume: tuple[float, ...]
    boundary_sample: LevelSetSample | None


def build_series(sol: PotentialSolution, t_grid: Sequence[float]) -> FunctionalSeries:
    """Evaluate every functional over the grid."""
    ts = [float(t) for t in t_grid]
    samples, rows = functional_rows(sol, ts)
    boundary_sample = None
    deficit = math.nan
    if sol.capacity is not None:
        # A default grid starts at C/2; one with t_min_factor > 1 does not.
        t_b = 0.5 * sol.capacity
        boundary_sample = samples[0] if ts[0] == t_b else level_integrals(sol, t_b)
        deficit = 2.0 * sol.capacity * (math.pi - boundary_sample.int_grad_sq)
    cols = FunctionalRow(*zip(*rows))
    geometry = LevelSetSample(*zip(*samples))

    return FunctionalSeries(
        deficit_A=deficit,
        t_grid=tuple(ts),
        s=geometry.s,
        u=geometry.u,
        area=geometry.area,
        grad=geometry.grad,
        mean_curvature=geometry.mean_curvature,
        scalar_R=geometry.scalar_R,
        Fhat=cols.Fhat,
        G=cols.G,
        F=cols.F,
        A1=cols.A1,
        A1tilde=tuple(a + deficit / (2.0 * t) for a, t in zip(cols.A1, ts)),
        a_growth=cols.a,
        B1=cols.B1,
        Fprime_analytic=cols.Fprime,
        Gprime_analytic=cols.Gprime,
        volume=tuple(volumes(sol, geometry.s)),
        boundary_sample=boundary_sample,
    )


def write_series_csv(series: FunctionalSeries, stream: IO[str]) -> None:
    """Emit the series as CSV with shortest round-trip decimal formatting."""
    stream.write(SERIES_CSV_HEADER + "\n")
    for row in zip(*(getattr(series, field) for _, field in _SERIES_COLUMNS)):
        stream.write(",".join(map(repr, row)) + "\n")
