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

Levels are read as columns only: functional_columns makes one levels sweep,
then the geometry (potential._geometry) and the functionals
(_functional_columns) as columns, one pass each; a single level is a list of
one.  A grid: build_series, which adds A, A1~ = A1 + A/2t and the volumes
that coarea_volumes cross-checks.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import IO, NamedTuple, Sequence

from .numerics import NodeIntegrand, Tolerance, integrate
from .potential import (
    LevelSetSample,
    PotentialSolution,
    _geometry,
    _grads,
    levels,
    t_of_level,
    u_value,
    volumes,
)
from .profile import _FOUR_PI

__all__ = [
    "FunctionalSeries",
    "FunctionalRow",
    "functional_columns",
    "coarea_volumes",
    "build_series",
    "write_series_csv",
    "SERIES_CSV_HEADER",
]

_COAREA_TOL = Tolerance(rel=1e-10, abs=1e-12)

# (CSV column, FunctionalSeries field) in the order write_series_csv emits them.
_SERIES_COLUMNS = (
    ("t", "t_grid"), ("s", "s"), ("u", "u"), ("area", "area"), ("grad", "grad"),
    ("H", "mean_curvature"), ("R", "scalar_R"), ("Fhat", "Fhat"), ("G", "G"), ("F", "F"),
    ("A1", "A1"), ("A1tilde", "A1tilde"), ("a", "a_growth"), ("B1", "B1"),
    ("Fprime", "Fprime_analytic"), ("Gprime", "Gprime_analytic"), ("volume", "volume"),
)
SERIES_CSV_HEADER = ",".join(name for name, _ in _SERIES_COLUMNS)


class FunctionalRow(NamedTuple):
    """Every functional of the levels ts, one list per field (``functional_columns``); nan where undefined."""

    Fhat: float
    G: float
    Gprime: float
    F: float
    Fprime: float
    A1: float
    A1prime: float
    a: float
    B1: float


def _functional_columns(cap: float | None, geo: LevelSetSample) -> FunctionalRow:
    """The functionals of the geometry columns ``geo`` as a FunctionalRow of lists: one pass, no call per level."""
    undefined = [math.nan] * len(geo.t)
    if cap is None:
        fhat = [-_FOUR_PI / t + t * i2 for t, i2 in zip(geo.t, geo.int_grad_sq)]
        return FunctionalRow(fhat, *[undefined] * 8)
    g_col, gprime_col, f_col, fprime_col, a1_col, a1prime_col, a_col, b1_col = cols = [[] for _ in range(8)]
    # Each hoisted constant is the subexpression its formula forms first,
    # left to right, so every bit is kept; G's -math.pi * cap * cap forms
    # (-pi) C C, which is -(pi C C) exactly.
    cap2 = cap * cap
    pi_cap2 = math.pi * cap * cap
    cap3 = 3.0 * cap
    for t, u, area, grad, mean_h, scalar_r, i2, ih in zip(geo.t, *geo[2:9]):
        two_t = 2.0 * t
        half_ratio = cap / two_t
        p = 1.0 + half_ratio
        m1 = 1.0 - half_ratio
        m3 = 1.0 - cap3 / two_t
        # q = 4u/(1-u^2) |grad u| - H; at the boundary u = 0 kills the first factor.
        q = 4.0 * u / (1.0 - u * u) * grad - mean_h
        p3 = p ** 3
        p4 = p ** 4
        a1_val = t * t / cap2 * p4 * i2
        a1_prime_val = two_t / cap2 * p3 * m1 * i2 - p * p / cap * ih
        g_col.append(-pi_cap2 / t + 0.25 * t * p4 * i2)
        gprime_col.append(pi_cap2 / (t * t) + 0.25 * p3 * m3 * i2 - cap / (4.0 * t) * p * p * ih)
        f_col.append(_FOUR_PI * t + t ** 3 / cap2 * p3 * m3 * i2 - t * t / cap * p * p * ih)
        fprime_col.append(area * (0.5 * scalar_r + 0.75 * q * q))
        a1_col.append(a1_val)
        a1prime_col.append(a1_prime_val)
        a_col.append(t * a1_prime_val / a1_val)
        b1_col.append(area * 1.5 * q * q)
    return FunctionalRow(undefined, *cols)


def functional_columns(sol: PotentialSolution, ts: Sequence[float]) -> tuple[LevelSetSample, FunctionalRow]:
    """The geometry and the functionals of the levels ts as columns, from one levels sweep."""
    geo = _geometry(sol, levels(sol, ts))
    return geo, _functional_columns(sol.capacity, geo)


def coarea_volumes(sol: PotentialSolution, ts: Sequence[float]) -> list[float]:
    """Sub-level volumes at the levels ts through the coarea representation:
    one quadrature in the level parameter per segment [lower, t1], [t1, t2],
    ..., accumulated.  Each Gauss-Kronrod panel hands its 15 nodes over in
    one list, solved sorted in one levels sweep; a level's bits do not depend
    on the sweep it is solved in.  The integrand reads only f at each node,
    with one ``metric`` call, and forms Int_Sigma 1/|grad u| = 4 pi f^2/|grad u|
    from f and its ``_grads`` column.

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
    metric = p.metric

    def integrand(ss: list[float]) -> list[float]:
        solved, xs, _ = levels(sol, sorted(ss))
        fs = [metric(x)[0] for x in xs]
        inv = dict(zip(solved, [_FOUR_PI * f * f / g for f, g in zip(fs, _grads(sol.c_norm, fs))]))
        if boundary:
            return [cap / (s * s) * (1.0 + cap / (2.0 * s)) ** -2 * inv[s] for s in ss]
        return [inv[s] / (s * s) for s in ss]

    segments = zip([lower, *ts], ts)
    nodes = NodeIntegrand(integrand)
    return list(accumulate(integrate(nodes, lo, hi, _COAREA_TOL, points=kinks).value for lo, hi in segments))


class FunctionalSeries(NamedTuple):
    """Parallel columns of every functional over a t-grid (nan where
    undefined) and, for a boundary solution, the sample of the boundary level
    t = C/2 (None without one): a LevelSetSample of floats, the one record of
    that type that is not columns."""

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
    geo, cols = functional_columns(sol, ts)
    boundary_sample = None
    deficit = math.nan
    if sol.capacity is not None:
        # A default grid starts at C/2; one with t_min_factor > 1 does not.
        t_b = 0.5 * sol.capacity
        boundary_geo = geo if ts[0] == t_b else _geometry(sol, levels(sol, (t_b,)))
        boundary_sample = LevelSetSample(*(column[0] for column in boundary_geo))
        deficit = 2.0 * sol.capacity * (math.pi - boundary_sample.int_grad_sq)
    return FunctionalSeries(
        deficit_A=deficit,
        t_grid=tuple(ts),
        s=tuple(geo.s),
        u=tuple(geo.u),
        area=tuple(geo.area),
        grad=tuple(geo.grad),
        mean_curvature=tuple(geo.mean_curvature),
        scalar_R=tuple(geo.scalar_R),
        Fhat=tuple(cols.Fhat),
        G=tuple(cols.G),
        F=tuple(cols.F),
        A1=tuple(cols.A1),
        A1tilde=tuple([a + deficit / (2.0 * t) for a, t in zip(cols.A1, ts)]),
        a_growth=tuple(cols.a),
        B1=tuple(cols.B1),
        Fprime_analytic=tuple(cols.Fprime),
        Gprime_analytic=tuple(cols.Gprime),
        volume=tuple(volumes(sol, geo.s)),
        boundary_sample=boundary_sample,
    )


def write_series_csv(series: FunctionalSeries, stream: IO[str]) -> None:
    """Emit the series as CSV with shortest round-trip decimal formatting."""
    stream.write(SERIES_CSV_HEADER + "\n")
    for row in zip(*(getattr(series, field) for _, field in _SERIES_COLUMNS)):
        stream.write(",".join(map(repr, row)) + "\n")
