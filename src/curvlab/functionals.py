"""Monotone level-set functionals and their analytic first variations.

Boundary case (capacity C, P = 1 + C/2t, I2 = Int |grad u|^2, IH = Int |grad u| H):

    G(t)   = -pi C^2/t + (t/4) P^4 I2
    G'(t)  =  pi C^2/t^2 + (1/4) P^3 (1 - 3C/2t) I2 - (C/4t) P^2 IH
    F(t)   =  4 pi t + (t^3/C^2) P^3 (1 - 3C/2t) I2 - (t^2/C) P^2 IH
    A1(t)  = (t^2/C^2) P^4 I2           = 4 pi + (4t/C^2) G(t)
    A1'(t) = (2t/C^2) P^3 (1 - C/2t) I2 - (1/C) P^2 IH
    a(t)   = t A1'/A1
    A      = F(C/2) = 2C (pi - I2 at the boundary)

In the rotationally symmetric reduction the traceless second fundamental
form and tangential gradient vanish, so with q = 4u/(1-u^2) |grad u| - H:

    |B|^2 / |grad u|^2 = (3/2) q^2,   B1(t) = Int (3/2) q^2 dsigma
    F'(t) = 4 pi - Int R^Sigma/2 + Int [R/2 + (3/4) q^2] dsigma

Boundaryless case:  Fhat(t) = -4 pi / t + t * Int |grad u|^2 dsigma.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import WrongKind
from .numerics import Tolerance, integrate
from .potential import (
    LevelSetSample,
    PotentialSolution,
    SolutionKind,
    level,
    level_integrals,
    t_of_level,
    u_value,
    volume_to_coordinate,
)

__all__ = [
    "FunctionalSeries",
    "fhat",
    "g_func",
    "g_prime",
    "f_func",
    "f_prime_analytic",
    "a1",
    "a1_prime",
    "a1_tilde",
    "a_growth",
    "b1",
    "boundary_deficit",
    "volume_sublevel",
    "coarea_volume",
    "growth_integrand_cumulative",
    "build_series",
    "write_series_csv",
    "SERIES_CSV_HEADER",
]

_FOUR_PI = 4.0 * math.pi
_COAREA_TOL = Tolerance(rel=1e-10, abs=1e-12, max_refinements=48)

SERIES_CSV_HEADER = "t,s,u,area,grad,H,R,Fhat,G,F,A1,A1tilde,a,B1,Fprime,Gprime,volume"


def _require(sol: PotentialSolution, kind: SolutionKind, what: str) -> None:
    if sol.kind is not kind:
        raise WrongKind(f"{what} requires a {kind.value} solution, got {sol.kind.value}")


def _q(ls: LevelSetSample) -> float:
    # 4u/(1-u^2) |grad u| - H; at the boundary u = 0 kills the first factor.
    return 4.0 * ls.u / (1.0 - ls.u * ls.u) * ls.grad - ls.mean_curvature


# -- boundaryless -----------------------------------------------------------


def fhat(sol: PotentialSolution, t: float) -> float:
    """Fhat(t) = -4 pi/t + t Int_{u = 1 - 1/t} |grad u|^2 dsigma."""
    _require(sol, SolutionKind.GREEN_BOUNDARYLESS, "fhat")
    ls = level_integrals(sol, t)
    return -_FOUR_PI / t + t * ls.int_grad_sq


# -- boundary case ----------------------------------------------------------


def _g_from(ls: LevelSetSample, cap: float) -> float:
    p = 1.0 + cap / (2.0 * ls.t)
    return -math.pi * cap * cap / ls.t + 0.25 * ls.t * p ** 4 * ls.int_grad_sq


def _g_prime_from(ls: LevelSetSample, cap: float) -> float:
    t = ls.t
    p = 1.0 + cap / (2.0 * t)
    m3 = 1.0 - 3.0 * cap / (2.0 * t)
    return (
        math.pi * cap * cap / (t * t)
        + 0.25 * p ** 3 * m3 * ls.int_grad_sq
        - cap / (4.0 * t) * p * p * ls.int_grad_H
    )


def _f_from(ls: LevelSetSample, cap: float) -> float:
    t = ls.t
    p = 1.0 + cap / (2.0 * t)
    m3 = 1.0 - 3.0 * cap / (2.0 * t)
    return (
        _FOUR_PI * t
        + t ** 3 / (cap * cap) * p ** 3 * m3 * ls.int_grad_sq
        - t * t / cap * p * p * ls.int_grad_H
    )


def _f_prime_from(ls: LevelSetSample) -> float:
    q = _q(ls)
    gauss_bonnet = ls.area * (0.5 * ls.scalar_R_level)  # = 4 pi on a round sphere
    return _FOUR_PI - gauss_bonnet + ls.area * (0.5 * ls.scalar_R + 0.75 * q * q)


def _a1_from(ls: LevelSetSample, cap: float) -> float:
    t = ls.t
    p = 1.0 + cap / (2.0 * t)
    return t * t / (cap * cap) * p ** 4 * ls.int_grad_sq


def _a1_prime_from(ls: LevelSetSample, cap: float) -> float:
    t = ls.t
    p = 1.0 + cap / (2.0 * t)
    m1 = 1.0 - cap / (2.0 * t)
    return 2.0 * t / (cap * cap) * p ** 3 * m1 * ls.int_grad_sq - p * p / cap * ls.int_grad_H


def _b1_from(ls: LevelSetSample) -> float:
    q = _q(ls)
    return ls.area * 1.5 * q * q


def g_func(sol: PotentialSolution, t: float) -> float:
    _require(sol, SolutionKind.CAPACITARY_WITH_BOUNDARY, "G")
    return _g_from(level_integrals(sol, t), sol.capacity)


def g_prime(sol: PotentialSolution, t: float) -> float:
    """Analytic G'(t) from the first variation of the level integrals."""
    _require(sol, SolutionKind.CAPACITARY_WITH_BOUNDARY, "G'")
    return _g_prime_from(level_integrals(sol, t), sol.capacity)


def f_func(sol: PotentialSolution, t: float) -> float:
    _require(sol, SolutionKind.CAPACITARY_WITH_BOUNDARY, "F")
    return _f_from(level_integrals(sol, t), sol.capacity)


def f_prime_analytic(sol: PotentialSolution, t: float) -> float:
    """Analytic F'(t) in the symmetric reduction (traceless terms drop)."""
    _require(sol, SolutionKind.CAPACITARY_WITH_BOUNDARY, "F'")
    return _f_prime_from(level_integrals(sol, t))


def a1(sol: PotentialSolution, t: float) -> float:
    _require(sol, SolutionKind.CAPACITARY_WITH_BOUNDARY, "A1")
    return _a1_from(level_integrals(sol, t), sol.capacity)


def a1_prime(sol: PotentialSolution, t: float) -> float:
    _require(sol, SolutionKind.CAPACITARY_WITH_BOUNDARY, "A1'")
    return _a1_prime_from(level_integrals(sol, t), sol.capacity)


def a1_tilde(sol: PotentialSolution, t: float) -> float:
    _require(sol, SolutionKind.CAPACITARY_WITH_BOUNDARY, "A1~")
    deficit = boundary_deficit(sol)
    return a1(sol, t) + deficit / (2.0 * t)


def a_growth(sol: PotentialSolution, t: float) -> float:
    """a(t) = t A1'/A1: polynomial growth rate of A1."""
    _require(sol, SolutionKind.CAPACITARY_WITH_BOUNDARY, "a")
    ls = level_integrals(sol, t)
    return t * _a1_prime_from(ls, sol.capacity) / _a1_from(ls, sol.capacity)


def b1(sol: PotentialSolution, t: float) -> float:
    """B1(t) = Int |B|^2/|grad u|^2 dsigma via the symmetric pointwise reduction."""
    _require(sol, SolutionKind.CAPACITARY_WITH_BOUNDARY, "B1")
    return _b1_from(level_integrals(sol, t))


def boundary_deficit(sol: PotentialSolution) -> float:
    """A = F(C/2) = 2C (pi - Int_{dM} |grad u|^2 dsigma)."""
    _require(sol, SolutionKind.CAPACITARY_WITH_BOUNDARY, "the boundary deficit")
    ls = level_integrals(sol, 0.5 * sol.capacity)
    return 2.0 * sol.capacity * (math.pi - ls.int_grad_sq)


# -- volumes ----------------------------------------------------------------


def volume_sublevel(sol: PotentialSolution, t: float) -> float:
    """Vol({u <= level(t)}) as the radial integral Int 4 pi f^2 ds."""
    return volume_to_coordinate(sol, level(sol, t).s)


def coarea_volume(sol: PotentialSolution, t: float) -> float:
    """Sub-level volume through the coarea representation: one quadrature in
    the level parameter, each node an independent level query.

    This is the cross-check route for volume_sublevel; the boundaryless
    integrand vanishes like 4 pi s^2 toward s = 0, so the integral is cut at
    s = 1e-4 t with an O((s/t)^3) bounded remainder, far below the 1e-8
    comparison tolerance.  The integrand has kinks at the levels of the
    profile breakpoints, so the quadrature is split there.
    """
    p = sol.profile
    kinks = [t_of_level(sol, u_value(sol, x)) for x in p.breakpoints if x > p.x_min]
    if sol.kind is SolutionKind.CAPACITARY_WITH_BOUNDARY:
        cap = sol.capacity

        def integrand(s: float) -> float:
            inv = level_integrals(sol, s).int_inv_grad
            return cap / (s * s) * (1.0 + cap / (2.0 * s)) ** -2 * inv

        return integrate(integrand, 0.5 * cap, t, _COAREA_TOL, points=kinks).value

    def integrand(s: float) -> float:
        return level_integrals(sol, s).int_inv_grad / (s * s)

    return integrate(integrand, 1e-4 * t, t, _COAREA_TOL, points=kinks).value


def growth_integrand_cumulative(sol: PotentialSolution, samples: Sequence[LevelSetSample]) -> list[float]:
    """Cumulative Int_{C/2}^{t_k} (R1(s) + B1(s)) ds for each grid point.

    R1 = Int R dsigma and B1 as above.  The integral runs over the level
    parameter; substituting the radial coordinate gives
    dt = C (du/dx) / (1-u)^2 dx, evaluated panel-by-panel between
    consecutive grid coordinates at per-panel tolerance 1e-11.
    """
    _require(sol, SolutionKind.CAPACITARY_WITH_BOUNDARY, "the growth integrand")
    p = sol.profile
    cap = sol.capacity
    c = sol.c_norm

    def integrand(x: float) -> float:
        f = p.f(x)
        fs = p.df_ds(x)
        area = _FOUR_PI * f * f
        g = c / (f * f)
        u = 1.0 - c * sol._tail.value(x)
        q = 4.0 * u / (1.0 - u * u) * g - 2.0 * fs / f
        r_val = 2.0 * (1.0 - fs * fs) / (f * f) - 4.0 * p.d2f_ds2(x) / f
        density = area * (r_val + 1.5 * q * q)
        dt_dx = cap * (c * p.ds_dx(x) / (f * f)) / ((1.0 - u) * (1.0 - u))
        return density * dt_dx

    xs = [p.x_min] + [ls.s for ls in samples]
    out: list[float] = []
    acc = 0.0
    for lo, hi in zip(xs, xs[1:]):
        if hi > lo:
            # The absolute part scales with the panel width: the integrand is
            # area-scaled roundoff noise on equality-case profiles, and the
            # growth-bound margin divides the cumulative value by 2t, so the
            # accumulated error stays orders of magnitude under the check
            # tolerance.
            panel_tol = Tolerance(rel=1e-11, abs=1e-11 * (1.0 + (hi - lo)), max_refinements=60)
            acc += integrate(integrand, lo, hi, panel_tol, points=p.breakpoints).value
        out.append(acc)
    return out


# -- series -----------------------------------------------------------------


@dataclass
class FunctionalSeries:
    """Parallel arrays of every functional over a t-grid (nan where undefined),
    with the level-set samples they were computed from."""

    kind: SolutionKind
    capacity: float
    deficit_A: float
    t_grid: np.ndarray
    s: np.ndarray
    u: np.ndarray
    area: np.ndarray
    grad: np.ndarray
    mean_curvature: np.ndarray
    scalar_R: np.ndarray
    Fhat: np.ndarray
    G: np.ndarray
    F: np.ndarray
    A1: np.ndarray
    A1tilde: np.ndarray
    a_growth: np.ndarray
    B1: np.ndarray
    Fprime_analytic: np.ndarray
    Gprime_analytic: np.ndarray
    volume: np.ndarray
    samples: list[LevelSetSample]

    def __len__(self) -> int:
        return len(self.t_grid)


def _thread_count(threads: int | None) -> int:
    if threads is not None:
        return max(1, threads)
    env = os.environ.get("CURVLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def build_series(
    sol: PotentialSolution,
    t_grid: Sequence[float],
    threads: int | None = None,
) -> FunctionalSeries:
    """Evaluate every functional over the grid.

    Grid points are independent pure computations; with threads > 1 they are
    evaluated concurrently and the result is bitwise identical to the
    sequential order.
    """
    ts = [float(t) for t in t_grid]
    n_threads = _thread_count(threads)
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            samples = list(pool.map(lambda t: level_integrals(sol, t), ts))
    else:
        samples = [level_integrals(sol, t) for t in ts]

    nan = math.nan
    boundary = sol.kind is SolutionKind.CAPACITARY_WITH_BOUNDARY
    cap = sol.capacity if boundary else nan
    deficit = boundary_deficit(sol) if boundary else nan

    fhat_col = []
    g_col = []
    f_col = []
    a1_col = []
    a1t_col = []
    a_col = []
    b1_col = []
    fp_col = []
    gp_col = []
    for ls in samples:
        if boundary:
            fhat_col.append(nan)
            g_col.append(_g_from(ls, cap))
            f_col.append(_f_from(ls, cap))
            a1_val = _a1_from(ls, cap)
            a1_col.append(a1_val)
            a1t_col.append(a1_val + deficit / (2.0 * ls.t))
            a_col.append(ls.t * _a1_prime_from(ls, cap) / a1_val)
            b1_col.append(_b1_from(ls))
            fp_col.append(_f_prime_from(ls))
            gp_col.append(_g_prime_from(ls, cap))
        else:
            fhat_col.append(-_FOUR_PI / ls.t + ls.t * ls.int_grad_sq)
            g_col.append(nan)
            f_col.append(nan)
            a1_col.append(nan)
            a1t_col.append(nan)
            a_col.append(nan)
            b1_col.append(nan)
            fp_col.append(nan)
            gp_col.append(nan)

    # Cumulative volume: one adaptive panel per grid interval, so the
    # accumulated error stays below rel * Vol.
    volumes = []
    acc = volume_to_coordinate(sol, samples[0].s)
    volumes.append(acc)
    for prev, cur in zip(samples, samples[1:]):
        acc += volume_to_coordinate(sol, cur.s, x_from=prev.s)
        volumes.append(acc)

    return FunctionalSeries(
        kind=sol.kind,
        capacity=cap,
        deficit_A=deficit,
        t_grid=np.array(ts),
        s=np.array([ls.s for ls in samples]),
        u=np.array([ls.u for ls in samples]),
        area=np.array([ls.area for ls in samples]),
        grad=np.array([ls.grad for ls in samples]),
        mean_curvature=np.array([ls.mean_curvature for ls in samples]),
        scalar_R=np.array([ls.scalar_R for ls in samples]),
        Fhat=np.array(fhat_col),
        G=np.array(g_col),
        F=np.array(f_col),
        A1=np.array(a1_col),
        A1tilde=np.array(a1t_col),
        a_growth=np.array(a_col),
        B1=np.array(b1_col),
        Fprime_analytic=np.array(fp_col),
        Gprime_analytic=np.array(gp_col),
        volume=np.array(volumes),
        samples=samples,
    )


def write_series_csv(series: FunctionalSeries, stream: IO[str]) -> None:
    """Emit the series as CSV with shortest round-trip decimal formatting."""
    stream.write(SERIES_CSV_HEADER + "\n")
    cols = (
        series.t_grid,
        series.s,
        series.u,
        series.area,
        series.grad,
        series.mean_curvature,
        series.scalar_R,
        series.Fhat,
        series.G,
        series.F,
        series.A1,
        series.A1tilde,
        series.a_growth,
        series.B1,
        series.Fprime_analytic,
        series.Gprime_analytic,
        series.volume,
    )
    for i in range(len(series)):
        stream.write(",".join(repr(float(col[i])) for col in cols) + "\n")
