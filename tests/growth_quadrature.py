"""Test oracle for the growth integral of the paper's lower bound on t A1'.

The battery reads Int_{C/2}^t (R1 + B1) ds from the series as
2 (F(t) - F(C/2)): on round level sets Int R^Sigma/2 dsigma = 4 pi
(Gauss-Bonnet), so F' = (R1 + B1)/2.  This module integrates R1 + B1
directly, so the tests can check that closed form against a quadrature that
never reads F.
"""

from __future__ import annotations

import math
from typing import Sequence

from curvlab.numerics import Tolerance, integrate
from curvlab.potential import PotentialSolution, u_value
from curvlab.profile import _warped_scalar_curvature

_FOUR_PI = 4.0 * math.pi


def growth_integrand_cumulative(sol: PotentialSolution, coords: Sequence[float]) -> list[float]:
    """Cumulative Int_{C/2}^{t_k} (R1(s) + B1(s)) ds for each grid point,
    given the radial coordinates of the grid levels.

    R1 = Int R dsigma and B1 = Int (3/2) q^2 dsigma.  The integral runs over
    the level parameter; substituting the radial coordinate gives
    dt = C (du/dx) / (1-u)^2 dx, evaluated panel-by-panel between
    consecutive grid coordinates at per-panel tolerance 1e-11.
    """
    p = sol.profile
    cap = sol.capacity
    c = sol.c_norm

    def integrand(x: float) -> float:
        f = p.f(x)
        fs = p.df_ds(x)
        area = _FOUR_PI * f * f
        g = c / (f * f)
        u = u_value(sol, x)
        q = 4.0 * u / (1.0 - u * u) * g - 2.0 * fs / f
        density = area * (_warped_scalar_curvature(f, fs, p.d2f_ds2(x)) + 1.5 * q * q)
        dt_dx = cap * (c * p.ds_dx(x) / (f * f)) / ((1.0 - u) * (1.0 - u))
        return density * dt_dx

    xs = [p.x_min] + [float(x) for x in coords]
    out: list[float] = []
    acc = 0.0
    for lo, hi in zip(xs, xs[1:]):
        if hi > lo:
            # The absolute part scales with the panel width: the integrand is
            # area-scaled roundoff noise on equality-case profiles, and the
            # growth-bound margin divides the cumulative value by 2t, so the
            # accumulated error stays orders of magnitude under the check
            # tolerance.
            panel_tol = Tolerance(rel=1e-11, abs=1e-11 * (1.0 + (hi - lo)))
            acc += integrate(integrand, lo, hi, panel_tol, points=p.breakpoints).value
        out.append(acc)
    return out
