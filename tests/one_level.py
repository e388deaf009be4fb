"""The tests' one-level route: the geometry and the functionals of one t.

curvlab reads levels as columns only: ``levels`` -> ``potential._geometry``
-> ``functionals._functional_columns``.  This module is the second source
the tests check those columns against.  It solves one level with
``levels(sol, (t,))``, reads one ``jet`` there, and restates each formula of
the ``potential`` and ``functionals`` docstrings for that one level, in the
column code's order of operations, so a column and this route agree bit for
bit.  It calls neither ``_geometry`` nor ``_functional_columns``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from curvlab.potential import LevelSetSample, PotentialSolution, levels

_FOUR_PI = 4.0 * math.pi


class Level(NamedTuple):
    """One level of u in its three labels: t, radial coordinate, u-value."""

    t: float
    s: float
    u: float


class Row(NamedTuple):
    """Every functional of one level set; nan where undefined."""

    Fhat: float
    G: float
    Gprime: float
    F: float
    Fprime: float
    A1: float
    A1prime: float
    a: float
    B1: float


def level(sol: PotentialSolution, t: float) -> Level:
    """The level labelled by t, from a one-level ``levels`` sweep."""
    _, (s,), (u,) = levels(sol, (t,))
    return Level(t, s, u)


def grad(sol: PotentialSolution, x: float) -> float:
    """|grad u| = c/f^2 at radial coordinate x."""
    f = sol.profile.f(x)
    return sol.c_norm / (f * f)


def sample(sol: PotentialSolution, t: float) -> LevelSetSample:
    """The geometry of the level labelled by t, as a record of floats: one jet read.

    Round level spheres: area 4 pi f^2, H = 2 f_s/f, R = 2 (1 - f_s^2)/f^2
    - 4 f_ss/f, and each surface integral is the area times its integrand.
    """
    t, s, u = level(sol, t)
    f, fs, fss = sol.profile.jet(s)
    g = sol.c_norm / (f * f)
    area = _FOUR_PI * f * f
    h = 2.0 * fs / f
    r = 2.0 * (1.0 - fs * fs) / (f * f) - 4.0 * fss / f
    return LevelSetSample(t, s, u, area, g, h, r, area * g * g, area * g * h)


def inv_grad_integral(sol: PotentialSolution, t: float) -> float:
    """Int_Sigma 1/|grad u| = 4 pi f^2/|grad u| on the level labelled by t: one jet read.

    The coarea integrand's factor, which no geometry column carries.
    """
    f = sol.profile.jet(level(sol, t).s)[0]
    g = sol.c_norm / (f * f)
    return _FOUR_PI * f * f / g


def functionals_of(ls: LevelSetSample, cap: float | None) -> Row:
    """The functionals of the ``functionals`` docstring on the one level set ``ls``.

    ``cap`` is the capacity of a boundary solution, or None for a
    boundaryless one, where only Fhat is defined.
    """
    t, _, u, area, g, h, r, i2, ih = ls
    if cap is None:
        return Row(-_FOUR_PI / t + t * i2, *[math.nan] * 8)
    p = 1.0 + cap / (2.0 * t)
    m1 = 1.0 - cap / (2.0 * t)
    m3 = 1.0 - 3.0 * cap / (2.0 * t)
    q = 4.0 * u / (1.0 - u * u) * g - h
    a1 = t * t / (cap * cap) * p ** 4 * i2
    a1_prime = 2.0 * t / (cap * cap) * p ** 3 * m1 * i2 - p * p / cap * ih
    return Row(
        Fhat=math.nan,
        G=-math.pi * cap * cap / t + 0.25 * t * p ** 4 * i2,
        Gprime=math.pi * cap * cap / (t * t) + 0.25 * p ** 3 * m3 * i2 - cap / (4.0 * t) * p * p * ih,
        F=_FOUR_PI * t + t ** 3 / (cap * cap) * p ** 3 * m3 * i2 - t * t / cap * p * p * ih,
        Fprime=area * (0.5 * r + 0.75 * q * q),
        A1=a1,
        A1prime=a1_prime,
        a=t * a1_prime / a1,
        B1=area * 1.5 * q * q,
    )


def row_at(sol: PotentialSolution, t: float) -> Row:
    """The functionals of the level labelled by t."""
    return functionals_of(sample(sol, t), sol.capacity)
