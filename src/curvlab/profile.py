"""Rotationally symmetric 3-metrics g = ds^2 + f(s)^2 g_{S^2}.

A profile is parametrised by a monotone radial coordinate x with arclength
element ds = ds_dx(x) dx; built-ins supply closed-form warp data.  For
conformally flat metrics w(|x|)^4 g_eucl the warped-product description is
f = r w^2 with ds = w^2 dr, so the isotropic radius r is the coordinate.
A warped profile is built from two readers: ``metric`` gives (f, ds_dx) and
``jet`` gives (f, f_s, f_ss), and ``f``, ``ds_dx``, ``df_ds`` and
``d2f_ds2`` are views of them.  A conformal profile gives (w, w', w'')
through its ``jet``, with the first component bitwise its ``w``.
``to_warped(c)`` keeps no link back to c: a conformal model is handled
by its ``ConformalProfile``, from which ``mass.mass_report`` reads the
flux and, through ``to_warped``, the volumes.
All geometric formulas below use arclength derivatives:

    area(x)   = 4 pi f^2
    H(x)      = 2 f_s / f            (infinity-pointing normal)
    R(x)      = 2 (1 - f_s^2)/f^2 - 4 f_ss / f
    R_conf(r) = -8 w^-5 (w'' + 2 w'/r)   for g = w^4 g_eucl
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import DomainEdge, NonConvergent, ProfileDataError
from .numerics import Tolerance, find_root, geometric_grid, integrate

__all__ = [
    "ProfileKind",
    "MetricProfile",
    "ConformalProfile",
    "euclidean",
    "euclidean_conformal",
    "schwarzschild",
    "mollified_schwarzschild",
    "perturbed_schwarzschild",
    "to_warped",
    "scalar_curvature",
    "sphere_geometry",
    "sample_scalar_curvature_sign",
    "profile_from_csv",
]

_FOUR_PI = 4.0 * math.pi
_CONSTRUCTION_TOL = Tolerance(rel=1e-8, abs=1e-10)
_R_ROUNDING = 8.0 * sys.float_info.epsilon

ScalarFn = Callable[[float], float]
JetFn = Callable[[float], tuple[float, float, float]]
MetricFn = Callable[[float], tuple[float, float]]


def _one(_: float) -> float:
    return 1.0


class ProfileKind(str, Enum):
    WITH_BOUNDARY = "with_boundary"
    BOUNDARYLESS = "boundaryless"


@dataclass(frozen=True)
class ConformalProfile:
    """Conformally flat metric g = w(r)^4 g_eucl given by w and its jet.

    ``w(r)`` is the conformal factor alone; ``jet(r)`` returns
    ``(w, w', w'')``, the factor and its first two radial derivatives from
    one evaluation, with ``jet(r)[0] == w(r)`` bit for bit.  ``jet`` is the
    one source of w' and w''.  For a harmonically flat end declare
    ``harmonic_radius``: beyond it w must equal 1 + mass_tag/(2 r) exactly.
    """

    label: str
    w: ScalarFn
    jet: JetFn
    r_min: float = 0.0
    mass_tag: float | None = None
    harmonic_radius: float | None = None
    breakpoints: tuple[float, ...] = ()
    assume_nonnegative_R: bool | None = None

    def __post_init__(self) -> None:
        if self.r_min < 0.0:
            raise ProfileDataError("r_min must be non-negative")
        lo = max(self.r_min, 1e-6)
        for r in geometric_grid(lo, max(1e4, 1e3 * max(lo, 1.0)), 64):
            if self.w(r) <= 0.0:
                raise ProfileDataError(f"conformal factor must stay positive (w({r}) <= 0)")
        if self.harmonic_radius is not None:
            if self.mass_tag is None:
                raise ProfileDataError("harmonic_radius requires a mass_tag")
            for r in (self.harmonic_radius, 2.0 * self.harmonic_radius, 50.0 * self.harmonic_radius):
                expected = 1.0 + self.mass_tag / (2.0 * r)
                if abs(self.w(r) - expected) > 1e-12 * max(1.0, abs(expected)):
                    raise ProfileDataError(
                        "profile declared harmonically flat but w != 1 + m/(2r) at r=%r" % r
                    )


@dataclass(frozen=True)
class MetricProfile:
    """Warped-product 3-metric read through two readers along a radial coordinate.

    ``metric(x)`` returns ``(f, ds_dx)``, the warp factor and the arclength
    element, for the readers that need both at a point (the level solve and
    the tail and volume tables).  ``jet(x)`` returns ``(f, f_s, f_ss)``, the
    warp factor and its first two arclength derivatives from one evaluation.
    The two readers must agree on f; a profile whose ``metric`` and ``jet``
    differ at x_min + 1 is refused, so ``dataclasses.replace`` must replace
    both or neither.  ``f``, ``ds_dx``, ``df_ds`` and ``d2f_ds2`` are views:
    ``f`` and ``ds_dx`` read ``metric``, the two derivatives read ``jet``.

    ``asymptotically_flat`` declares f_s -> 1 at infinity; a declaration
    that fails the sampling rule of ``_flat_end_violation`` is refused.
    """

    label: str
    kind: ProfileKind
    x_min: float
    metric: MetricFn
    jet: JetFn
    breakpoints: tuple[float, ...] = ()
    asymptotically_flat: bool = False
    assume_nonnegative_R: bool | None = None

    def __post_init__(self) -> None:
        if self.x_min < 0.0:
            raise ProfileDataError("x_min must be non-negative")
        x_check = self.x_min + 1.0
        f_metric, f_jet = self.metric(x_check)[0], self.jet(x_check)[0]
        if abs(f_metric - f_jet) > 1e-12 * max(abs(f_metric), abs(f_jet)):
            raise ProfileDataError(
                f"profile {self.label!r}: metric and jet disagree on f at x={x_check!r} ({f_metric!r} vs {f_jet!r})"
            )
        if self.kind is ProfileKind.WITH_BOUNDARY:
            if self.f(self.x_min) <= 0.0:
                raise ProfileDataError("a boundary profile needs f(x_min) > 0")
        else:
            pole_scale = max(1.0, self.x_min)
            if abs(self.f(self.x_min)) > 1e-8 * pole_scale:
                raise ProfileDataError("a boundaryless profile needs f(x_min) = 0 (smooth pole)")
            if abs(self.jet(self.x_min + 1e-9 * pole_scale)[1] - 1.0) > 1e-4:
                raise ProfileDataError("a boundaryless profile needs df/ds -> 1 at the pole")

        # Nonparabolicity: the capacitary integral must converge past the core.
        def capacitary(x: float) -> float:
            fx, dsx = self.metric(x)
            return dsx / fx ** 2

        try:
            integrate(capacitary, self.x_min + 1.0, math.inf, _CONSTRUCTION_TOL, points=self.breakpoints)
        except NonConvergent as exc:
            raise ProfileDataError(f"profile {self.label!r} is parabolic: {exc}") from exc
        if self.asymptotically_flat:
            violation = _flat_end_violation(self.jet, self.x_scale)
            if violation is not None:
                x, fs = violation
                raise ProfileDataError(
                    f"profile {self.label!r} declared asymptotically flat but df/ds at x={x} is {fs!r}"
                )

    def f(self, x: float) -> float:
        return self.metric(x)[0]

    def ds_dx(self, x: float) -> float:
        return self.metric(x)[1]

    def df_ds(self, x: float) -> float:
        return self.jet(x)[1]

    def d2f_ds2(self, x: float) -> float:
        return self.jet(x)[2]

    @property
    def x_scale(self) -> float:
        """Characteristic coordinate scale (anchors, default grids)."""
        return _x_scale(self.x_min)

    def in_domain(self, x: float) -> bool:
        return x >= self.x_min - 1e-12 * max(1.0, self.x_min)


def _x_scale(x_min: float) -> float:
    """The characteristic coordinate scale of a profile whose coordinate starts at ``x_min``."""
    return max(x_min, 1.0)


def _flat_end_violation(jet: JetFn, x_scale: float) -> tuple[float, float] | None:
    """The first sample (x, f_s) of the asymptotic-flatness rule that fails, or None.

    The rule: |f_s - 1| <= 0.05 at x = (1e4, 1e5, 1e6) * x_scale.  It is a
    sampling check, and the decay order is not enforced.  The samples sit
    far out because a harmonic tail w = 1 + m/(2r) has f_s - 1 = -(m/r)/w,
    about twice w - 1: at x = 1e4 a conformal end of mass up to about 500
    (scale 1) passes.  A sample that is not a number fails.
    """
    for x in (1e4 * x_scale, 1e5 * x_scale, 1e6 * x_scale):
        fs = jet(x)[1]
        if not abs(fs - 1.0) <= 0.05:
            return x, fs
    return None


def scalar_curvature(p: MetricProfile, x: float) -> float:
    """Scalar curvature of g at radial coordinate x (warped-product formula)."""
    if not p.in_domain(x):
        raise DomainEdge(f"x={x!r} below x_min={p.x_min!r}")
    if p.kind is ProfileKind.BOUNDARYLESS and x <= p.x_min:
        raise DomainEdge("scalar curvature is 0/0 at the pole; evaluate at x > x_min")
    return _warped_scalar_curvature(*p.jet(x))


def _warped_scalar_curvature(f: float, fs: float, fss: float) -> float:
    """R = 2 (1 - f_s^2)/f^2 - 4 f_ss/f from the profile values at one point."""
    return 2.0 * (1.0 - fs * fs) / (f * f) - 4.0 * fss / f


def sphere_geometry(p: MetricProfile, x: float) -> tuple[float, float]:
    """Area and mean curvature (outward normal) of the sphere at coordinate x."""
    if not p.in_domain(x):
        raise DomainEdge(f"x={x!r} below x_min={p.x_min!r}")
    f, fs, _ = p.jet(x)
    if f == 0.0:
        return 0.0, math.inf
    return _FOUR_PI * f * f, 2.0 * fs / f


def sample_scalar_curvature_sign(p: MetricProfile, n: int = 1000) -> tuple[bool, float, float]:
    """Sample R on a log-spaced grid; returns (all >= -1e-10, worst_x, worst_R), each sample
    allowed its rounding budget 8 eps (2 (1 + f_s^2)/f^2 + 4 |f_ss/f|), which grows like 1/f^2.

    The budget is never negative and is NaN only where R is, so a sample
    with R >= 0 passes whatever its budget: only the others work it out."""
    hi = 1e4 * p.x_scale
    lo = max(p.x_min, 1e-4 * p.x_scale)
    if p.kind is ProfileKind.BOUNDARYLESS:
        lo = max(lo, p.x_min + 1e-4 * p.x_scale)  # the pole itself is 0/0
    xs = geometric_grid(lo, hi, n)
    if p.kind is ProfileKind.WITH_BOUNDARY and p.x_min < lo:
        xs.insert(0, p.x_min)
    worst_x, worst_r, ok = xs[0], math.inf, True
    for x in xs:
        f, fs, fss = p.jet(x)
        r_val = _warped_scalar_curvature(f, fs, fss)
        if not r_val >= 0.0:
            ok = ok and r_val >= -1e-10 - _R_ROUNDING * (2.0 * (1.0 + fs * fs) / (f * f) + 4.0 * abs(fss / f))
        if r_val < worst_r:
            worst_r = r_val
            worst_x = x
    return ok, worst_x, worst_r


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def euclidean() -> MetricProfile:
    """Flat space: f(s) = s, boundaryless."""
    return MetricProfile(
        label="euclidean",
        kind=ProfileKind.BOUNDARYLESS,
        x_min=0.0,
        metric=lambda s: (s, 1.0),
        jet=lambda s: (s, 1.0, 0.0),
        asymptotically_flat=True,
        assume_nonnegative_R=True,
    )


def euclidean_conformal() -> ConformalProfile:
    """Flat space as a conformal profile: w = 1 (zero-mass harmonically flat end)."""
    return ConformalProfile(
        label="euclidean",
        w=_one,
        jet=lambda r: (1.0, 0.0, 0.0),
        mass_tag=0.0,
        harmonic_radius=1.0,
        assume_nonnegative_R=True,
    )


def schwarzschild(m: float) -> MetricProfile:
    """Spatial Schwarzschild slice of mass m in the isotropic radius r >= m/2.

    w = 1 + m/(2r), f = r w^2 = (r+a)^2/r with a = m/2.  The simplified
    closed forms keep the boundary exactly minimal: f_s = (r-a)/(r+a).
    """
    if m <= 0.0:
        raise ProfileDataError("mass must be positive")
    a = 0.5 * m

    def jet(r: float) -> tuple[float, float, float]:
        ra = r + a
        return ra ** 2 / r, (r - a) / ra, 2.0 * a * r * r / ra ** 4

    def metric(r: float) -> tuple[float, float]:
        ra = r + a
        return ra ** 2 / r, (ra / r) ** 2

    return MetricProfile(
        label=f"schwarzschild(m={m!r})",
        kind=ProfileKind.WITH_BOUNDARY,
        x_min=a,
        metric=metric,
        jet=jet,
        asymptotically_flat=True,
        assume_nonnegative_R=True,
    )


def mollified_schwarzschild(m: float, r0: float) -> ConformalProfile:
    """Complete boundaryless metric: Schwarzschild end glued to a superharmonic cap.

    w = 1 + m/(2r) for r >= r0 and w = 1 + m(3 r0^2 - r^2)/(4 r0^3) inside.
    The glue is C^1; Delta_eucl w = -3m/(2 r0^3) < 0 inside and 0 outside, so
    R >= 0 everywhere with a single integrable jump at r0.
    """
    if m <= 0.0 or r0 <= 0.0:
        raise ProfileDataError("mass and matching radius must be positive")

    def w(r: float) -> float:
        if r >= r0:
            return 1.0 + m / (2.0 * r)
        return 1.0 + m * (3.0 * r0 * r0 - r * r) / (4.0 * r0 ** 3)

    def jet(r: float) -> tuple[float, float, float]:
        if r >= r0:
            return 1.0 + m / (2.0 * r), -m / (2.0 * r * r), m / (r * r * r)
        return 1.0 + m * (3.0 * r0 * r0 - r * r) / (4.0 * r0 ** 3), -m * r / (2.0 * r0 ** 3), -m / (2.0 * r0 ** 3)

    return ConformalProfile(
        label=f"mollified_schwarzschild(m={m!r}, r0={r0!r})",
        w=w,
        jet=jet,
        r_min=0.0,
        mass_tag=m,
        harmonic_radius=r0,
        breakpoints=(r0,),
        assume_nonnegative_R=True,
    )


def perturbed_schwarzschild(m: float = 1.0, amplitude: float = 0.3, offset: float = 1.0) -> MetricProfile:
    """Strictly superharmonic perturbation of Schwarzschild with a minimal boundary.

    w = 1 + m/(2r) + amplitude/(r + offset); Delta_eucl w =
    -2*amplitude*offset / (r (r+offset)^3) < 0, hence R > 0 everywhere.
    The boundary radius solves w + 2 r w' = 0, which makes f' vanish there
    (minimal sphere) by construction.
    """
    if m <= 0.0 or amplitude <= 0.0 or offset <= 0.0:
        raise ProfileDataError("mass, amplitude and offset must be positive")
    alpha = 0.5 * m
    beta = amplitude
    c0 = offset

    def w(r: float) -> float:
        return 1.0 + alpha / r + beta / (r + c0)

    def jet(r: float) -> tuple[float, float, float]:
        return w(r), -alpha / (r * r) - beta / (r + c0) ** 2, 2.0 * alpha / (r * r * r) + 2.0 * beta / (r + c0) ** 3

    def minimality(r: float) -> float:
        wr, dwr, _ = jet(r)
        return wr + 2.0 * r * dwr

    hi = max(alpha, c0)
    while minimality(hi) <= 0.0:
        hi *= 2.0
    lo = hi
    while minimality(lo) >= 0.0:
        lo *= 0.5
    r_b = find_root(minimality, lo, hi, Tolerance(rel=1e-15, abs=1e-15))
    # Newton polish: the battery gates on H(boundary) ~ 0 at 1e-8.
    for _ in range(3):
        wr, dwr, d2wr = jet(r_b)
        step = (wr + 2.0 * r_b * dwr) / (3.0 * dwr + 2.0 * r_b * d2wr)
        if not math.isfinite(step):
            break
        r_b -= step

    conf = ConformalProfile(
        label=f"perturbed_schwarzschild(m={m!r}, amplitude={amplitude!r}, offset={offset!r})",
        w=w,
        jet=jet,
        r_min=r_b,
        assume_nonnegative_R=True,
    )
    return to_warped(conf)


def to_warped(c: ConformalProfile) -> MetricProfile:
    """Warped-product description of w^4 g_eucl: f = r w^2, ds = w^2 dr.

    The end is declared asymptotically flat when f_s = 1 + 2 r w'/w passes
    ``_flat_end_violation``, the rule the profile checks the declaration by.
    """
    w, w_jet = c.w, c.jet

    def jet(r: float) -> tuple[float, float, float]:
        wr, dwr, d2wr = w_jet(r)
        return r * wr ** 2, 1.0 + 2.0 * r * dwr / wr, 2.0 / wr ** 3 * (dwr + r * d2wr - r * dwr * dwr / wr)

    def metric(r: float) -> tuple[float, float]:
        w2 = w(r) ** 2
        return r * w2, w2

    kind = ProfileKind.BOUNDARYLESS if c.r_min == 0.0 else ProfileKind.WITH_BOUNDARY
    flat = _flat_end_violation(jet, _x_scale(c.r_min)) is None
    return MetricProfile(
        label=c.label,
        kind=kind,
        x_min=c.r_min,
        metric=metric,
        jet=jet,
        breakpoints=c.breakpoints,
        asymptotically_flat=flat,
        assume_nonnegative_R=c.assume_nonnegative_R,
    )


# ---------------------------------------------------------------------------
# Tabulated custom profiles
# ---------------------------------------------------------------------------


def _spline_coefficients(xs: list[float], ys: list[float]) -> tuple[list[tuple[float, ...]], ...]:
    """Per-interval ascending coefficients of f, f' and f'' of the not-a-knot cubic spline.

    The result is bitwise scipy's ``CubicSpline(xs, ys)``: the slope system is
    assembled as CubicSpline assembles it and solved as LAPACK ``gtsv`` solves
    one right-hand side (elimination that swaps rows i and i+1 where
    |d_i| < |dl_i|, then back substitution); the coefficients follow
    CubicHermiteSpline's formulas and the derivatives PPoly.derivative's
    factors.  Interval i is in powers of x - xs[i]: f has (c0, c1, c2, c3),
    f' has (c1, 2 c2, 3 c3) and f'' has (2 c2, 6 c3).
    """
    n = len(xs)
    dx = [b - a for a, b in zip(xs, xs[1:])]
    slope = [(b - a) / h for a, b, h in zip(ys, ys[1:], dx)]
    # Sub-diagonal dl, diagonal d, super-diagonal du and right-hand side b.
    d_lo, d_hi = xs[2] - xs[0], xs[-1] - xs[-3]
    dl = dx[1:] + [d_hi]
    d = [dx[1]] + [2 * (h0 + h1) for h0, h1 in zip(dx, dx[1:])] + [dx[-2]]
    du = [d_lo] + dx[:-1]
    # h ** 2 is libm pow, as in scipy's scalar numpy arithmetic here; h * h may round differently.
    b = (
        [((dx[0] + 2 * d_lo) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d_lo]
        + [3 * (h1 * m0 + h0 * m1) for h0, h1, m0, m1 in zip(dx, dx[1:], slope, slope[1:])]
        + [(dx[-1] ** 2 * slope[-2] + (2 * d_hi + dx[-1]) * dx[-2] * slope[-1]) / d_hi]
    )
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            temp = d[i + 1]
            d[i], d[i + 1] = dl[i], du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    s = b
    s[-1] /= d[-1]
    s[-2] = (s[-2] - du[-1] * s[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        s[i] = (s[i] - du[i] * s[i + 1] - dl[i] * s[i + 2]) / d[i]

    f_c, fp_c, fpp_c = [], [], []
    for y0, s0, s1, m, h in zip(ys, s, s[1:], slope, dx):
        t = (s0 + s1 - 2 * m) / h
        c3 = t / h
        c2 = (m - s0) / h - t
        f_c.append((y0, s0, c2, c3))
        fp_c.append((s0, 2 * c2, 3 * c3))
        fpp_c.append((2 * c2, 6 * c3))
    return f_c, fp_c, fpp_c


def _spline(xs: list[float], ys: list[float], header: str) -> tuple[MetricFn | ScalarFn, JetFn]:
    """The two readers of a tabulated profile: the not-a-knot cubic spline
    through (xs, ys), continued beyond the last knot by a C^1 analytic tail.

    For the ``s,f`` layout they are ``metric``, giving (f, 1.0), and ``jet``,
    giving (f, f_s, f_ss), and the tail is the line through the last sample
    with the spline's slope there.  For ``r,w`` they are ``w`` and ``jet``,
    giving (w, w', w''), and the tail is the harmonic A + B/r with the
    spline's value and slope at the last sample.  Each read is one call: up
    to the last knot, one bisect finds the interval, clamped to the first as
    PPoly extrapolates, and each polynomial is summed in PPoly's order,
    ((0 + c0) + c1 d) + c2 d^2 + c3 (d^2 d), so every value there is bitwise
    scipy's.
    """
    f_c, fp_c, fpp_c = _spline_coefficients(xs, ys)
    knots = tuple(xs)
    hi = len(knots) - 1
    x_last, y_last = xs[-1], ys[-1]
    linear = header == "s,f"

    def jet(x: float) -> tuple[float, float, float]:
        if x <= x_last:
            i = bisect_right(knots, x, 1, hi) - 1
            d = x - knots[i]
            dd = d * d
            c0, c1, c2, c3 = f_c[i]
            p0, p1, p2 = fp_c[i]
            q0, q1 = fpp_c[i]
            return 0.0 + c0 + c1 * d + c2 * dd + c3 * (dd * d), 0.0 + p0 + p1 * d + p2 * dd, 0.0 + q0 + q1 * d
        if linear:
            return y_last + yp_last * (x - x_last), yp_last, 0.0
        return a_tail + b_tail / x, -b_tail / (x * x), 2.0 * b_tail / (x * x * x)

    # The tail's slope: the jet at the last knot reads the spline alone.
    yp_last = jet(x_last)[1]

    if linear:
        def metric(s: float) -> tuple[float, float]:
            if s <= x_last:
                i = bisect_right(knots, s, 1, hi) - 1
                d = s - knots[i]
                dd = d * d
                c0, c1, c2, c3 = f_c[i]
                return 0.0 + c0 + c1 * d + c2 * dd + c3 * (dd * d), 1.0
            return y_last + yp_last * (s - x_last), 1.0

        return metric, jet

    b_tail = -yp_last * x_last * x_last
    a_tail = y_last - b_tail / x_last

    def w(r: float) -> float:
        if r <= x_last:
            i = bisect_right(knots, r, 1, hi) - 1
            d = r - knots[i]
            dd = d * d
            c0, c1, c2, c3 = f_c[i]
            return 0.0 + c0 + c1 * d + c2 * dd + c3 * (dd * d)
        return a_tail + b_tail / r

    return w, jet


def profile_from_csv(path: str, assume_nonnegative_R: bool) -> MetricProfile:
    """Ingest a tabulated profile from CSV.

    Two layouts are accepted, selected by the header line: ``r,w`` for a
    conformal factor sampled in the isotropic radius, or ``s,f`` for a warp
    factor sampled in arclength.  A leading UTF-8 byte-order mark is
    skipped.  The first column must be strictly increasing.  Derivatives
    come from the not-a-knot cubic spline, built and evaluated in the
    standard library with coefficients and values bitwise those of scipy's
    ``CubicSpline`` (documented accuracy downgrade versus the analytic
    built-ins); beyond the last sample the profile continues with a C^1
    analytic tail (harmonic a + b/r for ``r,w``, linear for ``s,f``).
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            header, rows = fh.readline(), fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProfileDataError(f"cannot read profile {path}: {exc}") from exc
    header = header.strip().lower().replace(" ", "")
    if header not in ("r,w", "s,f"):
        raise ProfileDataError(f"unsupported CSV header {header!r}; expected 'r,w' or 's,f'")
    col0: list[float] = []
    col1: list[float] = []
    for ln, line in enumerate(rows, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ProfileDataError(f"{path}:{ln}: expected two comma-separated values")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ProfileDataError(f"{path}:{ln}: {exc}") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ProfileDataError(f"{path}:{ln}: values must be finite")
        col0.append(x)
        col1.append(y)
    if len(col0) < 8:
        raise ProfileDataError("need at least 8 samples to build a spline profile")
    if not all(b > a for a, b in zip(col0, col0[1:])):
        raise ProfileDataError("first CSV column must be strictly increasing")

    value, jet = _spline(col0, col1, header)
    # The spline is only C^2 across its knots: quadratures split there.
    knots = tuple(col0)

    if header == "r,w":
        conf = ConformalProfile(
            label=f"custom:{path}",
            w=value,
            jet=jet,
            r_min=col0[0],
            breakpoints=knots,
            assume_nonnegative_R=assume_nonnegative_R,
        )
        return to_warped(conf)

    if jet(col0[-1])[1] <= 0.0:
        raise ProfileDataError("warp factor must be increasing at the tabulated tail")

    x_min = col0[0]
    pole = x_min == 0.0 and abs(col1[0]) <= 1e-10 * max(1.0, max(abs(y) for y in col1))
    kind = ProfileKind.BOUNDARYLESS if pole else ProfileKind.WITH_BOUNDARY
    if kind is ProfileKind.WITH_BOUNDARY and col1[0] <= 0.0:
        raise ProfileDataError("warp factor must be positive at the boundary")
    return MetricProfile(
        label=f"custom:{path}",
        kind=kind,
        x_min=x_min,
        metric=value,
        jet=jet,
        breakpoints=knots,
        assume_nonnegative_R=assume_nonnegative_R,
    )
