"""Scalar numerical kernel: adaptive quadrature, differentiation, root finding,
geometric grids.

The adaptive Gauss-Kronrod loop evaluates each panel's 15 nodes in one call
on the node list.  ``integrate`` runs a plain integrand on that loop one node
at a time, and a :class:`NodeIntegrand` one panel at a time, with the same
abscissae, summation order, error estimate and evaluation count.  The
Richardson-extrapolated central difference is split the same way: its
abscissae (``difference_stencil``) and their combination
(``difference_quotient``), so a caller evaluates a batch of stencils at once.

Every routine takes an explicit :class:`Tolerance`, the (rel, abs) accuracy
target, so callers own their accuracy.  Nothing here keeps state between
calls; all functions are pure and safe to invoke concurrently.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .errors import NoBracket, NonConvergent

__all__ = [
    "Tolerance",
    "QuadratureResult",
    "DEFAULT_TOLERANCE",
    "NodeIntegrand",
    "integrate",
    "difference_stencil",
    "difference_quotient",
    "find_root",
    "extrapolate_to_zero",
    "geometric_grid",
]

_EPS = 2.220446049250313e-16

# Gauss-Kronrod 7-15 pair on [-1, 1].  The odd-indexed Kronrod abscissae
# (plus the centre) are the embedded 7-point Gauss rule.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

# Refinement budget of the adaptive quadrature and of the potential's tables:
# bisection depth per panel, and panels beyond the initial partition.
_MAX_DEPTH = 60
_MAX_PANELS = 4096


@dataclass(frozen=True)
class Tolerance:
    """Accuracy contract: a relative plus an absolute target."""

    rel: float = 1e-10
    abs: float = 1e-12

    def __post_init__(self) -> None:
        for name in ("rel", "abs"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if self.rel + self.abs <= 0.0:
            raise ValueError("rel + abs must be positive")

    def target(self, value: float) -> float:
        return max(self.rel * abs(value), self.abs)


DEFAULT_TOLERANCE = Tolerance()


class QuadratureResult(NamedTuple):
    """Integral value with an error estimate and the evaluation count."""

    value: float
    error_estimate: float
    evaluations: int


def _panel(values: Callable[[list[float]], list[float]], lo: float, hi: float):
    """One Gauss-Kronrod 7-15 panel; returns (kronrod, error_estimate).

    The 15 nodes go to ``values`` in one list: the centre, then each pair
    centre -+ half*x_j from the outermost abscissa in.
    """
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = [centre]
    for x in _XGK[:7]:
        dx = half * x
        nodes += (centre - dx, centre + dx)
    fs = values(nodes)
    fc = fs[0]
    k = _WGK[7] * fc
    g = _WG[3] * fc
    for j in range(7):
        f1 = fs[2 * j + 1]
        f2 = fs[2 * j + 2]
        k += _WGK[j] * (f1 + f2)
        if j % 2 == 1:
            g += _WG[(j - 1) // 2] * (f1 + f2)
    k *= half
    g *= half
    err = abs(k - g)
    # Round-off floor: a panel can never certify better than ~50 eps.
    return k, max(err, 50.0 * _EPS * abs(k))


def _adaptive(values, lo: float, hi: float, tol: Tolerance, points: Sequence[float]):
    edges = [lo]
    for p in sorted(set(points)):
        if edges[-1] < p < hi:
            edges.append(p)
    edges.append(hi)

    panels = []  # entries: [neg_err, seq, lo, hi, value, err, depth]
    evaluations = 0
    seq = 0
    for a, b in zip(edges, edges[1:]):
        v, e = _panel(values, a, b)
        evaluations += 15
        panels.append((-e, seq, a, b, v, e, 0))
        seq += 1
    heapq.heapify(panels)

    while True:
        value = math.fsum(p[4] for p in panels)
        err = math.fsum(p[5] for p in panels)
        if err <= tol.target(value):
            return QuadratureResult(value, err, evaluations)
        _, _, a, b, v, e, depth = heapq.heappop(panels)
        mid = 0.5 * (a + b)
        if depth >= _MAX_DEPTH or len(panels) >= len(edges) + _MAX_PANELS or not a < mid < b:
            raise NonConvergent(
                f"quadrature did not converge on [{a!r}, {b!r}] "
                f"(depth {depth}, {evaluations} evaluations, error {err!r})"
            )
        v1, e1 = _panel(values, a, mid)
        v2, e2 = _panel(values, mid, b)
        evaluations += 30
        heapq.heappush(panels, (-e1, seq, a, mid, v1, e1, depth + 1))
        seq += 1
        heapq.heappush(panels, (-e2, seq, mid, b, v2, e2, depth + 1))
        seq += 1


class NodeIntegrand(NamedTuple):
    """An integrand given on node lists: ``values(xs)`` returns f at each x of xs, in order.

    :func:`integrate` hands it the 15 nodes of each Gauss-Kronrod panel in
    one call, so an integrand whose points cost less together than apart
    pays once per panel.
    """

    values: Callable[[list[float]], list[float]]


def integrate(
    f: Callable[[float], float] | NodeIntegrand,
    a: float,
    b: float,
    tol: Tolerance | None = None,
    points: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate f over [a, b], with b = +inf allowed.

    Parameters
    ----------
    f : callable or NodeIntegrand
        Integrand, continuous on [a, b).  For b = +inf it must decay
        integrably; divergence shows up as `NonConvergent`.  A plain
        callable is evaluated node by node, a NodeIntegrand one panel at a
        time; both give the same bits when they agree pointwise.
    a, b : float
        Interval ends; ``b=math.inf`` triggers the rational compactification
        s = a + L x/(1-x), x in [0, 1), with L = max(|a|, 1), so O(s^-2)
        tails are integrated without a truncation radius.  The scale L keeps
        the map uniform in relative terms however far out a lies: an exact
        s^-2 tail maps to the constant 1/L, integrated to the ulp at any a.
    tol : Tolerance, optional
        Accuracy contract (default rel=1e-10, abs=1e-12).
    points : sequence of float, optional
        Known kinks; the initial partition is split there.

    Returns
    -------
    QuadratureResult
        On success ``error_estimate <= max(rel*|value|, abs)``.
    """
    tol = tol or DEFAULT_TOLERANCE
    a = float(a)
    b = float(b)
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    if math.isinf(a):
        raise ValueError("lower bound must be finite")
    if b < a:
        res = integrate(f, b, a, tol, points)
        return QuadratureResult(-res.value, res.error_estimate, res.evaluations)
    values = f.values if isinstance(f, NodeIntegrand) else (lambda xs: [f(x) for x in xs])
    if math.isinf(b):
        scale = max(abs(a), 1.0)

        def compactified(xs: list[float]) -> list[float]:
            onemxs = [1.0 - x for x in xs]
            if min(onemxs) <= 0.0:
                # Refinement has piled up against the compactified endpoint:
                # the tail is not integrable at the working tolerance.
                raise NonConvergent("tail integral does not converge")
            fs = values([a + scale * x / onemx for x, onemx in zip(xs, onemxs)])
            return [fx * scale / (onemx * onemx) for fx, onemx in zip(fs, onemxs)]

        mapped = [(p - a) / (scale + (p - a)) for p in points if p > a]
        return _adaptive(compactified, 0.0, 1.0, tol, mapped)
    return _adaptive(values, a, b, tol, points)


def difference_stencil(t: float, scale: float | None = None) -> tuple[float, tuple[float, float, float, float]]:
    """The step h of a central difference at t and its abscissae (t + h, t - h, t + h/2, t - h/2).

    h is ``scale``, or 1e-4*max(1, |t|) by default, which balances
    truncation against cancellation in double precision.
    """
    h = 1e-4 * max(1.0, abs(t)) if scale is None else float(scale)
    if h <= 0.0:
        raise ValueError("scale must be positive")
    return h, (t + h, t - h, t + 0.5 * h, t - 0.5 * h)


def difference_quotient(fs: Sequence[float], h: float) -> float:
    """Central difference with one Richardson step from f at the abscissae of difference_stencil.

    The error is O(h^4) for smooth f.
    """
    f_p, f_m, f_p2, f_m2 = fs
    d_h = (f_p - f_m) / (2.0 * h)
    d_h2 = (f_p2 - f_m2) / h
    return (4.0 * d_h2 - d_h) / 3.0


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance | None = None,
) -> float:
    """Bracketed root of f on [lo, hi] (Brent's method).

    Requires f(lo)*f(hi) <= 0, otherwise :class:`NoBracket`.  Stops when
    |f(x)| <= tol.abs or the bracket width falls below tol.rel*|x|.
    """
    tol = tol or DEFAULT_TOLERANCE
    a = float(lo)
    b = float(hi)
    fa = f(a)
    fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoBracket(f"f({lo!r}) and f({hi!r}) have the same sign")
    c, fc = a, fa
    d = e = b - a
    for _ in range(512):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol.rel * abs(b)
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or abs(fb) <= tol.abs:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        b += d if abs(d) > tol1 else (tol1 if xm > 0.0 else -tol1)
        fb = f(b)
    raise NonConvergent("find_root: iteration budget exhausted")


def extrapolate_to_zero(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Neville polynomial extrapolation of y(x) to x = 0.

    Exact (to rounding) whenever y is a polynomial in x of degree < len(xs);
    used to Richardson-extrapolate sequences in 1/r or 1/t.
    """
    if len(xs) != len(ys) or len(xs) == 0:
        raise ValueError("xs and ys must be non-empty and of equal length")
    if len(set(xs)) != len(xs):
        raise ValueError("xs must be distinct")
    tableau = list(ys)
    n = len(xs)
    for m in range(1, n):
        for i in range(n - m):
            tableau[i] = (xs[i + m] * tableau[i] - xs[i] * tableau[i + 1]) / (xs[i + m] - xs[i])
    return tableau[0]


def geometric_grid(lo: float, hi: float, n: int) -> list[float]:
    """n points from lo to hi, equally spaced in log10, both ends exact.

    Point i is 10 ** (i * step + log10(lo)), numpy.geomspace's formula,
    evaluated in Python floats by the platform libm rather than by numpy's
    CPU-dispatched loops.
    """
    log_lo = math.log10(lo)
    step = (math.log10(hi) - log_lo) / max(n - 1, 1)
    inner = [10.0 ** (i * step + log_lo) for i in range(1, n - 1)]
    return ([float(lo)] + inner + [float(hi)])[:n]
