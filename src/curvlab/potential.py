"""Capacitary potential / Green's-function solver on a MetricProfile.

The radial harmonic function satisfies (f^2 u')' = 0, so |grad u| = c/f^2
with a single normalisation constant:

  * with boundary:  u(x) = c * Int_{x_min}^{x} f^-2 ds, with c = capacity,
    chosen so u -> 1 at infinity;
  * boundaryless:   u(x) = 1 - Int_x^oo f^-2 ds  (u = 1 - 4 pi G_o, c = 1).

u is evaluated from the tail integral T(x) = Int_x^oo f^-2 ds at the
canonical anchors x_ref * 2^k and between them.  On each dyadic interval
between two anchors the integrand ds_dx/f^2 is tabulated once as a
piecewise Chebyshev interpolant whose antiderivative is exact, so T(x) is
the anchor value minus one Clenshaw sum: O(1) per query, with no per-query
quadrature inside the level solve or the integrands built on u.
``_clenshaw(panel, x)`` is the one table-read kernel, and every read calls
it directly: ``levels`` and ``volumes`` pass the one panel of a table that
holds one (on the built-ins, every interval no profile breakpoint splits),
bound once per table, and otherwise panels[bisect_right(starts, x) - 1];
both give the same bits.  A panel stores its coefficients as 12 pairs; the
kernel unpacks all of them in one statement and runs the Clenshaw
recurrence as straight-line code, the operations of a loop over the pairs
in the loop's order (the tests keep that loop as the kernel's reference).
The tables read f and ds_dx at each node through one
``MetricProfile.metric`` call.  One semi-infinite adaptive integral fixes
the far anchor T(x_ref 2^_FAR_K); every anchor below it telescopes down
through the tables, T(x_ref 2^k) = T(x_ref 2^(k+1)) + the total of table
k, so the tables are the one source
of T below the far anchor, and on a boundary profile the capacity's
T(x_min) is that same sum.  Anchors above it, read only by levels beyond
x_ref 2^_FAR_K, are their own adaptive integrals.  Anchor values and
tables depend on k alone, so query results are bitwise independent of
evaluation order.

The sub-level volume V(x) = Int_{x_min}^x 4 pi f^2 ds is read from tables
of 4 pi f^2 ds_dx on the same intervals, built and summed by the same code.
``volumes`` reads a sequence of x and keeps the interval, its anchor and its
table while the next x stays inside them, as ``levels`` keeps its bracket;
each V(x) depends on x alone.

A level solve brackets T(x) = target between two consecutive anchors.  T
decays like 1/x on every profile end, so the bracket walk starts at
floor(log2 T(x_ref) - log2 target) and usually reads two or three anchors;
and 1/T is nearly linear on the bracket (exactly, where T = 1/(x + a)).
Newton runs on 1/T - 1/target from its linear interpolation and reads T
from the bracket's table: 1.5 to 3.5 table reads per level, and one
``metric`` call per step for f and ds_dx.  ``levels`` solves a sequence of
t in one pass and returns the columns (ts, ss, us), with no record per
level.  It forms u and the target of every t in one column pass
(``_labels``, which ``level_value`` reads too), and locates the bracket,
its table and the constants of the Newton start once per anchor interval
the sequence stays in, so an ordered grid of 4096 levels walks 11 to 13
brackets; the bracket is a function of the target alone, so every level is
bitwise the one a solve of t alone returns.  ``_geometry`` reads the
level-set geometry of those columns in one pass, one ``jet`` read per level;
it is the only route from a solved level to its geometry, so a single level
is a sweep of one.  ``_grads`` is the one source of |grad u| = c/f^2.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

from .errors import NonConvergent, OutOfRange
from .numerics import Tolerance, geometric_grid, integrate
from .profile import MetricProfile, ProfileKind, _warped_scalar_curvature

__all__ = [
    "PotentialSolution",
    "LevelSetSample",
    "solve",
    "levels",
    "level_value",
    "t_of_level",
    "u_value",
    "volumes",
    "default_t_grid",
]

_FOUR_PI = 4.0 * math.pi
_TAIL_TOL = Tolerance(rel=5e-13, abs=0.0, max_refinements=60)
_VOLUME_TOL = Tolerance(rel=1e-11, abs=1e-13, max_refinements=60)

# Dyadic tables: _CHEB_N first-kind Chebyshev nodes per panel; a panel is
# accepted once the two trailing coefficients of its integrated series,
# times its half-width, are below _TABLE_REL times the scale its table
# measures it against (_DyadicTables._scale).
_CHEB_N = 25  # odd, so c_{N-1}, ..., c_1 pair up in a panel
_CHEB_NODES = tuple(math.cos(math.pi * (j + 0.5) / _CHEB_N) for j in range(_CHEB_N))
_CHEB_COS = tuple(
    tuple(math.cos(math.pi * m * (j + 0.5) / _CHEB_N) for j in range(_CHEB_N)) for m in range(_CHEB_N)
)
_TABLE_REL = 1e-16
_TABLE_MAX_DEPTH = 60
_TABLE_MAX_PANELS = 4096  # bisection budget beyond the breakpoint split
# The tail anchors below _FAR_K telescope from the adaptive integral at
# _FAR_K.  The default t-grids of the built-ins read tables up to k = 10 or
# so, which leaves that integral the only one they make.
_FAR_K = 12


class LevelSetSample(NamedTuple):
    """Pointwise and integrated level-set geometry of the levels ts, one list per field (``_geometry``).

    On round level sets each surface integral is 4 pi f^2 times the
    pointwise value of its integrand.  ``FunctionalSeries.boundary_sample``
    is the one record of floats: the geometry of the boundary level alone.
    """

    t: float
    s: float
    u: float
    area: float
    grad: float
    mean_curvature: float
    scalar_R: float
    int_grad_sq: float
    int_grad_H: float
    int_inv_grad: float


class _DyadicTables:
    """Chebyshev tables of an integrand on the dyadic intervals [x_ref 2^k, x_ref 2^(k+1)].

    x_ref is the coordinate of the boundary on a boundary profile with
    x_min > 0, where k starts at 0, and 1 otherwise.  The table of interval
    k splits at the profile breakpoints, interpolates the integrand in
    Chebyshev polynomials and bisects each panel until the trailing
    coefficients of its integrated series, times the panel half-width, fall
    below _TABLE_REL times ``_scale(k, through)``, where ``through`` is the
    integral from the left end of the interval to the right end of the
    panel; the scale must be known before table k is built.  Each panel stores
    its left edge, half-width, the integral of the panels before it, and
    its integrated coefficients in Clenshaw order, paired for ``_clenshaw``:
    c0, c_N, ((c_{N-1}, c_{N-2}), ..., (c_2, c_1)).
    Anchors and tables are built on first use and depend on k alone.
    Subclasses supply ``_integrand``, ``anchor_value`` and ``_scale``.
    """

    def __init__(self, profile: MetricProfile):
        self._p = profile
        anchored_at_boundary = profile.kind is ProfileKind.WITH_BOUNDARY and profile.x_min > 0.0
        self._ref = profile.x_min if anchored_at_boundary else 1.0
        self._k_floor = 0 if anchored_at_boundary else None
        self._anchors: dict[int, float] = {}
        self._tables: dict[int, tuple] = {}

    def anchor_x(self, k: int) -> float:
        return self._ref * (2.0 ** k)

    def _chebyshev(self, lo: float, hi: float) -> list[float]:
        """Chebyshev coefficients of the integrand interpolated on [lo, hi]."""
        centre = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        fs = [self._integrand(centre + half * z) for z in _CHEB_NODES]
        coeffs = [math.fsum(map(operator.mul, fs, row)) * 2.0 / _CHEB_N for row in _CHEB_COS]
        coeffs[0] *= 0.5
        return coeffs

    def _table(self, k: int) -> tuple:
        """(panel starts, panels, integral over the interval) of interval k."""
        table = self._tables.get(k)
        if table is None:
            table = self._tables[k] = self._build_table(k)
        return table

    def _build_table(self, k: int) -> tuple:
        lo, hi = self.anchor_x(k), self.anchor_x(k + 1)
        edges = [lo] + [p for p in sorted(set(self._p.breakpoints)) if lo < p < hi] + [hi]
        todo = [(a, b, 0) for a, b in reversed(list(zip(edges, edges[1:])))]
        starts: list[float] = []
        panels: list[tuple] = []
        acc = 0.0
        while todo:  # depth first, left to right: panels come out in order
            a, b, depth = todo.pop()
            c = self._chebyshev(a, b) + [0.0, 0.0]
            # Integrate term by term; the constant makes the antiderivative
            # vanish at the left edge (T_j(-1) = (-1)^j).  The sums run left to
            # right from 0.0 on every Python: sum() compensates from 3.12 on.
            ints = [0.0, c[0] - 0.5 * c[2]]
            ints += [(c[j - 1] - c[j + 1]) / (2.0 * j) for j in range(2, _CHEB_N + 1)]
            ints[0] = reduce(operator.add, [v if j % 2 else -v for j, v in enumerate(ints)], 0.0)
            half = 0.5 * (b - a)
            piece = half * reduce(operator.add, ints, 0.0)
            if (abs(ints[-1]) + abs(ints[-2])) * half <= _TABLE_REL * self._scale(k, acc + piece):
                starts.append(a)
                rest = ints[_CHEB_N - 1 : 0 : -1]  # c_{N-1}, ..., c_1
                # Through a list, so the tuple is allocated at its size: a
                # tuple(zip(...)) is resized from 10 slots, and once freed it
                # sits on a free list no allocation here takes from.
                pairs = tuple(list(zip(rest[::2], rest[1::2])))
                panels.append((a, half, acc, ints[0], ints[_CHEB_N], pairs))
                acc += piece
                continue
            mid = 0.5 * (a + b)
            too_many = len(starts) + len(todo) >= len(edges) + _TABLE_MAX_PANELS
            if depth >= _TABLE_MAX_DEPTH or too_many or not a < mid < b:
                raise NonConvergent(f"table did not resolve the integrand on [{a!r}, {b!r}] (depth {depth})")
            todo.append((mid, b, depth + 1))
            todo.append((a, mid, depth + 1))
        return (starts, panels, acc)

    def _interval(self, x: float) -> int:
        """The k with x_ref 2^k <= x < x_ref 2^(k+1): the log2 guess, corrected once either way.

        x / x_ref must lie in (0, 2^1022), where the guess and 2^(k+1) are
        finite; the guard is negated, so a NaN x fails it too.
        """
        ratio = x / self._ref
        if not 0.0 < ratio < 2.0 ** 1022:
            raise OutOfRange(f"coordinate x={x!r} is outside the dyadic intervals of x_ref={self._ref!r}")
        k = math.floor(math.log2(ratio))
        if x < self.anchor_x(k):
            k -= 1
        elif x >= self.anchor_x(k + 1):
            k += 1
        return k


def _clenshaw(panel: tuple, x: float) -> float:
    """Integral of a table from its left end to x inside one of its panels: the one table-read kernel."""
    start, half, before, c0, b1, pairs = panel
    # The (_CHEB_N - 1) / 2 = 12 pairs of a panel, c_24 down to c_1.
    (
        (c24, c23), (c22, c21), (c20, c19), (c18, c17), (c16, c15), (c14, c13),
        (c12, c11), (c10, c9), (c8, c7), (c6, c5), (c4, c3), (c2, c1),
    ) = pairs
    z = (x - start) / half - 1.0
    # Clenshaw sum of the integrated Chebyshev series at z, written out: each
    # line forms the next b1 in b2 or the one after it in b1, the operations
    # of b1, b2 = z2 b1 - b2 + c, b1, in order.  b2 starts at 0.0, which the
    # first line leaves out: y - 0.0 is y.
    z2 = 2.0 * z
    b2 = z2 * b1 + c24
    b1 = z2 * b2 - b1 + c23
    b2 = z2 * b1 - b2 + c22
    b1 = z2 * b2 - b1 + c21
    b2 = z2 * b1 - b2 + c20
    b1 = z2 * b2 - b1 + c19
    b2 = z2 * b1 - b2 + c18
    b1 = z2 * b2 - b1 + c17
    b2 = z2 * b1 - b2 + c16
    b1 = z2 * b2 - b1 + c15
    b2 = z2 * b1 - b2 + c14
    b1 = z2 * b2 - b1 + c13
    b2 = z2 * b1 - b2 + c12
    b1 = z2 * b2 - b1 + c11
    b2 = z2 * b1 - b2 + c10
    b1 = z2 * b2 - b1 + c9
    b2 = z2 * b1 - b2 + c8
    b1 = z2 * b2 - b1 + c7
    b2 = z2 * b1 - b2 + c6
    b1 = z2 * b2 - b1 + c5
    b2 = z2 * b1 - b2 + c4
    b1 = z2 * b2 - b1 + c3
    b2 = z2 * b1 - b2 + c2
    b1 = z2 * b2 - b1 + c1
    return before + half * (z * b1 - b2 + c0)


class _TailCache(_DyadicTables):
    """T(x) = Int_x^oo ds/f^2 from canonical anchors x_ref * 2^k and per-interval tables.

    T(x) is the anchor below x minus the table integral up to x.  The anchor
    at k = _FAR_K is a semi-infinite adaptive integral; below it T(x_ref 2^k)
    = T(x_ref 2^(k+1)) + the total of table k, and above it each anchor is
    its own adaptive integral.  The table of interval k measures its panels
    against T(x_ref 2^(k+1)), a lower bound of T on the interval that is
    known before the table is built, so anchors and tables depend on k alone
    and T(x) is bitwise independent of evaluation order.
    """

    def __init__(self, profile: MetricProfile):
        super().__init__(profile)
        self._x_floor = profile.x_min if profile.kind is ProfileKind.WITH_BOUNDARY else None
        self._total: float | None = None

    def _integrand(self, x: float) -> float:
        fx, dsx = self._p.metric(x)
        return dsx / (fx * fx)

    def _scale(self, k: int, through: float) -> float:
        return self.anchor_value(k + 1)

    def anchor_value(self, k: int) -> float:
        if self._k_floor is not None:
            k = max(k, self._k_floor)
        cached = self._anchors.get(k)
        if cached is not None:
            return cached
        if k < _FAR_K:
            value = self.anchor_value(k + 1) + self._table(k)[2]
        else:
            value = integrate(
                self._integrand, self.anchor_x(k), math.inf, _TAIL_TOL, points=self._p.breakpoints
            ).value
        self._anchors[k] = value
        return value

    def total(self) -> float:
        """T at the boundary coordinate (boundary profiles only)."""
        if self._total is None:
            if self._k_floor is not None:
                self._total = self.anchor_value(0)
            else:
                self._total = integrate(
                    self._integrand, self._x_floor, math.inf, _TAIL_TOL, points=self._p.breakpoints
                ).value
        return self._total

    def bracket(self, target: float) -> tuple[float, float, float, float]:
        """(lo, T(lo), hi, T(hi)) with T(lo) > target >= T(hi), for target below T(x_min).

        lo and hi are the consecutive anchors around k = max{k : T(x_ref 2^k) >
        target}.  T ~ 1/x puts k near log2(T(x_ref)/target); the walk starts
        there, formed in log space so that a tiny target cannot overflow, and
        moves down while the anchor value is still at or below the target, then
        up until the next anchor value drops to it.  Where T falls faster than
        1/x the guess can overshoot above _FAR_K to an anchor whose adaptive
        integral does not converge; the walk then starts from k = 0.  Below
        _FAR_K the anchors are telescoped table sums and that fallback is not
        taken.  The anchors strictly decrease, so the answer does not depend
        on the start.
        """
        t_ref = self.anchor_value(0)
        k = 80
        if target > 0.0:  # t = inf asks for T = 0, beyond every anchor
            k = min(max(math.floor(math.log2(t_ref) - math.log2(target)), -70), 80)
        t_k = t_ref
        if k != 0:
            try:
                t_k = self.anchor_value(k)
            except NonConvergent:
                k = 0
        t_up = None  # T one anchor above k, once the walk has read it
        while t_k <= target:
            k -= 1
            if k < -70:
                raise NonConvergent("level lies too deep toward the pole")
            t_up, t_k = t_k, self.anchor_value(k)
        if t_up is None:
            t_up = self.anchor_value(k + 1)
            while t_up > target:
                k += 1
                if k > 80:
                    raise NonConvergent("level lies beyond the resolvable range")
                t_k, t_up = t_up, self.anchor_value(k + 1)
        return self.anchor_x(k), t_k, self.anchor_x(k + 1), t_up

    def value(self, x: float) -> float:
        if self._x_floor is not None and x <= self._x_floor:
            if x < self._x_floor * (1.0 - 1e-12) - 1e-300:
                raise OutOfRange(f"x={x!r} below the boundary coordinate {self._x_floor!r}")
            return self.total()
        if x <= 0.0:
            raise OutOfRange(f"tail integral needs x > 0, got {x!r}")
        k = self._interval(x)
        if x == self.anchor_x(k):
            return self.anchor_value(k)
        starts, panels, _ = self._table(k)
        return self.anchor_value(k) - _clenshaw(panels[bisect_right(starts, x) - 1], x)


class _VolumeCache(_DyadicTables):
    """V(x) = Int_{x_min}^x 4 pi f^2 ds on the dyadic intervals of the tail tables.

    V(x_min) = 0.  An anchor V(x_ref 2^k) with k <= 0 is one adaptive
    integral from x_min; above x_ref the anchors telescope, V(x_ref 2^(k+1))
    = V(x_ref 2^k) + the total of table k, so no anchor integral spans more
    than [x_min, x_ref].  The integrand is positive and V vanishes at x_min,
    so a panel is measured against V at its own right end, not against the
    anchor.  Anchors and tables depend on k alone.  The walk up stops at the
    first anchor that overflows to inf and returns it, building no table
    above it.
    """

    def _integrand(self, x: float) -> float:
        fx, dsx = self._p.metric(x)
        return _FOUR_PI * fx * fx * dsx

    def _scale(self, k: int, through: float) -> float:
        return self.anchor_value(k) + through

    def anchor_value(self, k: int) -> float:
        anchors = self._anchors
        cached = anchors.get(k)
        if cached is not None:
            return cached
        # Walk up from the highest anchor known below k, or from the one at or
        # below x_ref: the additions of a recursion down to it, in its order.
        j = k
        while j > 0 and j not in anchors:
            j -= 1
        value = anchors.get(j)
        if value is None:
            p = self._p
            if self.anchor_x(j) == p.x_min:  # x_ref is the boundary
                value = 0.0
            else:
                value = integrate(self._integrand, p.x_min, self.anchor_x(j), _VOLUME_TOL, points=p.breakpoints).value
            anchors[j] = value
        for i in range(j, k):
            if value == math.inf:
                break
            value += self._table(i)[2]
            anchors[i + 1] = value
        return value


class PotentialSolution:
    """Solved radial potential: normalisation constant, capacity, level maps.

    ``capacity`` is None exactly when the profile has no boundary (the
    Green's-function problem); ``c_norm`` is the capacity with a boundary
    and 1.0 without, so the readers of |grad u| = c/f^2 need no branch.
    ``_tail`` and ``_volume`` are the caches every level and volume read
    goes through; they are left out of the repr.
    """

    __slots__ = ("profile", "c_norm", "capacity", "grad_vanishes_at_infinity", "_tail", "_volume")

    def __init__(
        self,
        profile: MetricProfile,
        c_norm: float,
        capacity: float | None,
        grad_vanishes_at_infinity: bool,
        _tail: _TailCache,
        _volume: _VolumeCache,
    ) -> None:
        self.profile = profile
        self.c_norm = c_norm
        self.capacity = capacity
        self.grad_vanishes_at_infinity = grad_vanishes_at_infinity
        self._tail = _tail
        self._volume = _volume

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__[:4])
        return f"PotentialSolution({shown})"


def solve(p: MetricProfile) -> PotentialSolution:
    """Solve the capacitary-potential (boundary) or Green's-function problem."""
    tail = _TailCache(p)
    if p.kind is ProfileKind.WITH_BOUNDARY:
        try:
            total = tail.total()  # T(x_min)
        except NonConvergent as exc:
            raise NonConvergent(f"profile {p.label!r} is parabolic: {exc}") from exc
        c = 1.0 / total
        cap: float | None = c
    else:
        c = 1.0
        cap = None

    # Paper hypothesis |grad u| -> 0 at infinity, sampled on a coarse grid.
    gs = _grads(c, [p.f(x * p.x_scale) for x in (1e2, 1e3, 1e4)])
    vanishes = gs[0] > gs[1] > gs[2] and gs[2] < 1e-6 * max(1.0, c)

    return PotentialSolution(
        profile=p,
        c_norm=c,
        capacity=cap,
        grad_vanishes_at_infinity=vanishes,
        _tail=tail,
        _volume=_VolumeCache(p),
    )


def _labels(sol: PotentialSolution, ts: Sequence[float]) -> tuple[list[float], list[float]]:
    """The u-level u(t) and the tail target T = (1 - u)/c of each t, as columns: the one source of both.

    T is formed in closed form (c = C with a boundary, 1 without): forming
    1 - u from u would cancel digits at large t.
    """
    # The guards are negated comparisons, so that a NaN t fails them too.
    cap = sol.capacity
    if cap is not None:
        floor = 0.5 * cap * (1.0 - 1e-12)
        for t in ts:
            if not t >= floor:
                raise OutOfRange(f"t={t!r} is not at or above C/2={0.5 * cap!r}")
        us = [(1.0 - h) / (1.0 + h) for h in [cap / (2.0 * t) for t in ts]]
        return us, [2.0 / (2.0 * t + cap) for t in ts]
    for t in ts:
        # Below about 5.6e-309 the target 1/t is infinite.
        if not (t > 0.0 and 1.0 / t < math.inf):
            raise OutOfRange(f"t={t!r} must be positive with a finite 1/t for a boundaryless solution")
    return [1.0 - 1.0 / t for t in ts], [1.0 / t for t in ts]


def level_value(sol: PotentialSolution, t: float) -> float:
    """The u-level labelled by t."""
    return _labels(sol, (t,))[0][0]


def t_of_level(sol: PotentialSolution, u: float) -> float:
    """Inverse of level_value."""
    if sol.capacity is not None:
        return 0.5 * sol.capacity * (1.0 + u) / (1.0 - u)
    return 1.0 / (1.0 - u)


def levels(sol: PotentialSolution, ts: Iterable[float]) -> tuple[list[float], list[float], list[float]]:
    """Locate the level sets labelled by ts as the columns (ts, ss, us), in order.

    Each s round-trips t -> s -> t to rel 1e-10, and us is ``_labels``'s u
    column.  Each level solves T(x) = (1 - u)/c by safeguarded Newton (T' =
    -ds_dx/f^2 is analytic; one ``metric`` call per step gives f and ds_dx).
    The bracket of the previous level, its table and the bracket's constants
    of the Newton start are kept while the next target stays inside it, so
    an ordered grid locates one bracket per anchor interval it covers.  T is
    read with the bits of ``_TailCache.value``: the anchor values at the
    bracket's ends, and between them T(lo) minus one ``_clenshaw`` call on
    the table's one panel or on the panel the bisect finds.
    """
    ts = list(ts)
    us, targets = _labels(sol, ts)
    tail = sol._tail
    x_min = sol.profile.x_min
    metric = sol.profile.metric
    clenshaw = _clenshaw  # looked up per call, so a kernel patched before it sees every read
    boundary = sol.capacity is not None
    # Targets at or above this T lie on the boundary itself.
    at_boundary = tail.total() * (1.0 - 4e-16) if boundary else None
    t_lo = t_hi = math.nan  # the kept bracket's T(lo) > target >= T(hi): none yet
    ss = []
    for target in targets:
        if boundary and target >= at_boundary:
            ss.append(x_min)
            continue
        # At T(hi) = target the start is hi itself.  The bracket depends on
        # the target alone, so a kept one is the one tail.bracket would return.
        if not t_lo > target >= t_hi:
            a, t_lo, b, t_hi = tail.bracket(target)  # the anchors; Newton narrows lo and hi
            starts, panels, _ = tail._table(tail._interval(a))
            panel = panels[0] if len(panels) == 1 else None  # None: bisect
            inv_lo = 1.0 / t_lo
            inv_span = 1.0 / t_hi - inv_lo
            width = b - a
        lo, hi = a, b
        # Newton on g = 1/T - 1/target (T's step times T/target) from the linear
        # interpolation of 1/T; its weight rounds to at most 1, so x <= hi.
        x = a + (1.0 / target - inv_lo) / inv_span * width
        stop = 1e-14 * target
        for _ in range(80):
            if a < x < b:
                t_x = t_lo - clenshaw(panel or panels[bisect_right(starts, x) - 1], x)
            else:
                t_x = t_lo if x == a else t_hi
            resid = t_x - target
            fx, dsx = metric(x)
            x_new = x + resid * fx * fx / dsx * (t_x / target)
            if abs(resid) <= stop:
                # Inside the stop band: take one more step and keep the closer point.
                if x_new != x and lo <= x_new <= hi:
                    if a < x_new < b:
                        t_new = t_lo - clenshaw(panel or panels[bisect_right(starts, x_new) - 1], x_new)
                    else:
                        t_new = t_lo if x_new == a else t_hi
                    if abs(t_new - target) < abs(resid):
                        x = x_new
                break
            if resid > 0.0:
                lo = x
            else:
                hi = x
            if not lo < x_new < hi:
                x_new = 0.5 * (lo + hi)
            if abs(x_new - x) <= 4e-16 * abs(x):
                x = x_new
                break
            x = x_new
        else:
            raise NonConvergent(f"level solve did not converge (target {target!r})")
        ss.append(x)
    return ts, ss, us


def u_value(sol: PotentialSolution, x: float) -> float:
    """u at radial coordinate x."""
    return 1.0 - sol.c_norm * sol._tail.value(x)


def _grads(c: float, fs: Iterable[float]) -> list[float]:
    """|grad u| = c/f^2 on each level sphere where the profile is f: the one source of |grad u|."""
    return [c / (f * f) for f in fs]


def _geometry(sol: PotentialSolution, columns: tuple[list[float], list[float], list[float]]) -> LevelSetSample:
    """The level-set geometry of the ``levels`` columns (ts, ss, us), in one pass.

    One jet read and one R call per level.
    """
    ts, ss, us = columns
    jets = list(map(sol.profile.jet, ss))
    grads = _grads(sol.c_norm, [f for f, _, _ in jets])
    area, mean_h, scalar_r, int_grad_sq, int_grad_h, int_inv_grad = [], [], [], [], [], []
    for (f, fs, fss), g in zip(jets, grads):
        a = _FOUR_PI * f * f
        h = 2.0 * fs / f
        area.append(a)
        mean_h.append(h)
        scalar_r.append(_warped_scalar_curvature(f, fs, fss))
        int_grad_sq.append(a * g * g)
        int_grad_h.append(a * g * h)
        int_inv_grad.append(a / g)
    return LevelSetSample(ts, ss, us, area, grads, mean_h, scalar_r, int_grad_sq, int_grad_h, int_inv_grad)


def volumes(sol: PotentialSolution, xs: Iterable[float]) -> list[float]:
    """Radial volume integrals Int 4 pi f^2 ds over [x_min, x] for each x of xs, in order.

    V(x) is the anchor at the left end of the dyadic interval holding x plus
    one ``_clenshaw`` read of that interval's table up to x, on its one panel
    or on the panel the bisect finds.  The interval, its anchor and its table
    are kept while the next x stays inside them, so an ordered sequence
    locates one interval per anchor interval it covers; each V(x) depends on
    x alone, so its bits do not depend on the order.  An x whose V is not a
    finite float (beyond about x = 3.5e102 where f ~ x) fails with
    ``OutOfRange`` naming x.
    """
    vol = sol._volume
    x_min = sol.profile.x_min
    clenshaw = _clenshaw
    inf = math.inf
    lo = hi = math.nan  # the kept interval [lo, hi): none yet
    panels = None
    out = []
    for x in xs:
        if x <= x_min:
            if x < x_min * (1.0 - 1e-12) - 1e-300:
                raise OutOfRange(f"volume upper coordinate {x!r} below x_min={x_min!r}")
            out.append(0.0)
            continue
        if not lo <= x < hi:
            k = vol._interval(x)
            lo, hi = vol.anchor_x(k), vol.anchor_x(k + 1)
            anchor = vol.anchor_value(k)
            if anchor == inf:  # before the table of an interval V overflows on
                raise OutOfRange(f"volume up to x={x!r} overflows")
            panels = None  # the table is built by the first x strictly inside
        if x == lo:
            out.append(anchor)
            continue
        if panels is None:
            starts, panels, _ = vol._table(k)
            panel = panels[0] if len(panels) == 1 else None  # None: bisect
        v = anchor + clenshaw(panel or panels[bisect_right(starts, x) - 1], x)
        if not v < inf:
            raise OutOfRange(f"volume up to x={x!r} overflows")
        out.append(v)
    return out


def default_t_grid(
    sol: PotentialSolution,
    n: int = 256,
    t_min_factor: float = 1.0,
    t_max_factor: float = 1000.0,
) -> list[float]:
    """Geometric t-grid; boundary case spans [C/2, 1000 C] by default."""
    if sol.capacity is not None:
        lo = 0.5 * sol.capacity * t_min_factor
        hi = sol.capacity * t_max_factor
    else:
        lo = 0.5 * t_min_factor
        hi = 1.0 * t_max_factor
    return geometric_grid(lo, hi, n)
