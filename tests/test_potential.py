import dataclasses
import math
import random
import re

import numpy as np
import pytest

from curvlab.errors import NonConvergent, OutOfRange
from curvlab.functionals import functional_columns
from curvlab.numerics import Tolerance, integrate
from curvlab.potential import (
    _CHEB_N,
    _TAIL_TOL,
    _clenshaw,
    _DyadicTables,
    _TailCache,
    default_t_grid,
    level_value,
    levels,
    solve,
    t_of_level,
    u_value,
    volumes,
)
from curvlab.profile import (
    MetricProfile,
    ProfileKind,
    euclidean,
    mollified_schwarzschild,
    perturbed_schwarzschild,
    profile_from_csv,
    sample_scalar_curvature_sign,
    schwarzschild,
    to_warped,
)

from differences import differentiate
from frozen_outputs import write_inputs
from one_level import grad, level, sample
from tail_reads import bracket_reads

FOUR_PI = 4.0 * math.pi


class TestEuclidean:
    def test_u_closed_form_pointwise(self, euclid_sol):
        # u(s) = 1 - 1/s to rel 1e-12
        for s in (0.2, 0.5, 1.0, 3.0, 42.0, 1000.0):
            assert u_value(euclid_sol, s) == pytest.approx(1.0 - 1.0 / s, abs=1e-12)

    def test_grad_is_inverse_square(self, euclid_sol):
        for s in (0.5, 2.0, 10.0):
            assert grad(euclid_sol, s) == pytest.approx(s**-2, rel=1e-15)

    def test_level_t2(self, euclid_sol):
        lp = level(euclid_sol, 2.0)
        assert lp.s == pytest.approx(2.0, rel=1e-12)
        assert lp.u == pytest.approx(0.5, abs=1e-15)

    def test_level_integrals_t3(self, euclid_sol, golden):
        ls = sample(euclid_sol, 3.0)
        assert ls.area * ls.grad == pytest.approx(golden["potential.euclid_t3_int_grad"], rel=1e-12)
        assert ls.int_grad_sq == pytest.approx(golden["potential.euclid_t3_int_grad_sq"], rel=1e-10)
        assert ls.area == pytest.approx(golden["potential.euclid_t3_area"], rel=1e-10)


class TestSchwarzschild:
    def test_u_closed_form(self, schw1_sol):
        for r in (0.5, 0.8, 1.0, 2.5, 30.0):
            exact = (1.0 - 0.5 / r) / (1.0 + 0.5 / r)
            assert u_value(schw1_sol, r) == pytest.approx(exact, abs=1e-12)

    def test_capacity_equals_mass(self, schw1_sol, schw2_sol, golden):
        assert schw1_sol.capacity == pytest.approx(golden["potential.schw1_capacity"], rel=1e-10)
        assert schw2_sol.capacity == pytest.approx(golden["potential.schw2_capacity"], rel=1e-10)

    def test_boundary_level(self, schw1_sol):
        # dM = {u = 0} at t = C/2, by the maximum principle.
        lp = level(schw1_sol, 0.5)
        assert lp.s == schw1_sol.profile.x_min
        assert lp.u == 0.0

    def test_level_t1_is_unit_radius(self, schw1_sol, golden):
        lp = level(schw1_sol, 1.0)
        assert lp.s == pytest.approx(1.0, rel=1e-12)
        assert lp.u == pytest.approx(golden["potential.schw1_u_at_1"], abs=1e-14)

    def test_boundary_gradient_integral_is_pi(self, schw1_sol, golden):
        ls = sample(schw1_sol, 0.5)
        assert ls.int_grad_sq == pytest.approx(golden["potential.schw1_boundary_int_grad_sq"], rel=1e-12)
        assert ls.int_grad_sq == pytest.approx(math.pi, rel=1e-12)

    def test_flux_constancy_100_points(self, schw1_sol):
        target = FOUR_PI * schw1_sol.capacity
        for t in np.geomspace(0.5, 1000.0, 100):
            ls = sample(schw1_sol, float(t))
            flux = ls.area * ls.grad
            assert abs(flux - target) <= 1e-9 * target

    def test_harmonicity_residual(self, schw1_sol):
        # (f^2 u')' = 0: f^2 |grad u| must be the constant c everywhere.
        p = schw1_sol.profile
        phi = lambda x: p.f(x) ** 2 * grad(schw1_sol, x)
        for x in (0.6, 1.7, 12.0, 300.0):
            residual = differentiate(phi, x) / p.ds_dx(x)
            assert abs(residual) <= 1e-9

    def test_u_grad_consistency(self, schw1_sol):
        # numerical du/ds against the analytic |grad u|
        p = schw1_sol.profile
        for x in (0.7, 2.0, 9.0):
            du_dx = differentiate(lambda y: u_value(schw1_sol, y), x)
            assert du_dx / p.ds_dx(x) == pytest.approx(grad(schw1_sol, x), rel=1e-6)


class TestLevels:
    def test_round_trip_rel_1e10(self, schw1_sol):
        for t in np.geomspace(0.5, 1000.0, 60):
            lp = level(schw1_sol, float(t))
            back = t_of_level(schw1_sol, u_value(schw1_sol, lp.s))
            assert back == pytest.approx(float(t), rel=1e-10)

    def test_t_to_s_strictly_increasing(self, moll11_sol):
        ss = [level(moll11_sol, float(t)).s for t in np.geomspace(0.3, 500.0, 40)]
        assert all(b > a for a, b in zip(ss, ss[1:]))

    def test_level_formula_matches(self, schw1_sol):
        cap = schw1_sol.capacity
        for t in (0.5, 1.0, 10.0):
            expected = (1.0 - cap / (2 * t)) / (1.0 + cap / (2 * t))
            assert level_value(schw1_sol, t) == pytest.approx(expected, abs=1e-15)

    def test_out_of_range(self, schw1_sol, euclid_sol):
        with pytest.raises(OutOfRange):
            level(schw1_sol, 0.4)
        with pytest.raises(OutOfRange):
            level(euclid_sol, 0.0)
        # A NaN t fails the range guard on both kinds, not the level solve.
        for sol in (schw1_sol, euclid_sol):
            with pytest.raises(OutOfRange, match="t=nan"):
                level_value(sol, math.nan)
            with pytest.raises(OutOfRange, match="t=nan"):
                level(sol, math.nan)
            with pytest.raises(OutOfRange, match="t=nan"):
                levels(sol, [1.0, math.nan])

    @pytest.mark.parametrize("t", [1e-310, 5e-324])
    def test_tiny_boundaryless_t_is_out_of_range(self, t):
        # 1/t is infinite: the range guard refuses t before any level is
        # solved, where the bracket walk overflowed and level_value gave -inf.
        sol = solve(euclidean())
        with pytest.raises(OutOfRange, match=re.escape(f"t={t!r}")):
            level_value(sol, t)
        with pytest.raises(OutOfRange, match=re.escape(f"t={t!r}")):
            levels(sol, [2.0, t])

    def test_wrong_kind(self, euclid_sol):
        assert euclid_sol.capacity is None


class TestMollified:
    def test_exterior_u_closed_form(self, moll11_sol, golden):
        assert u_value(moll11_sol, 2.0) == pytest.approx(golden["potential.moll11_u_at_2"], abs=1e-12)
        assert u_value(moll11_sol, 5.0) == pytest.approx(golden["potential.moll11_u_at_5"], abs=1e-12)

    def test_kind_and_flux(self, moll11_sol):
        assert moll11_sol.capacity is None
        assert moll11_sol.c_norm == 1.0
        for t in (0.5, 3.0, 100.0):
            ls = sample(moll11_sol, t)
            assert ls.area * ls.grad == pytest.approx(FOUR_PI, rel=1e-12)

    def test_grad_vanishes_flag(self, moll11_sol, schw1_sol):
        assert moll11_sol.grad_vanishes_at_infinity
        assert schw1_sol.grad_vanishes_at_infinity


class TestCapacityExamples:
    def test_flat_exterior_unit_sphere(self, golden):
        # Boundary unit sphere in flat space: Newtonian capacity 1 (boundary
        # not minimal; used for capacity arithmetic only).
        p = MetricProfile(
            label="flat-exterior",
            kind=ProfileKind.WITH_BOUNDARY,
            x_min=0.0,
            metric=lambda x: (x + 1.0, 1.0),
            jet=lambda x: (x + 1.0, 1.0, 0.0),
        )
        sol = solve(p)
        assert sol.capacity == pytest.approx(golden["potential.flat_exterior_capacity"], rel=1e-10)


def test_volume_euclid_ball(euclid_sol, golden):
    x = level(euclid_sol, 2.0).s
    assert volumes(euclid_sol, [x])[0] == pytest.approx(
        golden["functionals.euclid_volume_t2"], rel=1e-10
    )


def test_default_grid_shape(schw1_sol):
    grid = default_t_grid(schw1_sol)
    assert len(grid) == 256
    assert grid[0] == pytest.approx(0.5 * schw1_sol.capacity, rel=1e-12)
    assert grid[-1] == pytest.approx(1000.0 * schw1_sol.capacity, rel=1e-12)


def _write_csv(path, header, rows):
    path.write_text(header + "\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows), encoding="utf-8")
    return str(path)


def _bump(c, w):
    """The boundaryless f = s + 5 exp(-((s - c)/w)^2), with no declared breakpoint."""
    bump = lambda s: math.exp(-(((s - c) / w) ** 2))
    f = lambda s: s + 5.0 * bump(s)
    return MetricProfile(
        label=f"bump(c={c}, w={w})",
        kind=ProfileKind.BOUNDARYLESS,
        x_min=0.0,
        metric=lambda s: (f(s), 1.0),
        jet=lambda s: (
            f(s),
            1.0 - 10.0 * (s - c) / w**2 * bump(s),
            (20.0 * (s - c) ** 2 / w**4 - 10.0 / w**2) * bump(s),
        ),
    )


def _tail_profiles(tmp_path):
    """Every built-in, one r,w and two s,f CSV profiles and a narrow bump, with their kinks."""
    builtins = [
        euclidean(),
        schwarzschild(1.3),
        to_warped(mollified_schwarzschild(0.8, 1.4)),
        perturbed_schwarzschild(),
    ]
    out = [(p, p.breakpoints) for p in builtins]
    conf = mollified_schwarzschild(1.0, 1.0)
    rs = np.linspace(0.0, 12.0, 25)
    rw = profile_from_csv(
        _write_csv(tmp_path / "rw.csv", "r,w", [(float(r), conf.w(float(r))) for r in rs]), True
    )
    ss = np.linspace(0.0, 40.0, 21)
    sf = profile_from_csv(
        _write_csv(
            tmp_path / "sf.csv", "s,f", [(float(s), 2.0 + float(s) ** 2 / (2.0 + 0.4 * float(s))) for s in ss]
        ),
        False,
    )
    # f = s^2 makes T fall like 1/x^3 near the boundary, so the 1/x guess
    # of the bracket walk overshoots to anchors whose integrals never converge.
    st = np.linspace(1.0, 12.0, 23)
    steep = profile_from_csv(
        _write_csv(tmp_path / "steep.csv", "s,f", [(float(s), float(s) ** 2) for s in st]), True
    )
    # Spline profiles are only C^2 at the knots: the reference splits there.
    out.append((rw, tuple(float(r) for r in rs)))
    out.append((sf, tuple(float(s) for s in ss)))
    out.append((steep, tuple(float(s) for s in st)))
    # A narrow smooth bump with no declared breakpoint: the table bisects
    # the panels of interval k = 1 to resolve it.  The reference splits at
    # its centre and five widths either side, or an integral from 0 to far
    # out steps over it.
    out.append((_bump(3.0, 0.2), (2.0, 3.0, 4.0)))
    return out


def test_tail_anchors_match_adaptive_quadrature(tmp_path):
    # Below the far anchor every anchor is a telescoped sum of table totals;
    # each agrees with its own semi-infinite adaptive integral.
    for p, kinks in _tail_profiles(tmp_path):
        tail = solve(p)._tail
        for k in range(-20, 21):
            x = tail.anchor_x(k)
            if x <= p.x_min:
                continue
            ref = integrate(tail._integrand, x, math.inf, _TAIL_TOL, points=kinks).value
            assert abs(tail.anchor_value(k) - ref) <= 1e-12 * ref, (p.label, k)


def test_tail_anchors_are_independent_of_query_order(tmp_path):
    # Anchor k and table k depend on k alone, so the order in which the
    # anchors are first read cannot change a bit of any of them.
    rng = random.Random(13)
    ks = list(range(-20, 21))
    for p, _ in _tail_profiles(tmp_path):
        shuffled = ks[:]
        rng.shuffle(shuffled)
        in_order, out_of_order = solve(p)._tail, solve(p)._tail
        expected = {k: in_order.anchor_value(k) for k in ks}
        got = {k: out_of_order.anchor_value(k) for k in shuffled}
        assert all(expected[k].hex() == got[k].hex() for k in ks), p.label


def test_euclidean_anchors_are_exact():
    # T = 1/x.  The scaled map of [x_k, oo) turns the integrand of each
    # adaptive anchor into the constant 1/x_k, and every table total
    # 2^-(k+1) is a float, so each anchor lands on 2^-k.  The unit-scale map
    # lost ulps from k = 8 and stopped converging at k = 29.
    tail = solve(euclidean())._tail
    for k in range(-40, 81):
        assert abs(tail.anchor_value(k) - 2.0**-k) <= math.ulp(2.0**-k), k


def test_tail_below_a_narrow_bump(golden):
    # A bump of width 0.02 at s = 3 that no breakpoint declares: table k = 1
    # resolves it, and T below it telescopes through that table.  A separate
    # adaptive anchor integral from 1 stepped over it (off by 4.9e-3).
    tail = solve(_bump(3.0, 0.02))._tail
    for x, key in ((1.0, "potential.bump3_tail_at_1"), (1.9, "potential.bump3_tail_at_1p9")):
        assert tail.value(x) == pytest.approx(golden[key], rel=1e-13, abs=0.0), x


def test_tail_table_matches_adaptive_quadrature(tmp_path):
    # The tabulated T(x) against an independent semi-infinite adaptive
    # integral at the anchor tolerance, on 300 log-spaced coordinates.
    for p, kinks in _tail_profiles(tmp_path):
        sol = solve(p)
        tail = sol._tail
        lo = p.x_min * (1.0 + 1e-9) if p.x_min > 0.0 else 1e-3
        for x in np.geomspace(lo, 1e4 * p.x_scale, 300):
            x = float(x)
            ref = integrate(tail._integrand, x, math.inf, _TAIL_TOL, points=kinks).value
            assert abs(tail.value(x) - ref) <= 1e-12 * ref, (p.label, x)


def test_volume_table_matches_adaptive_quadrature(tmp_path):
    # The tabulated V(x) against an independent adaptive integral from x_min,
    # tighter than the anchor tolerance, on 300 log-spaced coordinates.
    ref_tol = Tolerance(rel=2e-13, abs=0.0, max_refinements=60)
    for p, kinks in _tail_profiles(tmp_path):
        sol = solve(p)
        lo = p.x_min * (1.0 + 1e-3) if p.x_min > 0.0 else 1e-3
        for x in np.geomspace(lo, 1e4 * p.x_scale, 300):
            x = float(x)
            ref = integrate(sol._volume._integrand, p.x_min, x, ref_tol, points=kinks).value
            assert abs(volumes(sol, [x])[0] - ref) <= 1e-12 * ref, (p.label, x)


def test_volume_is_independent_of_query_order(tmp_path):
    # Anchors and tables depend on k alone, so the order in which the
    # coordinates are visited cannot change a bit of V.
    rng = random.Random(7)
    for p, _ in _tail_profiles(tmp_path):
        lo = p.x_min * (1.0 + 1e-3) if p.x_min > 0.0 else 1e-3
        xs = [float(x) for x in np.geomspace(lo, 1e4 * p.x_scale, 200)]
        shuffled = xs[:]
        rng.shuffle(shuffled)
        sorted_sol, shuffled_sol = solve(p), solve(p)
        in_order = {x: volumes(sorted_sol, [x])[0] for x in xs}
        out_of_order = {x: volumes(shuffled_sol, [x])[0] for x in shuffled}
        assert all(in_order[x].hex() == out_of_order[x].hex() for x in xs), p.label


def test_bracket_is_the_last_anchor_above_the_target(tmp_path):
    # The walk starts near log2(T(x_ref)/target); the bracket it returns is
    # still max{k : T(x_ref 2^k) > target}, found here by brute force.
    for p, _ in _tail_profiles(tmp_path):
        sol = solve(p)
        tail = sol._tail
        boundary = sol.capacity is not None
        ks = range(-25, 26)
        anchors = {k: tail.anchor_value(k) for k in ks}
        lo = p.x_min * (1.0 + 1e-9) if p.x_min > 0.0 else 1e-3
        targets = [tail.value(float(x)) for x in np.geomspace(lo, 1e6 * p.x_scale, 300)]
        targets += [anchors[k] for k in ks[1:-1]]
        if boundary:
            # At T(x_min) the level is the boundary itself; no bracket is needed.
            assert level(sol, 0.5 * sol.capacity).s == p.x_min
            targets = [t for t in targets if t < tail.total() * (1.0 - 4e-16)]
        assert anchors[ks[0]] > max(targets) and anchors[ks[-1]] < min(targets), p.label
        for target in targets:
            k = max(k for k in ks if anchors[k] > target)
            expected = (tail.anchor_x(k), anchors[k], tail.anchor_x(k + 1), anchors[k + 1])
            assert tail.bracket(target) == expected, (p.label, target)


def test_level_solve_reads_few_anchors(monkeypatch):
    # Walking from k = 0 read about ten anchors per level on this grid.
    calls = [0]
    real = _TailCache.anchor_value

    def counting(self, k):
        calls[0] += 1
        return real(self, k)

    monkeypatch.setattr(_TailCache, "anchor_value", counting)
    sol = solve(perturbed_schwarzschild())
    grid = default_t_grid(sol, 256)
    calls[0] = 0
    for t in grid:
        level(sol, t)
    assert calls[0] / len(grid) <= 4.0


@pytest.mark.parametrize(
    "p",
    [euclidean(), schwarzschild(1.0), perturbed_schwarzschild(), to_warped(mollified_schwarzschild(1.0, 1.0))],
    ids=["euclidean", "schwarzschild", "perturbed", "mollified"],
)
def test_levels_brackets_once_per_anchor_interval(monkeypatch, p):
    # levels keeps its bracket while the next target stays inside it: one
    # bracket per dyadic interval the grid's levels occupy, where a level
    # solve per t walks one per level (every level but the boundary's).
    counts = {"bracket": 0, "anchor_value": 0}

    def counting(name):
        real = getattr(_TailCache, name)

        def wrapped(self, arg):
            counts[name] += 1
            return real(self, arg)

        return wrapped

    for name in counts:
        monkeypatch.setattr(_TailCache, name, counting(name))
    sol = solve(p)
    tail = sol._tail
    grid = default_t_grid(sol, 4096)
    levels(sol, grid)  # builds the tables; each build reads its anchor once more
    counts.update(dict.fromkeys(counts, 0))
    levels(sol, grid)
    swept = dict(counts)
    boundary = sol.capacity is not None
    targets = [2.0 / (2.0 * t + sol.capacity) if boundary else 1.0 / t for t in grid]
    intervals = {tail.bracket(target)[0] for target in targets[boundary:]}
    assert swept["bracket"] == len(intervals) and 11 <= len(intervals) <= 13, p.label
    assert swept["anchor_value"] <= 60, p.label
    counts.update(dict.fromkeys(counts, 0))
    for t in grid:
        level(sol, t)
    assert counts["bracket"] >= 4095, p.label


def _count_table_reads(monkeypatch, panels=None):
    """Count the table reads of the one Clenshaw kernel; append each panel read to ``panels``.

    Every table read calls the kernel, on a bound panel or a bisected one,
    and ``levels`` and ``volumes`` look it up at each call, so a patch made
    before the call counts every read.
    """
    calls = [0]

    def counting(panel, x):
        calls[0] += 1
        if panels is not None:
            panels.append(panel)
        return _clenshaw(panel, x)

    monkeypatch.setattr("curvlab.potential._clenshaw", counting)
    return calls


@pytest.mark.parametrize(
    ("p", "bound"),
    [(perturbed_schwarzschild(), 3.5), (schwarzschild(1.0), 2.0), (euclidean(), 2.0)],
    ids=["perturbed", "schwarzschild", "euclidean"],
)
def test_level_solve_reads_the_table_few_times(monkeypatch, p, bound):
    # 1/T is linear in x for T = 1/(x + a), so Newton on 1/T from its linear
    # start needs one or two reads there.  Newton on T from a start linear
    # in T read about 5.9 times per level on all three.  A level that lands
    # on an anchor (the boundary, and t = 1/2 on Euclidean space, where
    # T(1/2) = 2 exactly) needs no read; every other one reads at least once.
    calls = _count_table_reads(monkeypatch)
    sol = solve(p)
    grid = default_t_grid(sol, 256)
    reads = []
    for t in grid:
        before = calls[0]
        s = level(sol, t).s
        reads.append((s, calls[0] - before))
    anchors = {sol._tail.anchor_x(k) for k in sol._tail._anchors}
    solved = [n for s, n in reads if s not in anchors]
    assert len(solved) >= len(grid) - 1 and min(solved) >= 1
    assert sum(n for _, n in reads) / len(grid) <= bound


@pytest.mark.parametrize(
    ("p", "max_ulp", "mean_ulp"),
    [(euclidean(), 40, 3.190673828125), (schwarzschild(1.0), 37, 3.619140625), (schwarzschild(1.7), 22, 3.102294921875)],
    ids=["euclidean", "schwarzschild-1", "schwarzschild-1.7"],
)
def test_level_solve_closed_form(p, max_ulp, mean_ulp):
    # T = 1/(x + a) puts the level t at s = t exactly.  The bounds are the
    # distances of Newton on T from a start linear in T, in ulps of t.
    sol = solve(p)
    grid = default_t_grid(sol, 4096)
    d = [abs(level(sol, t).s - t) / math.ulp(t) for t in grid]
    assert max(d) <= max_ulp
    assert sum(d) / len(d) <= mean_ulp


def test_level_solve_residual(tmp_path):
    # |T(s) - target| in ulps of the target: 2 on each profile for Newton on T
    # from a start linear in T.  Within an ulp or two of s, T repeats values
    # and skips ulps, so no solve hits every target.
    write_inputs(tmp_path)
    profiles = [
        perturbed_schwarzschild(),
        to_warped(mollified_schwarzschild(1.3, 0.7)),
        profile_from_csv(str(tmp_path / "rneg.csv"), False),
    ]
    for p in profiles:
        sol = solve(p)
        boundary = sol.capacity is not None
        worst = 0.0
        for t in default_t_grid(sol, 4096):
            target = 2.0 / (2.0 * t + sol.capacity) if boundary else 1.0 / t
            s = level(sol, t).s
            worst = max(worst, abs(sol._tail.value(s) - target) / math.ulp(target))
        assert worst <= 2.0, p.label


def test_table_reads_use_the_interval_holding_x(monkeypatch):
    # Beside every anchor the built-ins build, value(x) reads table k for
    # x_ref 2^k <= x < x_ref 2^(k+1), and the level solve's kernel reads of
    # that interval, on its bound panel and on the bisected one, return the
    # same bits.  floor(log2(x / x_ref)) alone put 38 of these 102 points,
    # all just below an anchor, into the table above at z < -1.
    builtins = [euclidean(), schwarzschild(1.0), perturbed_schwarzschild(), to_warped(mollified_schwarzschild(1.0, 1.0))]
    panels = []
    _count_table_reads(monkeypatch, panels)
    for p in builtins:
        sol = solve(p)
        tail = sol._tail
        for t in default_t_grid(sol, 256):
            level(sol, t)
        for k in sorted(tail._anchors):
            x_k = tail.anchor_x(k)
            for x in (math.nextafter(x_k, 0.0), x_k, math.nextafter(x_k, math.inf)):
                if x <= p.x_min:
                    continue
                j = k if x >= x_k else k - 1
                panels.clear()
                value = tail.value(x)
                if x == x_k:
                    assert panels == [], (p.label, k, x)
                else:
                    assert len(panels) == 1 and any(panels[0] is q for q in tail._table(j)[1]), (p.label, k, x)
                for read in bracket_reads(tail, j, x):
                    assert value.hex() == read.hex(), (p.label, k, x)


@pytest.mark.parametrize("x", [4e307, 1e300, 1e200, 1e103])
def test_volume_beyond_the_largest_float_is_out_of_range(x):
    # V ~ 4 pi x^3/3 passes the largest float near x = 5e102.  On a fresh
    # solution the anchors walk up to x's interval in a loop, where they
    # recursed once per interval (RecursionError from about 1e300), and stop
    # at the first that overflows (fsum overflowed at 1e200; 1e103 gave inf).
    with pytest.raises(OutOfRange, match=re.escape(f"x={x!r}")):
        volumes(solve(euclidean()), [x])


def test_volume_just_below_the_largest_float_keeps_its_value():
    assert volumes(solve(euclidean()), [3e102]) == [1.1309733552923253e308]


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1e308])
def test_coordinates_off_the_dyadic_intervals_are_out_of_range(schw1_sol, euclid_sol, x):
    # A NaN or infinite coordinate, or one whose dyadic interval has no
    # finite upper anchor, fails the interval guard of every read, alone
    # or after a read that keeps an interval.
    for sol in (schw1_sol, euclid_sol):
        with pytest.raises(OutOfRange):
            u_value(sol, x)
        with pytest.raises(OutOfRange):
            volumes(sol, [x])
        with pytest.raises(OutOfRange):
            volumes(sol, [2.0, x])


def _clenshaw_loop(panel, x):
    """The kernel as a loop over its coefficient pairs: the reference the written-out kernel keeps bit for bit."""
    start, half, before, c0, b1, pairs = panel
    z = (x - start) / half - 1.0
    z2 = 2.0 * z
    b2 = 0.0
    for c, d in pairs:
        b2 = z2 * b1 - b2 + c
        b1 = z2 * b2 - b1 + d
    return before + half * (z * b1 - b2 + c0)


def test_kernel_matches_the_paired_loop(tmp_path):
    # Every panel the built-ins, the R < 0 s,f CSV and the r,w CSV build for
    # a grid's levels and volumes, read at z = -1, at its right edge (z = +1)
    # and at random interior points.  Their tables split at breakpoints but
    # bisect no panel; the narrow bump's table of interval 1 bisects.
    write_inputs(tmp_path)
    profiles = [
        euclidean(),
        schwarzschild(1.0),
        perturbed_schwarzschild(),
        to_warped(mollified_schwarzschild(1.0, 1.0)),
        profile_from_csv(str(tmp_path / "rneg.csv"), False),
        profile_from_csv(str(tmp_path / "moll.csv"), True),
        _bump(3.0, 0.2),
    ]
    rng = random.Random(26)
    split = bisected = read = 0
    for p in profiles:
        sol = solve(p)
        volumes(sol, levels(sol, default_t_grid(sol, 64))[1])
        for cache in (sol._tail, sol._volume):
            for k, (_, panels, _) in cache._tables.items():
                lo, hi = cache.anchor_x(k), cache.anchor_x(k + 1)
                pieces = 1 + len({b for b in p.breakpoints if lo < b < hi})
                split += pieces > 1
                bisected += len(panels) > pieces
                for panel in panels:
                    start, half = panel[:2]
                    for x in [start, start + 2.0 * half, *(start + 2.0 * half * rng.random() for _ in range(6))]:
                        assert _clenshaw(panel, x).hex() == _clenshaw_loop(panel, x).hex(), (p.label, k, x)
                        read += 1
    assert split > 0 and bisected > 0 and read > 1000


@pytest.mark.parametrize("t", [1e30, 1e300])
def test_level_beyond_the_last_anchor_raises(t):
    sol = solve(perturbed_schwarzschild())
    with pytest.raises(NonConvergent):
        level(sol, t)


_READS = ("f", "ds_dx", "metric", "jet", "df_ds", "d2f_ds2")


def _counting_profile(p, counts, events=None):
    """A copy of p whose readers count their calls in counts; metric calls also append ("M", x) to events.

    The two readers, metric and jet, are wrapped through dataclasses.replace,
    and the four views are shadowed on the copy as instance attributes.
    """

    def counting(name, real):
        def wrapped(x):
            counts[name] += 1
            if events is not None and name == "metric":
                events.append(("M", x))
            return real(x)

        return wrapped

    copy = dataclasses.replace(p, **{name: counting(name, getattr(p, name)) for name in ("metric", "jet")})
    for name in ("f", "ds_dx", "df_ds", "d2f_ds2"):
        object.__setattr__(copy, name, counting(name, getattr(copy, name)))
    return copy


def test_level_integrals_reads_the_profile_once_per_value():
    # On warm tables the level solve reads (f, ds_dx) through metric once per
    # Newton step, three times here; the geometry pass then reads the jet
    # (f, df/ds, d2f/ds2) once and computes R from those values.
    counts = dict.fromkeys(_READS, 0)
    sol = solve(_counting_profile(perturbed_schwarzschild(), counts))
    functional_columns(sol, [5.0])  # builds the tables the level solve reads
    counts.update(dict.fromkeys(counts, 0))
    functional_columns(sol, [5.0])
    assert counts == {"f": 0, "ds_dx": 0, "metric": 3, "jet": 1, "df_ds": 0, "d2f_ds2": 0}


@pytest.mark.parametrize("make", [perturbed_schwarzschild, euclidean], ids=["boundary", "pole"])
def test_curvature_sampler_reads_one_jet_per_point(make):
    counts = dict.fromkeys(_READS, 0)
    p = _counting_profile(make(), counts)
    counts.update(dict.fromkeys(counts, 0))  # the copy's validation reads the profile too
    sample_scalar_curvature_sign(p, n=50)
    assert counts == {"f": 0, "ds_dx": 0, "metric": 0, "jet": 50, "df_ds": 0, "d2f_ds2": 0}


def test_level_sweep_reads_metric_once_per_newton_step(monkeypatch):
    # On warm tables a Newton step reads T at x, through the table kernel or,
    # at a bracket end, as its anchor value, and then (f, ds_dx) at that x
    # through one metric call; f and ds_dx are never called.  A level may
    # end with one more kernel read in the stop band, which takes no step.
    counts = dict.fromkeys(_READS, 0)
    events = []
    sol = solve(_counting_profile(perturbed_schwarzschild(), counts, events))
    grid = default_t_grid(sol, 4096)
    levels(sol, grid)  # builds the tables
    real = _clenshaw

    def logging(panel, x):
        events.append(("T", x))
        return real(panel, x)

    monkeypatch.setattr("curvlab.potential._clenshaw", logging)
    counts.update(dict.fromkeys(counts, 0))
    events.clear()
    levels(sol, grid)
    anchors = {sol._tail.anchor_x(k) for k in sol._tail._anchors}
    steps = [i for i, (kind, _) in enumerate(events) if kind == "M"]
    assert counts == {"f": 0, "ds_dx": 0, "metric": len(steps), "jet": 0, "df_ds": 0, "d2f_ds2": 0}
    assert len(steps) >= len(grid) - 1  # every level but the boundary's takes a step
    for i in steps:
        x = events[i][1]
        assert events[i - 1] == ("T", x) or x in anchors, i
    stop_band = [i for i, (kind, x) in enumerate(events) if kind == "T" and events[i + 1 : i + 2] != [("M", x)]]
    assert len(stop_band) <= len(grid)


@pytest.mark.parametrize(("which", "k"), [("_tail", 12), ("_volume", 3)])
def test_tables_read_metric_once_per_node(monkeypatch, which, k):
    # Building a table reads (f, ds_dx) through one metric call at each
    # Chebyshev node of each panel it tries, and f and ds_dx never.  The
    # solve already built the tail tables below _FAR_K = 12.
    counts = dict.fromkeys(_READS, 0)
    tables = getattr(solve(_counting_profile(perturbed_schwarzschild(), counts)), which)
    tables._scale(k, 0.0)  # the anchors table k is measured against
    nodes = [0]
    real = _DyadicTables._chebyshev

    def counting(self, lo, hi):
        nodes[0] += _CHEB_N
        return real(self, lo, hi)

    monkeypatch.setattr(_DyadicTables, "_chebyshev", counting)
    counts.update(dict.fromkeys(counts, 0))
    tables._table(k)
    assert nodes[0] >= _CHEB_N
    assert counts == {"f": 0, "ds_dx": 0, "metric": nodes[0], "jet": 0, "df_ds": 0, "d2f_ds2": 0}


def _compensated_sum(iterable, /, start=0, _sum=sum):
    """sum() as Python 3.12 and later form it over floats: Neumaier-compensated."""
    items = list(iterable)
    if not all(type(v) is float for v in items) or type(start) not in (int, float):
        return _sum(items, start)
    total, comp = float(start), 0.0
    for v in items:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_tables_have_the_same_bits_whatever_sum_compensates(monkeypatch):
    # The tables sum left to right from 0.0 themselves, so a compensated
    # builtin sum (Python 3.12 on) leaves every table, and the capacity, as is.
    import builtins

    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert repr(solve(perturbed_schwarzschild()).capacity) == "1.1184051137993019"
