"""Property-based checks of the numerics kernel, the level machinery and
the algebraic identities of the functionals."""

import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvlab.errors import OutOfRange
from curvlab.functionals import _functional_columns
from curvlab.numerics import Tolerance, find_root, integrate
from curvlab.potential import (
    LevelSetSample,
    default_t_grid,
    levels,
    solve,
    t_of_level,
    u_value,
    volumes,
)
from curvlab.profile import _warped_scalar_curvature, mollified_schwarzschild, perturbed_schwarzschild, to_warped

from differences import differentiate
from frozen_outputs import rneg_profile
from one_level import level
from tail_reads import bracket_reads

_EPS = 2.220446049250313e-16

coeffs = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=5)


def _smooth(cs):
    def f(x):
        return sum(c * x**k for k, c in enumerate(cs)) + 0.5 * math.sin(x)

    return f


@given(cs=coeffs, a=st.floats(-4.0, 0.0), gap1=st.floats(0.3, 3.0), gap2=st.floats(0.3, 3.0))
@settings(max_examples=60, deadline=None)
def test_integrate_additive(cs, a, gap1, gap2):
    f = _smooth(cs)
    c = a + gap1
    b = c + gap2
    left = integrate(f, a, c)
    right = integrate(f, c, b)
    whole = integrate(f, a, b)
    budget = left.error_estimate + right.error_estimate + whole.error_estimate
    assert abs(left.value + right.value - whole.value) <= budget + 1e-12 * (1 + abs(whole.value))


@given(cs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4), half=st.floats(0.1, 5.0))
@settings(max_examples=60, deadline=None)
def test_integrate_odd_function_vanishes(cs, half):
    def f(x):
        return sum(c * x ** (2 * k + 1) for k, c in enumerate(cs)) + math.sin(x)

    res = integrate(f, -half, half)
    assert abs(res.value) <= max(res.error_estimate, 1e-11)


@given(
    slope=st.floats(0.1, 10.0),
    cubic=st.floats(0.0, 10.0),
    root=st.floats(-5.0, 5.0),
    span=st.floats(0.5, 4.0),
)
@settings(max_examples=80, deadline=None)
def test_find_root_monotone(slope, cubic, root, span):
    f = lambda x: cubic * (x - root) ** 3 + slope * (x - root)
    x = find_root(f, root - span, root + 1.3 * span, Tolerance(rel=1e-15, abs=1e-9))
    assert abs(f(x)) <= 1e-9


@given(
    cs=st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5),
    t=st.floats(-3.0, 3.0),
)
@settings(max_examples=80, deadline=None)
def test_differentiate_exact_on_quartics(cs, t):
    poly = np.polynomial.Polynomial(cs)
    exact = poly.deriv()(t)
    h = 1e-4 * max(1.0, abs(t))
    got = differentiate(lambda x: float(poly(x)), t)
    # Exact up to rounding: one Richardson step kills every truncation term
    # of a degree-4 polynomial.  The rounding scale is the coefficient
    # magnitude (terms can be large even where the polynomial vanishes).
    term_mag = sum(abs(c) * max(1.0, abs(t) + h) ** k for k, c in enumerate(cs))
    bound = 10.0 * _EPS * (term_mag / h + abs(exact) + 1.0)
    assert abs(got - exact) <= bound


@given(t=st.floats(0.51, 990.0))
@settings(max_examples=40, deadline=None)
def test_level_round_trip(schw1_sol, t):
    lp = level(schw1_sol, t)
    back = t_of_level(schw1_sol, u_value(schw1_sol, lp.s))
    assert back == pytest.approx(t, rel=1e-10)


@given(t1=st.floats(0.5, 900.0), t2=st.floats(0.5, 900.0))
@settings(max_examples=40, deadline=None)
def test_level_map_monotone(schw1_sol, t1, t2):
    if abs(t1 - t2) < 1e-9:
        return
    lo, hi = sorted((t1, t2))
    assert level(schw1_sol, lo).s <= level(schw1_sol, hi).s


_models = st.one_of(
    st.tuples(st.just("perturbed"), st.floats(0.5, 2.0), st.floats(0.1, 0.5), st.floats(0.5, 2.0)),
    st.tuples(st.just("mollified"), st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    st.just(("rneg",)),
)


@pytest.fixture(scope="module")
def rneg(tmp_path_factory):
    return rneg_profile(tmp_path_factory.mktemp("rneg"))


def _model_profile(rneg, model):
    """The profile a draw of _models names: perturbed and rneg.csv have a boundary, mollified has none."""
    if model[0] == "perturbed":
        return perturbed_schwarzschild(*model[1:])
    if model[0] == "mollified":
        return to_warped(mollified_schwarzschild(*model[1:]))
    return rneg


def _ordered(xs, order, data):
    if order == "increasing":
        return sorted(xs)
    if order == "decreasing":
        return sorted(xs, reverse=True)
    if order == "shuffled":
        return data.draw(st.permutations(xs))
    return data.draw(st.lists(st.sampled_from(xs), min_size=1, max_size=2 * len(xs)))


@given(
    model=_models,
    n=st.integers(1, 24),
    t_min_factor=st.one_of(st.just(1.0), st.floats(1.0, 4.0)),
    t_max_factor=st.floats(4.0, 1000.0),
    order=st.sampled_from(["increasing", "decreasing", "shuffled", "repeated"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_levels_match_single_level_solves(rneg, model, n, t_min_factor, t_max_factor, order, data):
    # levels keeps its bracket while the next target stays inside it; each
    # level must still carry the bits of a solve of its t alone on a fresh
    # solution, in any order.  t_min_factor = 1 starts the grid at the
    # boundary level C/2 on the boundary profiles.
    p = _model_profile(rneg, model)
    ts = _ordered(default_t_grid(solve(p), n, t_min_factor, t_max_factor), order, data)
    sol = solve(p)
    swept_ts, ss, us = levels(sol, ts)
    assert swept_ts == ts
    for t, s, u in zip(swept_ts, ss, us):
        alone = level(solve(p), t)
        assert (s.hex(), u.hex()) == (alone.s.hex(), alone.u.hex()), (p.label, t)
    # A NaN t, or one below C/2 (at or below 0, or with an infinite 1/t,
    # without a boundary), in the middle of a sweep fails its range guard,
    # not the solve.
    bad_ts = [math.nan, 0.25 * sol.capacity] if sol.capacity is not None else [math.nan, 0.0, 1e-310, 5e-324]
    bad = data.draw(st.sampled_from(bad_ts))
    at = data.draw(st.integers(0, len(ts)))
    with pytest.raises(OutOfRange):
        levels(sol, [*ts[:at], bad, *ts[at:]])


@given(
    model=_models,
    order=st.sampled_from(["increasing", "decreasing", "shuffled", "repeated"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_volumes_match_single_reads(rneg, model, order, data):
    # volumes keeps its interval, anchor and table reader while the next x
    # stays inside them; each volume must still carry the bits of a read of
    # its x alone on a fresh solution, in any order.  The points include
    # x_min, the anchors (read without a table) and their neighbours, the
    # intervals below x_ref = 1 on mollified and rneg.csv, and rneg.csv's
    # tables that its knots split into several panels.
    p = _model_profile(rneg, model)
    vol = solve(p)._volume
    k_min = -6 if vol._k_floor is None else vol._k_floor
    anchors = [vol.anchor_x(k) for k in range(k_min, 12)]
    near = st.sampled_from(anchors).flatmap(
        lambda x: st.sampled_from([x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)])
    )
    inside = st.floats(math.log(anchors[0]), math.log(anchors[-1])).map(math.exp)
    point = st.one_of(st.just(p.x_min), near, inside).filter(lambda x: x >= p.x_min)
    xs = _ordered(data.draw(st.lists(point, min_size=1, max_size=24)), order, data)
    swept = volumes(solve(p), xs)
    assert len(swept) == len(xs)
    for x, v in zip(xs, swept):
        alone = volumes(solve(p), [x])[0]
        assert v.hex() == alone.hex(), (p.label, x)


@given(model=_models, k=st.integers(-6, 11), fractions=st.lists(st.floats(0.0, 1.0), max_size=12))
@example(model=("perturbed", 1.0, 0.3, 1.0), k=3, fractions=[0.5])  # a one-panel table: the bound panel
@example(model=("rneg",), k=5, fractions=[0.5])  # six panels between the knots: the bisect
@settings(max_examples=60, deadline=None)
def test_tail_reader_matches_value(rneg, model, k, fractions):
    # The level solve reads a table that holds one panel through its bound
    # panel and bisects a table of several; both kernel reads return the
    # bits of value(x) on a fresh solution over the whole bracket, ends
    # included.
    p = _model_profile(rneg, model)
    tail = solve(p)._tail
    if tail._k_floor is not None:
        k = max(k, tail._k_floor)
    lo, hi = tail.anchor_x(k), tail.anchor_x(k + 1)
    xs = [lo, math.nextafter(lo, hi), math.nextafter(hi, lo), hi] + [lo + f * (hi - lo) for f in fractions]
    fresh = solve(p)._tail
    for x in xs:
        expected = fresh.value(x).hex()
        for read in bracket_reads(tail, k, x):
            assert read.hex() == expected, (p.label, k, x)


@given(
    f=st.floats(0.01, 100.0),
    fs=st.floats(-10.0, 10.0),
    fss=st.floats(-10.0, 10.0),
    cap=st.floats(0.01, 100.0),
    t_over_cap=st.floats(0.5, 1000.0),
)
@settings(max_examples=300, deadline=None)
def test_functional_row_identities(f, fs, fss, cap, t_over_cap):
    # Any round level set of a boundary solution, built as the geometry pass
    # builds it: |grad u| = C/f^2 and u = (2t - C)/(2t + C).  Each identity
    # is algebra on the functionals of that one level, a column of one, so
    # its residual is rounding alone, measured against the magnitudes of the
    # terms that cancel.
    t = cap * t_over_cap
    area = 4.0 * math.pi * f * f
    g = cap / (f * f)
    mean_h = 2.0 * fs / f
    u = (2.0 * t - cap) / (2.0 * t + cap)
    ls = LevelSetSample(
        t=t,
        s=0.0,
        u=u,
        area=area,
        grad=g,
        mean_curvature=mean_h,
        scalar_R=_warped_scalar_curvature(f, fs, fss),
        int_grad_sq=area * g * g,
        int_grad_H=area * g * mean_h,
    )
    columns = _functional_columns(cap, LevelSetSample(*([value] for value in ls)))
    row = SimpleNamespace(**{name: column[0] for name, column in columns._asdict().items()})
    four_pi = 4.0 * math.pi
    p = 1.0 + cap / (2.0 * t)
    # The I2 terms of t A1' and F/t carry 1 - C/2t and 1 - 3C/2t, which are
    # cancellations themselves one ulp above t = C/2: scale them by 1 + C/2t
    # (= P) and 1 + 3C/2t.
    i2_term = t * t / (cap * cap) * p ** 3 * ls.int_grad_sq
    i2_m1 = p * i2_term
    i2_m3 = (1.0 + 3.0 * cap / (2.0 * t)) * i2_term
    ih_term = abs(t / cap * p * p * ls.int_grad_H)

    # A1 = 4 pi + (4t/C^2) G
    g_term = 4.0 * t / (cap * cap) * row.G
    assert abs(row.A1 - four_pi - g_term) <= 1e-10 * (abs(row.A1) + four_pi + abs(g_term))
    # F = (4t^3/C^2) G'
    gp_term = 4.0 * t ** 3 / (cap * cap) * row.Gprime
    assert abs(row.F - gp_term) <= 1e-9 * t * (four_pi + i2_m3 + ih_term)
    # t A1' - A1 + 4 pi = F/t
    lhs = t * row.A1prime - row.A1 + four_pi
    assert abs(lhs - row.F / t) <= 1e-9 * (2.0 * i2_m1 + abs(row.A1) + 2.0 * four_pi + i2_m3 + 2.0 * ih_term)
    # Cauchy-Schwarz holds with equality: (t A1')^2 = (2/3) A1 B1.  Both
    # sides square q, so a tiny f_s (q ~ 1e-162) underflows them into
    # subnormals, whose rounding is absolute: the smallest normal float.
    cs_scale = (2.0 * i2_m1 + ih_term) ** 2 + row.A1 * area * (abs(4.0 * u / (1.0 - u * u) * g) + abs(mean_h)) ** 2
    assert abs((t * row.A1prime) ** 2 - 2.0 / 3.0 * row.A1 * row.B1) <= 1e-9 * cs_scale + sys.float_info.min
