import codecs
import dataclasses
import inspect
import math
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curvlab.errors import DomainEdge, ProfileDataError
from curvlab.profile import (
    ConformalProfile,
    MetricProfile,
    ProfileKind,
    euclidean,
    euclidean_conformal,
    mollified_schwarzschild,
    perturbed_schwarzschild,
    profile_from_csv,
    sample_scalar_curvature_sign,
    scalar_curvature,
    schwarzschild,
    sphere_geometry,
    to_warped,
)

FOUR_PI = 4.0 * math.pi


def conformal_scalar_curvature(c, r):
    """Scalar curvature of w^4 g_eucl: R = -8 w^-5 Delta_eucl w."""
    w, dw, d2w = c.jet(r)
    # At a smooth centre w'' + 2 w'/r tends to 3 w''.
    lap = 3.0 * d2w if r == 0.0 else d2w + 2.0 * dw / r
    return -8.0 * w ** -5 * lap


class TestEuclidean:
    def test_sphere_area(self):
        area, _ = sphere_geometry(euclidean(), 2.0)
        assert area == pytest.approx(16.0 * math.pi, rel=1e-14)

    def test_unit_sphere_mean_curvature(self):
        _, h = sphere_geometry(euclidean(), 1.0)
        assert h == pytest.approx(2.0, abs=1e-14)

    def test_sphere_at_three(self):
        area, h = sphere_geometry(euclidean(), 3.0)
        assert area == pytest.approx(36.0 * math.pi, rel=1e-14)
        assert h == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_scalar_flat(self):
        for s in (0.3, 1.0, 7.5, 120.0):
            assert scalar_curvature(euclidean(), s) == 0.0


class TestSchwarzschild:
    def test_boundary_area_is_16_pi_m_sq(self, golden):
        p = schwarzschild(1.0)
        area, h = sphere_geometry(p, p.x_min)
        assert area == pytest.approx(golden["profile.schw1_boundary_area"], rel=1e-14)
        assert area == pytest.approx(16.0 * math.pi, rel=1e-14)
        assert h == 0.0  # minimal boundary, exact in closed form

    def test_minimal_boundary_exact_for_many_masses(self):
        for m in (0.5, 1.0, 2.0, 5.0):
            p = schwarzschild(m)
            assert p.df_ds(p.x_min) == 0.0

    def test_scalar_flat(self, golden):
        p = schwarzschild(1.0)
        assert scalar_curvature(p, 2.0) == pytest.approx(golden["profile.schw1_R_at_2"], abs=1e-12)
        assert scalar_curvature(p, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_sphere_at_unit_radius(self, golden):
        p = schwarzschild(1.0)
        area, h = sphere_geometry(p, 1.0)
        assert p.f(1.0) == pytest.approx(golden["profile.schw1_f_at_1"], rel=1e-15)
        assert area == pytest.approx(golden["profile.schw1_area_at_1"], rel=1e-14)
        assert h == pytest.approx(golden["profile.schw1_H_at_1"], rel=1e-13)

    def test_needs_positive_mass(self):
        with pytest.raises(ProfileDataError):
            schwarzschild(-1.0)

    def test_warped_only(self):
        # The closed-form warp is the model, and a warped profile keeps no
        # link to a conformal twin: mass reads a ConformalProfile it is given.
        assert not hasattr(schwarzschild(1.0), "conformal")


class TestMollified:
    def test_conformal_factor_glue(self, golden):
        c = mollified_schwarzschild(1.0, 1.0)
        assert c.w(1.0) == pytest.approx(golden["profile.moll11_w_at_1_interior"], rel=1e-15)
        interior_limit = c.w(1.0 - 1e-12)
        assert interior_limit == pytest.approx(golden["profile.moll11_w_at_1_exterior"], rel=1e-9)
        assert c.w(0.0) == pytest.approx(golden["profile.moll11_w_at_0"], rel=1e-15)

    def test_glue_is_c1(self):
        c = mollified_schwarzschild(1.0, 1.0)
        assert c.jet(1.0 - 1e-12)[1] == pytest.approx(c.jet(1.0 + 1e-12)[1], abs=1e-10)

    def test_interior_laplacian_constant(self, golden):
        c = mollified_schwarzschild(1.0, 1.0)
        for r in (0.0, 0.3, 0.9):
            _, dw, d2w = c.jet(r)
            lap = 3.0 * d2w if r == 0.0 else d2w + 2.0 * dw / r
            assert lap == pytest.approx(golden["profile.moll11_lap_interior"], rel=1e-13)

    def test_scalar_curvature_interior(self, golden):
        c = mollified_schwarzschild(1.0, 1.0)
        assert conformal_scalar_curvature(c, 0.5) == pytest.approx(
            golden["profile.moll11_R_at_half"], rel=1e-13
        )

    def test_scalar_curvature_harmonic_exterior(self):
        c = mollified_schwarzschild(1.0, 1.0)
        for r in (1.0, 2.0, 40.0):
            assert conformal_scalar_curvature(c, r) == pytest.approx(0.0, abs=1e-14)


class TestToWarped:
    def test_euclidean_conformal_gives_flat_warp(self):
        p = to_warped(euclidean_conformal())
        assert p.kind is ProfileKind.BOUNDARYLESS
        for s in (0.5, 2.0, 9.0):
            assert p.f(s) == pytest.approx(s, rel=1e-15)

    def test_mollified_warp_value(self, golden):
        p = to_warped(mollified_schwarzschild(1.0, 1.0))
        assert p.f(2.0) == pytest.approx(golden["profile.moll11_f_at_2"], rel=1e-15)

    def test_exterior_conformal_reproduces_schwarzschild_warp(self):
        m = 1.0
        a = 0.5 * m
        conf = ConformalProfile(
            label="schw exterior",
            w=lambda r: 1.0 + a / r,
            jet=lambda r: (1.0 + a / r, -a / (r * r), 2.0 * a / r**3),
            r_min=a,
            mass_tag=m,
            harmonic_radius=a,
        )
        generic = to_warped(conf)
        closed = schwarzschild(m)
        for r in np.geomspace(0.5, 100.0, 17):
            r = float(r)
            assert generic.f(r) == pytest.approx(closed.f(r), rel=1e-13)
            assert generic.df_ds(r) == pytest.approx(closed.df_ds(r), abs=1e-13)
            assert generic.d2f_ds2(r) == pytest.approx(closed.d2f_ds2(r), abs=1e-13)

    def test_warped_vs_conformal_curvature(self, golden):
        # The two scalar-curvature routes must agree on sample grids.
        for conf in (mollified_schwarzschild(1.0, 1.0), mollified_schwarzschild(2.0, 0.7)):
            p = to_warped(conf)
            for r in np.geomspace(0.05, 50.0, 40):
                r = float(r)
                r_conf = conformal_scalar_curvature(conf, r)
                r_warp = scalar_curvature(p, r)
                assert r_warp == pytest.approx(r_conf, rel=1e-8, abs=1e-10)
        p = to_warped(mollified_schwarzschild(1.0, 1.0))
        assert scalar_curvature(p, 0.5) == pytest.approx(
            golden["profile.moll11_R_warped_at_half"], rel=1e-12
        )


class TestAsymptoticFlatness:
    # One rule: |f_s - 1| <= 0.05 at x = (1e4, 1e5, 1e6) * x_scale.  to_warped
    # declares an end flat by it and MetricProfile checks a declaration by it.

    @given(e=st.floats(-3.0, 4.0), r0=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_to_warped_declares_by_the_checked_rule(self, e, r0):
        p = to_warped(mollified_schwarzschild(10.0**e, r0))
        flat = all(abs(p.df_ds(x) - 1.0) <= 0.05 for x in (1e4, 1e5, 1e6))
        assert p.asymptotically_flat == flat

    @pytest.mark.parametrize("m", [1e-6, 1.0, 99.0, 1e6])
    def test_schwarzschild_is_flat(self, m):
        assert schwarzschild(m).asymptotically_flat

    @pytest.mark.parametrize(
        "jet",
        [
            lambda s: (0.8 * s + math.sqrt(s), 0.8 + 0.5 / math.sqrt(s), -0.25 * s**-1.5),
            lambda s: (s, 1.0 if s < 1e5 else math.nan, 0.0),
        ],
        ids=["cone", "nan"],
    )
    def test_declared_flat_end_that_is_not_is_refused(self, jet):
        # f_s -> 0.8 is a cone, not a flat end; a sample that is not a number
        # is no evidence of one.
        with pytest.raises(ProfileDataError, match="declared asymptotically flat"):
            MetricProfile(
                label="cone",
                kind=ProfileKind.WITH_BOUNDARY,
                x_min=1.0,
                metric=lambda s: (jet(s)[0], 1.0),
                jet=jet,
                asymptotically_flat=True,
            )


class TestPerturbed:
    def test_minimal_boundary(self):
        p = perturbed_schwarzschild()
        _, h = sphere_geometry(p, p.x_min)
        assert abs(h) <= 1e-12

    def test_positive_scalar_curvature(self):
        ok, _, worst = sample_scalar_curvature_sign(perturbed_schwarzschild(), n=400)
        assert ok
        assert worst >= -1e-10


class TestInvariants:
    @pytest.mark.parametrize(
        "maker",
        [
            euclidean,
            lambda: schwarzschild(1.0),
            lambda: schwarzschild(0.5),
            lambda: to_warped(mollified_schwarzschild(1.0, 1.0)),
            perturbed_schwarzschild,
        ],
    )
    def test_declared_nonnegative_R_holds_on_1000_point_grid(self, maker):
        p = maker()
        assert p.assume_nonnegative_R
        ok, _, worst = sample_scalar_curvature_sign(p, n=1000)
        assert ok, f"worst sampled R = {worst}"

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: schwarzschild(1e-3),
            lambda: schwarzschild(1e-4),
            lambda: schwarzschild(1e-6),
            lambda: to_warped(mollified_schwarzschild(1e-4, 1e-4)),
        ],
        ids=["schwarzschild-1e-3", "schwarzschild-1e-4", "schwarzschild-1e-6", "mollified-1e-4"],
    )
    def test_rounding_noise_of_small_scale_R_is_not_a_violation(self, maker):
        # The sampled R of these R >= 0 profiles dips to -2.3e-10, -1.5e-8
        # and -6.1e-5: rounding in 2 (1 - f_s^2)/f^2, which grows like eps/f^2.
        ok, _, worst = sample_scalar_curvature_sign(maker(), n=1000)
        assert ok, f"worst sampled R = {worst}"

    def test_negative_R_csv_keeps_its_worst_sample(self, tmp_path):
        from frozen_outputs import rneg_profile

        ok, _, worst = sample_scalar_curvature_sign(rneg_profile(tmp_path))
        assert not ok
        assert worst == pytest.approx(-0.3035, abs=5e-5)

    def test_area_strictly_increasing(self):
        p = schwarzschild(1.0)
        xs = np.geomspace(p.x_min * (1 + 1e-9), 100.0, 50)
        areas = [sphere_geometry(p, float(x))[0] for x in xs]
        assert all(b > a for a, b in zip(areas, areas[1:]))

    def test_parabolic_profile_rejected(self):
        with pytest.raises(ProfileDataError):
            MetricProfile(
                label="parabolic",
                kind=ProfileKind.WITH_BOUNDARY,
                x_min=0.0,
                metric=lambda s: (math.sqrt(s + 1.0), 1.0),
                jet=lambda s: (math.sqrt(s + 1.0), 0.5 / math.sqrt(s + 1.0), -0.25 * (s + 1.0) ** -1.5),
            )

    def test_boundaryless_needs_pole(self):
        with pytest.raises(ProfileDataError):
            MetricProfile(
                label="bad pole",
                kind=ProfileKind.BOUNDARYLESS,
                x_min=0.0,
                metric=lambda s: (s + 1.0, 1.0),
                jet=lambda s: (s + 1.0, 1.0, 0.0),
            )

    def test_scalar_curvature_domain_edges(self):
        with pytest.raises(DomainEdge):
            scalar_curvature(schwarzschild(1.0), 0.2)
        with pytest.raises(DomainEdge):
            scalar_curvature(euclidean(), 0.0)


class TestCsvIngestion:
    @staticmethod
    def _write(path, header, rows):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(f"{row[0]!r},{row[1]!r}\n")

    def test_conformal_roundtrip(self, tmp_path):
        c = mollified_schwarzschild(1.0, 1.0)
        rs = np.linspace(0.01, 40.0, 800)
        self._write(tmp_path / "moll.csv", "r,w", [(float(r), c.w(float(r))) for r in rs])
        p = profile_from_csv(str(tmp_path / "moll.csv"), assume_nonnegative_R=True)
        exact = to_warped(c)
        for r in (0.5, 2.0, 10.0):
            assert p.f(r) == pytest.approx(exact.f(r), rel=1e-6)

    def test_warped_roundtrip(self, tmp_path):
        ss = np.linspace(0.5, 60.0, 400)
        self._write(tmp_path / "warp.csv", "s,f", [(float(s), float(s) + 1.0) for s in ss])
        p = profile_from_csv(str(tmp_path / "warp.csv"), assume_nonnegative_R=True)
        assert p.kind is ProfileKind.WITH_BOUNDARY
        assert p.f(10.0) == pytest.approx(11.0, rel=1e-9)

    def test_non_monotone_rejected(self, tmp_path):
        rows = [(1.0, 2.0), (0.5, 3.0)] + [(float(i), float(i + 2)) for i in range(2, 10)]
        self._write(tmp_path / "bad.csv", "s,f", rows)
        with pytest.raises(ProfileDataError):
            profile_from_csv(str(tmp_path / "bad.csv"), assume_nonnegative_R=True)

    def test_bad_header_rejected(self, tmp_path):
        self._write(tmp_path / "bad.csv", "x,y", [(float(i), float(i + 1)) for i in range(10)])
        with pytest.raises(ProfileDataError):
            profile_from_csv(str(tmp_path / "bad.csv"), assume_nonnegative_R=True)

    def test_too_few_rows_rejected(self, tmp_path):
        self._write(tmp_path / "tiny.csv", "s,f", [(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ProfileDataError):
            profile_from_csv(str(tmp_path / "tiny.csv"), assume_nonnegative_R=True)

    def test_pole_data_gives_boundaryless_profile(self, tmp_path):
        # Tabulated flat space from the pole must come out boundaryless and
        # still hit the Euclidean equality case through the spline path.
        from curvlab.potential import solve, u_value
        from curvlab.verify import CheckStatus, run_battery

        ss = np.linspace(0.0, 80.0, 900)
        self._write(tmp_path / "flat.csv", "s,f", [(float(s), float(s)) for s in ss])
        p = profile_from_csv(str(tmp_path / "flat.csv"), assume_nonnegative_R=True)
        assert p.kind is ProfileKind.BOUNDARYLESS
        sol = solve(p)
        assert u_value(sol, 2.0) == pytest.approx(0.5, abs=1e-9)
        report = run_battery(sol)
        assert report.check("area_comparison").status is CheckStatus.EQUALITY
        assert not report.blocking()

    @pytest.mark.parametrize("header", ["s,f", "r,w"])
    def test_byte_order_mark_is_skipped(self, tmp_path, header):
        # Spreadsheet tools write a UTF-8 byte-order mark before the header.
        rows = [(0.5 + k, 1.5 + k + 0.1 * math.sin(k)) for k in range(12)]
        if header == "r,w":
            rows = [(r, 1.0 + 0.5 / r) for r, _ in rows]
        self._write(tmp_path / "plain.csv", header, rows)
        (tmp_path / "bom.csv").write_bytes(codecs.BOM_UTF8 + (tmp_path / "plain.csv").read_bytes())
        plain, bom = (profile_from_csv(str(tmp_path / n), assume_nonnegative_R=True) for n in ("plain.csv", "bom.csv"))
        for x in (0.5, 1.7, 6.0, 11.5, 20.0):
            assert (bom.f(x), bom.df_ds(x), bom.d2f_ds2(x)) == (plain.f(x), plain.df_ds(x), plain.d2f_ds2(x))

    @given(
        rows=st.integers(8, 2000),
        seed=st.integers(0, 2**32 - 1),
        decades=st.floats(0.0, 4.0),
        header=st.sampled_from(["s,f", "r,w"]),
    )
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_spline_evaluation_bitwise_equals_scipy(self, tmp_path, rows, seed, decades, header):
        # The CSV spline is built and read without scipy; its coefficients and
        # values must be scipy's bit for bit, including the extrapolation just
        # below the first knot.  The spacings span `decades` orders of magnitude.
        from scipy.interpolate import CubicSpline

        from curvlab.profile import _spline, _spline_coefficients

        rng = random.Random(seed)
        xs = [rng.uniform(0.5, 2.0)]
        for _ in range(rows - 1):
            xs.append(xs[-1] + 30.0 / rows * 10.0 ** -rng.uniform(0.0, decades))
        amp, phase = rng.uniform(0.0, 0.05), rng.uniform(0.0, 2.0 * math.pi)
        if header == "s,f":
            ys = [1.0 + x + amp * math.sin(x + phase) for x in xs]
        else:
            ys = [1.0 + 0.5 / x + amp / (x + 1.0 + math.sin(phase)) for x in xs]
        path = tmp_path / f"{seed}.csv"
        self._write(path, header, zip(xs, ys))
        p = profile_from_csv(str(path), assume_nonnegative_R=True)

        spline = CubicSpline(xs, ys)
        pps = (spline, spline.derivative(1), spline.derivative(2))
        for got, pp in zip(_spline_coefficients(xs, ys), pps):
            assert np.array_equal(_bits(got), _bits(pp.c[::-1].T))

        points = xs + [0.5 * (a + b) for a, b in zip(xs, xs[1:])] + [rng.uniform(xs[0], xs[-1]) for _ in range(200)]
        points.append(xs[0] * (1.0 - 1e-12))
        # s,f splines the warp factor itself; r,w splines w and warps it, so
        # its spline is read here through the jet the CSV's w is built from.
        jet = p.jet if header == "s,f" else _spline(xs, ys)[1]
        jets = [jet(x) for x in points]
        for k, pp in enumerate(pps):
            assert np.array_equal(_bits([j[k] for j in jets]), _bits(pp(points)))
        assert np.array_equal(_bits([p.jet(x)[0] for x in points]), _bits([p.f(x) for x in points]))


def _bits(values):
    """The IEEE bit patterns of an array of floats, so that -0.0 != 0.0."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize(
    "make",
    [
        euclidean,
        lambda: schwarzschild(1.3),
        perturbed_schwarzschild,
        lambda: to_warped(mollified_schwarzschild(1.0, 1.0)),
    ],
    ids=["euclidean", "schwarzschild", "perturbed", "mollified"],
)
@given(e=st.floats(-6.0, 6.0))
@settings(max_examples=60, deadline=None)
def test_jet_value_is_f_bitwise(make, e):
    # The jet's first component is the single-value f, bit for bit.
    p = make()
    x = p.x_min + 10.0**e * p.x_scale
    assert _bits(p.jet(x)[0]) == _bits(p.f(x))
    assert (p.df_ds(x), p.d2f_ds2(x)) == p.jet(x)[1:]


def _conformal_behind(build, monkeypatch):
    """The ConformalProfile that ``build()`` hands to ``to_warped``, which keeps no link to it."""
    import curvlab.profile

    caught = []

    def catch(c):
        caught.append(c)
        return to_warped(c)

    monkeypatch.setattr(curvlab.profile, "to_warped", catch)
    build()
    return caught[-1]


def _moll_csv_conformal(directory, monkeypatch):
    """The conformal profile of the frozen runs' moll.csv, whose last row is r = 10."""
    from frozen_outputs import write_inputs

    write_inputs(directory)
    path = str(directory / "moll.csv")
    return _conformal_behind(lambda: profile_from_csv(path, assume_nonnegative_R=True), monkeypatch)


@pytest.mark.parametrize(
    "make",
    [
        lambda *_: euclidean_conformal(),
        lambda *_: mollified_schwarzschild(1.0, 1.0),
        lambda _, monkeypatch: _conformal_behind(perturbed_schwarzschild, monkeypatch),
        _moll_csv_conformal,
    ],
    ids=["euclidean", "mollified", "perturbed", "r,w-csv"],
)
def test_conformal_jet_value_is_w_bitwise(tmp_path, monkeypatch, make):
    # The conformal jet's first component is the single-value w, bit for bit,
    # on both sides of each branch: the mollified glue at r0 = 1 and the
    # CSV's last row at r = 10, where the harmonic tail takes over.
    c = make(tmp_path, monkeypatch)
    rs = [c.r_min + 10.0**k for k in range(-6, 7)]
    rs += [math.nextafter(b, toward) for b in (1.0, 10.0) for toward in (0.0, math.inf)]
    for r in rs:
        assert _bits(c.jet(r)[0]) == _bits(c.w(r)), r


def _metric_profiles(directory):
    """(profile, points) of every profile constructor, with points beside each branch change.

    The points straddle the mollified glue at r0 = 1 and the last knot of
    each CSV (s = 60 on rneg.csv, r = 10 on moll.csv).  Two profiles are
    built here from plain lambdas, one with ds_dx = 1.
    """
    from frozen_outputs import write_inputs

    write_inputs(directory)
    plain = MetricProfile(
        label="plain",
        kind=ProfileKind.WITH_BOUNDARY,
        x_min=1.0,
        metric=lambda x: (x * x, 1.0 + 1.0 / x),
        jet=lambda x: (x * x, 2.0 * x, 2.0),
    )
    plain_arclength = MetricProfile(
        label="plain-arclength",
        kind=ProfileKind.WITH_BOUNDARY,
        x_min=0.5,
        metric=lambda s: (s * s + 1.0, 1.0),
        jet=lambda s: (s * s + 1.0, 2.0 * s, 2.0),
    )
    profiles = [
        euclidean(),
        schwarzschild(1.3),
        perturbed_schwarzschild(),
        to_warped(mollified_schwarzschild(1.0, 1.0)),
        to_warped(euclidean_conformal()),
        profile_from_csv(str(directory / "rneg.csv"), False),
        profile_from_csv(str(directory / "moll.csv"), True),
        plain,
        plain_arclength,
    ]
    edges = [math.nextafter(b, toward) for b in (1.0, 10.0, 60.0) for toward in (0.0, math.inf)]
    return [(p, [p.x_min + 10.0**k for k in range(-6, 7)] + [1.0, 10.0, 60.0] + edges) for p in profiles]


def test_metric_and_jet_agree_on_f_bitwise(tmp_path):
    # The two readers give f bit for bit, so the level solve and the tables
    # (which read metric) and R and H (which read jet) see one warp factor.
    for p, xs in _metric_profiles(tmp_path):
        for x in xs:
            assert _bits(p.metric(x)[0]) == _bits(p.jet(x)[0]), (p.label, x)


_VIEWS = ("f", "ds_dx", "df_ds", "d2f_ds2")


def test_views_are_methods_an_instance_attribute_shadows(tmp_path):
    # The four views are plain methods, so a wrapper set on one instance
    # with object.__setattr__ (as a call counter sets it on the frozen
    # dataclass) is what every later call reads; __slots__ or properties
    # would silently bypass such a wrapper.
    for name in _VIEWS:
        assert inspect.isfunction(vars(MetricProfile)[name]), name
    for p, _ in _metric_profiles(tmp_path):
        x = p.x_min + 1.0
        want = dict(zip(_VIEWS, (*p.metric(x), *p.jet(x)[1:])))
        for name in _VIEWS:
            real = getattr(p, name)
            assert real(x) == want[name], (p.label, name)
            object.__setattr__(p, name, lambda x, _real=real: ("wrapped", _real(x)))
            assert getattr(p, name)(x) == ("wrapped", want[name]), (p.label, name)


def _doubled(p):
    """The readers of p with f, f_s and f_ss doubled and ds_dx kept: four times the capacity."""
    metric, jet = p.metric, p.jet
    return (lambda x: (2.0 * metric(x)[0], metric(x)[1])), (lambda x: tuple(2.0 * v for v in jet(x)))


def test_a_copy_that_replaces_both_readers_solves_with_them():
    from curvlab.potential import solve

    p = schwarzschild(1.0)
    metric, jet = _doubled(p)
    doubled = dataclasses.replace(p, metric=metric, jet=jet, asymptotically_flat=False)
    assert doubled.f(1.0) == 4.5
    assert solve(doubled).capacity == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("which", ["metric", "jet"])
def test_a_copy_that_replaces_one_reader_is_refused(which):
    p = schwarzschild(1.0)
    doubled = dict(zip(("metric", "jet"), _doubled(p)))
    with pytest.raises(ProfileDataError, match="metric and jet disagree"):
        dataclasses.replace(p, asymptotically_flat=False, **{which: doubled[which]})


@pytest.mark.parametrize("view", ["f", "ds_dx"])
def test_a_view_is_not_a_field(view):
    with pytest.raises(TypeError):
        dataclasses.replace(schwarzschild(1.0), **{view: lambda x: 2.0})


def _budget_everywhere(p, n=1000):
    """sample_scalar_curvature_sign's result with the rounding budget worked out at every sample.

    The samples are the x the sampler reads its jet at, recorded by running it.
    """
    samples = []

    def recording(x):
        value = p.jet(x)
        samples.append((x, value))
        return value

    copy = dataclasses.replace(p, jet=recording)
    samples.clear()  # the copy's validation reads the jet too
    sample_scalar_curvature_sign(copy, n)
    eps8 = 8.0 * 2.220446049250313e-16
    worst_x, worst_r, ok = samples[0][0], math.inf, True
    for x, (f, fs, fss) in samples:
        r_val = 2.0 * (1.0 - fs * fs) / (f * f) - 4.0 * fss / f
        budget = eps8 * (2.0 * (1.0 + fs * fs) / (f * f) + 4.0 * abs(fss / f))
        ok = ok and r_val >= -1e-10 - budget
        if r_val < worst_r:
            worst_r, worst_x = r_val, x
    return ok, worst_x, worst_r


def _sampler_profiles(directory):
    """The four built-ins, six seeded R < 0 s,f CSVs, the narrow-dip CSV and two jets with inf and nan."""
    rng = random.Random(11)
    profiles = [euclidean(), schwarzschild(1.0), perturbed_schwarzschild(), to_warped(mollified_schwarzschild(1.0, 1.0))]
    for i in range(6):
        a, b, c = rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0), rng.uniform(0.2, 0.6)
        rows = rng.choice([10, 40, 200])
        ss = [60.0 * k / (rows - 1) for k in range(rows)]
        path = directory / f"rneg{i}.csv"
        path.write_text("s,f\n" + "".join(f"{s!r},{a + s * s / (b + c * s)!r}\n" for s in ss))
        profiles.append(profile_from_csv(str(path), False))
    # A 1201-row dip of width 0.01 at s = 3: R = -4.24 at s = 2.99 falls
    # between the samples, so the sampler reports R >= 0.
    ss = [12.0 * k / 1200 for k in range(1201)]
    fs = [0.5 * math.sqrt(s * s + 1.0) + 2e-4 * math.exp(-(((s - 3.0) / 0.01) ** 2)) for s in ss]
    path = directory / "dip.csv"
    path.write_text("s,f\n" + "".join(f"{s!r},{f!r}\n" for s, f in zip(ss, fs)))
    profiles.append(profile_from_csv(str(path), False))

    base = perturbed_schwarzschild()

    def broken(values):
        def jet(x):
            for lo, hi, value in values:
                if lo <= x < hi:
                    return value
            return base.jet(x)

        return dataclasses.replace(base, label="broken", jet=jet)

    inf, nan = math.inf, math.nan
    # f = inf gives R = 0, f_s = inf R = -inf with an infinite budget, which
    # passes, and f_ss = -inf R = inf; the second jet adds nan samples, which
    # fail.
    profiles.append(broken([(2.0, 3.0, (inf, 0.5, 0.0)), (3.0, 4.0, (1.0, inf, 0.0)), (4.0, 5.0, (1.0, 0.5, -inf))]))
    profiles.append(broken([(2.0, 3.0, (1.0, inf, 0.0)), (3.0, 4.0, (nan, 1.0, 0.0)), (5.0, 6.0, (1.0, 0.5, nan))]))
    return profiles


def test_sampler_works_out_the_budget_only_where_needed(tmp_path):
    # The sampler skips the rounding budget where R >= 0, which that
    # comparison passes for every budget; a loop that forms it at every
    # sample returns the same (ok, worst_x, worst_R).
    results = []
    for p in _sampler_profiles(tmp_path):
        got = sample_scalar_curvature_sign(p)
        want = _budget_everywhere(p)
        assert [_bits(v) for v in got] == [_bits(v) for v in want], p.label
        results.append(got[0])
    # Both verdicts occur: R >= 0 on the built-ins and the dip, R < 0 on
    # the seeded CSVs, and the nan jet fails.
    assert results == [True] * 4 + [False] * 6 + [True, True, False]


def _conformal(w, **fields):
    return ConformalProfile(label="refused", w=w, jet=lambda r: (w(r), 0.0, 0.0), **fields)


def _warped(kind, f, f_s, x_min=0.0):
    return MetricProfile(
        label="refused", kind=kind, x_min=x_min, metric=lambda s: (f(s), 1.0), jet=lambda s: (f(s), f_s, 0.0)
    )


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: _conformal(lambda r: 1.0, r_min=-1.0), "r_min must be non-negative"),
        # The first sample of w is at max(r_min, 1e-6).
        (lambda: _conformal(lambda r: -1.0), "conformal factor must stay positive (w(1e-06) <= 0)"),
        (lambda: _conformal(lambda r: 1.0, harmonic_radius=1.0), "harmonic_radius requires a mass_tag"),
        (
            lambda: _conformal(lambda r: 1.0 + 1.0 / r, mass_tag=1.0, harmonic_radius=1.0),
            "profile declared harmonically flat but w != 1 + m/(2r) at r=1.0",
        ),
        (lambda: _warped(ProfileKind.WITH_BOUNDARY, lambda s: s + 1.0, 1.0, x_min=-1.0), "x_min must be non-negative"),
        (lambda: _warped(ProfileKind.WITH_BOUNDARY, lambda s: s, 1.0), "a boundary profile needs f(x_min) > 0"),
        (
            lambda: _warped(ProfileKind.BOUNDARYLESS, lambda s: 2.0 * s, 2.0),
            "a boundaryless profile needs df/ds -> 1 at the pole",
        ),
        (lambda: mollified_schwarzschild(0.0, 1.0), "mass and matching radius must be positive"),
        (lambda: mollified_schwarzschild(1.0, -1.0), "mass and matching radius must be positive"),
        (lambda: perturbed_schwarzschild(m=-1.0), "mass, amplitude and offset must be positive"),
        (lambda: perturbed_schwarzschild(amplitude=0.0), "mass, amplitude and offset must be positive"),
        (lambda: perturbed_schwarzschild(offset=0.0), "mass, amplitude and offset must be positive"),
    ],
    ids=[
        "negative-r_min",
        "w-not-positive",
        "harmonic-without-mass",
        "not-harmonic",
        "negative-x_min",
        "boundary-f-zero",
        "pole-slope",
        "mollified-mass",
        "mollified-r0",
        "perturbed-mass",
        "perturbed-amplitude",
        "perturbed-offset",
    ],
)
def test_constructor_refusals_name_their_rule(build, message):
    with pytest.raises(ProfileDataError, match=f"^{re.escape(message)}$"):
        build()


_LINEAR_ROWS = [f"{s!r},{s + 1.0!r}" for s in map(float, range(10))]


@pytest.mark.parametrize(
    ("lines", "message"),
    [
        ([*_LINEAR_ROWS[:2], "2.0,3.0,4.0", *_LINEAR_ROWS[3:]], "{path}:4: expected two comma-separated values"),
        ([*_LINEAR_ROWS[:2], "2.0,three", *_LINEAR_ROWS[3:]], "{path}:4: could not convert string to float: 'three'"),
        (
            [f"{s!r},{20.0 - s!r}" for s in map(float, range(1, 11))],
            "warp factor must be increasing at the tabulated tail",
        ),
        ([f"{s!r},{s - 2.0!r}" for s in map(float, range(1, 11))], "warp factor must be positive at the boundary"),
    ],
    ids=["three-columns", "not-a-number", "falling-tail", "boundary-f-negative"],
)
def test_csv_refusals_name_their_rule(tmp_path, lines, message):
    path = tmp_path / "refused.csv"
    path.write_text("\n".join(["s,f", *lines]) + "\n", encoding="utf-8")
    with pytest.raises(ProfileDataError, match=f"^{re.escape(message.format(path=path))}$"):
        profile_from_csv(str(path), assume_nonnegative_R=True)
