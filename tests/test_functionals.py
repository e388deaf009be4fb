import io
import math

import numpy as np
import pytest

from curvlab.functionals import SERIES_CSV_HEADER, build_series, coarea_volumes, write_series_csv
from curvlab.potential import _VolumeCache, default_t_grid, solve, u_value, volumes
from curvlab.profile import (
    euclidean, mollified_schwarzschild, perturbed_schwarzschild, profile_from_csv, schwarzschild, to_warped,
)
from curvlab.verify import schwarzschild_comparison_volume
from coarea_quadrature import coarea_volumes_per_node
from differences import differentiate
from frozen_outputs import rneg_profile, write_inputs
from growth_quadrature import growth_integrand_cumulative
from one_level import functionals_of, grad, level, row_at, sample

FOUR_PI = 4.0 * math.pi


class TestFhat:
    def test_euclid_identically_zero(self, euclid_sol):
        for t in (0.3, 1.0, 7.0, 500.0):
            assert abs(row_at(euclid_sol, t).Fhat) <= 1e-11

    def test_mollified_matches_exterior_closed_form(self, moll11_sol, golden):
        value = row_at(moll11_sol, 4.0).Fhat
        assert value == pytest.approx(golden["functionals.moll11_fhat_t4"], rel=1e-9)

    def test_mollified_nonpositive_and_monotone(self, moll11_sol):
        ts = np.geomspace(0.5, 1000.0, 50)
        vals = [row_at(moll11_sol, float(t)).Fhat for t in ts]
        assert max(vals) <= 1e-9
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
        # decays to zero from below
        assert vals[-1] > vals[0]
        assert abs(vals[-1]) < 1e-4


class TestSchwarzschildEqualityCase:
    def test_g_vanishes(self, schw1_sol):
        for t in (0.5, 2.0, 100.0):
            assert abs(row_at(schw1_sol, t).G) <= 1e-12 * max(1.0, t)

    def test_g_at_boundary_is_minus_deficit(self, schw1_sol):
        # G(C/2) = -A; the gradient-estimate equality gives A = 0 here.
        cap = schw1_sol.capacity
        boundary = sample(schw1_sol, 0.5 * cap)
        deficit = 2.0 * cap * (math.pi - boundary.int_grad_sq)
        assert functionals_of(boundary, cap).G == pytest.approx(-deficit, abs=1e-12)
        assert deficit == pytest.approx(0.0, abs=1e-12)

    def test_a1_is_4pi(self, schw1_sol):
        for t in (0.5, 1.0, 5.0, 50.0):
            assert row_at(schw1_sol, t).A1 == pytest.approx(FOUR_PI, rel=1e-10)

    def test_b1_vanishes(self, schw1_sol):
        for t in (0.5, 1.0, 5.0, 50.0):
            assert abs(row_at(schw1_sol, t).B1) <= 1e-12

    def test_f_and_fprime_vanish(self, schw1_sol):
        for t in (0.6, 3.0, 200.0):
            r = row_at(schw1_sol, t)
            assert abs(r.F) <= 1e-11 * max(1.0, t)
            assert abs(r.Fprime) <= 1e-12

    def test_pointwise_identity_four_u_grad_equals_H(self, schw1_sol):
        # 4u/(1-u^2) |grad u| = H on Schwarzschild, checked at 5 radii.
        p = schw1_sol.profile
        for r in (0.75, 1.0, 2.0, 8.0, 64.0):
            u = u_value(schw1_sol, r)
            g = grad(schw1_sol, r)
            lhs = 4.0 * u / (1.0 - u * u) * g
            rhs = 2.0 * p.df_ds(r) / p.f(r)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_a_growth_zero(self, schw1_sol):
        for t in (1.0, 10.0):
            assert abs(row_at(schw1_sol, t).a) <= 1e-12


class TestIdentities:
    def test_a1_from_g(self, perturbed_sol):
        cap = perturbed_sol.capacity
        for t in np.geomspace(0.5 * cap, 1000.0 * cap, 30):
            t = float(t)
            r = row_at(perturbed_sol, t)
            assert abs(r.A1 - (FOUR_PI + 4.0 * t / cap**2 * r.G)) <= 1e-10 * FOUR_PI

    def test_f_equals_scaled_gprime(self, perturbed_sol):
        cap = perturbed_sol.capacity
        for t in np.geomspace(0.5 * cap, 500.0 * cap, 20):
            t = float(t)
            r = row_at(perturbed_sol, t)
            lhs = r.F
            rhs = 4.0 * t**3 / cap**2 * r.Gprime
            scale = FOUR_PI * t + abs(lhs) + abs(rhs)
            assert abs(lhs - rhs) <= 1e-9 * scale

    def test_deficit_equals_F_at_boundary(self, perturbed_sol):
        cap = perturbed_sol.capacity
        boundary = sample(perturbed_sol, 0.5 * cap)
        deficit = 2.0 * cap * (math.pi - boundary.int_grad_sq)
        assert functionals_of(boundary, cap).F == pytest.approx(deficit, rel=1e-9)

    def test_a1_tilde(self, perturbed_sol):
        cap = perturbed_sol.capacity
        deficit = 2.0 * cap * (math.pi - sample(perturbed_sol, 0.5 * cap).int_grad_sq)
        t = 2.0 * cap
        assert build_series(perturbed_sol, [t]).A1tilde[0] == pytest.approx(
            row_at(perturbed_sol, t).A1 + deficit / (2 * t), rel=1e-12
        )

    def test_derivatives_match_finite_differences(self, perturbed_sol):
        cap = perturbed_sol.capacity
        for t in (1.1 * cap, 3.0 * cap, 40.0 * cap):
            r = row_at(perturbed_sol, t)
            gp_fd = differentiate(lambda tt: row_at(perturbed_sol, tt).G, t)
            assert r.Gprime == pytest.approx(gp_fd, rel=1e-5, abs=1e-9)
            fp_fd = differentiate(lambda tt: row_at(perturbed_sol, tt).F, t)
            assert r.Fprime == pytest.approx(fp_fd, rel=1e-5, abs=1e-8)


class TestPropositionInequalities:
    def test_cauchy_schwarz_chain(self, perturbed_sol):
        cap = perturbed_sol.capacity
        for t in np.geomspace(0.5 * cap, 1000.0 * cap, 25):
            t = float(t)
            r = row_at(perturbed_sol, t)
            assert (t * r.A1prime) ** 2 <= 2.0 / 3.0 * r.A1 * r.B1 + 1e-9

    def test_fprime_at_least_half_b1(self, perturbed_sol):
        for t in np.geomspace(0.5 * perturbed_sol.capacity, 500.0, 25):
            r = row_at(perturbed_sol, float(t))
            assert r.Fprime >= 0.5 * r.B1 - 1e-9

    def test_riccati(self, perturbed_sol):
        cap = perturbed_sol.capacity
        for t in np.geomspace(0.7 * cap, 500.0, 12):
            t = float(t)
            h = 1e-3 * max(1.0, t)
            if t - 2 * h <= 0.5 * cap:
                continue
            ap = differentiate(lambda tt: row_at(perturbed_sol, tt).a, t, scale=h)
            r = row_at(perturbed_sol, t)
            rhs = (1.0 - FOUR_PI / r.A1 - r.a * r.a / 4.0) / t
            assert ap >= rhs - 1e-8

    def test_growth_integral_bound(self, perturbed_sol):
        cap = perturbed_sol.capacity
        grid = [float(t) for t in np.geomspace(0.5 * cap, 800.0, 40)]
        samples = [sample(perturbed_sol, t) for t in grid]
        cumulative = growth_integrand_cumulative(perturbed_sol, [ls.s for ls in samples])
        for i, (t, ls) in enumerate(zip(grid, samples)):
            r = functionals_of(ls, cap)
            lhs = t * r.A1prime
            rhs = r.A1 - FOUR_PI + cumulative[i] / (2.0 * t)
            assert lhs >= rhs - 1e-8


# name -> (profile maker taking a scratch directory, bound on the quadrature error)
_GROWTH_CASES = {
    "perturbed": (lambda _: perturbed_schwarzschild(), 1.1e-12),
    "perturbed-0.8-0.45-0.6": (lambda _: perturbed_schwarzschild(0.8, 0.45, 0.6), 1e-12),
    "rneg-csv": (rneg_profile, 7e-14),
}


class TestGrowthQuadrature:
    """On round level sets Int R^Sigma/2 dsigma = 4 pi (Gauss-Bonnet), so
    F' = (R1 + B1)/2 and the growth integral has the closed form
    Int_{C/2}^t (R1 + B1) ds = 2 (F(t) - F(C/2)).  Each bound is about twice
    the error the quadrature showed when the test was written."""

    @pytest.mark.parametrize("case", sorted(_GROWTH_CASES))
    def test_cumulative_matches_twice_the_rise_of_F(self, case, tmp_path):
        make, bound = _GROWTH_CASES[case]
        sol = solve(make(tmp_path))
        series = build_series(sol, default_t_grid(sol, 256))
        cumulative = growth_integrand_cumulative(sol, series.s)
        f0 = series.F[0]  # the default grid starts at C/2
        for cum, f in zip(cumulative, series.F):
            rise = 2.0 * (f - f0)
            assert abs(cum - rise) / (1.0 + abs(rise)) <= bound

    def test_growth_identity_of_A1(self, perturbed_sol, tmp_path):
        # t A1' - A1 + 4 pi = F/t, with A1' = a A1/t read from the series.
        for sol in (perturbed_sol, solve(rneg_profile(tmp_path))):
            series = build_series(sol, default_t_grid(sol, 256))
            for t, a, a1_val, f in zip(series.t_grid, series.a_growth, series.A1, series.F):
                t_a1p = t * (a * a1_val / t)
                lhs = t_a1p - a1_val + FOUR_PI
                scale = max(abs(t_a1p), a1_val, FOUR_PI)
                assert abs(lhs - f / t) / scale <= 2.5e-15


class TestVolumes:
    def test_euclid_ball(self, euclid_sol, golden):
        assert volumes(euclid_sol, [level(euclid_sol, 2.0).s])[0] == pytest.approx(
            golden["functionals.euclid_volume_t2"], rel=1e-10
        )

    def test_schwarzschild_matches_closed_form(self, schw1_sol, schw2_sol, golden):
        assert volumes(schw1_sol, [level(schw1_sol, 3.0).s])[0] == pytest.approx(
            golden["functionals.schw1_volume_closed_t3"], rel=1e-9
        )
        assert volumes(schw2_sol, [level(schw2_sol, 7.0).s])[0] == pytest.approx(
            golden["functionals.schw2_volume_closed_t7"], rel=1e-9
        )
        # and the closed form itself against the oracle
        assert schwarzschild_comparison_volume(1.0, 3.0) == pytest.approx(
            golden["functionals.schw1_volume_closed_t3"], rel=1e-13
        )
        assert schwarzschild_comparison_volume(2.0, 7.0) == pytest.approx(
            golden["functionals.schw2_volume_closed_t7"], rel=1e-13
        )

    def test_mollified_expansion_leading_terms(self, moll11_sol, golden):
        vol = volumes(moll11_sol, [level(moll11_sol, 100.0).s])[0]
        assert vol == pytest.approx(golden["functionals.moll11_volume_exact_t100"], rel=1e-8)
        lead = golden["functionals.moll11_volume_leading_t100"]
        assert abs(vol - lead) <= 0.02 * lead

    def test_coarea_cross_check(self, schw1_sol, euclid_sol, moll11_sol):
        for sol, t in ((schw1_sol, 3.0), (euclid_sol, 5.0), (moll11_sol, 5.0)):
            radial = volumes(sol, [level(sol, t).s])[0]
            coarea = coarea_volumes(sol, [t])[0]
            assert abs(radial - coarea) <= 1e-8 * radial

    def test_coarea_sweep_matches_each_level(self, schw1_sol, euclid_sol, moll11_sol):
        # One sweep over consecutive segments against a fresh quadrature per level.
        for sol, ts in ((schw1_sol, (2.0, 3.0, 7.0)), (euclid_sol, (0.8, 5.0, 40.0)), (moll11_sol, (1.5, 5.0, 30.0))):
            for swept, t in zip(coarea_volumes(sol, ts), ts):
                single = coarea_volumes(sol, [t])[0]
                assert abs(swept - single) <= 1e-11 * single, (sol.profile.label, t)


@pytest.mark.parametrize(
    "make",
    [
        lambda _: schwarzschild(1.0),
        lambda _: perturbed_schwarzschild(),
        lambda _: euclidean(),
        lambda _: to_warped(mollified_schwarzschild(1.0, 1.0)),
        rneg_profile,
    ],
    ids=["schwarzschild", "perturbed", "euclidean", "mollified", "rneg-csv"],
)
def test_coarea_panels_match_per_node_levels_bitwise(make, tmp_path):
    # Each panel's nodes are solved in one sorted sweep; every level carries
    # the bits of its own solve, so the volumes equal the per-node route's.
    sol = solve(make(tmp_path))
    grid = default_t_grid(sol, 32)
    ts = [grid[i] for i in (4, 8, 16, 24, 31)]
    assert coarea_volumes(sol, ts) == coarea_volumes_per_node(sol, ts)


class TestSeries:
    def test_header_and_shape(self, schw1_sol):
        grid = default_t_grid(schw1_sol, 16)
        series = build_series(schw1_sol, grid)
        buf = io.StringIO()
        write_series_csv(series, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == SERIES_CSV_HEADER
        assert len(lines) == 17
        # every row round-trips to floats
        for row in lines[1:]:
            values = [float(v) for v in row.split(",")]
            assert len(values) == len(SERIES_CSV_HEADER.split(","))

    def test_boundaryless_series_nan_columns(self, euclid_sol):
        series = build_series(euclid_sol, default_t_grid(euclid_sol, 16))
        assert np.all(np.isnan(series.G))
        assert not np.any(np.isnan(series.Fhat))
        assert math.isnan(series.deficit_A)
        assert series.boundary_sample is None

    def test_volume_column_reads_the_table(self, monkeypatch):
        # One adaptive quadrature per grid gap evaluated the volume integrand
        # about 66,500 times on this grid; the tables need a few hundred.
        calls = [0]
        real = _VolumeCache._integrand

        def counting(self, x):
            calls[0] += 1
            return real(self, x)

        monkeypatch.setattr(_VolumeCache, "_integrand", counting)
        sol = solve(perturbed_schwarzschild())
        series = build_series(sol, default_t_grid(sol, 4096))
        assert calls[0] <= 2000
        assert list(series.volume) == sorted(series.volume)

    def test_columns_bitwise_equal_scalar_functions(self, tmp_path, schw1_sol, perturbed_sol, euclid_sol, moll11_sol):
        # Every column of the series, bit for bit, against a second source:
        # the tests' one-level route, which restates each formula of the
        # geometry and the functionals level by level (one_level.sample and
        # functionals_of), and volumes(sol, [s]) one x at a time.  The default
        # grid starts at C/2; with t_min_factor > 1 the series solves the
        # boundary level on its own.
        write_inputs(tmp_path)
        tables = [profile_from_csv(str(tmp_path / "rneg.csv"), False), profile_from_csv(str(tmp_path / "moll.csv"), True)]
        for sol in (schw1_sol, perturbed_sol, euclid_sol, moll11_sol, *map(solve, tables)):
            cap = sol.capacity
            for t_min_factor in (1.0, 3.0):
                grid = default_t_grid(sol, 24, t_min_factor=t_min_factor)
                series = build_series(sol, grid)
                samples = [sample(sol, t) for t in grid]
                rows = [functionals_of(ls, cap) for ls in samples]
                deficit = math.nan
                if cap is not None:
                    boundary = sample(sol, 0.5 * cap)
                    assert np.array(series.boundary_sample).tobytes() == np.array(boundary).tobytes()
                    deficit = 2.0 * cap * (math.pi - boundary.int_grad_sq)
                    assert series.deficit_A == deficit
                else:
                    assert series.boundary_sample is None and math.isnan(series.deficit_A)
                # Fhat is defined exactly without a boundary, G exactly with one.
                assert list(np.isnan(series.Fhat)) == [cap is not None] * len(grid)
                assert list(np.isnan(series.G)) == [cap is None] * len(grid)
                columns = {
                    "t_grid": [ls.t for ls in samples],
                    "s": [ls.s for ls in samples],
                    "u": [ls.u for ls in samples],
                    "area": [ls.area for ls in samples],
                    "grad": [ls.grad for ls in samples],
                    "mean_curvature": [ls.mean_curvature for ls in samples],
                    "scalar_R": [ls.scalar_R for ls in samples],
                    "Fhat": [r.Fhat for r in rows],
                    "G": [r.G for r in rows],
                    "F": [r.F for r in rows],
                    "A1": [r.A1 for r in rows],
                    "A1tilde": [r.A1 + deficit / (2.0 * t) for r, t in zip(rows, grid)],
                    "a_growth": [r.a for r in rows],
                    "B1": [r.B1 for r in rows],
                    "Fprime_analytic": [r.Fprime for r in rows],
                    "Gprime_analytic": [r.Gprime for r in rows],
                    "volume": [volumes(sol, [ls.s])[0] for ls in samples],
                }
                assert set(columns) == set(series._fields) - {"deficit_A", "boundary_sample"}
                for field, values in columns.items():
                    got = np.array(getattr(series, field))
                    assert got.tobytes() == np.array(values).tobytes(), (sol.profile.label, t_min_factor, field)
