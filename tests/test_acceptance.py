"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with `pytest -s` to see
them); a failed assertion is the FAIL line.  Criteria are asserted on the
raw data (series, level integrals, estimators), not on battery statuses,
so the tolerances here are exactly the stated ones.
"""

import math
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from curvlab.functionals import build_series, functional_row
from curvlab.mass import adm_surface, mass_from_volume
from curvlab.potential import default_t_grid, level_integrals, solve
from curvlab.profile import (
    euclidean,
    euclidean_conformal,
    mollified_schwarzschild,
    perturbed_schwarzschild,
    schwarzschild,
    to_warped,
)
from curvlab.verify import schwarzschild_comparison_volume
from differences import differentiate
from growth_quadrature import growth_integrand_cumulative

FOUR_PI = 4.0 * math.pi


def _ok(line: str) -> None:
    print(f"\nACCEPTANCE {line}: PASS")


def test_criterion_1_schwarzschild_equality_suite():
    for m in (0.5, 1.0, 2.0):
        start = time.perf_counter()
        sol = solve(schwarzschild(m))
        cap = sol.capacity
        grid = default_t_grid(sol)  # 256 geometric points over [C/2, 1000 C]
        assert len(grid) == 256
        series = build_series(sol, grid)

        boundary = level_integrals(sol, 0.5 * cap)
        assert abs(boundary.int_grad_sq - math.pi) <= 1e-8  # gradient estimate

        dev_b = np.max(np.abs(np.asarray(series.A1) - FOUR_PI))
        assert dev_b <= 1e-8 * FOUR_PI  # A1 bound

        for t, area in zip(series.t_grid, series.area):  # area comparison
            bound = FOUR_PI * t * t * (1.0 + cap / (2.0 * t)) ** 4
            assert abs(area - bound) <= 1e-8 * area

        assert abs(math.sqrt(boundary.area / (16.0 * math.pi)) - cap) <= 1e-8 * cap  # area-capacity

        for t, vol in zip(series.t_grid[1:], series.volume[1:]):  # volume comparison
            bound = schwarzschild_comparison_volume(cap, float(t))
            assert abs(vol - bound) <= 1e-7 * vol

        elapsed = time.perf_counter() - start
        assert elapsed <= 10.0, f"m={m} took {elapsed:.1f}s"
    _ok("1 schwarzschild_equality_suite (m in {1/2, 1, 2}, five comparisons at 1e-8/1e-7)")


def test_criterion_2_euclidean_suite():
    start = time.perf_counter()
    sol = solve(euclidean())
    series = build_series(sol, default_t_grid(sol))
    assert np.max(np.abs(series.Fhat)) <= 1e-10
    for t, area, vol, flux in zip(
        series.t_grid, series.area, series.volume, np.asarray(series.area) * np.asarray(series.grad)
    ):
        assert abs(area - FOUR_PI * t * t) <= 1e-9 * area
        assert abs(vol - FOUR_PI * t**3 / 3.0) <= 1e-9 * vol
        assert abs(flux - FOUR_PI) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    _ok(f"2 euclidean_suite (|Fhat|<=1e-10, area/vol rel 1e-9, flux 1e-10; {elapsed:.1f}s)")


def test_criterion_3_monotonicity_and_signs():
    start = time.perf_counter()
    moll = solve(to_warped(mollified_schwarzschild(1.0, 1.0)))
    series = build_series(moll, default_t_grid(moll))
    assert np.max(series.Fhat) <= 1e-9
    assert np.min(np.diff(series.Fhat)) >= -1e-9

    pert = solve(perturbed_schwarzschild())
    pseries = build_series(pert, default_t_grid(pert))
    assert np.min(np.diff(pseries.G)) >= -1e-9
    assert np.max(pseries.G) <= 1e-9
    assert np.max(pseries.A1) <= FOUR_PI + 1e-8
    assert pseries.deficit_A >= -1e-9
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    _ok(f"3 monotonicity_sign_suite (Fhat, G, A1, deficit; {elapsed:.1f}s)")


def test_criterion_4_derivative_identities():
    for sol in (solve(schwarzschild(1.0)), solve(perturbed_schwarzschild())):
        cap = sol.capacity
        grid = default_t_grid(sol)
        series = build_series(sol, grid)

        # analytic derivatives against central differences, every interior point
        for i in range(1, len(grid) - 1):
            t = float(grid[i])
            h = 1e-4 * max(1.0, t)
            if t - 2.0 * h <= 0.5 * cap:
                continue
            gp_fd = differentiate(lambda tt: functional_row(level_integrals(sol, tt), cap).G, t, scale=h)
            g_scale = max(abs(series.Gprime_analytic[i]), FOUR_PI / t)
            assert abs(series.Gprime_analytic[i] - gp_fd) <= 1e-5 * g_scale
            fp_fd = differentiate(lambda tt: functional_row(level_integrals(sol, tt), cap).F, t, scale=h)
            f_scale = max(abs(series.Fprime_analytic[i]), FOUR_PI)
            assert abs(series.Fprime_analytic[i] - fp_fd) <= 1e-5 * f_scale

        # F = (4 t^3 / C^2) G' to rel 1e-9 (scaled by the term magnitudes)
        for i, t in enumerate(series.t_grid):
            rhs = 4.0 * t**3 / cap**2 * series.Gprime_analytic[i]
            scale = FOUR_PI * t + abs(series.F[i]) + abs(rhs)
            assert abs(series.F[i] - rhs) <= 1e-9 * scale

        # A1 = 4 pi + (4t/C^2) G to rel 1e-10
        dev = np.abs(np.asarray(series.A1) - (FOUR_PI + 4.0 * np.asarray(series.t_grid) / cap**2 * np.asarray(series.G)))
        assert np.max(dev) <= 1e-10 * FOUR_PI
    _ok("4 derivative_identity_suite (G', F' fd rel 1e-5; F=4t^3G'/C^2 1e-9; A1/G 1e-10)")


def test_criterion_5_proposition_inequalities():
    for sol in (solve(schwarzschild(1.0)), solve(perturbed_schwarzschild())):
        cap = sol.capacity
        grid = default_t_grid(sol)
        samples = [level_integrals(sol, t) for t in grid]

        rows = [functional_row(ls, cap) for ls in samples]

        for t, r in zip(grid, rows):
            lhs = (t * r.A1prime) ** 2
            rhs = 2.0 / 3.0 * r.A1 * r.B1
            assert lhs <= rhs + 1e-9
            assert r.Fprime >= 0.5 * r.B1 - 1e-9

        for i in range(1, len(grid) - 1, 4):
            t = float(grid[i])
            h = 1e-3 * max(1.0, t)
            if t - 2.0 * h <= 0.5 * cap:
                continue
            ap = differentiate(lambda tt: functional_row(level_integrals(sol, tt), cap).a, t, scale=h)
            av = rows[i].a
            rhs = (1.0 - FOUR_PI / rows[i].A1 - av * av / 4.0) / t
            assert ap >= rhs - 1e-8

        cumulative = growth_integrand_cumulative(sol, [ls.s for ls in samples])
        for i, (t, r) in enumerate(zip(grid, rows)):
            margin = t * r.A1prime - (r.A1 - FOUR_PI + cumulative[i] / (2.0 * t))
            assert margin >= -1e-8
    _ok("5 proposition_inequality_suite (Cauchy-Schwarz, F'>=B1/2, Riccati, growth bound)")


def test_criterion_6_pmt_desk_scale():
    start = time.perf_counter()
    for m in (0.5, 1.0, 2.0):
        conf = mollified_schwarzschild(m, 1.0)
        sol = solve(to_warped(conf))
        m_surf = adm_surface(conf)
        m_vol, samples = mass_from_volume(sol)
        assert all(est >= -1e-9 for _, est in samples)
        assert abs(m_vol - m) <= 0.01 * m
        assert abs(m_surf - m) <= 1e-3 * m
        assert abs(m_surf - m_vol) <= 0.01 * m

    e_sol = solve(euclidean())
    e_vol, _ = mass_from_volume(e_sol)
    e_surf = adm_surface(euclidean_conformal())
    assert abs(e_surf) <= 1e-6
    assert abs(e_vol) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    _ok(f"6 pmt_desk_scale_suite (m_est >= 0, volume 1%, surface 0.1%; {elapsed:.1f}s)")


def test_criterion_7_oracle_independence(golden):
    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from oracles import compute_all

    fresh = compute_all()
    assert set(fresh) == set(golden)
    mismatches = {k: (golden[k], v) for k, v in fresh.items() if golden[k] != v}
    assert not mismatches
    _ok(f"7 oracle_independence ({len(fresh)} derived values frozen before use)")


def test_criterion_8_cli_contract(tmp_path):
    import os

    root = pathlib.Path(__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "curvlab", *args],
            capture_output=True, text=True, env=env, cwd=root,
        )

    first = cli("verify", "--model", "schwarzschild", "--mass", "1")
    assert first.returncode == 0
    assert first.stdout.count("EqualityDetected") >= 5

    second = cli("mass", "--model", "mollified-schwarzschild", "--mass", "1", "--r0", "1")
    assert second.returncode == 0

    bad = tmp_path / "bad.csv"
    bad.write_text("s,f\n1.0,2.0\n0.5,3.0\n" + "".join(f"{i}.0,{i + 2}.0\n" for i in range(2, 10)))
    third = cli("verify", "--model", "custom", "--profile", str(bad), "--assume-nonnegative-r", "true")
    assert third.returncode == 2

    rneg = tmp_path / "rneg.csv"
    ss = np.linspace(0.0, 60.0, 601)
    rneg.write_text(
        "s,f\n" + "".join(f"{float(s)!r},{2.0 + float(s) ** 2 / (2.0 + 0.4 * float(s))!r}\n" for s in ss)
    )
    fourth = cli(
        "verify", "--model", "custom", "--profile", str(rneg),
        "--assume-nonnegative-r", "false", "--grid", "32",
    )
    assert fourth.returncode == 1
    assert "hypothesis violated" in fourth.stdout
    _ok("8 cli_contract (exit codes 0/0/2 and 1 with hypothesis annotation)")
