import io
import math

import pytest

from curvlab.errors import GridTooCoarse
from curvlab.functionals import build_series, coarea_volumes
from curvlab.potential import default_t_grid, solve, volumes
from curvlab.profile import (
    MetricProfile,
    ProfileKind,
    euclidean,
    mollified_schwarzschild,
    perturbed_schwarzschild,
    schwarzschild,
    to_warped,
)
from curvlab.verify import (
    CheckStatus,
    run_battery,
    write_report_csv,
    write_report_text,
)
from frozen_outputs import rneg_profile
from one_level import functionals_of, level, sample

THEOREM_CHECKS = (
    "boundary_gradient_estimate",
    "a1_upper_bound",
    "area_comparison",
    "area_capacity_inequality",
    "volume_comparison",
)

# Every check the battery reports, in report order.
BOUNDARY_CHECKS = (
    *THEOREM_CHECKS,
    "g_monotone",
    "g_nonpositive",
    "gprime_vs_fd",
    "fprime_vs_fd",
    "riccati_growth",
    "coarea_crosscheck",
)
BOUNDARYLESS_CHECKS = ("area_comparison", "volume_comparison", "fhat_monotone", "fhat_nonpositive", "coarea_crosscheck")


@pytest.fixture(scope="module")
def schw1_report(schw1_sol):
    return run_battery(schw1_sol)


@pytest.fixture(scope="module")
def perturbed_report(perturbed_sol):
    return run_battery(perturbed_sol)


@pytest.fixture(scope="module")
def flat_exterior_report():
    p = MetricProfile(
        label="flat-exterior",
        kind=ProfileKind.WITH_BOUNDARY,
        x_min=0.0,
        metric=lambda x: (x + 1.0, 1.0),
        jet=lambda x: (x + 1.0, 1.0, 0.0),
    )
    return run_battery(solve(p))


class TestSchwarzschildRigidity:
    def test_all_theorem_checks_detect_equality(self, schw1_report):
        for name in THEOREM_CHECKS:
            assert schw1_report.check(name).status is CheckStatus.EQUALITY, name

    def test_g_identically_zero(self, schw1_report):
        assert schw1_report.check("g_nonpositive").status is CheckStatus.EQUALITY
        assert schw1_report.check("g_monotone").status is CheckStatus.EQUALITY

    def test_r_nonneg_confirmed(self, schw1_report):
        assert schw1_report.r_nonneg_confirmed
        assert not schw1_report.annotations
        assert not schw1_report.blocking()

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 5.0])
    def test_margins_tiny_for_all_masses(self, m):
        report = run_battery(solve(schwarzschild(m)))
        for name in THEOREM_CHECKS:
            check = report.check(name)
            assert abs(check.worst_margin) <= 1e-8, (m, name, check.worst_margin)
        assert not report.has_failures()


class TestEuclideanRigidity:
    def test_equalities(self, euclid_sol):
        report = run_battery(euclid_sol)
        assert report.check("area_comparison").status is CheckStatus.EQUALITY
        assert report.check("volume_comparison").status is CheckStatus.EQUALITY
        assert report.check("fhat_nonpositive").status is CheckStatus.EQUALITY
        assert not report.has_failures()
        assert math.isnan(report.capacity)


class TestPerturbed:
    def test_no_failures_when_hypotheses_hold(self, perturbed_report):
        # The theorem guarantees every check; a Fail is an implementation bug.
        assert not perturbed_report.has_failures()
        assert perturbed_report.r_nonneg_confirmed
        assert not perturbed_report.annotations

    def test_not_flagged_as_equality_case(self, perturbed_report):
        assert perturbed_report.check("area_comparison").status is CheckStatus.PASS
        assert perturbed_report.check("boundary_gradient_estimate").status is CheckStatus.PASS


class TestDeficit:
    """A = 2C (pi - Int |grad u|^2) on the boundary level t = C/2."""

    def test_schwarzschild_zero(self, schw1_sol):
        cap = schw1_sol.capacity
        deficit = 2.0 * cap * (math.pi - sample(schw1_sol, 0.5 * cap).int_grad_sq)
        assert deficit == pytest.approx(0.0, abs=1e-9)

    def test_schwarzschild_mass_3(self):
        sol = solve(schwarzschild(3.0))
        cap = sol.capacity
        deficit = 2.0 * cap * (math.pi - sample(sol, 0.5 * cap).int_grad_sq)
        assert deficit == pytest.approx(0.0, abs=1e-9)

    def test_perturbed_nonnegative(self, perturbed_sol):
        cap = perturbed_sol.capacity
        deficit = 2.0 * cap * (math.pi - sample(perturbed_sol, 0.5 * cap).int_grad_sq)
        assert deficit >= -1e-9


class TestHypothesisViolations:
    def test_non_minimal_boundary_skips_theorem_checks(self, flat_exterior_report):
        for name in THEOREM_CHECKS:
            assert flat_exterior_report.check(name).status is CheckStatus.SKIPPED
        assert flat_exterior_report.blocking()
        assert any("not minimal" in a for a in flat_exterior_report.annotations)

    def test_battery_still_evaluates(self, flat_exterior_report):
        # the numerical cross-checks hold even when hypotheses fail
        for name in ("gprime_vs_fd", "fprime_vs_fd", "coarea_crosscheck"):
            assert flat_exterior_report.check(name).status is CheckStatus.PASS, name

    def test_negative_curvature_annotated(self):
        # f(s) = 2 + s^2/(2 + 0.4 s): minimal boundary, but f'' = 8/(2+0.4s)^3
        # makes R < 0 near it; the sampling must catch it and the battery
        # must still run.
        p = MetricProfile(
            label="r-negative",
            kind=ProfileKind.WITH_BOUNDARY,
            x_min=0.0,
            metric=lambda s: (2.0 + s * s / (2.0 + 0.4 * s), 1.0),
            jet=lambda s: (
                2.0 + s * s / (2.0 + 0.4 * s),
                (4.0 * s + 0.4 * s * s) / (2.0 + 0.4 * s) ** 2,
                8.0 / (2.0 + 0.4 * s) ** 3,
            ),
            assume_nonnegative_R=False,
        )
        sol = solve(p)
        report = run_battery(sol, default_t_grid(sol, 32))
        assert not report.r_nonneg_confirmed
        assert any("scalar curvature negative" in a for a in report.annotations)
        assert report.blocking()
        assert len(report.checks) > 0


class TestReportMechanics:
    def test_grid_too_coarse(self, schw1_sol):
        with pytest.raises(GridTooCoarse):
            run_battery(schw1_sol, [1.0, 2.0, 3.0])

    def test_determinism_byte_for_byte(self, schw1_sol):
        grid = default_t_grid(schw1_sol, 32)
        a = io.StringIO()
        b = io.StringIO()
        write_report_text(run_battery(schw1_sol, grid), a)
        write_report_text(run_battery(schw1_sol, grid), b)
        assert a.getvalue() == b.getvalue()

    def test_text_and_csv_formats(self, schw1_report):
        text = io.StringIO()
        write_report_text(schw1_report, text)
        lines = text.getvalue().strip().split("\n")
        assert lines[0] == "schema=1"
        assert sum(1 for ln in lines if ln.startswith("check ")) == len(schw1_report.checks)
        csv = io.StringIO()
        write_report_csv(schw1_report, csv)
        assert csv.getvalue().startswith("name,status,worst_margin,worst_t,tolerance,note\n")

    def test_stable_check_ordering(self, schw1_report, euclid_sol):
        assert [c.name for c in schw1_report.checks] == list(BOUNDARY_CHECKS)
        boundaryless = run_battery(euclid_sol, default_t_grid(euclid_sol, 32))
        assert [c.name for c in boundaryless.checks] == list(BOUNDARYLESS_CHECKS)

    def test_every_check_present_exactly_once(self, schw1_report, euclid_sol):
        names = [c.name for c in schw1_report.checks]
        assert len(names) == len(set(names))
        assert set(THEOREM_CHECKS) <= set(names)
        boundaryless = run_battery(euclid_sol, default_t_grid(euclid_sol, 32))
        bl_names = [c.name for c in boundaryless.checks]
        assert len(bl_names) == len(set(bl_names))
        assert {"area_comparison", "volume_comparison", "fhat_monotone", "fhat_nonpositive"} <= set(
            bl_names
        )


def test_battery_solves_each_grid_level_once(schw1_sol, monkeypatch):
    # The coarea cross-check reads the series' levels and solves none of
    # them a second time.  Every sample, of a grid or of a boundary level
    # off the grid, is a level of the one-pass column code
    # potential._geometry; a coarea panel reads f alone at its nodes.  Every
    # solve, of a grid, of a panel or of one level, runs through
    # potential.levels.  Off the grid, the finite-difference stencils are
    # solved in one sweep and the coarea quadrature in one sweep per
    # Gauss-Kronrod panel.
    import sys

    import curvlab.functionals as functionals_mod
    import curvlab.potential as potential_mod
    import curvlab.verify as verify_mod

    calls: dict[float, int] = {}
    batches: list[list[float]] = []  # the levels of each _geometry call
    real = potential_mod._geometry

    def counting(sol, columns):
        ts = columns[0]
        batches.append(list(ts))
        for t in ts:
            calls[t] = calls.get(t, 0) + 1
        return real(sol, columns)

    solves: dict[float, int] = {}
    sweeps: list[tuple[str, list[float]]] = []  # (caller, levels) of each levels call
    stage = ["battery"]
    real_levels = potential_mod.levels

    def counting_levels(sol, ts):
        ts = list(ts)
        for t in ts:
            solves[t] = solves.get(t, 0) + 1
        sweeps.append((stage[0], ts))
        return real_levels(sol, ts)

    panels = []  # evaluations // 15 of each coarea quadrature
    real_integrate = functionals_mod.integrate

    def counting_integrate(*args, **kwargs):
        res = real_integrate(*args, **kwargs)
        panels.append(res.evaluations // 15)
        return res

    real_coarea = verify_mod.coarea_volumes

    def staged_coarea(*args):
        stage[0] = "coarea"
        try:
            return real_coarea(*args)
        finally:
            stage[0] = "battery"

    monkeypatch.setattr(potential_mod, "_geometry", counting)
    monkeypatch.setattr(functionals_mod, "_geometry", counting)
    # Every curvlab module that reads the name levels sees the counter.
    for name, mod in list(sys.modules.items()):
        if name.startswith("curvlab") and getattr(mod, "levels", None) is real_levels:
            monkeypatch.setattr(mod, "levels", counting_levels)
    monkeypatch.setattr(functionals_mod, "integrate", counting_integrate)
    monkeypatch.setattr(verify_mod, "coarea_volumes", staged_coarea)
    grid = default_t_grid(schw1_sol, 16)
    run_battery(schw1_sol, grid)
    # grid[0] = C/2 is also the boundary level of the deficit and of the
    # boundary checks, which reuse its sample.
    assert [calls[t] for t in grid] == [1] * len(grid)
    # The G and F finite differences share their stencil levels.
    assert [t for t, k in calls.items() if k > 1] == []
    assert [solves[t] for t in grid] == [1] * len(grid)
    # One sweep of the grid, one of every stencil level, sorted, and at most
    # one per panel of the coarea quadrature.
    battery = [ts for caller, ts in sweeps if caller == "battery"]
    assert len(battery) == 2 and battery[0] == grid
    stencil = battery[1]
    assert stencil == sorted(set(stencil)) and not set(stencil) & set(grid)
    assert len(stencil) > 4 * len(grid)
    # The grid and the stencil levels are each sampled in one pass.
    assert batches[:2] == [grid, stencil]
    assert [calls[t] for t in stencil] == [1] * len(stencil)
    coarea = [ts for caller, ts in sweeps if caller == "coarea"]
    assert len(panels) == 3 and 0 < len(coarea) <= sum(panels)


def test_battery_integrates_only_the_coarea_segments(perturbed_sol, monkeypatch):
    # On warm tables the battery integrates only the three coarea segments.
    import curvlab.functionals as functionals_mod
    import curvlab.potential as potential_mod
    import curvlab.profile as profile_mod
    from curvlab.numerics import integrate

    grid = default_t_grid(perturbed_sol, 256)
    run_battery(perturbed_sol, grid)  # builds every anchor and table the battery reads
    spans = []

    def counting(fn, a, b, *args, **kwargs):
        spans.append((a, b))
        return integrate(fn, a, b, *args, **kwargs)

    for mod in (functionals_mod, potential_mod, profile_mod):
        monkeypatch.setattr(mod, "integrate", counting)
    run_battery(perturbed_sol, grid)
    n = len(grid)
    picks = [grid[i] for i in (n // 4, n // 2, (3 * n) // 4)]
    assert spans == list(zip([0.5 * perturbed_sol.capacity, *picks], picks))


@pytest.mark.parametrize(
    "p",
    [schwarzschild(1.0), perturbed_schwarzschild(), euclidean(), to_warped(mollified_schwarzschild(1.0, 1.0))],
    ids=["schwarzschild", "perturbed", "euclidean", "mollified"],
)
def test_battery_integrates_one_tail_anchor(p, monkeypatch):
    # Every tail anchor the battery reads telescopes from the one far anchor
    # through the tables; separate anchor integrals made 12 to 21 of them.
    import curvlab.potential as potential_mod
    from curvlab.numerics import integrate

    tails = []

    def counting(fn, a, b, *args, **kwargs):
        if math.isinf(b):
            tails.append(a)
        return integrate(fn, a, b, *args, **kwargs)

    monkeypatch.setattr(potential_mod, "integrate", counting)
    sol = solve(p)
    run_battery(sol, default_t_grid(sol))
    assert len(tails) == 1, tails


@pytest.mark.parametrize(
    ("make", "grid", "tilde"),
    [(lambda _: perturbed_schwarzschild(), 256, False), (rneg_profile, 32, True)],
    ids=["perturbed", "rneg-csv"],
)
def test_growth_bound_margin_closed_form(tmp_path, make, grid, tilde):
    # The growth bound t A1' >= A1 - 4 pi + (1/2t) Int (R1 + B1), with the
    # integral read as 2 (F(t) - F(C/2)), is algebra on the series columns:
    # t A1' - A1 + 4 pi = F/t, so the margin is F(C/2)/t, and (F(C/2) - A)/t
    # in the A1~ variant (2) that a negative deficit A selects.
    sol = solve(make(tmp_path))
    ts = default_t_grid(sol, grid)
    series = build_series(sol, ts)
    assert (series.deficit_A < 0.0) is tilde
    f_b = functionals_of(series.boundary_sample, sol.capacity).F
    shift = series.deficit_A if tilde else 0.0
    margins = [
        t * (a * a1_val / t) - shift / (2.0 * t) - (a1_val - 4.0 * math.pi + (f - f_b) / t + shift / (2.0 * t))
        for t, a, a1_val, f in zip(ts, series.a_growth, series.A1, series.F)
    ]
    worst = min(margins)
    worst_t = ts[margins.index(worst)]
    assert abs(worst - (f_b - shift) / worst_t) <= 1.5e-14


def test_coarea_crosscheck_splits_at_breakpoint_level():
    # Mollified model whose matching radius falls inside the coarea range:
    # without a split at the level of r0 the cross-check failed at -1.25e-8.
    sol = solve(to_warped(mollified_schwarzschild(0.742431247375666, 1.3176329982356385)))
    t = 3.3687114071702857
    radial = volumes(sol, [level(sol, t).s])[0]
    assert abs(coarea_volumes(sol, [t])[0] - radial) <= 1e-11 * radial
    report = run_battery(sol)
    assert report.check("coarea_crosscheck").status is CheckStatus.PASS
    assert not report.blocking()
