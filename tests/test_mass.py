import dataclasses
import math

import numpy as np
import pytest

from curvlab.errors import WrongKind
from curvlab.mass import (
    adm_surface,
    mass_from_volume,
    mass_report,
    write_mass_csv,
)
from curvlab.potential import levels, solve, u_value, volumes
from curvlab.profile import euclidean_conformal, mollified_schwarzschild, to_warped

from one_level import grad


def expansion_residuals(sol, m, radii):
    """Residuals r * [(1-u)^4 / |grad u|^2 - 1 - 2m/r] of the far-field expansion of a boundaryless solution of mass m.

    Bounded and decaying like O(r^{-1+alpha}); the decay exponent is
    asserted loosely (<= -0.9) since alpha can be chosen arbitrarily small.
    """
    out = []
    for r in radii:
        g = grad(sol, r)
        out.append((r, r * ((1.0 - u_value(sol, r)) ** 4 / (g * g) - 1.0 - 2.0 * m / r)))
    return out


class TestAdmSurface:
    def test_flux_closed_form(self, golden):
        # The flux adm_surface extrapolates, -2 r^2 w^3 w', read from the jet at r = 10.
        w, dw, _ = mollified_schwarzschild(1.0, 1.0).jet(10.0)
        assert -2.0 * 10.0 * 10.0 * w ** 3 * dw == pytest.approx(golden["mass.schw_flux_at_10_m1"], rel=1e-14)

    def test_harmonically_flat_mass_recovered(self):
        c = mollified_schwarzschild(1.0, 1.0)
        assert adm_surface(c) == pytest.approx(1.0, abs=1e-6)

    def test_euclidean_zero(self):
        assert adm_surface(euclidean_conformal()) == pytest.approx(0.0, abs=1e-12)

    def test_euclidean_mass_is_positive_zero(self):
        # Every flux of a flat end is -0.0, and the extrapolation keeps that
        # sign; the report and mass.csv print 0.0.
        report = mass_report(euclidean_conformal())
        assert repr(report.m_surface) == "0.0"

    def test_mass_two(self):
        c = mollified_schwarzschild(2.0, 1.0)
        assert adm_surface(c) == pytest.approx(2.0, abs=1e-6)


class TestMassFromVolume:
    def test_euclidean_zero(self, euclid_sol):
        m_vol, samples = mass_from_volume(euclid_sol)
        assert abs(m_vol) <= 1e-6
        assert all(abs(m) <= 1e-6 for _, m in samples)

    def test_mollified_within_one_percent(self, moll11_sol):
        m_vol, samples = mass_from_volume(moll11_sol)
        assert abs(m_vol - 1.0) <= 0.01
        assert all(m >= -1e-9 for _, m in samples)

    def test_sample_against_exact_volume(self, moll11_sol, golden):
        # m_est(100) formed here from the level and its sub-level volume, then
        # read off the estimator's samples, whose 13th level is t = 100.
        t = 100.0
        (vol,) = volumes(moll11_sol, levels(moll11_sol, [t])[1])
        m_est = (vol - 4.0 * math.pi * t ** 3 / 3.0) / (4.0 * math.pi * t * t)
        assert m_est == pytest.approx(golden["mass.moll11_mest_t100"], rel=1e-6)
        _, samples = mass_from_volume(moll11_sol)
        assert dict(samples)[t] == m_est

    def test_scaling_covariance(self):
        sols = {m: solve(to_warped(mollified_schwarzschild(m, 1.0))) for m in (1.0, 2.0)}
        m1, _ = mass_from_volume(sols[1.0])
        m2, _ = mass_from_volume(sols[2.0])
        assert m2 / m1 == pytest.approx(2.0, rel=0.01)

    def test_wrong_kind(self, schw1_sol):
        with pytest.raises(WrongKind):
            mass_from_volume(schw1_sol)


class TestExpansionResiduals:
    def test_euclidean_exactly_flat(self):
        # (1-u)^4/|grad u|^2 = 1 exactly on flat space.  The residuals read u
        # and |grad u| at the isotropic radius r, so flat space is solved in
        # the conformal form the other residual tests read through to_warped
        # (w = 1, mass 0), not as the arclength profile euclidean().
        sol = solve(to_warped(euclidean_conformal()))
        for r, residual in expansion_residuals(sol, 0.0, [2.0, 8.0, 64.0]):
            assert abs(residual) <= 1e-10

    def test_closed_form_values(self, moll11_sol, golden):
        vals = dict(expansion_residuals(moll11_sol, 1.0, [5.0, 10.0]))
        assert vals[5.0] == pytest.approx(golden["mass.moll11_residual_r5"], rel=1e-8)
        assert vals[10.0] == pytest.approx(golden["mass.moll11_residual_r10"], rel=1e-8)

    def test_monotone_decay(self, moll11_sol):
        vals = dict(expansion_residuals(moll11_sol, 1.0, [5.0, 10.0]))
        assert abs(vals[10.0]) < abs(vals[5.0])

    def test_decay_exponent(self, moll11_sol):
        rs = np.geomspace(10.0, 1000.0, 12)
        vals = expansion_residuals(moll11_sol, 1.0, [float(r) for r in rs])
        slope = np.polyfit(np.log(rs), np.log([abs(v) for _, v in vals]), 1)[0]
        assert slope <= -0.9


class TestTwoEstimatorAgreement:
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_agreement_within_one_percent(self, m):
        report = mass_report(mollified_schwarzschild(m, 1.0))
        assert abs(report.m_surface - m) <= 1e-3 * m
        assert abs(report.m_volume - m) <= 0.01 * m
        assert abs(report.m_surface - report.m_volume) <= 0.01 * m

    def test_a_copy_reads_both_estimators_from_its_own_model(self):
        # A dataclasses.replace copy that takes the mass-2 factor is the mass-2
        # model: the flux and the volumes both come from the one profile given.
        two = mollified_schwarzschild(2.0, 1.0)
        copy = dataclasses.replace(mollified_schwarzschild(1.0, 1.0), w=two.w, jet=two.jet, mass_tag=2.0)
        report = mass_report(copy)
        assert abs(report.m_surface - 2.0) <= 0.01 * 2.0
        assert abs(report.m_volume - 2.0) <= 0.01 * 2.0

    def test_csv_shape(self, tmp_path):
        report = mass_report(mollified_schwarzschild(1.0, 1.0))
        path = tmp_path / "mass.csv"
        with open(path, "w") as fh:
            write_mass_csv(report, fh)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,m_est"
        assert any(ln.startswith("# m_surface=") for ln in lines)
        assert any(ln.startswith("# m_volume=") for ln in lines)
