"""Independent oracles for the golden values.

Everything here is computed by symbolic closed forms (sympy) or
arbitrary-precision quadrature (mpmath), never by the package under test.
The derived values are frozen into golden.json before the implementation
is compared against them; `make_golden.py` regenerates the file and
`test_golden.py` asserts both that the stored file matches a fresh oracle
run and that the implementation reproduces the stored numbers.
"""

from __future__ import annotations

import math

import mpmath
import sympy as sp

R, S = sp.symbols("r s", positive=True)


def _f(expr) -> float:
    return float(sp.N(expr, 30))


def schwarzschild_u(m):
    """Capacitary potential of the mass-m Schwarzschild slice, isotropic radius."""
    return (1 - m / (2 * R)) / (1 + m / (2 * R))


def warped_scalar_curvature(f_expr, sigma_expr):
    """R = 2(1 - f_s^2)/f^2 - 4 f_ss/f with arclength derivatives f_s = f'/sigma."""
    fs = sp.diff(f_expr, R) / sigma_expr
    fss = sp.diff(fs, R) / sigma_expr
    return sp.simplify(2 * (1 - fs**2) / f_expr**2 - 4 * fss / f_expr)


def conformal_scalar_curvature(w_expr):
    """R = -8 w^-5 (w'' + 2 w'/r) for g = w^4 g_eucl."""
    lap = sp.diff(w_expr, R, 2) + 2 * sp.diff(w_expr, R) / R
    return sp.simplify(-8 * w_expr**-5 * lap)


def mollified_w_interior(m, r0):
    return 1 + m * (3 * r0**2 - R**2) / (4 * r0**3)


def mollified_w_exterior(m):
    return 1 + m / (2 * R)


def _definite(expr, var, lo, hi):
    """Definite integral via the expanded antiderivative (pure power rule).

    sympy's definite machinery can crawl on Laurent-polynomial integrands
    with rational bounds; expanding and substituting is instant and exact.
    """
    anti = sp.integrate(sp.expand(expr), var)
    return anti.subs(var, hi) - anti.subs(var, lo)


def schwarzschild_comparison_volume(cap, t):
    """Int_{C/2}^t 4 pi s^2 (1 + C/2s)^6 ds, exact."""
    integrand = 4 * sp.pi * S**2 * (1 + sp.Rational(cap, 2) / S) ** 6
    return _definite(integrand, S, sp.Rational(cap, 2), sp.Rational(t))


def mollified_volume_exact(m, r0, t):
    """Sub-level volume of the mollified model at level t (exterior region t >= r0 + m/2).

    Radial volume element 4 pi r^2 w^6 dr; the exterior coordinate radius of
    the level {u = 1 - 1/t} is r = t - m/2 because u = 1 - 1/(r + m/2) there.
    """
    wi = mollified_w_interior(m, r0)
    we = mollified_w_exterior(m)
    interior = _definite(4 * sp.pi * R**2 * wi**6, R, 0, r0)
    exterior = _definite(4 * sp.pi * R**2 * we**6, R, r0, sp.Rational(t) - sp.Rational(m, 2))
    # No simplify: the exact sum mixes huge rationals with logs and
    # sp.simplify crawls on it; numeric evaluation does not need it.
    return interior + exterior


def schwarzschild_capacity_quadrature(m, dps: int = 30) -> float:
    """Brute-force oracle: C = 1 / Int_{m/2}^oo dr/(r w)^2 at 10x-tighter precision."""
    with mpmath.workdps(dps):
        w = lambda r: 1 + m / (2 * r)
        total = mpmath.quad(lambda r: 1 / (r * w(r)) ** 2, [m / 2, mpmath.inf])
        return float(1 / total)


def bump_tail_quadrature(c: float, w: float, x: float, dps: int = 30) -> float:
    """T(x) = Int_x^oo ds/f^2 for f = s + 5 exp(-((s - c)/w)^2), split across the bump."""
    with mpmath.workdps(dps):
        f = lambda s: s + 5 * mpmath.exp(-(((s - c) / w) ** 2))
        splits = [c + j * w for j in (-5, -2, -1, 0, 1, 2, 5) if c + j * w > x]
        return float(mpmath.quad(lambda s: 1 / f(s) ** 2, [x, *splits, mpmath.inf]))


def compute_all() -> dict[str, float]:
    vals: dict[str, float] = {}

    # --- numerics ---------------------------------------------------------
    # Closed-form antiderivative -1/(r + 1/2) of the m=1 exterior potential integrand.
    vals["numerics.schw_exterior_integral"] = _f(
        sp.integrate(1 / (R + sp.Rational(1, 2)) ** 2, (R, 1, sp.oo))
    )
    # u_schw(r) = 1/3 at r = 1 (direct substitution both ways).
    u1 = schwarzschild_u(1)
    vals["numerics.schw_u_at_1"] = _f(u1.subs(R, 1))
    vals["numerics.schw_root_of_u_third"] = _f(sp.solve(sp.Eq(u1, sp.Rational(1, 3)), R)[0])

    # --- profile ----------------------------------------------------------
    a = sp.Rational(1, 2)  # m = 1
    f_schw = (R + a) ** 2 / R
    sigma_schw = ((R + a) / R) ** 2
    r_schw = warped_scalar_curvature(f_schw, sigma_schw)
    vals["profile.schw1_R_at_2"] = _f(r_schw.subs(R, 2))
    vals["profile.schw1_f_at_1"] = _f(f_schw.subs(R, 1))
    vals["profile.schw1_area_at_1"] = _f(4 * sp.pi * f_schw.subs(R, 1) ** 2)
    fs_schw = sp.simplify(sp.diff(f_schw, R) / sigma_schw)
    vals["profile.schw1_H_at_1"] = _f((2 * fs_schw / f_schw).subs(R, 1))
    vals["profile.schw1_boundary_area"] = _f(4 * sp.pi * f_schw.subs(R, a) ** 2)

    wi = mollified_w_interior(1, 1)
    we = mollified_w_exterior(1)
    vals["profile.moll11_w_at_1_interior"] = _f(wi.subs(R, 1))
    vals["profile.moll11_w_at_1_exterior"] = _f(we.subs(R, 1))
    vals["profile.moll11_w_at_0"] = _f(wi.subs(R, 0))
    lap_interior = sp.simplify(sp.diff(wi, R, 2) + 2 * sp.diff(wi, R) / R)
    vals["profile.moll11_lap_interior"] = _f(lap_interior)
    vals["profile.moll11_R_at_half"] = _f(conformal_scalar_curvature(wi).subs(R, sp.Rational(1, 2)))
    vals["profile.moll11_f_at_2"] = _f((R * we**2).subs(R, 2))
    # Warped-versus-conformal consistency of the interior cap at r = 1/2.
    f_moll = R * wi**2
    sigma_moll = wi**2
    vals["profile.moll11_R_warped_at_half"] = _f(
        warped_scalar_curvature(f_moll, sigma_moll).subs(R, sp.Rational(1, 2))
    )

    # --- potential --------------------------------------------------------
    vals["potential.schw1_capacity"] = schwarzschild_capacity_quadrature(1.0)
    vals["potential.schw2_capacity"] = schwarzschild_capacity_quadrature(2.0)
    vals["potential.flat_exterior_capacity"] = _f(1 / sp.integrate((S + 1) ** -2, (S, 0, sp.oo)))
    vals["potential.schw1_u_at_1"] = _f(u1.subs(R, 1))
    # Euclidean level t = 3: |grad u| = s^-2 on the sphere of area 4 pi s^2.
    vals["potential.euclid_t3_int_grad"] = _f(4 * sp.pi * S**2 * S**-2)
    vals["potential.euclid_t3_int_grad_sq"] = _f((4 * sp.pi * S**2 * S**-4).subs(S, 3))
    vals["potential.euclid_t3_area"] = _f((4 * sp.pi * S**2).subs(S, 3))
    # Boundary gradient integral of Schwarzschild: the sharp bound pi itself.
    grad_schw = 1 / f_schw**2  # c = C = 1
    vals["potential.schw1_boundary_int_grad_sq"] = _f(
        (4 * sp.pi * f_schw**2 * grad_schw**2).subs(R, a)
    )
    # Mollified exterior potential u = 1 - 1/(r + 1/2).
    vals["potential.moll11_u_at_2"] = _f(1 - 1 / (sp.Integer(2) + sp.Rational(1, 2)))
    vals["potential.moll11_u_at_5"] = _f(1 - 1 / (sp.Integer(5) + sp.Rational(1, 2)))
    # T below a narrow bump (centre 3, width 0.02) that no breakpoint declares.
    vals["potential.bump3_tail_at_1"] = bump_tail_quadrature(3.0, 0.02, 1.0)
    vals["potential.bump3_tail_at_1p9"] = bump_tail_quadrature(3.0, 0.02, 1.9)

    # --- functionals ------------------------------------------------------
    vals["functionals.euclid_volume_t2"] = _f(sp.Rational(32, 3) * sp.pi)
    vals["functionals.schw1_volume_closed_t3"] = _f(schwarzschild_comparison_volume(1, 3))
    vals["functionals.schw2_volume_closed_t7"] = _f(schwarzschild_comparison_volume(2, 7))
    vals["functionals.moll11_volume_exact_t100"] = _f(mollified_volume_exact(1, 1, 100))
    vals["functionals.moll11_volume_leading_t100"] = _f(
        sp.Rational(4, 3) * sp.pi * 100**3 + 4 * sp.pi * 100**2
    )
    # Exterior closed form of Fhat for the mollified model: with t = r + 1/2,
    # f = t^2/(t - 1/2), so Fhat = 4 pi (1/4 - t)/t^3; sample at t = 4.
    t4 = sp.Integer(4)
    vals["functionals.moll11_fhat_t4"] = _f(4 * sp.pi * (sp.Rational(1, 4) - t4) / t4**3)

    # --- mass --------------------------------------------------------------
    # Radial reduction of the ADM flux integrand: m(r) = -2 r^2 w^3 w' = m w^3.
    w_m1 = mollified_w_exterior(1)
    flux = sp.simplify(-2 * R**2 * w_m1**3 * sp.diff(w_m1, R))
    vals["mass.schw_flux_at_10_m1"] = _f(flux.subs(R, 10))
    vol100 = mollified_volume_exact(1, 1, 100)
    vals["mass.moll11_mest_t100"] = _f(
        (vol100 - sp.Rational(4, 3) * sp.pi * 100**3) / (4 * sp.pi * 100**2)
    )
    # Expansion residual r [(1-u)^4/|grad u|^2 - 1 - 2m/r] = r (w^4 - 1 - 2m/r) outside r0.
    resid = sp.simplify(R * (w_m1**4 - 1 - 2 / R))
    vals["mass.moll11_residual_r5"] = _f(resid.subs(R, 5))
    vals["mass.moll11_residual_r10"] = _f(resid.subs(R, 10))

    return vals
