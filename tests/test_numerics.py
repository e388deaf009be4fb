import math

import pytest

from curvlab.errors import NoBracket, NonConvergent
from curvlab.numerics import (
    DEFAULT_TOLERANCE,
    NodeIntegrand,
    QuadratureResult,
    Tolerance,
    difference_quotient,
    difference_stencil,
    extrapolate_to_zero,
    find_root,
    geometric_grid,
    integrate,
)
from differences import differentiate


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=-1.0)
    with pytest.raises(ValueError):
        Tolerance(rel=0.0, abs=0.0)
    with pytest.raises(ValueError):
        Tolerance(max_refinements=0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["rel", "abs"])
def test_tolerance_rejects_non_finite(name, value):
    # nan < 0.0 is false, so a sign test alone let NaN through; a battery run
    # with rel = abs = nan then read every check as Pass.
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        Tolerance(**{name: value})


def test_integrate_inverse_square_tail():
    res = integrate(lambda s: s**-2, 1.0, math.inf)
    assert abs(res.value - 1.0) <= 1e-10
    assert res.error_estimate <= max(DEFAULT_TOLERANCE.rel * abs(res.value), DEFAULT_TOLERANCE.abs)
    assert res.evaluations > 0


def test_integrate_constant():
    res = integrate(lambda s: 1.0, 0.0, 2.0)
    assert abs(res.value - 2.0) <= 1e-12


def test_integrate_schwarzschild_potential_integrand(golden):
    res = integrate(lambda r: 1.0 / (r + 0.5) ** 2, 1.0, math.inf)
    assert abs(res.value - golden["numerics.schw_exterior_integral"]) <= 1e-12


def test_integrate_divergent_tail_raises():
    with pytest.raises(NonConvergent):
        integrate(lambda s: 1.0 / s, 1.0, math.inf)


def test_integrate_respects_breakpoints():
    # C^0 kink; giving the breakpoint keeps the budget small.
    f = lambda s: abs(s - 0.3)
    res = integrate(f, 0.0, 1.0, points=(0.3,))
    assert abs(res.value - (0.3**2 / 2 + 0.7**2 / 2)) <= 1e-12


def test_integrate_refines_past_a_dense_breakpoint_partition():
    # Spline profiles split at every knot; the refinement budget counts
    # beyond that initial partition, so thousands of knots still converge.
    knots = [k / 5000.0 for k in range(1, 5000)]
    res = integrate(math.sqrt, 0.0, 1.0, points=knots)
    assert abs(res.value - 2.0 / 3.0) <= 1e-10


def test_integrate_reversed_limits():
    res = integrate(lambda s: s, 2.0, 0.0)
    assert abs(res.value + 2.0) <= 1e-12


def test_differentiate_square():
    assert differentiate(lambda t: t * t, 1.0) == pytest.approx(2.0, abs=1e-9)


def test_differentiate_reciprocal():
    assert differentiate(lambda t: 1.0 / t, 2.0) == pytest.approx(-0.25, abs=1e-9)


def test_differentiate_schwarzschild_g_vanishes(schw1_sol):
    # G is identically zero on Schwarzschild, so its derivative must be too.
    from one_level import row_at

    assert differentiate(lambda t: row_at(schw1_sol, t).G, 1.0) == pytest.approx(0.0, abs=1e-6)


def test_geometric_grid_ends_exact_and_ratio_constant():
    grid = geometric_grid(0.3, 700.0, 33)
    assert len(grid) == 33
    assert grid[0] == 0.3 and grid[-1] == 700.0
    ratio = (700.0 / 0.3) ** (1.0 / 32)
    assert all(b / a == pytest.approx(ratio, rel=1e-13) for a, b in zip(grid, grid[1:]))
    assert geometric_grid(2.0, 5.0, 1) == [2.0]


def test_find_root_euclid_level():
    root = find_root(lambda s: 1.0 - 1.0 / s - 0.5, 1.0, 10.0)
    assert root == pytest.approx(2.0, rel=1e-9)


def test_find_root_cube():
    assert find_root(lambda x: x**3 - 8.0, 0.0, 4.0) == pytest.approx(2.0, rel=1e-12)


def test_find_root_schwarzschild_level(golden):
    u = lambda r: (1.0 - 0.5 / r) / (1.0 + 0.5 / r) - 1.0 / 3.0
    root = find_root(u, 0.6, 10.0, Tolerance(rel=1e-14, abs=1e-14))
    assert root == pytest.approx(golden["numerics.schw_root_of_u_third"], rel=1e-10)


def test_find_root_requires_bracket():
    with pytest.raises(NoBracket):
        find_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_extrapolate_to_zero_exact_on_cubic():
    xs = [0.2, 0.1, 0.05, 0.025, 0.0125]
    poly = lambda x: 3.0 - 2.0 * x + 0.5 * x**2 - x**3
    assert extrapolate_to_zero(xs, [poly(x) for x in xs]) == pytest.approx(3.0, abs=1e-12)


def test_extrapolate_validation():
    with pytest.raises(ValueError):
        extrapolate_to_zero([], [])
    with pytest.raises(ValueError):
        extrapolate_to_zero([0.1, 0.1], [1.0, 2.0])


def test_quadrature_result_fields():
    res = integrate(lambda s: math.exp(-s), 0.0, math.inf)
    assert isinstance(res, QuadratureResult)
    assert abs(res.value - 1.0) <= 1e-10
    assert res.error_estimate >= 0.0


@pytest.mark.parametrize(
    ("f", "a", "b", "points"),
    [
        (lambda s: math.exp(-s) * math.sin(3.0 * s), 0.0, 2.0, ()),
        (lambda s: abs(s - 0.3) ** 1.5 + math.cos(s), 0.0, 1.0, (0.3, 0.7)),
        (lambda r: 1.0 / (r + 0.5) ** 2 + math.exp(-r), 1.0, math.inf, (2.0, 5.0)),
    ],
    ids=["finite", "split", "semi-infinite"],
)
def test_node_list_quadrature_matches_scalar_bitwise(f, a, b, points):
    # One list of 15 nodes per panel, at the points and in the order the
    # scalar integrand is called, and the same value, error and count.
    scalar_nodes, batches = [], []

    def scalar(x):
        scalar_nodes.append(x)
        return f(x)

    def values(xs):
        batches.append(list(xs))
        return [f(x) for x in xs]

    tol = Tolerance(rel=1e-12, abs=1e-14)
    ref = integrate(scalar, a, b, tol, points)
    got = integrate(NodeIntegrand(values), a, b, tol, points)
    assert (got.value, got.error_estimate, got.evaluations) == (ref.value, ref.error_estimate, ref.evaluations)
    assert [len(xs) for xs in batches] == [15] * (ref.evaluations // 15)
    assert [x for xs in batches for x in xs] == scalar_nodes


@pytest.mark.parametrize(("t", "scale"), [(1.0, None), (250.0, None), (3.7, 1e-3), (0.02, 2.5e-4)])
def test_differentiate_is_the_quotient_over_its_stencil(t, scale):
    f = lambda x: math.exp(0.3 * x) / (1.0 + x * x)
    seen = []

    def recorded(x):
        seen.append(x)
        return f(x)

    h, xs = difference_stencil(t, scale)
    assert differentiate(recorded, t, scale) == difference_quotient([f(x) for x in xs], h)
    assert tuple(seen) == xs == (t + h, t - h, t + 0.5 * h, t - 0.5 * h)
