"""Test oracle for the coarea sub-level volumes, one level query per node.

``functionals.coarea_volumes`` hands each Gauss-Kronrod panel's 15 nodes to
one sorted ``levels`` sweep.  This module integrates the same coarea
integrand through the scalar ``integrate``, solving every node as its own
level with ``one_level.inv_grad_integral``, which reads f from ``jet`` where
the batched route reads it from ``metric``, so the tests can check the
batched route bit for bit against the per-node one.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from curvlab.functionals import _COAREA_TOL
from curvlab.numerics import integrate
from curvlab.potential import PotentialSolution, t_of_level, u_value
from one_level import inv_grad_integral


def coarea_integrand(sol: PotentialSolution, s: float) -> float:
    """The coarea integrand at the level s, the level solved on its own."""
    cap = sol.capacity
    if cap is not None:
        return cap / (s * s) * (1.0 + cap / (2.0 * s)) ** -2 * inv_grad_integral(sol, s)
    return inv_grad_integral(sol, s) / (s * s)


def coarea_volumes_per_node(sol: PotentialSolution, ts: Sequence[float]) -> list[float]:
    """Sub-level volumes at the levels ts, from the same segments, kinks and
    tolerance as ``coarea_volumes``, each node an independent level query."""
    p = sol.profile
    kinks = [t_of_level(sol, u_value(sol, x)) for x in p.breakpoints if x > p.x_min]
    lower = 0.5 * sol.capacity if sol.capacity is not None else 1e-4 * ts[0]

    def integrand(s: float) -> float:
        return coarea_integrand(sol, s)

    segments = zip([lower, *ts], ts)
    return list(accumulate(integrate(integrand, lo, hi, _COAREA_TOL, points=kinks).value for lo, hi in segments))
