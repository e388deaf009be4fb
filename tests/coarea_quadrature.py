"""Test oracle for the coarea sub-level volumes, one level query per node.

``functionals.coarea_volumes`` hands each Gauss-Kronrod panel's 15 nodes to
one sorted ``levels`` sweep.  This module integrates the same coarea
integrand through the scalar ``integrate``, solving every node as its own
level with ``one_level.sample``, so the tests can check the batched route
bit for bit against the per-node one.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

from curvlab.functionals import _COAREA_TOL
from curvlab.numerics import integrate
from curvlab.potential import PotentialSolution, t_of_level, u_value
from one_level import sample


def coarea_volumes_per_node(sol: PotentialSolution, ts: Sequence[float]) -> list[float]:
    """Sub-level volumes at the levels ts, from the same segments, kinks and
    tolerance as ``coarea_volumes``, each node an independent level query."""
    p = sol.profile
    kinks = [t_of_level(sol, u_value(sol, x)) for x in p.breakpoints if x > p.x_min]
    cap = sol.capacity
    if cap is not None:
        lower = 0.5 * cap

        def integrand(s: float) -> float:
            inv = sample(sol, s).int_inv_grad
            return cap / (s * s) * (1.0 + cap / (2.0 * s)) ** -2 * inv

    else:
        lower = 1e-4 * ts[0]

        def integrand(s: float) -> float:
            return sample(sol, s).int_inv_grad / (s * s)

    segments = zip([lower, *ts], ts)
    return list(accumulate(integrate(integrand, lo, hi, _COAREA_TOL, points=kinks).value for lo, hi in segments))
