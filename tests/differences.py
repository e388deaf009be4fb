"""The one-point derivative the tests take, on the verify battery's stencil.

The battery differentiates a batch of levels at once through
``numerics.difference_stencil`` and ``numerics.difference_quotient``; the
tests differentiate one plain callable at a time through the same two.
"""

from __future__ import annotations

from typing import Callable

from curvlab.numerics import difference_quotient, difference_stencil


def differentiate(f: Callable[[float], float], t: float, scale: float | None = None) -> float:
    """Derivative of f at t: central difference with one Richardson step, O(scale^4) for smooth f."""
    h, xs = difference_stencil(t, scale)
    return difference_quotient([f(x) for x in xs], h)
