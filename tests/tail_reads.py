"""T on one bracket, read the way ``potential.levels`` reads it.

``levels`` reads T(x) on the bracket [x_ref 2^k, x_ref 2^(k+1)] without a
reader object: the anchor values at the two ends, and strictly between them
T(x_ref 2^k) minus one call of the table kernel ``_clenshaw``, on the
table's one panel when it holds one and otherwise on the panel the bisect
finds.  The tests compare both reads with ``_TailCache.value``.
"""

from __future__ import annotations

from bisect import bisect_right

from curvlab import potential


def bracket_reads(tail, k: int, x: float) -> list[float]:
    """T(x) on bracket k, once per way ``levels`` can read it.

    At an end the read is the anchor value.  Inside, it is the bisected
    kernel read and, on a one-panel table, also the read of the bound panel.
    The kernel is looked up on the module at each call, so a patched one
    sees these reads.
    """
    lo, hi = tail.anchor_x(k), tail.anchor_x(k + 1)
    t_lo, t_hi = tail.anchor_value(k), tail.anchor_value(k + 1)
    if not lo < x < hi:
        return [t_lo if x == lo else t_hi]
    starts, panels, _ = tail._table(k)
    chosen = [panels[bisect_right(starts, x) - 1]]
    if len(panels) == 1:
        chosen.append(panels[0])
    return [t_lo - potential._clenshaw(panel, x) for panel in chosen]
