"""The former level iteration, kept as an independent reference.

``latpath.gf.iterate_system`` solves each new level online, one
coefficient at a time, from A_k = p * A_{k-1} * (q + B_{k-1} + A_k).  The
copy below is the loop it replaced: it solves the same equation for A_k
with series operations, a full product and a full division by the unit
1 - p * A_{k-1} per level.
"""

from latpath.gf import ClassGF, NoConvergence
from latpath.series import Series, div


def reference_iterate_system(spec, order: int) -> ClassGF:
    p = spec.p.truncate(min(spec.p.order, order))
    q = spec.q.truncate(min(spec.q.order, order))
    bases = [s.truncate(min(s.order, order)) for s in spec.bases]
    per_level = list(bases)
    B = Series.zero(order)
    for s in bases:
        B = B + s
    A_prev = bases[-1]
    k = spec.r
    while True:
        if k > order + spec.r + 2:
            raise NoConvergence(f"levels still nonzero after k={k}")
        pA = p * A_prev
        A_next = div(pA * (q + B), 1 - pA)
        if A_next.is_zero():
            break
        per_level.append(A_next)
        B = B + A_next
        A_prev = A_next
        k += 1
    return ClassGF(None, None, spec.u, spec.v, B, tuple(per_level))
