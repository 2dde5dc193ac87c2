"""The dispatching mean, the oracle for `numerics.mean_float` and
`numerics.mean_exact`.

The package's hot paths know their backend and call the typed kernels; this
mean takes values of either backend and spells out both float guards
literally, so the kernels must agree with it bit for bit.
"""

from knnopinion.numerics import EXACT, coerce_all, common_numerators, mean_exact


def mean_of(values):
    """Arithmetic mean of a non-empty list of values of either backend. A
    homogeneous set returns its first value untouched, whatever its type."""
    first = values[0]
    if all(v == first for v in values[1:]):
        return first
    vals, kind = coerce_all(values)
    if kind == EXACT:
        return mean_exact(*common_numerators(vals))
    m = sum(vals) / len(vals)
    lo, hi = min(vals), max(vals)
    return min(max(m, lo), hi)
