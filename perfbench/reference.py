"""Reference answers computed apart from the program.

numpy only.  Nothing here imports ``repro``: the brush counts, bin
layout, per-carrier aggregates, regression line and sample membership
the benchmark checks the program's outputs against are recomputed from
the raw input arrays, following Vega's published semantics.  NaN marks
a NULL in every array.
"""

import math

import numpy as np


def vega_bin(extent, maxbins):
    """Vega's bin-step rule (vega-statistics ``bin`` with its defaults:
    base 10, divisors 5 and 2, nice bounds): returns ``(start, stop,
    step)`` for a numeric ``extent``.

    The step starts at ``10 ** (round(log10(span)) - ceil(log10(maxbins)))``,
    grows tenfold until at most ``maxbins`` bins cover the span, then
    shrinks by each divisor in turn while the bin count stays within
    ``maxbins``; start and stop then snap outward onto the step.
    """
    base = 10
    lo, hi = float(extent[0]), float(extent[1])
    logb = math.log(base)
    span = (hi - lo) or abs(lo) or 1.0
    level = math.ceil(math.log(maxbins) / logb)
    step = base ** (_js_round(math.log(span) / logb) - level)
    while math.ceil(span / step) > maxbins:
        step *= base
    for div in (5, 2):
        candidate = step / div
        if span / candidate <= maxbins:
            step = candidate
    v = math.log(step)
    precision = 0 if v >= 0 else int(-v / logb) + 1
    eps = base ** (-precision - 1)
    snapped = math.floor(lo / step + eps) * step
    lo = snapped - step if lo < snapped else snapped
    hi = math.ceil(hi / step) * step
    return lo, (lo + step if hi == lo else hi), step


def _js_round(x):
    """JavaScript ``Math.round``: halves round up."""
    return math.floor(x + 0.5)


def bin_starts(values, start, stop, step):
    """Vega's per-value bin start; values at ``stop`` land in the last
    bin, NULLs stay NaN."""
    clamped = np.minimum(values, stop - step)
    return start + step * np.floor((clamped - start) / step)


def extent(values):
    """[min, max] over the non-NULL values."""
    valid = values[~np.isnan(values)]
    return float(valid.min()), float(valid.max())


def histogram_rows(values, maxbins):
    """How many rows the extent -> bin -> count histogram of ``values``
    has: one per non-empty bin, plus one for the NULL bin when any value
    is NULL."""
    start, stop, step = vega_bin(extent(values), maxbins)
    valid = values[~np.isnan(values)]
    bins = np.unique(bin_starts(valid, start, stop, step))
    return int(bins.size) + int(valid.size < values.size)


def brush_mask(distance, lo, hi):
    """Rows inside the brush ``lo <= distance < hi`` (NULL is outside)."""
    with np.errstate(invalid="ignore"):
        return (distance >= lo) & (distance < hi)


def brush_dashboard_rows(distance, values, carrier, lo, hi, extent,
                         maxbins):
    """How many rows the two-view brush dashboard returns for the brush
    ``[lo, hi)``: the histogram of ``values`` on the fixed ``extent``
    (one row per non-empty bin, plus one for the NULL bin when a
    brushed value is NULL) and one row per carrier in the brush."""
    mask = brush_mask(distance, lo, hi)
    brushed = values[mask]
    valid = brushed[~np.isnan(brushed)]
    bins = np.unique(bin_starts(valid, *vega_bin(extent, maxbins)))
    return (int(bins.size) + int(valid.size < brushed.size)
            + int(np.unique(carrier[mask]).size))


def interval_count(sorted_values, lo, hi):
    """Values in ``[lo, hi)`` of an ascending, NULL-free array."""
    return int(np.searchsorted(sorted_values, hi, side="left")
               - np.searchsorted(sorted_values, lo, side="left"))


def carrier_aggregates(carrier, values, mask):
    """{carrier: (row count, mean of non-NULL ``values`` or None)} over
    the rows in ``mask``; carriers with no row in the mask are absent."""
    out = {}
    keys = carrier[mask]
    selected = values[mask]
    for key in np.unique(keys):
        group = selected[keys == key]
        valid = group[~np.isnan(group)]
        mean = float(valid.sum() / valid.size) if valid.size else None
        out[str(key)] = (int(group.size), mean)
    return out


def least_squares(x, y):
    """(slope, intercept, x_min, x_max) of the least-squares line through
    the pairs where both values are non-NULL."""
    valid = ~(np.isnan(x) | np.isnan(y))
    x = x[valid]
    y = y[valid]
    mean_x = x.mean()
    mean_y = y.mean()
    dx = x - mean_x
    slope = float((dx * (y - mean_y)).sum() / (dx * dx).sum())
    return slope, float(mean_y - slope * mean_x), float(x.min()), \
        float(x.max())


def trend_points(x, y):
    """The two endpoints Vega's linear ``regression`` emits: the fitted
    line evaluated at the smallest and largest x."""
    slope, intercept, x_min, x_max = least_squares(x, y)
    return [(x_min, intercept + slope * x_min),
            (x_max, intercept + slope * x_max)]


class RowSet:
    """Membership of (x, y, label) rows in a set of input rows, kept as
    sorted numpy arrays rather than Python tuples so it adds little
    memory to the process it runs in."""

    def __init__(self, x, y, label):
        order = np.argsort(x, kind="stable")
        self.x = x[order]
        self.y = y[order]
        self.label = label[order]

    def __contains__(self, row):
        x, y, label = row
        lo = int(np.searchsorted(self.x, x, side="left"))
        hi = int(np.searchsorted(self.x, x, side="right"))
        for i in range(lo, hi):
            want = self.y[i]
            if str(self.label[i]) != label:
                continue
            if (y is None and np.isnan(want)) or (
                    y is not None and want == y):
                return True
        return False


def close(a, b, rel=1e-9):
    """Relative agreement that treats two NULLs as equal."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)
