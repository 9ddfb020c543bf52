"""Seeded inputs for every workload.

numpy only: nothing here imports the program, so a change to the
program's own data generators cannot change what the benchmark feeds it.
The same ``(workload, seed)`` always gives byte-identical arrays.

The parent process (``run.py``) calls :func:`make_inputs` and writes the
arrays to an ``.npz`` file; the process that runs the program only reads
that file, so generation scratch never counts toward its peak RSS.
"""

import math

import numpy as np

CARRIERS = ["AA", "DL", "UA", "WN", "US", "NW", "CO", "AS", "B6", "EV"]

#: carrier shares for the brush and serving tables: a Zipf-like skew
#: (exponent 0.8), so GROUP BY carrier sees both large and small groups
ZIPF_SHARES = np.arange(1, 11, dtype=np.float64) ** -0.8
ZIPF_SHARES /= ZIPF_SHARES.sum()

#: NULL shares (cancelled flights have no delays; a few lack air time)
NULL_DELAY = 0.02
NULL_AIR_TIME = 0.01

BRUSH_ROWS = 50_000
SERVE_ROWS = 20_000

#: brush bounds stay inside (100, 2900), well above 0, so a row with a
#: NULL distance could never fall inside a brush under either JS
#: (null -> 0) or NaN comparison semantics; distance has no NULLs anyway
BRUSH_LOW = 100.0
BRUSH_HIGH = 2900.0
#: brush widths run from this to this plus 1000
BRUSH_MIN_WIDTH = 200.0

#: how many brush events the pre-generated sequence holds
SEQUENCE_EVENTS = 20_000

#: brush-tiles: one round is this many slices followed by one append
TILES_SLICES_PER_ROUND = 9
TILES_APPEND_ROWS = 100
TILES_APPEND_ROUNDS = 400

WORKLOAD_INDEX = {"brush-requery": 1, "brush-tiles": 2, "serve-open": 4}


def flights(rng, n, shares):
    """A flights table as numpy arrays; NaN marks NULL."""
    carrier = np.array(CARRIERS)[rng.choice(len(CARRIERS), size=n,
                                            p=shares)]
    on_time = rng.normal(-2.0, 6.0, size=n)
    late = rng.exponential(35.0, size=n) + 5.0
    dep_delay = np.clip(np.where(rng.random(n) < 0.3, late, on_time),
                        -30.0, 600.0)
    arr_delay = np.clip(dep_delay + rng.normal(-1.0, 12.0, size=n),
                        -60.0, 650.0)
    cluster = rng.choice(3, size=n, p=[0.5, 0.35, 0.15])
    distance = np.where(
        cluster == 0, rng.gamma(4.0, 80.0, size=n) + 100.0,
        np.where(cluster == 1, rng.normal(1100.0, 250.0, size=n),
                 rng.normal(2300.0, 300.0, size=n)))
    distance = np.clip(distance, 60.0, 3000.0)
    air_time = np.clip(distance / 7.5 + rng.normal(18.0, 8.0, size=n),
                       20.0, 500.0)
    cancelled = rng.random(n) < NULL_DELAY
    dep_delay[cancelled] = np.nan
    arr_delay[cancelled] = np.nan
    air_time[rng.random(n) < NULL_AIR_TIME] = np.nan
    return {
        "carrier": carrier, "dep_delay": dep_delay,
        "arr_delay": arr_delay, "distance": distance, "air_time": air_time,
    }


def brush_sequence(rng, windows):
    """Brush moves: ``(is_lo, value)`` per event, two events per window.

    Window ``k`` starts at ``BRUSH_LOW + span * frac(a + k * phi)`` and is
    ``BRUSH_MIN_WIDTH + 1000 * frac(b + k * (sqrt(2) - 1))`` wide, with the
    offsets ``a`` and ``b`` drawn from the seed.  These low-discrepancy
    sequences spread the windows evenly over positions and widths after
    any number of events, so every run sees nearly the same mix of cheap
    (narrow) and costly (wide) brushes, while the irrational steps keep
    every value off the tile grid and never repeated.  Each window is
    reached in two events: the bound that widens the brush moves first,
    so ``lo < hi`` holds after every event.
    """
    a, b = rng.random(2)
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    root2 = math.sqrt(2.0) - 1.0
    span = BRUSH_HIGH - BRUSH_MIN_WIDTH - 1000.0 - BRUSH_LOW
    is_lo = np.empty(2 * windows, dtype=bool)
    values = np.empty(2 * windows)
    lo = BRUSH_LOW
    for k in range(windows):
        new_lo = BRUSH_LOW + span * ((a + k * phi) % 1.0)
        new_hi = new_lo + BRUSH_MIN_WIDTH + 1000.0 * ((b + k * root2) % 1.0)
        order = [(True, new_lo), (False, new_hi)]
        if new_lo >= lo:
            order.reverse()
        for j, (flag, value) in enumerate(order):
            is_lo[2 * k + j] = flag
            values[2 * k + j] = value
        lo = new_lo
    return is_lo, values


def serve_brush_hi(phase, k):
    """serve-open's ``k``-th brush move: the upper bound of a brush whose
    lower bound stays at 0, at ``BRUSH_LOW + BRUSH_MIN_WIDTH`` plus
    ``frac(phase + k * phi)`` of the rest of the range up to
    ``BRUSH_HIGH``.  Like :func:`brush_sequence`, the low-discrepancy
    step spreads the bounds evenly over the range after any number of
    moves and keeps every value off the tile grid and never repeated;
    unlike it, the sequence never runs out."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    low = BRUSH_LOW + BRUSH_MIN_WIDTH
    return low + (BRUSH_HIGH - low) * ((float(phase) + k * phi) % 1.0)


def make_inputs(workload, seed):
    """Every array one run of ``workload`` needs, from ``seed`` alone."""
    rng = np.random.default_rng([int(seed), WORKLOAD_INDEX[workload]])
    if workload in ("brush-requery", "brush-tiles"):
        out = {"table." + k: v
               for k, v in flights(rng, BRUSH_ROWS, ZIPF_SHARES).items()}
        out["brush_is_lo"], out["brush"] = brush_sequence(
            rng, SEQUENCE_EVENTS // 2)
        if workload == "brush-tiles":
            batch = flights(rng, TILES_APPEND_ROWS * TILES_APPEND_ROUNDS,
                            ZIPF_SHARES)
            out.update({"append." + k: v for k, v in batch.items()})
        return out
    if workload == "serve-open":
        out = {"table." + k: v
               for k, v in flights(rng, SERVE_ROWS, ZIPF_SHARES).items()}
        out["brush_phase"] = rng.random(1)
        return out
    raise ValueError("unknown workload {!r}".format(workload))


def table_arrays(arrays, prefix="table."):
    """The columns stored under ``prefix`` as a name -> array dict."""
    return {k[len(prefix):]: arrays[k] for k in arrays if k.startswith(prefix)}
