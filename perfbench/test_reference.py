"""Hand-computed cases for the reference module.

Run with ``python3 -m pytest perfbench/test_reference.py`` or
``python3 perfbench/test_reference.py``.
"""

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402

NAN = float("nan")


def test_vega_bin_step_rule():
    # span 630, maxbins 30: 10 -> 100 (63 bins > 30); 100/5 = 20 gives
    # 31.5 bins (too many); 100/2 = 50 gives 12.6 -> step 50
    assert ref.vega_bin([-30, 600], 30) == (-50.0, 600.0, 50.0)
    # span 100, maxbins 20: 1 -> 10; 10/5 = 2 gives 50 bins; 10/2 = 5
    # gives exactly 20 -> step 5
    assert ref.vega_bin([0, 100], 20) == (0.0, 100.0, 5.0)
    # span 10, maxbins 5: 1 -> 10; 10/5 = 2 gives 5 bins -> step 2
    assert ref.vega_bin([0, 10], 5) == (0.0, 10.0, 2.0)
    # span 630, maxbins 5: 100 -> 1000; 1000/5 = 200 (3.15 bins) ->
    # step 200, and start snaps outward from -30 to -200
    assert ref.vega_bin([-30, 600], 5) == (-200.0, 600.0, 200.0)


def test_bin_starts_clamp_top_edge():
    starts = ref.bin_starts(np.array([0.0, 1.9, 2.0, 9.5, 10.0]),
                            0.0, 10.0, 2.0)
    assert starts.tolist() == [0.0, 0.0, 2.0, 8.0, 8.0]


def test_histogram_rows_counts_null_bin():
    # extent [0, 10], step 2: bins 0, 2, 8 are non-empty (10 clamps into
    # 8), plus one NULL bin
    values = np.array([0.0, 1.0, 2.0, 9.5, 10.0, NAN])
    assert ref.histogram_rows(values, 5) == 4
    assert ref.histogram_rows(values[:-1], 5) == 3


def test_brush_and_interval_counts():
    distance = np.array([50.0, 100.0, 150.0, 199.9, 200.0, NAN])
    mask = ref.brush_mask(distance, 100.0, 200.0)
    assert mask.tolist() == [False, True, True, True, False, False]
    values = np.sort(np.array([-1.0, 0.0, 0.5, 1.0, 2.0]))
    assert ref.interval_count(values, 0.0, 1.0) == 2
    assert ref.interval_count(values, 1.0, 3.0) == 2


def test_brush_dashboard_rows():
    distance = np.array([100.0, 150.0, 200.0, 250.0, 300.0])
    delay = np.array([-30.0, 10.0, NAN, 600.0, 599.0])
    carrier = np.array(["AA", "AA", "DL", "UA", "WN"])
    # extent [-30, 600], step 50: [0, 260) holds bins -50 and 0, the
    # NULL bin, and bin 550 (600 clamps into it); carriers AA, DL, UA
    assert ref.brush_dashboard_rows(distance, delay, carrier, 0.0, 260.0,
                                    [-30, 600], 30) == 7
    # [0, 160): bins -50 and 0, no NULL, carrier AA
    assert ref.brush_dashboard_rows(distance, delay, carrier, 0.0, 160.0,
                                    [-30, 600], 30) == 3


def test_carrier_aggregates():
    carrier = np.array(["AA", "AA", "DL", "DL", "UA"])
    delay = np.array([1.0, 3.0, NAN, NAN, 5.0])
    mask = np.array([True, True, True, True, False])
    assert ref.carrier_aggregates(carrier, delay, mask) == {
        "AA": (2, 2.0), "DL": (2, None)}


def test_least_squares():
    x = np.array([0.0, 1.0, 2.0, NAN])
    y = np.array([1.0, 2.0, 4.0, 9.0])
    # means 1 and 7/3; Sxx = 2, Sxy = 3 -> slope 1.5, intercept 5/6
    slope, intercept, x_min, x_max = ref.least_squares(x, y)
    assert math.isclose(slope, 1.5)
    assert math.isclose(intercept, 5.0 / 6.0)
    assert (x_min, x_max) == (0.0, 2.0)
    points = ref.trend_points(x, y)
    assert math.isclose(points[1][1], 5.0 / 6.0 + 3.0)


def test_row_set_and_close():
    rows = ref.RowSet(np.array([2.0, 1.0, 2.0]), np.array([4.0, NAN, 5.0]),
                      np.array(["DL", "AA", "UA"]))
    assert (1.0, None, "AA") in rows
    assert (2.0, 5.0, "UA") in rows and (2.0, 4.0, "DL") in rows
    assert (2.0, 4.0, "UA") not in rows and (3.0, 4.0, "DL") not in rows
    assert (1.0, 0.0, "AA") not in rows
    assert ref.close(1.0, 1.0 + 1e-12) and not ref.close(1.0, 1.0001)
    assert ref.close(None, None) and not ref.close(None, 0.0)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print("ok  ", name)
            except AssertionError as exc:
                failures += 1
                print("FAIL", name, exc)
    sys.exit(1 if failures else 0)
