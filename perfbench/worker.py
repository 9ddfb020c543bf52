"""Runs one in-process workload (brush-requery or brush-tiles) in a
fresh interpreter.

``run.py`` starts this script with the path of the ``.npz`` inputs it
generated; this process runs the program, checks every output against
:mod:`reference`, and prints one JSON object as its last stdout line.
Its own peak RSS is the ``peak_rss_mb`` metric, so nothing but the
program and the loaded inputs lives here.

Phases of one run: set-up, an untimed warm-up, then whole rounds of
timed events until ``--seconds`` of them have passed, with four more
set-ups and eight dashboard opens (fresh sessions over the loaded
backend) measured between rounds (:class:`Interleaved`).  With
``--trace 1`` the rounds alternate between untraced and traced
(:func:`run_traced`): the traced rounds' spans give the per-layer
metrics, and the two kinds' p50 difference is the tracing overhead.
"""

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time

import numpy as np

import inputs
import reference as ref
from spantrace import PER_LAYER, Recorder, instrument, layer_metrics, \
    layer_shares

#: the two-view linked-brushing dashboard: a departure-delay histogram
#: and a per-carrier count and mean, both filtered by one distance brush
BRUSH_DASHBOARD = {
    "signals": [
        {"name": "lo", "value": 0.0,
         "bind": {"input": "range", "min": 0, "max": 3000}},
        {"name": "hi", "value": 3000.0,
         "bind": {"input": "range", "min": 0, "max": 3000}},
    ],
    "data": [
        {"name": "flights", "url": "synthetic://flights"},
        {"name": "hist", "source": "flights", "transform": [
            {"type": "filter",
             "expr": "datum.distance >= lo && datum.distance < hi"},
            {"type": "bin", "field": "dep_delay",
             "extent": [-30, 600], "maxbins": 30,
             "as": ["bin0", "bin1"]},
            {"type": "aggregate", "groupby": ["bin0", "bin1"],
             "ops": ["count"], "as": ["cnt"]},
        ]},
        {"name": "by_carrier", "source": "flights", "transform": [
            {"type": "filter",
             "expr": "datum.distance >= lo && datum.distance < hi"},
            {"type": "aggregate", "groupby": ["carrier"],
             "ops": ["count", "mean"], "fields": [None, "dep_delay"],
             "as": ["cnt", "avg_delay"]},
        ]},
    ],
    "marks": [
        {"type": "rect", "from": {"data": "hist"},
         "encode": {"update": {"x": {"field": "bin0"},
                               "x2": {"field": "bin1"},
                               "y": {"field": "cnt"}}}},
        {"type": "rect", "from": {"data": "by_carrier"},
         "encode": {"update": {"x": {"field": "carrier"},
                               "y": {"field": "cnt"},
                               "fill": {"field": "avg_delay"}}}},
    ],
}


def reference_loop():
    """A fixed pure-Python loop (best of three), timed to tell a slow
    machine from a slow program.  Never used to rescale a metric."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best


def to_table(columns):
    from repro.datagen.common import columns_to_batch

    return columns_to_batch(**columns)


def to_rows(columns, start, stop):
    names = list(columns)
    out = []
    for i in range(start, stop):
        row = {}
        for name in names:
            value = columns[name][i].item()
            if isinstance(value, float) and math.isnan(value):
                value = None
            row[name] = value
        out.append(row)
    return out


# -- workloads ---------------------------------------------------------------


class BrushWorkload:
    """brush-requery: off-grid, never-repeating brush moves that every
    time miss the result cache and re-run both GROUP BY scans."""

    round_events = 2
    #: events between two interleaved set-up or open measurements
    spacing = 50
    #: timed events after which peak RSS is read
    rss_events = 320

    def __init__(self, arrays):
        self.columns = inputs.table_arrays(arrays)
        self.table = to_table(self.columns)
        self.brush = arrays["brush"]
        self.is_lo = arrays["brush_is_lo"]
        self.cursor = 0
        self.lo, self.hi = 0.0, 3000.0
        self._ref_columns()

    def _ref_columns(self):
        self.distance = self.columns["distance"]
        self.delay = self.columns["dep_delay"]
        self.carrier = self.columns["carrier"]

    def new_session(self, backend, table=None):
        from repro.core import VegaPlus

        if table is None:
            table = self.table
        session = VegaPlus(BRUSH_DASHBOARD, data={"flights": table},
                           backend=backend, latency_ms=0.0,
                           bandwidth_mbps=100000.0)
        session.startup()
        return session

    def setup(self):
        from repro.backends import create_backend

        return self.new_session(create_backend("embedded"))

    def check_open(self, session):
        return self.check(session, 0.0, 3000.0)

    def warmup(self, session):
        """One untimed round; a cube the cost gate builds on the first
        brush event is built here."""
        phase = TimedPhase(None)
        self.run_round(session, phase)
        return phase.failed == 0

    def next_bound(self):
        if self.cursor >= len(self.brush):
            raise RuntimeError("brush sequence exhausted")
        value = float(self.brush[self.cursor])
        name = "lo" if self.is_lo[self.cursor] else "hi"
        self.cursor += 1
        return name, value

    def run_round(self, session, timed):
        for _ in range(self.round_events):
            name, value = self.next_bound()
            timed(lambda: session.interact(name, value),
                  lambda: self.moved(session, name, value))

    def moved(self, session, name, value):
        if name == "lo":
            self.lo = value
        else:
            self.hi = value
        return self.check(session, self.lo, self.hi)

    def check(self, session, lo, hi):
        """Histogram and per-carrier view against numpy."""
        mask = ref.brush_mask(self.distance, lo, hi)
        delays = self.delay[mask]
        valid = np.sort(delays[~np.isnan(delays)])
        hist = [r for r in session.results("hist") if r["bin0"] is not None]
        if sum(r["cnt"] for r in hist) != valid.size:
            return False
        if hist:
            top = max(r["bin0"] for r in hist)
            for row in hist:
                if row["bin0"] != top and row["cnt"] != ref.interval_count(
                        valid, row["bin0"], row["bin1"]):
                    return False
        expected = ref.carrier_aggregates(self.carrier, self.delay, mask)
        got = {r["carrier"]: (r["cnt"], r["avg_delay"])
               for r in session.results("by_carrier")}
        if set(got) != set(expected):
            return False
        return all(got[k][0] == expected[k][0]
                   and ref.close(got[k][1], expected[k][1])
                   for k in expected)


class TilesWorkload(BrushWorkload):
    """brush-tiles: snapped brush moves answered by tile-cube slices,
    with one small append per round of ten events."""

    round_events = inputs.TILES_SLICES_PER_ROUND
    spacing = 100
    rss_events = 800

    def __init__(self, arrays):
        super().__init__(arrays)
        self.appends = inputs.table_arrays(arrays, "append.")
        self.append_rounds = 0

    def setup(self):
        session = super().setup()
        built = session.prewarm_tiles()
        if built != 2:
            raise RuntimeError(
                "expected both views to tile, built {}".format(built))
        return session

    def run_round(self, session, timed):
        for _ in range(self.round_events):
            name, raw = self.next_bound()
            op = ">=" if name == "lo" else "<"
            value = session.snap_brush("hist", "distance", raw, op)
            timed(lambda: session.interact(name, value),
                  lambda: self.moved(session, name, value))
        size = inputs.TILES_APPEND_ROWS
        start = (self.append_rounds % inputs.TILES_APPEND_ROUNDS) * size
        self.append_rounds += 1
        rows = to_rows(self.appends, start, start + size)
        timed(lambda: session.append_data("flights", rows),
              lambda: self.appended(session, start, start + size),
              append=True)

    def appended(self, session, start, stop):
        for name in ("distance", "dep_delay", "carrier"):
            self.columns[name] = np.concatenate(
                [self.columns[name], self.appends[name][start:stop]])
        self._ref_columns()
        return self.check(session, self.lo, self.hi)


WORKLOADS = {
    "brush-requery": BrushWorkload,
    "brush-tiles": TilesWorkload,
}


# -- the run -----------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class TimedPhase:
    """Times events one at a time; checks run outside the timing."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.append_ids = set()

    def __call__(self, action, check, append=False):
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.phase = "event"
            self.recorder.event = self.attempted
        start = time.perf_counter()
        try:
            action()
        except Exception as exc:  # a failed operation is counted, not fatal
            print("event failed: {!r}".format(exc), file=sys.stderr)
            self.failed += 1
            return
        finally:
            if self.recorder is not None:
                self.recorder.phase = "check"
        self.latencies.append(time.perf_counter() - start)
        if append:
            self.append_ids.add(self.attempted)
        if not check():
            self.failed += 1
            self.wrong += 1


class Interleaved:
    """The set-ups and dashboard opens measured between rounds of timed
    events, one every ``workload.spacing`` events, so their samples are
    spread over the run rather than taken at one moment of it; their
    time stays out of the event latencies.  Peak RSS is read once
    ``workload.rss_events`` events have run, so it covers the same work
    in every run however fast the machine is."""

    PLAN = ["open", "setup", "open", "open", "setup", "open", "setup",
            "open", "open", "setup", "open", "open"]

    def __init__(self, workload, session, setup_times, recorder):
        self.workload = workload
        self.session = session
        self.setup_times = setup_times
        self.open_times = []
        self.recorder = recorder
        self.pending = list(self.PLAN)
        self.attempted = 0
        self.wrong = 0
        self.peak_rss_kb = None

    def after_round(self, events, final=False):
        spacing = self.workload.spacing
        while self.pending and (final or events >= spacing * (
                len(self.PLAN) - len(self.pending) + 1)):
            self.measure(self.pending.pop(0))
        if self.peak_rss_kb is None and (
                final or events >= self.workload.rss_events):
            self.peak_rss_kb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss

    def measure(self, kind):
        if self.recorder is not None:
            self.recorder.phase = kind
        gc.collect()
        if kind == "setup":
            start = time.perf_counter()
            self.workload.setup()
            self.setup_times.append(time.perf_counter() - start)
        else:
            self.attempted += 1
            start = time.perf_counter()
            opened = self.workload.new_session(
                self.session.backend, self.session.tables["flights"])
            self.open_times.append(time.perf_counter() - start)
            self.wrong += int(not self.workload.check_open(opened))
        gc.collect()
        if self.recorder is not None:
            self.recorder.phase = "check"


def run_phase(workload, session, seconds, between):
    phase = TimedPhase(None)
    start = time.perf_counter()
    elapsed = 0.0
    while elapsed < seconds:
        workload.run_round(session, phase)
        elapsed = time.perf_counter() - start
        between.after_round(len(phase.latencies))
        start = time.perf_counter() - elapsed
    between.after_round(len(phase.latencies), final=True)
    return phase


def run_traced(workload, session, seconds, between, recorder):
    """Rounds alternate between untraced and traced, so drift within the
    run touches both alike; returns (traced, untraced).  The interleaved
    set-ups and opens are traced."""
    traced = TimedPhase(recorder)
    untraced = TimedPhase(None)
    start = time.perf_counter()
    elapsed = 0.0
    turn = 0
    while True:
        if turn % 2:
            instrument(recorder)
            workload.run_round(session, traced)
            recorder.uninstall()
        else:
            workload.run_round(session, untraced)
        turn += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and turn % 2 == 0:
            break
        instrument(recorder)
        between.after_round(len(traced.latencies))
        recorder.uninstall()
        start = time.perf_counter() - elapsed
    instrument(recorder)
    between.after_round(len(traced.latencies), final=True)
    recorder.uninstall()
    return traced, untraced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    loop_before = reference_loop()
    with np.load(args.inputs) as data:
        arrays = {k: data[k] for k in data.files}
    workload = WORKLOADS[args.workload](arrays)
    del arrays
    recorder = None
    if args.trace:
        recorder = Recorder()
        instrument(recorder)

    setup_times = []
    start = time.perf_counter()
    session = workload.setup()
    setup_times.append(time.perf_counter() - start)
    if recorder is not None:
        recorder.phase = "warm"
    attempted = 1
    wrong = int(not workload.warmup(session))
    between = Interleaved(workload, session, setup_times, recorder)

    if recorder is None:
        timed = run_phase(workload, session, args.seconds, between)
        phases = [timed]
    else:
        recorder.uninstall()
        timed, untraced = run_traced(workload, session, args.seconds,
                                     between, recorder)
        phases = [timed, untraced]
    attempted += between.attempted + sum(p.attempted for p in phases)
    wrong += between.wrong + sum(p.wrong for p in phases)
    # a failed check fails its operation; phase.failed already counts
    # the phases' own wrong answers
    failed = wrong + sum(p.failed - p.wrong for p in phases)
    loop_after = reference_loop()

    lat = timed.latencies
    out = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "events": len(lat),
        "reference_loop_s": [loop_before, loop_after],
    }
    if recorder is None:
        out["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "startup_s": statistics.median(between.open_times),
            "event_p50_s": percentile(lat, 0.50),
            "event_p95_s": percentile(lat, 0.95),
            "events_per_s": len(lat) / sum(lat),
            "peak_rss_mb": between.peak_rss_kb / 1024.0,
        }
    else:
        counts = {"events": len(lat), "opens": len(between.open_times),
                  "appends": len(timed.append_ids),
                  "setups": len(between.setup_times)}
        spans = recorder.spans
        metrics = layer_metrics(
            spans,
            in_events=lambda s: s[5] == "event",
            in_opens=lambda s: s[5] == "open",
            in_setup=lambda s: s[5] == "setup",
            counts=counts)
        metrics["trace.overhead_s"] = (
            percentile(lat, 0.5) - percentile(untraced.latencies, 0.5))
        out["metrics"] = {name: metrics.get(name, 0.0)
                          for name, _, _ in PER_LAYER}
        appends = timed.append_ids
        out["shares"] = layer_shares(spans, lambda s: s[5] == "event")
        if appends:
            out["shares"] = {
                "slice": layer_shares(spans, lambda s: s[5] == "event"
                                      and s[6] not in appends),
                "append": layer_shares(spans, lambda s: s[5] == "event"
                                       and s[6] in appends),
            }
        if args.spans:
            recorder.dump(args.spans, extra={"counts": counts})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
