"""Spans recorded around the program's public calls, from outside it.

:class:`Recorder` replaces a named function or method of the program
with a wrapper that records one span per call: name, start, end, the
span that was open on the same thread when the call began (its parent),
and the phase and event id the benchmark had set.  Nothing inside
``src/`` changes; :meth:`Recorder.uninstall` puts every original back.
Spans stay in memory until :meth:`Recorder.dump` writes them as JSON.

:func:`layer_metrics` turns a list of spans into the per-layer metrics
``BENCHMARK.json`` names.  A layer's time counts each call once: a span
nested inside another span of the same layer is not added again.
"""

import itertools
import json
import threading
import time

#: a span's layer is the part of its name before the first dot; these
#: are the session's entry points for an event and for an open
SESSION_ENTRIES = ("session.interact", "session.append_data")
OPEN_ENTRIES = ("session.init", "session.startup")


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.event = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, before=None, after=None):
        """Record a span around every call of ``owner.attr``.

        ``before(args)`` runs first and its result goes to
        ``after(args, result, before_value)``, whose return value is
        stored as the span's value (a byte count, a hit flag, ...).
        """
        fn = owner.__dict__[attr]
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else 0
            span_id = next(recorder._ids)
            phase, event = recorder.phase, recorder.event
            prior = before(args) if before is not None else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            value = after(args, result, prior) if after is not None else None
            recorder.spans.append(
                (span_id, name, start, end, parent, phase, event, value))
            return result

        self._install(owner, attr, fn, wrapper)

    def wrap_async(self, owner, attr, name):
        """Record a span around a coroutine method.  Coroutines interleave
        on one thread, so these spans take no part in parent tracking."""
        fn = owner.__dict__[attr]
        recorder = self

        async def wrapper(*args, **kwargs):
            span_id = next(recorder._ids)
            phase, event = recorder.phase, recorder.event
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.spans.append(
                    (span_id, name, start, time.perf_counter(), 0, phase,
                     event, None))

        self._install(owner, attr, fn, wrapper)

    def _install(self, owner, attr, fn, wrapper):
        wrapper.__name__ = getattr(fn, "__name__", attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        self._originals.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals = []

    def dump(self, path, extra=None):
        keys = ("id", "name", "start", "end", "parent", "phase", "event",
                "value")
        with open(path, "w") as handle:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "extra": extra or {}}, handle)


def instrument(recorder, serve=False):
    """Wrap every layer boundary the per-layer metrics need."""
    if recorder._originals:
        raise RuntimeError("span wrappers are already installed")
    import repro.core.executors as executors
    import repro.core.session as session
    import repro.tiles.manager as tiles_manager
    from repro.backends.embedded import EmbeddedBackend
    from repro.core.cache import ResultCache
    from repro.metrics.registry import MetricsRegistry
    from repro.planner.partition import PartitionOptimizer
    from repro.sqlgen.compose import SqlPipelineBuilder

    wrap = recorder.wrap
    wrap(session, "compile_spec", "compile.compile_spec")
    wrap(PartitionOptimizer, "plan", "planner.plan")
    for attr in ("__init__", "add_step", "value_query", "query"):
        wrap(SqlPipelineBuilder, attr, "sqlgen.builder")
    for attr in ("merge_query", "rewrite_query", "render"):
        wrap(executors, attr, "sqlgen." + attr)
    wrap(EmbeddedBackend, "execute", "engine.execute")
    wrap(session, "compute_stats", "engine.compute_stats")
    wrap(EmbeddedBackend, "load_table", "data.load_table")
    wrap(executors, "wire_bytes", "net.wire_bytes",
         after=lambda args, result, prior: result)
    wrap(ResultCache, "get", "cache.get",
         after=lambda args, result, prior: int(result is not None))
    wrap(ResultCache, "put", "cache.put",
         before=lambda args: args[0].evictions,
         after=lambda args, result, prior: args[0].evictions - prior)
    wrap(executors.ClientSuffixRunner, "run_suffix", "client.run_suffix",
         before=lambda args: _rows_in(args[3]),
         after=lambda args, result, prior: prior)
    manager = tiles_manager.TileIndexManager
    wrap(manager, "try_interact", "tiles.try_interact",
         before=lambda args: args[0].unaligned,
         after=lambda args, result, prior: (
             "hit" if result is not None
             else "unaligned" if args[0].unaligned > prior else "skip"))
    wrap(tiles_manager, "build_cube", "tiles.build_cube")
    wrap(manager, "on_append", "tiles.on_append")
    wrap(session.VegaPlus, "__init__", "session.init")
    wrap(session.VegaPlus, "startup", "session.startup")
    wrap(session.VegaPlus, "interact", "session.interact")
    wrap(session.VegaPlus, "append_data", "session.append_data")
    for attr in ("inc", "observe", "set_gauge"):
        wrap(MetricsRegistry, attr, "metrics." + attr)
    if serve:
        from repro.serve.admission import AdmissionController
        from repro.serve.pool import SessionPool

        recorder.wrap_async(AdmissionController, "admit", "serve.admit")
        recorder.wrap_async(SessionPool, "acquire", "serve.acquire")


def _rows_in(data):
    rows = getattr(data, "num_rows", None)
    if rows is None:
        rows = len(data) if data is not None else 0
    return rows


# -- per-layer metrics -------------------------------------------------------

#: every per-layer metric, its unit, and better direction; the values a
#: workload cannot produce (serve.* in process, tiles.* on serve-open)
#: read 0
PER_LAYER = [
    ("compile.s_per_open", "s", "lower"),
    ("planner.plan_s_per_open", "s", "lower"),
    ("planner.plan_s_per_event", "s", "lower"),
    ("sqlgen.translate_s_per_event", "s", "lower"),
    ("engine.execute_s_per_event", "s", "lower"),
    ("engine.queries_per_event", "count", "lower"),
    ("engine.execute_s_per_open", "s", "lower"),
    ("engine.stats_s_per_open", "s", "lower"),
    ("data.load_s", "s", "lower"),
    ("data.append_s", "s", "lower"),
    ("net.response_bytes_per_event", "bytes", "lower"),
    ("net.sizing_s_per_event", "s", "lower"),
    ("net.response_bytes_per_open", "bytes", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("client.suffix_s_per_event", "s", "lower"),
    ("client.rows_in_per_event", "rows", "lower"),
    ("tiles.try_s_per_event", "s", "lower"),
    ("tiles.hit_ratio", "ratio", "higher"),
    ("tiles.build_s", "s", "lower"),
    ("tiles.patch_s_per_append", "s", "lower"),
    ("session.self_s_per_event", "s", "lower"),
    ("session.self_s_per_open", "s", "lower"),
    ("metrics.updates_per_event", "count", "lower"),
    ("metrics.s_per_event", "s", "lower"),
    ("serve.admit_s_per_request", "s", "lower"),
    ("serve.acquire_s_per_request", "s", "lower"),
    ("serve.sessions_built", "count", "lower"),
    ("serve.interact_s_per_request", "s", "lower"),
    ("serve.http_s_per_request", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

#: layers whose spans count as "below" the session when computing its
#: self time (metrics updates stay in the session's own time)
_BELOW_SESSION = ("compile", "planner", "sqlgen", "engine", "data", "net",
                  "cache", "client", "tiles")


class SpanIndex:
    """Lookups over one list of span tuples."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s[4], []).append(s)

    def has_ancestor(self, span, predicate):
        parent = self.by_id.get(span[4])
        while parent is not None:
            if predicate(parent):
                return True
            parent = self.by_id.get(parent[4])
        return False

    def top(self, spans, prefix):
        """Spans named ``prefix*`` with no ancestor of that prefix."""
        return [s for s in spans if s[1].startswith(prefix)
                and not self.has_ancestor(
                    s, lambda p: p[1].startswith(prefix))]

    def self_time(self, span):
        below = sum(c[3] - c[2] for c in self.children.get(span[0], ())
                    if c[1].split(".", 1)[0] in _BELOW_SESSION)
        return (span[3] - span[2]) - below


def _total(spans):
    return sum(s[3] - s[2] for s in spans)


def _per(value, count):
    return value / count if count else 0.0


def layer_metrics(spans, in_events, in_opens, in_setup, counts):
    """Per-layer metrics from ``spans``.

    ``in_events``/``in_opens``/``in_setup`` select the spans of the timed
    events, of the dashboard opens, and of set-up; ``counts`` gives the
    number of events, opens, appends and set-ups those spans cover.
    """
    index = SpanIndex(spans)
    events = [s for s in spans if in_events(s)]
    opens = [s for s in spans if in_opens(s)]
    setup = [s for s in spans if in_setup(s)]
    n_events = counts["events"]
    n_opens = counts["opens"]
    n_appends = counts.get("appends", 0)
    n_setups = counts.get("setups", 1)

    def named(group, name):
        return [s for s in group if s[1] == name]

    lookups = named(events, "cache.get")
    tries = named(events, "tiles.try_interact")
    tile_hits = sum(1 for s in tries if s[7] == "hit")
    tile_unaligned = sum(1 for s in tries if s[7] == "unaligned")
    in_append = [s for s in events if s[1] in (
        "data.load_table", "engine.compute_stats")
        and index.has_ancestor(s, lambda p: p[1] == "session.append_data")]
    builds = _total(named(setup, "tiles.build_cube"))
    event_builds = _total([s for s in spans if s[1] == "tiles.build_cube"
                           and s[5] in ("warm", "event")])
    client = index.top(events, "client.")
    entries = index.top([s for s in events if s[1] in SESSION_ENTRIES],
                        "session.")
    open_entries = [s for s in opens if s[1] in OPEN_ENTRIES]
    metric_calls = [s for s in events if s[1].startswith("metrics.")]
    return {
        "compile.s_per_open": _per(
            _total(index.top(opens, "compile.")), n_opens),
        "planner.plan_s_per_open": _per(
            _total(index.top(opens, "planner.")), n_opens),
        "planner.plan_s_per_event": _per(
            _total(index.top(events, "planner.")), n_events),
        "sqlgen.translate_s_per_event": _per(
            _total(index.top(events, "sqlgen.")), n_events),
        "engine.execute_s_per_event": _per(
            _total(named(events, "engine.execute")), n_events),
        "engine.queries_per_event": _per(
            len(named(events, "engine.execute")), n_events),
        "engine.execute_s_per_open": _per(
            _total(named(opens, "engine.execute")), n_opens),
        "engine.stats_s_per_open": _per(
            _total(named(opens, "engine.compute_stats")), n_opens),
        "data.load_s": _per(
            _total(named(setup, "data.load_table")), n_setups),
        "data.append_s": _per(_total(in_append), n_appends),
        "net.response_bytes_per_event": _per(
            sum(s[7] for s in named(events, "net.wire_bytes")), n_events),
        "net.sizing_s_per_event": _per(
            _total(named(events, "net.wire_bytes")), n_events),
        "net.response_bytes_per_open": _per(
            sum(s[7] for s in named(opens, "net.wire_bytes")), n_opens),
        "cache.hit_ratio": _per(sum(s[7] for s in lookups), len(lookups)),
        "cache.evictions": float(sum(s[7] for s in named(events,
                                                          "cache.put"))),
        "client.suffix_s_per_event": _per(_total(client), n_events),
        "client.rows_in_per_event": _per(
            sum(s[7] for s in client), n_events),
        "tiles.try_s_per_event": _per(_total(tries), n_events),
        "tiles.hit_ratio": _per(tile_hits, tile_hits + tile_unaligned),
        "tiles.build_s": _per(builds, n_setups) + event_builds,
        "tiles.patch_s_per_append": _per(
            _total(named(events, "tiles.on_append")), n_appends),
        "session.self_s_per_event": _per(
            sum(index.self_time(s) for s in entries), n_events),
        "session.self_s_per_open": _per(
            sum(index.self_time(s) for s in open_entries), n_opens),
        "metrics.updates_per_event": _per(len(metric_calls), n_events),
        "metrics.s_per_event": _per(_total(metric_calls), n_events),
    }


def layer_shares(spans, in_events, total=None):
    """Each layer's share of the timed events' time.

    Every span's exclusive time (its duration minus its children's) goes
    to its own layer, so the shares partition the time of the session
    entry spans (interact / append_data) without double counting.
    ``total`` overrides the denominator (a served request's
    client-observed latency)."""
    index = SpanIndex(spans)
    events = [s for s in spans if in_events(s)]
    if total is None:
        total = _total(index.top(
            [s for s in events if s[1] in SESSION_ENTRIES], "session."))
    if not total:
        return {}
    shares = {}
    for s in events:
        exclusive = (s[3] - s[2]) - _total(index.children.get(s[0], ()))
        layer = s[1].split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + exclusive / total
    return shares
