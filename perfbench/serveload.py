"""serve-open: drive the server process over HTTP from this process.

One generator (this process) talks to one server process
(``server.py``) over at most ``nproc`` keep-alive connections, one
thread per connection (``time.sleep`` keeps the open loop's send times
within a fraction of a millisecond of when they are due):

1. set-up: the server process is timed from launch to ``READY``;
2. an untimed warm-up builds the pooled sessions of every load tenant
   and of the brush tenant (the pool builds sessions without tiles, so a
   brush move always runs the engine) and visits every (binField,
   maxbins) pair, so the shared result cache holds the whole working set
   of the histogram dashboard;
3. opens: a quarter of :data:`OPENS` new tenants each send one request,
   timed with the tenant's cold session build (``startup_s``);
4. :data:`CYCLES` cycles, so that each kind of sample is spread over
   the run rather than taken in one stretch of it, each of
   - an open loop, for :data:`OPEN_SHARE` of the cycle, offering
     requests at :data:`RATE_PER_S`: Markov users' requests
     (``build_user_traces``) on the histogram dashboard, each a hit in
     the shared cache, and in every :data:`BRUSH_EVERY`-th slot a brush
     move on the brush dashboard, which misses the cache and runs the
     engine (so ``event_p50_s`` lies among the hits and
     ``event_p95_s`` among the brush moves, each well inside its own
     mode); each latency runs from when the request was due, and the
     generator's lateness (send time minus due time) is reported;
     after the first one the server's peak RSS is read
     (``peak_rss_mb``);
   - a closed loop of Markov users' requests on every connection for
     the rest of the cycle (``events_per_s`` is the median rate over
     blocks of :data:`RATE_BLOCK` completions of all cycles);
   - another quarter of the opens;
5. :data:`SETUPS` minus one more server starts complete the set-up
   samples (``setup_s`` is their median).

With ``--trace 1`` the open loop takes the whole of ``--seconds``, its
first half untraced and its second half traced, with a quarter of the
opens before it and the rest after it.

Every response is checked against :mod:`reference`, and the server's
``/stats`` totals against the generator's own tallies.
"""

import bisect
import http.client
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import inputs
import reference as ref
from spantrace import PER_LAYER, layer_metrics, layer_shares
from worker import BRUSH_DASHBOARD, percentile, reference_loop

SETUPS = 5
#: new tenants whose first request is timed, a quarter of them after
#: the warm-up and a quarter after each cycle
OPENS = 12
#: open-loop and closed-loop cycles of one run
CYCLES = 3
#: offered load of the open loop, well below what the server sustains:
#: a brush move takes about 30 ms of the server's core, a hit about 2 ms,
#: and a move is mostly done before the next request is due
RATE_PER_S = 20.0
#: one open-loop request in this many is a brush move; the moves are
#: 12.5% of the requests, so the p95 sits at about their median
BRUSH_EVERY = 8
BRUSH_TENANT = "b0"
BRUSH_BIN = BRUSH_DASHBOARD["data"][1]["transform"][1]
#: share of each cycle given to the open loop; the closed loop gets the
#: rest
OPEN_SHARE = 0.7
#: closed-loop completions per throughput block
RATE_BLOCK = 500
#: requests planned for the closed loop; it cycles through them if it
#: outlasts them
CLOSED_PLAN = 10_000
LOAD_TENANTS = ["t0", "t1"]
#: many users, each walking a short way from the spec's initial values,
#: so every seed offers nearly the same mix of maxbins values (with four
#: users per tenant the mean maxbins of a run varied by a fifth between
#: seeds, and the closed-loop rate with it)
USERS_PER_TENANT = 32
FIELDS = ["dep_delay", "arr_delay", "distance", "air_time"]
MAXBINS = range(5, 101)
DEFAULT_MAXBINS = 20
READY_TIMEOUT_S = 60
#: the cores this process may use, read before it pins itself
CORES = sorted(os.sched_getaffinity(0))


class Connection:
    """One keep-alive HTTP/1.1 connection, used by one thread at a time."""

    def __init__(self, port):
        self.http = http.client.HTTPConnection("127.0.0.1", port)

    def close(self):
        self.http.close()

    def request(self, method, path, obj=None, tenant=None):
        headers = {"Content-Type": "application/json"}
        if tenant is not None:
            headers["X-Tenant"] = tenant
        body = None if obj is None else json.dumps(obj).encode()
        self.http.request(method, path, body=body, headers=headers)
        response = self.http.getresponse()
        return response.status, json.loads(response.read() or b"null")

    def interact(self, tenant, signal, value, dashboard="flights"):
        return self.request(
            "POST", "/v1/interact",
            {"dashboard": dashboard, "signal": signal, "value": value},
            tenant=tenant)


def on_each(conns, fn):
    """Run ``fn(conn, index)`` for every connection, each on a thread of
    its own, and return the results in connection order."""
    with ThreadPoolExecutor(max_workers=len(conns)) as pool:
        futures = [pool.submit(fn, conn, i) for i, conn in enumerate(conns)]
        return [future.result() for future in futures]


class Server:
    """One server process."""

    def __init__(self, input_path, env, trace, spans_path):
        command = [sys.executable,
                   os.path.join(os.path.dirname(__file__), "server.py"),
                   "--inputs", input_path, "--workers", str(workers()),
                   "--trace", str(trace)]
        if spans_path:
            command += ["--spans", spans_path]
        self.proc = subprocess.Popen(command, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     preexec_fn=pin(server=True))
        line = self.proc.stdout.readline()
        if not line.startswith("READY"):
            self.kill()
            raise RuntimeError("server did not start: {!r}".format(line))
        self.port = int(line.split()[1])

    def command(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply.startswith("OK"):
            raise RuntimeError("server answered {!r}".format(reply))
        return reply.split()[1:]

    def stop(self):
        self.proc.stdin.write("STOP\n")
        self.proc.stdin.flush()
        done = None
        for line in self.proc.stdout:
            if line.startswith("DONE "):
                done = json.loads(line[5:])
        self.proc.wait(timeout=READY_TIMEOUT_S)
        return done

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def workers():
    return os.cpu_count() or 1


def pin(server):
    """CPU placement: the generator on the last core, the server on the
    others, so the two processes never share a core and the scheduler
    never migrates them onto one (with both free to move, the served p50
    switched between two levels 25% apart from run to run).  Returns a
    function that pins the calling process; a no-op on one core."""
    cores = CORES

    def apply():
        if len(cores) > 1:
            os.sched_setaffinity(0, cores[:-1] if server else cores[-1:])

    return apply


class Tally:
    """Every request the generator sends, and what came back."""

    def __init__(self):
        self.sent = 0
        self.ok = 0
        self.failed = 0
        self.wrong = 0
        self._lock = threading.Lock()

    def record(self, status, body, expected):
        """``expected`` is the allowed set of ``rows`` values."""
        with self._lock:
            self.sent += 1
            if status != 200:
                self.failed += 1
                return False
            self.ok += 1
            if body.get("rows") not in expected:
                self.failed += 1
                self.wrong += 1
                return False
            return True


def request_plan(seed, count):
    """Markov users' requests, interleaved user by user, as
    ``(tenant, signal, value)``."""
    from repro.serve.loadgen import build_user_traces
    from repro.spec import flights_histogram_spec

    users = len(LOAD_TENANTS) * USERS_PER_TENANT
    traces = build_user_traces(
        flights_histogram_spec(), LOAD_TENANTS, USERS_PER_TENANT,
        -(-count // users), seed)
    per_user = [(tenant, trace) for tenant in sorted(traces)
                for trace in traces[tenant]]
    plan = []
    for step in range(len(per_user[0][1].steps)):
        for tenant, trace in per_user:
            plan.append((tenant, trace.steps[step].signal,
                         trace.steps[step].value))
    return plan[:count]


def brush_move(expected, k):
    """The ``k``-th brush move as an open-loop request: the brush's lower
    bound stays at its initial 0 in every session, so the answer does
    not depend on which pooled session serves it."""
    hi = inputs.serve_brush_hi(expected["brush_phase"], k)
    columns = expected["columns"]
    rows = ref.brush_dashboard_rows(
        columns["distance"], columns["dep_delay"], columns["carrier"],
        0.0, hi, BRUSH_BIN["extent"], BRUSH_BIN["maxbins"])
    return "brush", BRUSH_TENANT, "hi", hi, {rows}


def open_plan(expected, markov, count, first_move):
    """``count`` open-loop requests as ``(dashboard, tenant, signal,
    value, allowed row counts)``: ``markov[i]`` in slot ``i``, except in
    every :data:`BRUSH_EVERY`-th slot, which holds the next brush
    move."""
    plan = []
    for i in range(count):
        if i % BRUSH_EVERY == BRUSH_EVERY - 1:
            plan.append(brush_move(expected, first_move + i // BRUSH_EVERY))
        else:
            tenant, signal, value = markov[i]
            plan.append(("flights", tenant, signal, value,
                         expected[signal][value]))
    return plan


def drive(server, seed, seconds, trace, expected, tally):
    rows = expected["rows"]
    conns = [Connection(server.port) for _ in range(workers())]
    out = {}
    rng = np.random.default_rng([seed, 99])

    probe_values = [int(v) for v in rng.integers(5, 101, size=OPENS)]
    open_times = []
    out["open_windows"] = []

    def opens(count):
        """New tenants' first requests: each builds its session cold."""
        window = [time.perf_counter(), None]
        for _ in range(count):
            k = len(open_times)
            value = probe_values[k]
            start = time.perf_counter()
            status, body = conns[0].interact(
                "new{}".format(k), "maxbins", value)
            open_times.append(time.perf_counter() - start)
            tally.record(status, body, {rows[("dep_delay", value)]})
        window[1] = time.perf_counter()
        out["open_windows"].append(window)

    # warm-up: pooled sessions for every load tenant and the brush
    # tenant, then every (binField, maxbins) pair through two warm-up
    # tenants
    for tenant in LOAD_TENANTS:
        for _ in range(2):
            replies = on_each(conns, lambda conn, _: conn.interact(
                tenant, "maxbins", DEFAULT_MAXBINS))
            # fresh sessions: binField is still the spec's dep_delay
            for status, body in replies:
                tally.record(status, body,
                             {rows[("dep_delay", DEFAULT_MAXBINS)]})
    warm_moves = 0
    for _ in range(2):
        moves = [brush_move(expected, warm_moves + i)
                 for i in range(len(conns))]
        warm_moves += len(conns)
        replies = on_each(conns, lambda conn, i: conn.interact(
            *moves[i][1:4], dashboard=moves[i][0]))
        for (status, body), move in zip(replies, moves):
            tally.record(status, body, move[4])

    half = -(-len(FIELDS) // len(conns))

    def visit(conn, index):
        tenant = "w{}".format(index)
        maxbins = DEFAULT_MAXBINS
        for field in FIELDS[index * half:(index + 1) * half]:
            status, body = conn.interact(tenant, "binField", field)
            tally.record(status, body, {rows[(field, maxbins)]})
            for maxbins in MAXBINS:
                status, body = conn.interact(tenant, "maxbins", maxbins)
                tally.record(status, body, {rows[(field, maxbins)]})

    on_each(conns, visit)

    opens(OPENS // (CYCLES + 1))
    open_seconds = seconds if trace else seconds * OPEN_SHARE
    # whole cycles of brush slots in every open loop
    unit = CYCLES * BRUSH_EVERY
    count = unit * max(1, round(RATE_PER_S * open_seconds / unit))
    markov = request_plan(seed, count + CLOSED_PLAN)
    plan = open_plan(expected, markov, count, warm_moves)

    def open_loop(requests, record):
        """Offer ``requests`` at the fixed rate over every connection."""
        cursor = itertools.count()
        t0 = time.perf_counter() + 0.05

        def lane(conn, _):
            while True:
                i = next(cursor)
                if i >= len(requests):
                    return
                due = t0 + i / RATE_PER_S
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                dashboard, tenant, signal, value, allowed = requests[i]
                sent = time.perf_counter()
                status, body = conn.interact(tenant, signal, value,
                                             dashboard)
                done = time.perf_counter()
                ok = tally.record(status, body, allowed)
                record.append((due, sent, done, ok, body))

        on_each(conns, lane)

    timed = []
    if trace:
        half_count = count // 2
        untraced = []
        server.command("TRACE 0")
        open_loop(plan[:half_count], untraced)
        server.command("TRACE 1")
        out["event_window"] = [time.perf_counter(), None]
        open_loop(plan[half_count:count], timed)
        out["event_window"][1] = time.perf_counter()
        out["untraced_p50_s"] = percentile(
            [done - due for due, _, done, _, _ in untraced], 0.5)
        opens(OPENS - OPENS // (CYCLES + 1))
    else:
        cursor = itertools.count()

        def closed_loop(duration):
            """Every connection sends back to back for ``duration``
            seconds; returns the rates of its blocks of completions."""
            completed = []
            start = time.perf_counter()
            end = start + duration

            def closed(conn, _):
                while time.perf_counter() < end:
                    i = count + next(cursor) % CLOSED_PLAN
                    tenant, signal, value = markov[i]
                    status, body = conn.interact(tenant, signal, value)
                    tally.record(status, body, expected[signal][value])
                    completed.append(time.perf_counter())

            on_each(conns, closed)
            return block_rates([start] + sorted(completed))

        per_cycle = count // CYCLES
        rates = []
        for cycle in range(CYCLES):
            open_loop(plan[cycle * per_cycle:(cycle + 1) * per_cycle], timed)
            if cycle == 0:
                out["peak_rss_kb"] = int(server.command("RSS")[0])
            rates += closed_loop((seconds - open_seconds) / CYCLES)
            opens(OPENS // (CYCLES + 1))
        out["events_per_s"] = statistics.median(rates)
    out["startup_s"] = statistics.median(open_times)
    out["timed"] = timed

    status, stats = conns[0].request("GET", "/stats")
    totals = stats["totals"]
    out["stats_ok"] = (
        status == 200 and totals["requests"] == tally.sent
        and totals["admitted"] == tally.sent
        and totals["served"] == tally.ok
        and totals["rejected_total"] == 0 and totals["errors"] == 0
        and totals["unaccounted"] == 0)
    for conn in conns:
        conn.close()
    return out


def block_rates(times):
    """Completion rates over consecutive blocks of :data:`RATE_BLOCK`
    completions (one rate over all of them when there are fewer);
    ``times`` is the loop's start followed by every completion time, in
    order."""
    blocks = (len(times) - 1) // RATE_BLOCK
    if not blocks:
        return [(len(times) - 1) / (times[-1] - times[0])]
    return [RATE_BLOCK / (times[(k + 1) * RATE_BLOCK] - times[k * RATE_BLOCK])
            for k in range(blocks)]


def references(input_path):
    """Histogram row counts for every (field, maxbins), and the counts a
    request may return when only one of the two signals is known: a
    pooled session keeps whatever the other signal was left at.  The
    table and the brush sequence's phase stay here for
    :func:`brush_move`."""
    with np.load(input_path) as data:
        columns = inputs.table_arrays({k: data[k] for k in data.files})
        phase = float(data["brush_phase"][0])
    rows = {(field, m): ref.histogram_rows(columns[field], m)
            for field in FIELDS for m in MAXBINS}
    return {
        "columns": columns,
        "brush_phase": phase,
        "rows": rows,
        "maxbins": {m: {rows[(f, m)] for f in FIELDS} for m in MAXBINS},
        "binField": {f: {rows[(f, m)] for m in MAXBINS} for f in FIELDS},
    }


def run(args, src, input_path, spans_path, env):
    pin(server=False)()
    loop_before = reference_loop()
    expected = references(input_path)
    setup_times = []
    server = None
    try:
        start = time.perf_counter()
        server = Server(input_path, env, args.trace, spans_path)
        setup_times.append(time.perf_counter() - start)
        tally = Tally()
        out = drive(server, args.seed, args.seconds, args.trace, expected,
                    tally)
        done = server.stop()
        server = None
        # the other set-up samples come after the run, so they are not
        # all taken at one moment
        for _ in range(SETUPS - 1):
            start = time.perf_counter()
            server = Server(input_path, env, 0, None)
            setup_times.append(time.perf_counter() - start)
            server.stop()
            server = None
    finally:
        if server is not None:
            server.kill()
    loop_after = reference_loop()

    timed = out["timed"]
    latencies = [done_t - due for due, _, done_t, _, _ in timed]
    lateness = [sent - due for due, sent, _, _, _ in timed]
    wrong = tally.wrong + int(not out["stats_ok"])
    result = {
        "attempted": tally.sent,
        "failed": tally.failed + int(not out["stats_ok"]),
        "wrong": wrong,
        "events": len(timed),
        "reference_loop_s": [loop_before, loop_after],
        "lateness_s": {"median": statistics.median(lateness),
                       "max": max(lateness)},
    }
    if not args.trace:
        result["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "startup_s": out["startup_s"],
            "event_p50_s": percentile(latencies, 0.50),
            "event_p95_s": percentile(latencies, 0.95),
            "events_per_s": out["events_per_s"],
            "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
        }
        return result

    with open(spans_path) as handle:
        spans = [tuple(s[k] for k in ("id", "name", "start", "end", "parent",
                                       "phase", "event", "value"))
                 for s in json.load(handle)["spans"]]
    ev_lo, ev_hi = out["event_window"]

    def in_events(s):
        return ev_lo <= s[2] <= ev_hi

    n = len(timed)
    metrics = layer_metrics(
        spans, in_events=in_events,
        in_opens=lambda s: any(lo <= s[2] <= hi
                               for lo, hi in out["open_windows"]),
        in_setup=lambda s: s[5] == "setup",
        counts={"events": n, "opens": OPENS, "setups": 1})

    def per_request(name):
        return sum(s[3] - s[2] for s in spans
                   if s[1] == name and in_events(s)) / n

    http = [(done_t - sent) - body["server_seconds"]
            for _, sent, done_t, ok, body in timed if ok]
    metrics.update({
        "serve.admit_s_per_request": per_request("serve.admit"),
        "serve.acquire_s_per_request": per_request("serve.acquire"),
        "serve.sessions_built": float(done["sessions_built"]),
        "serve.interact_s_per_request": per_request("session.interact"),
        "serve.http_s_per_request": sum(http) / len(http),
        "trace.overhead_s": percentile(latencies, 0.5)
        - out["untraced_p50_s"],
    })
    result["metrics"] = {name: metrics.get(name, 0.0)
                         for name, _, _ in PER_LAYER}
    result["shares"] = {"hit": request_shares(spans, timed, "flights"),
                        "brush move": request_shares(spans, timed, "brush")}
    return result


def request_shares(spans, timed, dashboard):
    """Each layer's share of the client-observed time of the timed
    requests to ``dashboard``; ``http`` is that time minus the server's
    own ``server_seconds``.  A server span counts toward the request in
    flight when it started (at :data:`RATE_PER_S` requests rarely
    overlap)."""
    requests = sorted((sent, done_t, body["server_seconds"])
                      for _, sent, done_t, ok, body in timed
                      if ok and body["dashboard"] == dashboard)
    starts = [sent for sent, _, _ in requests]
    total = sum(done_t - sent for sent, done_t, _ in requests)

    def inside(span):
        i = bisect.bisect_right(starts, span[2]) - 1
        return i >= 0 and span[2] <= requests[i][1]

    shares = layer_shares(spans, inside, total=total)
    shares["http"] = sum(done_t - sent - server
                         for sent, done_t, server in requests) / total
    return shares
