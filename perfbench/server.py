"""The serve-open server process: the flights histogram dashboard
(``flights``) and the two-view brush dashboard of the brush workloads
(``brush``), both over one table, behind ``repro.serve.app.ServingApp``.

Started by ``serveload.py``; prints ``READY <port>`` once the app is
listening and its shared backend is loaded, then takes line commands on
stdin, answering each with ``OK``:

* ``TRACE 1`` / ``TRACE 0`` install or remove the span wrappers
  (``spantrace.instrument``); with ``--trace 1`` they are installed from
  the start, so set-up is traced too.
* ``RSS`` answers ``OK <peak RSS in KiB>``.
* ``STOP`` stops the app, writes the spans (``--spans``) and prints
  ``DONE <json>`` with this process's peak RSS.

The executor has one worker per core and the default tenant policy has
no rate limit, a concurrency cap of one request per core and a deep
queue, so every request the generator offers is admitted.
"""

import argparse
import asyncio
import json
import os
import resource
import sys
import threading

import numpy as np

import inputs
from spantrace import Recorder, instrument
from worker import BRUSH_DASHBOARD

#: result-cache entries per dashboard: every (binField, maxbins) rows
#: query plus the four extent queries fit, and so do the two queries of
#: each of the brush moves a 30-second run makes, so it never evicts
CACHE_ENTRIES = 1024


def build_app(table, workers):
    from repro.serve.admission import TenantPolicy
    from repro.serve.app import ServingApp
    from repro.serve.pool import DashboardConfig
    from repro.spec import flights_histogram_spec

    dashboards = {
        "flights": DashboardConfig(flights_histogram_spec(),
                                   tables={"flights": table}),
        "brush": DashboardConfig(BRUSH_DASHBOARD, tables={"flights": table}),
    }
    policy = TenantPolicy(rate=None, max_concurrency=workers,
                          max_queue=1024, queue_timeout_seconds=60.0)
    return ServingApp(dashboards, default_policy=policy,
                      executor_workers=workers,
                      pool_kwargs={"cache_entries": CACHE_ENTRIES})


def control(loop, stop, recorder):
    """Read commands from stdin on a thread of its own."""
    for line in sys.stdin:
        command = line.split()
        if command == ["TRACE", "1"] and recorder is not None:
            instrument(recorder, serve=True)
        elif command == ["TRACE", "0"] and recorder is not None:
            recorder.uninstall()
        elif command == ["RSS"]:
            print("OK {}".format(resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss), flush=True)
            continue
        elif command == ["STOP"]:
            break
        print("OK", flush=True)
    loop.call_soon_threadsafe(stop.set)


async def serve(args):
    recorder = None
    if args.trace:
        recorder = Recorder()
        instrument(recorder, serve=True)
    with np.load(args.inputs) as data:
        columns = inputs.table_arrays({k: data[k] for k in data.files})
    from repro.datagen.common import columns_to_batch

    app = build_app(columns_to_batch(**columns), args.workers)
    await app.start()
    await app.prewarm()
    if recorder is not None:
        recorder.phase = "serve"
    stop = asyncio.Event()
    thread = threading.Thread(
        target=control, args=(asyncio.get_running_loop(), stop, recorder),
        daemon=True)
    thread.start()
    print("READY {}".format(app.port), flush=True)
    await stop.wait()
    sessions_built = app.pool.sessions_built
    await app.stop()
    if recorder is not None:
        recorder.uninstall()
        if args.spans:
            recorder.dump(args.spans)
    print("DONE " + json.dumps({
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "sessions_built": sessions_built,
    }), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    asyncio.run(serve(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
