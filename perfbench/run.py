"""One benchmark run: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, from the root of a checkout.

Generates the workload's inputs from the seed (in this process), runs
the program in a fresh interpreter (``worker.py``, or for serve-open a
server process driven from here by ``serveload.py``), and prints as its
last stdout line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The lines before it carry
figures that are not metrics (the reference-loop timings, the serve-open
generator's lateness, each layer's share of event time).

Exits non-zero without a result when the program's source (``src/``)
is not in the working directory or a run does not finish.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

WORKLOADS = ["brush-requery", "brush-tiles", "serve-open"]
END_TO_END = {
    "setup_s": "s", "startup_s": "s", "event_p50_s": "s",
    "event_p95_s": "s", "events_per_s": "1/s", "peak_rss_mb": "MB",
}
#: a worker that has not finished by then is killed and the run fails
WORKER_TIMEOUT_S = 170


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, src, input_path, spans_path):
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--inputs", input_path,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans_path:
        command += ["--spans", spans_path]
    proc = subprocess.run(command, env=child_env(src), stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker exited with code {}".format(
            proc.returncode))
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("no program source at {}".format(src), file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench", "run-{}".format(os.getpid()))
    out_dir = os.path.join(root, ".perfbench", "spans")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    spans_path = None
    if args.trace:
        spans_path = os.path.join(out_dir, "{}-seed{}.json".format(
            args.workload, args.seed))
    try:
        input_path = os.path.join(work, "inputs.npz")
        np.savez(input_path, **inputs.make_inputs(args.workload, args.seed))
        if args.workload == "serve-open":
            sys.path.insert(0, src)
            import serveload

            result = serveload.run(args, src, input_path, spans_path,
                                   child_env(src))
        else:
            result = run_worker(args, src, input_path, spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    before, after = result["reference_loop_s"]
    print("reference_loop_s before={:.6f} after={:.6f}".format(before, after))
    for key in ("lateness_s", "shares"):
        if key in result:
            print("{} {}".format(key, json.dumps(result[key], sort_keys=True)))
    print("events {}".format(result["events"]))
    if args.trace:
        from spantrace import PER_LAYER

        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        units = END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
