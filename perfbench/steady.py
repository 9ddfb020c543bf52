"""Steadiness: run each workload repeatedly in fresh processes and report,
for every end-to-end metric, the median, the quartiles and the spread
against the metric's bound in ``BENCHMARK.json``.

    python3 perfbench/steady.py --runs 10 --first-seed 1 --out set1.json
    python3 perfbench/steady.py --runs 10 --first-seed 101 --out set2.json
    python3 perfbench/steady.py --compare set1.json set2.json

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; a
metric, ``setup_s`` included, is steady when its spread stays within its
bound.  ``--compare`` reports, per workload and metric,
how far the second set's median is from the first's, in the metric's
worse direction, against the bound, and whether the two sets failed the
same share of operations.  Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as handle:
        return json.load(handle)


def run_set(bench, workloads, runs, first_seed):
    results = {}
    for workload in workloads:
        results[workload] = []
        for i in range(runs):
            command = list(bench["command"]) + [
                "--workload", workload, "--seed", str(first_seed + i),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0"]
            proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  check=False, timeout=200)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("{} seed {}: exit {}".format(
                    workload, first_seed + i, proc.returncode))
                continue
            result = json.loads(lines[-1])
            loop = [line for line in lines
                    if line.startswith("reference_loop")]
            result["reference_loop"] = loop[0] if loop else None
            results[workload].append(result)
            print("{} seed {}: attempted={} failed={} {} [{}]".format(
                workload, first_seed + i, result["attempted"],
                result["failed"], " ".join(
                    "{}={:.6g}".format(k, v["value"])
                    for k, v in sorted(result["metrics"].items())),
                result["reference_loop"]), flush=True)
    return results


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def report(bench, results):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    steady = True
    for workload, runs in results.items():
        if not runs:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n{} ({} runs, failed shares {})".format(
            workload, len(runs), shares))
        print("  {:<14} {:>12} {:>12} {:>12} {:>8} {:>6}".format(
            "metric", "q1", "median", "q3", "spread", "bound"))
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3, spread = summary(values)
            ok = spread <= spec["bound"]
            steady = steady and ok
            print("  {:<14} {:>12.6g} {:>12.6g} {:>12.6g} {:>8.3f} {:>6} {}"
                  .format(name, q1, q2, q3, spread, spec["bound"],
                          "" if ok else "UNSTEADY"))
    return steady


def compare(bench, first, second):
    agree = True
    for workload in first:
        a, b = first[workload], second.get(workload, [])
        if not a or not b:
            continue
        print("\n{}".format(workload))
        shares = ({r["failed"] / r["attempted"] for r in a},
                  {r["failed"] / r["attempted"] for r in b})
        if shares[0] != shares[1]:
            agree = False
            print("  failed shares differ: {} vs {}".format(*shares))
        for spec in bench["end_to_end"]:
            name = spec["name"]
            m1 = statistics.median(r["metrics"][name]["value"] for r in a)
            m2 = statistics.median(r["metrics"][name]["value"] for r in b)
            worse = (m2 - m1) / m1 if spec["better"] == "lower" \
                else (m1 - m2) / m1
            ok = worse <= spec["bound"]
            agree = agree and ok
            print("  {:<14} {:>12.6g} {:>12.6g} {:>+8.3f} {:>6} {}".format(
                name, m1, m2, worse, spec["bound"], "" if ok else "WORSE"))
    return agree


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--out", help="write the set's results here")
    parser.add_argument("--compare", nargs=2, metavar="SET",
                        help="compare two saved sets instead of running")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as handle:
                sets.append(json.load(handle))
        for results in sets:
            report(bench, results)
        return 0 if compare(bench, *sets) else 1
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    results = run_set(bench, workloads, args.runs, args.first_seed)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1)
    return 0 if report(bench, results) else 1


if __name__ == "__main__":
    sys.exit(main())
