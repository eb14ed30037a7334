#!/usr/bin/env python3
"""Run the benchmark repeatedly and judge its steadiness.

    python3 padbench/steady.py run --workloads paper_repro,fleet_push \\
        --runs 10 [--first-seed 1] [--trace 0|1] --out set.json
    python3 padbench/steady.py show set.json
    python3 padbench/steady.py compare old.json new.json

Run from the repository root. `run` invokes BENCHMARK.json's command once
per (workload, seed), seeds first-seed .. first-seed+runs-1, and saves
every result line. `show` prints each metric by name and unit with the
median, quartiles and spread (q3 - q1) / median of its runs, against the
metric's bound; a spread under a third of the bound is marked steady.
`compare` prints, per workload and end-to-end metric, how much worse the
second set's median is than the first's, and fails (exit 1) when any
exceeds the bound recorded in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_run(args):
    spec = load_spec()
    results = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            argv = spec["command"] + [
                "--workload", workload, "--seed", str(seed), "--seconds",
                str(spec["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            p = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            took = time.perf_counter() - t0
            lines = p.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}
            result.update(seed=seed, exit=p.returncode, took_s=took)
            results[workload].append(result)
            print("%s seed %d: exit %d, correct %s, failed %d/%d, %.1f s"
                  % (workload, seed, p.returncode, result["correct"],
                     result["failed"], result["attempted"], took),
                  flush=True)
    with open(args.out, "w") as f:
        json.dump({"trace": args.trace, "results": results}, f, indent=1)
    show(spec, results, args.trace)


def show(spec, results, trace):
    metrics = spec["per_layer" if trace else "end_to_end"]
    for workload, runs in results.items():
        bad = [r["seed"] for r in runs
               if not r["correct"] or r["exit"] != 0]
        print("\n%s: %d runs, incorrect or failed exits: %s, failed ops %d"
              % (workload, len(runs), bad or "none",
                 sum(r["failed"] for r in runs)))
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs
                    if m["name"] in r["metrics"]]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            line = "  %-30s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g" \
                   " spread %6.2f%%" % (m["name"], m["unit"], med, q1, q3,
                                        100 * spread)
            if "bound" in m:
                line += "  bound %4.1f%% %s" % (
                    100 * m["bound"],
                    "steady" if spread < m["bound"] / 3 else
                    "within" if spread <= m["bound"] else "TOO WIDE")
            print(line)


def cmd_show(args):
    with open(args.set) as f:
        data = json.load(f)
    show(load_spec(), data["results"], data["trace"])


def cmd_compare(args):
    spec = load_spec()
    with open(args.old) as f:
        old = json.load(f)["results"]
    with open(args.new) as f:
        new = json.load(f)["results"]
    failed = False
    for workload in old:
        if workload not in new:
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in old[workload]]
            b = [r["metrics"][m["name"]]["value"] for r in new[workload]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else \
                (ma - mb) / ma
            ok = worse <= m["bound"]
            failed |= not ok
            print("%-12s %-12s %-5s old %-12.6g new %-12.6g worse %+7.2f%%"
                  " bound %4.1f%% %s" % (workload, m["name"], m["unit"], ma,
                                          mb, 100 * worse, 100 * m["bound"],
                                          "ok" if ok else "REGRESSION"))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workloads", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("show")
    s.add_argument("set")
    c = sub.add_parser("compare")
    c.add_argument("old")
    c.add_argument("new")
    args = ap.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    if args.cmd == "show":
        cmd_show(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
