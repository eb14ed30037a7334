#!/usr/bin/env python3
"""Regenerate the benchmark's reference outputs under padbench/refs/.

    python3 padbench/make_refs.py [--seeds 0-24,42]

Run from the repository root, on the commit whose outputs are the
reference (the default scalar backend). Writes:

  refs/paper_repro/<bench>.txt  stdout of each bench at --jobs 1
  refs/fleet_push.json          batches one session cuts, and per seed the
                                sha256 of incidents.jsonl, stats JSON and
                                padrx's dump of the session's batches
  refs/live_scrape.json         per seed the sha256 of incidents.jsonl and
                                the stats JSON

Session outputs depend only on configuration and seed, never on pacing,
so both padd workloads are recorded at --speed max.
"""

import argparse
import json
import os
import shutil
import sys

import run as bench


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def session(run, days, duration, name, extra=()):
    """A padd --speed max session; returns its directory."""
    d = run.dir(name)
    p = run.children.spawn(run.padd_args(days, duration, [
        "--speed", "max", "--alerts", bench.RULES, "--session",
        "session.jsonl", "--incidents", "incidents.jsonl",
        "--stats-json", "stats.json"] + list(extra)), d)
    p.stdout.read()
    rc, _ = run.children.reap(p)
    if rc != 0:
        sys.exit("padd exited %s" % rc)
    return d


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-24,42")
    args = ap.parse_args()
    bench.build()
    os.makedirs(os.path.join(bench.REFS, "paper_repro"), exist_ok=True)
    run = bench.Run(argparse.Namespace(seed=42, seconds=0, trace=0))
    try:
        for name in bench.BENCHES:
            out = os.path.join(bench.REFS, "paper_repro", name + ".txt")
            with open(out, "wb") as f:
                p = run.children.spawn([run.exe(name), "--jobs", "1"],
                                       run.work, stdout=f)
                if run.children.reap(p)[0] != 0:
                    sys.exit("%s failed" % name)

        fleet = {"days": bench.FLEET_DAYS,
                 "duration_s": bench.FLEET_DURATION_S, "seeds": {}}
        live = {"days": bench.LIVE_DAYS,
                "duration_s": bench.LIVE_DURATION_S, "seeds": {}}
        seeds = parse_seeds(args.seeds)
        for seed in seeds:
            run.seed = seed
            d = session(run, bench.FLEET_DAYS, bench.FLEET_DURATION_S,
                        "fleet%d" % seed)
            capture = bench.capture_batches(run)
            if fleet.setdefault("batches_cut", len(capture[1])) != \
                    len(capture[1]):
                sys.exit("seed %d cuts %d batches, seed %d cut %d"
                         % (seed, len(capture[1]), seeds[0],
                            fleet["batches_cut"]))
            fleet["seeds"][str(seed)] = {
                "incidents": bench.sha256(os.path.join(d, "incidents.jsonl")),
                "stats": bench.sha256(os.path.join(d, "stats.json")),
                "dump": bench.reference_dump(run, capture)}
            d = session(run, bench.LIVE_DAYS, bench.LIVE_DURATION_S,
                        "live%d" % seed)
            live["seeds"][str(seed)] = {
                "incidents": bench.sha256(os.path.join(d, "incidents.jsonl")),
                "stats": bench.sha256(os.path.join(d, "stats.json"))}
            print("seed %d done" % seed, flush=True)
        if run.problems:
            sys.exit("\n".join(run.problems))
        for name, table in (("fleet_push", fleet), ("live_scrape", live)):
            with open(os.path.join(bench.REFS, name + ".json"), "w") as f:
                json.dump(table, f, indent=1, sort_keys=True)
                f.write("\n")
    finally:
        run.children.stop_all()
        shutil.rmtree(run.work, ignore_errors=True)


if __name__ == "__main__":
    main()
