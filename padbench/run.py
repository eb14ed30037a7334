#!/usr/bin/env python3
"""PAD end-to-end benchmark.

    python3 padbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds a Release tree of the
repository (and the traced replica program, padbench/replica.cc) under
.bench_build/; later runs reuse it. Workloads:

  paper_repro  all 19 fig*/table*/ablation_* benches, serially, --jobs 1
  fleet_push   padd's --speed max loop (padbench_trace fleet) over a
               15-day trace pushing into padrx
  live_scrape  padd paced at a fixed speed, alerts on, with open-loop
               GET /metrics and control-socket `status` commands

Every output is checked (bench stdout, incidents, stats, receiver dump,
replay identity, scrape grammar) before a timing counts. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"};
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(from padbench_trace, an in-process replica with spans). See DESIGN.md.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
PAD_BUILD = os.path.join(BUILD_ROOT, "pad-release")
TRACE_BUILD = os.path.join(BUILD_ROOT, "padbench")
REFS = os.path.join(BENCH_DIR, "refs")
RULES = os.path.join(ROOT, "rules", "pad_default.json")
NPROC = 4

BENCHES = [
    "fig01_outage_cost", "fig05_soc_variation", "fig06_two_phase_demo",
    "fig07_effective_attack", "fig08_attack_analysis",
    "table1_detection_rate", "fig13_deb_usage_map", "fig14_load_shedding",
    "fig15_survival_time", "fig16_throughput", "fig17_cost_efficiency",
    "ablation_deployment", "ablation_pideal", "ablation_policy",
    "ablation_sidechannel", "ablation_placement", "ablation_detection",
    "ablation_green_buffer", "ablation_scheduler",
]

# Cluster trace length the cluster benches build (makeClusterWorkload(3.0)).
REPRO_DAYS = 3.0

# fleet_push: 15-day trace, 13 sim days of live service after the
# day-1 + 11 h warm-up, pushed at padd's default 60 s interval.
FLEET_DAYS = 15.0
FLEET_DURATION_S = 13 * 86400

# live_scrape: 2-day trace, 2 sim hours paced at one sim hour per wall
# second (12 coarse steps/s), 40 scrapes/s and 10 status commands/s.
# Short sessions, many per run: scrape latency shifts from one daemon
# process to the next, so a run pools several.
LIVE_DAYS = 2.0
LIVE_SPEED = 3600.0
LIVE_DURATION_S = 2 * 3600
LIVE_SCRAPE_HZ = 40.0
LIVE_STATUS_HZ = 10.0
# Requests are scheduled inside the paced window only, with this margin
# before the session's auto-stop.
LIVE_WINDOW_MARGIN_S = 0.4

# Set-up probes per run: PROBES_PER_JOB before each job, topped up to
# SETUP_PROBES after the last, so they sample the whole run rather than
# one moment of it.
SETUP_PROBES = 11
PROBES_PER_JOB = 2
# Jobs per run: at least this many, more while --seconds have not passed.
MIN_JOBS = 3
# Replica runs per traced run, each with spans off and on.
REPLICAS = 3
PROCESS_TIMEOUT_S = 150.0
REQUEST_TIMEOUT_S = 5.0


class BenchError(Exception):
    """The benchmark cannot run (missing sources, failed build)."""


# --------------------------------------------------------------- helpers


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read(path):
    with open(path, "rb") as f:
        return f.read()


def mean_of_medians(groups):
    """Mean over groups of each group's median.

    Short timings on the test VM fall on one of two levels, depending on
    which vCPU a process lands on, and a run's jobs mix both. A pooled
    median flips between the levels with that mix; this moves smoothly."""
    return statistics.fmean(statistics.median(g) for g in groups if g)


def quantile(values, q):
    """Linear-interpolation quantile (statistics.quantiles, inclusive)."""
    v = sorted(values)
    if not v:
        return 0.0
    if len(v) == 1:
        return v[0]
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


class Children:
    """Every process the run starts; all are stopped and reaped on exit."""

    def __init__(self):
        self.procs = []
        self.cpu_s = 0.0  # user + system time of every reaped child

    def spawn(self, args, cwd, stdout=subprocess.PIPE):
        err = open(os.path.join(cwd, "stderr-%d.txt" % len(self.procs)), "wb")
        t_spawn = time.perf_counter()
        p = subprocess.Popen(args, cwd=cwd, stdout=stdout, stderr=err,
                             stdin=subprocess.DEVNULL)
        err.close()
        p.t_spawn = t_spawn
        p.rusage = None
        self.procs.append(p)
        return p

    def reap(self, p, timeout=PROCESS_TIMEOUT_S):
        """Wait for @p p with wait4; returns (returncode, rusage)."""
        if p.returncode is not None:
            return p.returncode, p.rusage
        deadline = time.monotonic() + timeout
        while True:
            pid, status, ru = os.wait4(p.pid, os.WNOHANG)
            if pid == p.pid:
                p.returncode = os.waitstatus_to_exitcode(status)
                p.rusage = ru
                p.t_exit = time.perf_counter()
                self.cpu_s += ru.ru_utime + ru.ru_stime
                return p.returncode, ru
            if time.monotonic() > deadline:
                p.kill()
                _, status, ru = os.wait4(p.pid, 0)
                p.returncode = -9
                p.rusage = ru
                p.t_exit = time.perf_counter()
                return p.returncode, ru
            time.sleep(0.002)

    def stop_all(self):
        for p in self.procs:
            if p.returncode is None:
                with contextlib.suppress(ProcessLookupError):
                    p.kill()
                self.reap(p, timeout=10)
            if p.stdout:
                p.stdout.close()


def read_endpoints(p, names):
    """Read '<name> endpoint: ...:PORT[/metrics]' lines until all seen."""
    ports = {}
    while len(ports) < len(names):
        line = p.stdout.readline().decode(errors="replace")
        if not line:
            return None
        parts = line.split()
        if len(parts) >= 3 and parts[1] == "endpoint:" and parts[0] in names:
            ports[parts[0]] = int(parts[2].rsplit(":", 1)[1].split("/")[0])
    return ports


def http_get(port, path="/metrics"):
    """One GET over a fresh connection; returns (status, body)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=REQUEST_TIMEOUT_S) as s:
        s.sendall(b"GET " + path.encode() +
                  b" HTTP/1.1\r\nHost: localhost\r\n\r\n")
        chunks = []
        while True:
            c = s.recv(65536)
            if not c:
                break
            chunks.append(c)
    data = b"".join(chunks)
    head, _, body = data.partition(b"\r\n\r\n")
    status = head.split(b" ", 2)[1] if head.startswith(b"HTTP/") else b""
    return status, body


class ControlConn:
    """Persistent line-JSON connection to padd's control socket."""

    def __init__(self, port):
        self.port = port
        self.sock = None
        self.buf = b""

    def request(self, line):
        if self.sock is None:
            self.sock = socket.create_connection(
                ("127.0.0.1", self.port), timeout=REQUEST_TIMEOUT_S)
            self.buf = b""
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buf:
            c = self.sock.recv(65536)
            if not c:
                raise OSError("control connection closed")
            self.buf += c
        resp, _, self.buf = self.buf.partition(b"\n")
        return json.loads(resp)

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None


class OpenLoop(threading.Thread):
    """Sends one request every 1/rate s from t0 until t_end.

    Each request is timed from when it was due, so a stall also delays
    (and is charged to) the requests behind it; `lag` is how late the
    generator sent each request. One connection at a time per stream.
    """

    def __init__(self, rate, t0, t_end, fn):
        super().__init__(daemon=True)
        self.rate, self.t0, self.t_end, self.fn = rate, t0, t_end, fn
        self.latency_ms = []
        self.lag_ms = []
        self.errors = 0
        self.attempted = 0

    def run(self):
        i = 0
        while True:
            due = self.t0 + i / self.rate
            if due > self.t_end:
                break
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            sent = time.perf_counter()
            self.attempted += 1
            try:
                ok = self.fn()
            except (OSError, ValueError):
                ok = False
            done = time.perf_counter()
            if ok:
                self.latency_ms.append((done - due) * 1e3)
            else:
                self.errors += 1
            self.lag_ms.append((sent - due) * 1e3)
            i += 1


class Run:
    """State of one benchmark run: work directory, children, counters."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.work = os.path.join(BUILD_ROOT, "work",
                                 "run-%d-%d" % (os.getpid(), time.time_ns()))
        os.makedirs(self.work)
        self.children = Children()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []
        self.rss_mb = []
        self.setups = []
        self.probes = 0

    def enough(self, jobs, t0):
        """Whether a run has measured enough jobs (one when traced)."""
        if self.trace:
            return True
        return jobs >= MIN_JOBS and time.perf_counter() - t0 >= self.seconds

    def dir(self, name):
        d = os.path.join(self.work, name)
        os.makedirs(d, exist_ok=True)
        return d

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)
        return ok

    def exe(self, name):
        sub = "bench" if name in BENCHES else "examples"
        return os.path.join(PAD_BUILD, sub, name)

    def padd_args(self, days, duration, extra):
        return [self.exe("padd"), "--days", str(days), "--seed",
                str(self.seed), "--duration", str(duration), "--quiet"] + extra

    def repeat(self, job, days, probe_extra):
        """Run job(dir) until enough jobs ran, with set-up probes spread
        over the run; returns the jobs' results."""
        jobs = []
        t0 = time.perf_counter()
        while True:
            self.measure_setup(days, probe_extra, PROBES_PER_JOB)
            jobs.append(job(self.dir("job%d" % len(jobs))))
            if self.enough(len(jobs), t0):
                break
        self.measure_setup(days, probe_extra, SETUP_PROBES - len(self.setups))
        return jobs

    def measure_setup(self, days, extra, count):
        """Time @p count padd spawns to both endpoints bound.

        Each probe runs one coarse step after its warm-up and exits."""
        for _ in range(count):
            self.probes += 1
            d = self.dir("setup%d" % self.probes)
            p = self.children.spawn(
                self.padd_args(days, 300, ["--speed", "max"] + extra), d)
            ports = read_endpoints(p, ("control", "metrics"))
            t_ready = time.perf_counter()
            p.stdout.read()
            rc, _ = self.children.reap(p)
            self.attempted += 1
            if ports is None or rc != 0:
                self.failed += 1
                continue
            self.setups.append(t_ready - p.t_spawn)

    def replay(self, session, name, extra=()):
        d = self.dir(name)
        p = self.children.spawn(
            [self.exe("padd"), "--replay", session, "--incidents",
             os.path.join(d, "incidents.jsonl"), "--stats-json",
             os.path.join(d, "stats.json")] + list(extra), d,
            stdout=subprocess.DEVNULL)
        rc, _ = self.children.reap(p)
        self.check(rc == 0, "padd --replay exited %s" % rc)
        return d

    def run_tool(self, args, name):
        p = self.children.spawn(args, self.dir(name))
        out = p.stdout.read()
        rc, _ = self.children.reap(p)
        return rc, out

    def run_replica(self, mode, out, extra):
        args = [os.path.join(TRACE_BUILD, "padbench_trace"), mode,
                "--out", out] + extra
        rc, stdout = self.run_tool(args, "replica-" + os.path.basename(out))
        if not self.check(rc == 0, "padbench_trace %s exited %s" % (mode, rc)):
            return {}
        return json.loads(stdout.decode().strip().splitlines()[-1])

    def replicas(self, mode, extra, traced_extra=()):
        """REPLICAS runs each of the replica without and with spans,
        alternating, each in a fresh directory. Returns the per-layer
        metrics of the traced run with the median wall time (with
        trace_overhead_frac), the metrics of the last traced run and
        the directory holding its outputs."""
        plain, traced = [], []
        for i in range(REPLICAS):
            plain.append(self.run_replica(
                mode, self.dir("%s-plain%d" % (mode, i)),
                extra + ["--spans", "0"]))
            out = self.dir("%s-traced%d" % (mode, i))
            traced.append(self.run_replica(
                mode, out, extra + ["--spans", "1"] + list(traced_extra)))
        last = traced[-1]
        traced.sort(key=lambda m: m.get("replica_wall_s", 0.0))
        layer = dict(traced[len(traced) // 2])
        plain_wall = statistics.median(m.get("replica_wall_s", 0.0)
                                       for m in plain)
        if plain_wall:
            layer["trace_overhead_frac"] = (layer["replica_wall_s"] /
                                            plain_wall - 1)
        return layer, last, out

    def validate_prom(self, body, name):
        path = os.path.join(self.dir("prom"), name)
        with open(path, "wb") as f:
            f.write(body)
        rc, _ = self.run_tool([self.exe("padtrace"), "prom", path],
                              "padtrace-" + name)
        self.check(rc == 0, "scrape body %s fails the exposition grammar"
                   % name)


def check_replay(run, jobs, ref):
    """Replay the first job's session; every job's incidents and stats
    must equal the replay's (one seed, no commands), and the replay the
    seed's committed digests when there are any. Returns the replay's
    directory."""
    run.session = os.path.join(jobs[0]["dir"], "session.jsonl")
    rep = run.replay(run.session, "replay")
    for f, key in (("incidents.jsonl", "incidents"), ("stats.json", "stats")):
        want = read(os.path.join(rep, f))
        if ref:
            run.check(hashlib.sha256(want).hexdigest() == ref[key],
                      "%s differs from the seed's reference" % f)
        for j in jobs:
            run.check(read(os.path.join(j["dir"], f)) == want,
                      "live %s differs from padd --replay" % f)
    return rep


def refs_for(workload, seed):
    """Committed reference digests for (workload, seed), or None."""
    path = os.path.join(REFS, workload + ".json")
    with open(path) as f:
        table = json.load(f)
    days, duration = {"fleet_push": (FLEET_DAYS, FLEET_DURATION_S),
                      "live_scrape": (LIVE_DAYS, LIVE_DURATION_S)}[workload]
    if (table["days"], table["duration_s"]) != (days, duration):
        raise BenchError("%s was made for another session length; "
                         "rerun padbench/make_refs.py" % path)
    return table, table["seeds"].get(str(seed))


# ----------------------------------------------------------------- build


def source_fingerprint():
    """Digest of every build input's path, size and mtime."""
    h = hashlib.sha256()
    inputs = [os.path.join(ROOT, "CMakeLists.txt"),
              os.path.join(BENCH_DIR, "CMakeLists.txt"),
              os.path.join(BENCH_DIR, "replica.cc")]
    for top in ("src", "bench", "examples", "tests"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            inputs += [os.path.join(base, f) for f in sorted(files)]
    for path in inputs:
        st = os.stat(path)
        h.update(("%s %d %d\n" % (path, st.st_size, st.st_mtime_ns)).encode())
    return h.hexdigest()


def build():
    for need in ("CMakeLists.txt", "src", "bench", "examples",
                 os.path.join("rules", "pad_default.json")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("run from the repository root: %s is missing"
                             % need)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    stamp = os.path.join(BUILD_ROOT, "built-from")
    fingerprint = source_fingerprint()
    if os.path.exists(stamp) and read(stamp).decode() == fingerprint:
        return
    logf = os.path.join(BUILD_ROOT, "build.log")
    with open(logf, "ab") as out:
        def cmake(*a):
            r = subprocess.run(["cmake"] + list(a), stdout=out,
                               stderr=subprocess.STDOUT)
            if r.returncode != 0:
                raise BenchError("cmake %s failed; see %s" % (a[0], logf))
        if not os.path.exists(os.path.join(PAD_BUILD, "CMakeCache.txt")):
            cmake("-S", ROOT, "-B", PAD_BUILD, "-DCMAKE_BUILD_TYPE=Release")
        cmake("--build", PAD_BUILD, "-j%d" % NPROC, "--target",
              *BENCHES, "padd", "padrx", "padtrace")
        if not os.path.exists(os.path.join(TRACE_BUILD, "CMakeCache.txt")):
            cmake("-S", BENCH_DIR, "-B", TRACE_BUILD,
                  "-DCMAKE_BUILD_TYPE=Release",
                  "-DPAD_SOURCE_DIR=" + ROOT, "-DPAD_BUILD_DIR=" + PAD_BUILD)
        cmake("--build", TRACE_BUILD, "-j%d" % NPROC)
    with open(stamp, "w") as f:
        f.write(fingerprint)


# ----------------------------------------------------------- paper_repro


def run_bench(run, name, d):
    out = os.path.join(d, name + ".txt")
    with open(out, "wb") as f:
        p = run.children.spawn([run.exe(name), "--jobs", "1"], d, stdout=f)
        rc, ru = run.children.reap(p)
    run.attempted += 1
    if rc != 0:
        run.failed += 1
    run.check(read(out) == read(os.path.join(REFS, "paper_repro",
                                             name + ".txt")),
              "%s stdout differs from its reference" % name)
    return p.t_exit - p.t_spawn, ru.ru_maxrss / 1024.0


def repro_once(run, d):
    """All benches once; returns each bench's spawn-to-exit seconds."""
    times = {}
    rss = 0.0
    for name in BENCHES:
        times[name], r = run_bench(run, name, d)
        rss = max(rss, r)
    run.rss_mb.append(rss)
    return times


def paper_repro(run):
    jobs = run.repeat(lambda d: repro_once(run, d), REPRO_DAYS, [])
    bench_ms = [[t * 1e3 for t in times.values()] for times in jobs]
    # One reproduction's wait, from each bench's median over the run.
    repro_s = sum(statistics.median(times[n] for times in jobs)
                  for n in BENCHES)
    run.notes.append("paper_repro: %d reproduction(s), repro_s %.3f, "
                     "%d bench runs" % (len(jobs), repro_s,
                                        len(jobs) * len(BENCHES)))
    e2e = {"wall_s": repro_s, "p50_ms": mean_of_medians(bench_ms),
           "p95_ms": quantile([t for b in bench_ms for t in b], 0.95)}
    if not run.trace:
        return e2e, {}

    layer = {"repro.%s_s" % n: t for n, t in jobs[-1].items()}
    traced, _, out = run.replicas("fig15", [])
    table = read(os.path.join(out, "fig15_table.txt"))
    run.check(bool(table) and table in read(os.path.join(
        REFS, "paper_repro", "fig15_survival_time.txt")),
        "fig15 replica table differs from the fig15 reference")
    layer.update(traced)
    return e2e, layer


# ------------------------------------------------------------ fleet_push


def parse_rx_summary(text):
    """padrx's exit line: merged B batches (S samples) and K stats ..."""
    for line in text.splitlines():
        if line.startswith("padrx: merged"):
            w = line.replace("(", " ").replace(")", " ").replace(";", " ")
            w = w.replace(",", " ").split()
            return {"batches": int(w[2]), "samples": int(w[4]),
                    "stats": int(w[7]), "duplicates": int(w[13]),
                    "protocol_errors": int(w[15])}
    return None


def dump_counts(path):
    counts = {}
    for line in read(path).decode().splitlines():
        w = line.split()
        if w and w[0] == "series":
            counts[w[1]] = int(w[3])
    return counts


def fleet_args(run):
    return ["--rules", RULES, "--days", str(FLEET_DAYS), "--duration",
            str(FLEET_DURATION_S), "--seed", str(run.seed)]


def start_padrx(run, d, metrics=True):
    """A fresh padrx writing dump.txt into @p d; returns (proc, ports)."""
    rx = run.children.spawn([run.exe("padrx"), "--dump", "dump.txt",
                             "--quiet"] +
                            ([] if metrics else ["--metrics-port", "-1"]), d)
    ports = read_endpoints(rx, ("ingest", "metrics") if metrics
                           else ("ingest",))
    if ports is None:
        raise BenchError("padrx did not start")
    return rx, ports


def stop_padrx(run, rx):
    """SIGINT padrx (it writes its dump); returns (summary, rusage)."""
    rx.send_signal(signal.SIGINT)
    out = rx.stdout.read().decode()
    rc, ru = run.children.reap(rx)
    run.check(rc == 0, "padrx exited %s" % rc)
    summary = parse_rx_summary(out)
    run.check(summary is not None, "padrx printed no summary")
    return summary or {}, ru


def fleet_job(run, d):
    """One padd --speed max session (the replica's padd loop, waiting
    for room in the shipper's queue) pushing into a fresh padrx."""
    rx, rx_ports = start_padrx(run, d)
    p = run.children.spawn([os.path.join(TRACE_BUILD, "padbench_trace"),
                            "fleet", "--out", d, "--spans", "0",
                            "--push-port", str(rx_ports["ingest"])] +
                           fleet_args(run), d)
    out = p.stdout.read().decode()
    rc, ru = run.children.reap(p)
    run.check(rc == 0, "padbench_trace fleet exited %s" % rc)
    metrics = json.loads(out.strip().splitlines()[-1]) if rc == 0 else {}
    # One look at the fleet view the pushes built, for the grammar check.
    status, body = http_get(rx_ports["metrics"])
    run.attempted += 1
    run.failed += status != b"200"
    summary, rx_ru = stop_padrx(run, rx)
    run.rss_mb.append((ru.ru_maxrss + rx_ru.ru_maxrss) / 1024.0)
    return {"wall": metrics.get("session_s", 0.0),
            "process": p.t_exit - p.t_spawn, "rx": summary,
            "shipper": metrics, "body": body, "dir": d}


def padd_session(run):
    """padd --speed max without push: the session the replay checks
    start from, and padd's own incidents and stats for the seed."""
    d = run.dir("padd")
    p = run.children.spawn(run.padd_args(FLEET_DAYS, FLEET_DURATION_S, [
        "--speed", "max", "--alerts", RULES,
        "--incidents", "incidents.jsonl", "--session", "session.jsonl",
        "--stats-json", "stats.json"]), d)
    p.stdout.read()
    rc, _ = run.children.reap(p)
    run.check(rc == 0, "padd exited %s" % rc)
    return {"dir": d}


def capture_batches(run):
    """Every batch line one session cuts, in order: the replica pushing
    to a port that refuses connections, with a spool."""
    d = run.dir("capture%d" % run.seed)
    spool = os.path.join(d, "spool")
    rc, _ = run.run_tool([os.path.join(TRACE_BUILD, "padbench_trace"),
                          "fleet", "--out", d, "--spans", "0",
                          "--capture", spool] + fleet_args(run),
                         "capture-run")
    if rc != 0:
        raise BenchError("padbench_trace fleet --capture exited %s" % rc)
    lines = []
    for name in sorted(os.listdir(spool)):
        lines += read(os.path.join(spool, name)).splitlines()
    path = os.path.join(d, "batches.jsonl")
    with open(path, "wb") as f:
        f.write(b"".join(l + b"\n" for l in lines))
    batches = [json.loads(l) for l in lines]
    run.check([b["seq"] for b in batches] == list(range(len(batches))),
              "batch capture has gaps")
    return path, batches


def reference_dump(run, capture):
    """sha256 of padrx's dump after this process pushes the captured
    batches to a fresh padrx, one frame at a time, each acknowledged
    before the next: a delivery path independent of the shipper's."""
    d = run.dir("ref-dump%d" % run.seed)
    rx, ports = start_padrx(run, d, metrics=False)
    with socket.create_connection(("127.0.0.1", ports["ingest"]),
                                  timeout=REQUEST_TIMEOUT_S) as s:
        buf = b""
        for line in read(capture[0]).splitlines():
            s.sendall(b"pad-rw-v1 %d\n%s\n" % (len(line) + 1, line))
            while b"\n" not in buf:
                c = s.recv(4096)
                if not c:
                    raise BenchError("padrx closed the ingest connection")
                buf += c
            ack, _, buf = buf.partition(b"\n")
            run.check(json.loads(ack).get("ok") is True,
                      "padrx refused a captured batch")
    summary, _ = stop_padrx(run, rx)
    run.check(summary.get("batches", 0) + summary.get("stats", 0) ==
              len(capture[1]), "padrx did not merge every captured batch")
    return sha256(os.path.join(d, "dump.txt"))


def lost_samples(batches, merged_counts, lost):
    """Samples in the @p lost batches padrx never merged.

    Batches fall in a few shapes (per-series sample counts); find how
    many of each shape were lost so that the per-series deficits of the
    merged dump are explained exactly. Returns None when no combination
    of @p lost batches explains them."""
    shapes = {}
    total = {}
    for b in batches:
        if b["type"] != "batch":
            continue
        shape = tuple(sorted((c["name"], len(c["samples"]))
                             for c in b["series"]))
        shapes[shape] = shapes.get(shape, 0) + 1
        for name, n in shape:
            total[name] = total.get(name, 0) + n
    deficit = {}
    for name, n in total.items():
        got = merged_counts.get("fleet.padd." + name, 0)
        if got != n:
            deficit[name] = n - got
    kinds = list(shapes.items())

    def search(i, left, need):
        if i == len(kinds):
            return 0 if left == 0 and not any(need.values()) else None
        shape, avail = kinds[i]
        for k in range(min(avail, left) + 1):
            rest = dict(need)
            for name, n in shape:
                rest[name] = rest.get(name, 0) - k * n
            if any(v < 0 for v in rest.values()):
                break
            got = search(i + 1, left - k, rest)
            if got is not None:
                return got + k * sum(n for _, n in shape)
        return None

    return search(0, lost, deficit)


def fleet_push(run):
    table, ref = refs_for("fleet_push", run.seed)
    cut = table["batches_cut"]
    jobs = run.repeat(lambda d: fleet_job(run, d), FLEET_DAYS,
                      ["--alerts", RULES])
    rep = check_replay(run, [padd_session(run)] + jobs, ref)
    capture = None
    ref_dump = ref["dump"] if ref else None
    for j in jobs:
        d = j["dir"]
        rx = j["rx"]
        merged = rx.get("batches", 0) + rx.get("stats", 0)
        lost = cut - merged
        bad = rx.get("duplicates", 0) + rx.get("protocol_errors", 0)
        run.attempted += cut
        run.failed += max(lost, 0) + bad
        run.check(lost >= 0, "padrx merged more batches than were cut")
        run.check(j["shipper"].get("rw.batches") == cut,
                  "the session cut %s batches, the reference %d"
                  % (j["shipper"].get("rw.batches"), cut))
        dump = os.path.join(d, "dump.txt")
        if lost == 0:
            if ref_dump is None:
                capture = capture or capture_batches(run)
                ref_dump = reference_dump(run, capture)
            run.check(sha256(dump) == ref_dump,
                      "padrx dump differs from the reference")
        else:
            run.notes.append("fleet_push: job %s lost %d of %d batches"
                             % (os.path.basename(d), lost, cut))
            capture = capture or capture_batches(run)
            path, batches = capture
            total = sum(sum(len(c["samples"]) for c in b["series"])
                        for b in batches if b["type"] == "batch")
            stats_lost = 1 - rx.get("stats", 0)
            missing = lost_samples(batches, dump_counts(dump),
                                   lost - stats_lost)
            run.check(missing is not None and
                      rx.get("samples", 0) + missing == total,
                      "merged plus lost samples differ from the total cut")
    run.validate_prom(jobs[0]["body"], "padrx.prom")
    walls = [j["wall"] for j in jobs]
    process_ms = [j["process"] * 1e3 for j in jobs]
    run.notes.append(
        "fleet_push: %d session(s), fleet_sim_rate median %.0f sim-s/s"
        % (len(jobs), FLEET_DURATION_S / statistics.median(walls)))
    e2e = {"wall_s": statistics.median(walls),
           "p50_ms": quantile(process_ms, 0.5),
           "p95_ms": quantile(process_ms, 0.95)}
    if not run.trace:
        return e2e, {}

    capture = capture or capture_batches(run)
    run.check(len(capture[1]) == cut,
              "the session cut %d batches, the reference %d"
              % (len(capture[1]), cut))
    layer, last, out = run.replicas("fleet", fleet_args(run),
                                    ["--spool", capture[0]])
    for f in ("incidents.jsonl", "stats.json"):
        run.check(read(os.path.join(out, f)) == read(os.path.join(rep, f)),
                  "fleet replica %s differs from padd's" % f)
    run.attempted += cut
    run.failed += int(last.get("rw.dropped", 0))
    if last.get("rw.dropped", 0) == 0:
        if ref_dump is None:
            ref_dump = reference_dump(run, capture)
        run.check(sha256(os.path.join(out, "dump.txt")) == ref_dump,
                  "fleet replica dump differs from the reference")
    return e2e, layer


# ----------------------------------------------------------- live_scrape


def live_job(run, d):
    """One paced padd session under open-loop scrape and status load."""
    padd = run.children.spawn(run.padd_args(LIVE_DAYS, LIVE_DURATION_S, [
        "--speed", str(LIVE_SPEED), "--alerts", RULES,
        "--incidents", "incidents.jsonl", "--session", "session.jsonl",
        "--stats-json", "stats.json"]), d)
    ports = read_endpoints(padd, ("control", "metrics"))
    t_ready = time.perf_counter()
    if ports is None:
        run.children.reap(padd)
        raise BenchError("padd did not start")
    t_end = t_ready + LIVE_DURATION_S / LIVE_SPEED - LIVE_WINDOW_MARGIN_S
    bodies = []

    def scrape():
        status, body = http_get(ports["metrics"])
        if not bodies or len(body) > len(bodies[0]):
            bodies[:] = [body]
        return status == b"200" and body.startswith(b"# HELP pad_service_up")

    ctl = ControlConn(ports["control"])

    def status():
        r = ctl.request('{"cmd":"status"}')
        return r.get("ok") is True and r.get("cmd") == "status"

    gens = [OpenLoop(LIVE_SCRAPE_HZ, t_ready, t_end, scrape),
            OpenLoop(LIVE_STATUS_HZ, t_ready, t_end, status)]
    for g in gens:
        g.start()
    for g in gens:
        g.join()
    ctl.close()
    padd.stdout.read()
    rc, ru = run.children.reap(padd)
    run.check(rc == 0, "padd exited %s" % rc)
    run.rss_mb.append(ru.ru_maxrss / 1024.0)
    return {"wall": padd.t_exit - t_ready, "scrape": gens[0],
            "status": gens[1], "body": bodies[0] if bodies else b"",
            "dir": d}


def live_scrape(run):
    _, ref = refs_for("live_scrape", run.seed)
    jobs = run.repeat(lambda d: live_job(run, d), LIVE_DAYS,
                      ["--alerts", RULES])
    rep = check_replay(run, jobs, ref)
    run.validate_prom(jobs[0]["body"], "padd.prom")
    gens = [g for j in jobs for g in (j["scrape"], j["status"])]
    run.attempted += sum(g.attempted for g in gens)
    run.failed += sum(g.errors for g in gens)
    lat = [x for j in jobs for x in j["scrape"].latency_ms]
    ctl = [x for j in jobs for x in j["status"].latency_ms]
    lag = [x for g in gens for x in g.lag_ms]
    run.notes.append(
        "live_scrape: %d session(s); scrape p50 %.3f ms p95 %.3f ms (n=%d);"
        " status p50 %.3f ms (n=%d); generator lag p50 %.3f ms p95 %.3f ms"
        % (len(jobs), quantile(lat, 0.5), quantile(lat, 0.95), len(lat),
           quantile(ctl, 0.5), len(ctl), quantile(lag, 0.5),
           quantile(lag, 0.95)))
    e2e = {"wall_s": statistics.median(j["wall"] for j in jobs),
           "p50_ms": mean_of_medians(j["scrape"].latency_ms for j in jobs),
           "p95_ms": quantile(lat, 0.95)}
    if not run.trace:
        return e2e, {}

    extra = ["--rules", RULES, "--days", str(LIVE_DAYS), "--duration",
             str(LIVE_DURATION_S), "--seed", str(run.seed)]
    layer, _, out = run.replicas("live", extra)
    for f in ("incidents.jsonl", "stats.json"):
        run.check(read(os.path.join(out, f)) == read(os.path.join(rep, f)),
                  "live replica %s differs from padd's" % f)
    layer["http.overhead_ms"] = quantile(lat, 0.5) - layer.get(
        "prom.render_ms", 0.0)
    layer["service.control_p50_ms"] = quantile(ctl, 0.5)
    layer["harness.lag_p95_ms"] = quantile(lag, 0.95)
    return e2e, layer


WORKLOADS = {"paper_repro": paper_repro, "fleet_push": fleet_push,
             "live_scrape": live_scrape}


# ------------------------------------------------------------------ main


def derive_layer(layer):
    """Per-operation costs from the replicas' spans and counts."""
    def ns_per(seconds, count):
        n = layer.get(count, 0.0)
        return seconds / n * 1e9 if n else 0.0
    # Coarse steps record telemetry and feed alerts; keep the engine's share.
    engine_coarse = (layer.get("engine.coarse_s", 0.0) -
                     layer.get("telemetry.record_s", 0.0) -
                     layer.get("alert.eval_s", 0.0))
    layer["engine.ns_per_coarse_step"] = ns_per(engine_coarse,
                                                "engine.coarse_steps")
    layer["engine.ns_per_fine_tick"] = ns_per(
        layer.get("engine.attack_s", 0.0), "engine.fine_ticks")
    layer["alert.ns_per_sample"] = ns_per(layer.get("alert.eval_s", 0.0),
                                          "alert.samples")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # The request streams share the interpreter lock; hand it over
    # promptly so one stream's bookkeeping does not delay the other's
    # timing.
    sys.setswitchinterval(1e-4)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build()
        run = Run(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("padbench: %s" % e)
        return 2

    try:
        e2e, layer = WORKLOADS[args.workload](run)
        e2e["setup_s"] = statistics.median(run.setups) if run.setups else 0
        e2e["peak_rss_mb"] = max(run.rss_mb) if run.rss_mb else 0.0
        e2e["ok_frac"] = 1.0 - run.failed / max(run.attempted, 1)
    except BenchError as e:
        log("padbench: %s" % e)
        return 2
    finally:
        run.children.stop_all()

    if args.trace:
        derive_layer(layer)
        selves = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        run.check(abs(selves + layer.get("unattributed_s", 0.0) -
                      layer.get("replica_wall_s", -1.0)) < 1e-6,
                  "layer self times plus unattributed_s miss the replica "
                  "wall time")
        values, kind = layer, "per_layer"
    else:
        values, kind = e2e, "end_to_end"
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in spec[kind]}

    run.notes.append("%s: child processes used %.2f CPU s; ops %d attempted,"
                     " %d failed" % (args.workload, run.children.cpu_s,
                                     run.attempted, run.failed))
    for note in run.notes:
        print(note)
    for p in run.problems:
        log("padbench: INCORRECT: %s" % p)
    if run.problems:
        log("padbench: artifacts kept in %s" % run.work)
    else:
        shutil.rmtree(run.work, ignore_errors=True)
    print(json.dumps({"correct": not run.problems,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
