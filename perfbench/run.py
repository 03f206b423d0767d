#!/usr/bin/env python3
"""perfbench: the end-to-end benchmark of the Klink reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lrb_q500 --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

It builds klink_run and perfbench_driver in Release (perfbench/CMakeLists.txt,
into $CARGO_TARGET_DIR or .bench_build), runs one workload for --seconds of
wall time, checks the outputs, prints a readable report and, as the last
line of stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 times the user-facing binaries (klink_run; klink_run --listen
--lockstep fed by the driver's load client) and reports the end-to-end
metrics. --trace 1 also runs the driver's reproduction of the workload with
each layer's public calls wrapped in timers and reports the per-layer
metrics. perfbench/README.md defines every metric and check.
"""

import argparse
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# A workload is a fixed job. Virtual-time metrics move with the input, and
# one ysb_q80 input in about eight falls into a memory-pressure regime with
# five times the latency and a third more memory, so each benchmark run
# derives `inputs` seeds (seed * 1000 + k) and reports the median over
# them; the timed phase cycles through the first `timed_inputs` of them.
# Per-input wall time is about 2.5 s (ysb_q80), 1.2 s (lrb_q500) and 1.2 s
# (tcp_ysb_q4) on a 4-vCPU Xeon. lrb_q500 runs 40 virtual seconds so that
# a 45 s run times about 30 inputs, enough for a steady median. The TCP
# client stores one input's feed (about 340 MB), so its sessions replay
# input 0 only. BENCHMARK.json gates lrb_q500 and tcp_ysb_q4; ysb_q80
# stays runnable and in --self-test (perfbench/README.md says why).
WORKLOADS = {
    "ysb_q80": {
        "kind": "inproc", "inputs": 12, "timed_inputs": 12,
        "args": {"workload": "ysb", "queries": 80, "rate": 1000,
                 "duration": 120, "warmup": 30, "cores": 8, "memory-mb": 16},
    },
    "lrb_q500": {
        "kind": "inproc", "inputs": 9, "timed_inputs": 9,
        "args": {"workload": "lrb", "queries": 500, "rate": 20,
                 "duration": 40, "warmup": 10, "cores": 8,
                 "memory-mb": 256},
    },
    "tcp_ysb_q4": {
        "kind": "tcp", "inputs": 5, "timed_inputs": 1,
        "args": {"workload": "ysb", "queries": 4, "rate": 5000,
                 "duration": 300, "cores": 8, "memory-mb": 16},
    },
}

# The same jobs shrunk to a fraction of a second, for --self-test.
SELF_TEST_ARGS = {
    "ysb_q80": {"queries": 4, "duration": 8, "warmup": 2},
    "lrb_q500": {"queries": 6, "duration": 8, "warmup": 2},
    "tcp_ysb_q4": {"queries": 2, "rate": 1000, "duration": 8},
}

SETUP_PROBES = 15        # set-up measurements per run, median reported
REFERENCE_CAL_S = 0.25   # perfbench_calibrate time that defines one
                         # reference second (README "Host speed")
PROBES_PER_REPEAT = 2    # taken between timed repeats, so that they sample
                         # the same machine conditions as the repeats
CHILD_DEADLINE_S = 30.0  # one klink_run / server / client session
SETUP_DEADLINE_S = 60.0  # reference runs and client feed generation
RUN_BUDGET_S = 110.0     # no new timed child starts after this much
HARD_STOP_S = 150.0      # every child is killed by then (the run's cap)
REFERENCE_WORKERS = 3    # parallel reference runs (set-up, untimed)

_hard_stop = [float("inf")]
_live = set()  # children not yet reaped


def spawn(cmd, **kwargs):
    proc = subprocess.Popen(cmd, **kwargs)
    _live.add(proc)
    return proc


def stop_children(signum, _frame):
    """On SIGTERM/SIGINT: kill and reap every child, then exit."""
    for proc in list(_live):
        try:
            proc.kill()
            os.waitpid(proc.pid, 0)
        except OSError:
            pass
    os._exit(128 + signum)


def child_timeout(timeout):
    """A child's deadline, cut short so the whole run ends in time."""
    left = _hard_stop[0] - time.monotonic()
    if left <= 1.0:
        raise Failure("run time budget exhausted")
    return min(timeout, left)


class Failure(Exception):
    """A child that crashed, hung past its deadline or broke the protocol."""


class ClientFailure(Failure):
    """The TCP load client stopped answering; no further session can run."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build --

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Release build of klink, klink_run and perfbench_driver only."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    logf = os.path.join(bdir, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                  "--target", "klink_run", "perfbench_driver",
                  "perfbench_calibrate"])
    with open(logf, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(logf) as f:
                    log(f.read()[-4000:])
                raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return {"klink_run": os.path.join(bdir, "klink", "tools", "klink_run"),
            "driver": os.path.join(bdir, "perfbench_driver"),
            "calibrate": os.path.join(bdir, "perfbench_calibrate")}


def stamp():
    bdir = build_dir()
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"(\w+):\w+=(.*)", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout.split("\n")[0]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"compiler {version}, build "
            f"{cache.get('CMAKE_BUILD_TYPE', '?')}, nproc {os.cpu_count()}, "
            f"cpu {cpu}")


# ------------------------------------------------------------ processes --

def flags(args, **extra):
    merged = dict(args, **extra)
    return [f"--{k}={v}" for k, v in merged.items()]


def wait4(proc, timeout):
    """Reaps `proc`, SIGKILLing it at the deadline. Returns (code, rusage,
    killed)."""
    killed = []
    timeout = min(timeout, max(0.1, _hard_stop[0] - time.monotonic()))
    timer = threading.Timer(timeout, lambda: (killed.append(1), proc.kill()))
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        _live.discard(proc)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, ru, bool(killed)


def cpu_s(ru):
    return ru.ru_utime + ru.ru_stime


class LineReader:
    """Reads lines from a child's stdout pipe with a deadline."""

    def __init__(self, proc):
        self.fd = proc.stdout.fileno()
        self.buf = b""
        self.eof = False

    def _fill(self, deadline):
        remaining = min(deadline, _hard_stop[0]) - time.monotonic()
        if remaining <= 0:
            raise Failure("deadline passed waiting for output")
        ready, _, _ = select.select([self.fd], [], [], remaining)
        if ready:
            chunk = os.read(self.fd, 1 << 16)
            self.eof = not chunk
            self.buf += chunk

    def readline(self, deadline):
        while b"\n" not in self.buf:
            if self.eof:
                raise Failure("output ended early")
            self._fill(deadline)
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def rest(self, deadline):
        while not self.eof:
            self._fill(deadline)
        out, self.buf = self.buf.decode(), b""
        return out


def run_child(cmd, timeout=CHILD_DEADLINE_S):
    """Runs a child to completion. Returns wall, rusage and stdout; raises
    Failure on a crash, a non-zero exit or the deadline."""
    timeout = child_timeout(timeout)
    t0 = time.perf_counter()
    proc = spawn(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = [], []
    readers = [threading.Thread(target=lambda: out.append(proc.stdout.read())),
               threading.Thread(target=lambda: err.append(proc.stderr.read()))]
    for t in readers:
        t.start()
    code, ru, killed = wait4(proc, timeout)
    wall = time.perf_counter() - t0
    for t in readers:
        t.join()
    stdout = out[0].decode()
    if killed:
        raise Failure(f"killed at the {timeout:.0f} s deadline: {cmd[0]}")
    if code != 0:
        raise Failure(f"exit {code}: {' '.join(cmd)}\n{err[0].decode()[-2000:]}")
    return {"wall_s": wall, "rusage": ru, "stdout": stdout}


def bench_json(stdout):
    for line in stdout.splitlines():
        if line.startswith("BENCH "):
            return json.loads(line[6:])
    raise Failure("no BENCH line in driver output")


def table(stdout, title):
    """The '== title ==' table block of klink_run's report (the results
    fingerprint of an in-process run), plus results/results_hash lines."""
    lines = stdout.splitlines()
    try:
        start = lines.index(f"== {title} ==")
    except ValueError:
        raise Failure(f"no '{title}' table in output")
    block = []
    for line in lines[start:]:
        if not line.strip() or line.startswith(("results", "BENCH")):
            break
        block.append(line.rstrip())
    block += [l for l in lines if l.startswith("results")]
    return "\n".join(block)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quantile(xs, q):
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[min(len(s) - 1, int(q * len(s)))]


class Tally:
    """Failure accounting in source events: a run that fails counts all of
    its events as failed; it is never retried."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.correct = True

    def fail(self, events, why):
        self.failed += events
        self.errors.append(why)
        self.correct = False


# ------------------------------------------------------ in-process jobs --

def sub_seeds(seed, n):
    return [seed * 1000 + k for k in range(n)]


def klink_run_cmd(bins, args, seed, **extra):
    return [bins["klink_run"], "--policy=klink", "--delay=uniform",
            "--executor=sequential"] + flags(args, seed=seed, **extra)


def driver_cmd(bins, mode, args, seed, **extra):
    return [bins["driver"], f"--mode={mode}"] + flags(args, seed=seed, **extra)


def references(bins, mode, args, seeds, tally):
    """Untraced driver runs, in parallel during set-up: the exact counts,
    full-precision virtual metrics and fingerprints each input must give."""
    def one(s):
        try:
            r = run_child(driver_cmd(bins, mode, args, s), SETUP_DEADLINE_S)
            return {"json": bench_json(r["stdout"]), "stdout": r["stdout"]}
        except Failure as e:
            return {"error": str(e)}
    with ThreadPoolExecutor(REFERENCE_WORKERS) as pool:
        refs = list(pool.map(one, seeds))
    for s, ref in zip(seeds, refs):
        if "error" in ref:
            tally.fail(0, f"reference seed {s}: {ref['error']}")
    return refs


def virtual_metrics(refs):
    ok = [r["json"] for r in refs if "json" in r]
    med = lambda key: median([j[key] for j in ok])
    return {
        "swm_p50_s": med("swm_p50_s"), "swm_p99_s": med("swm_p99_s"),
        "slowdown": med("slowdown"), "vthroughput_eps": med("vthroughput_eps"),
        "swm_samples": sum(j["swm_count"] for j in ok),
    }


def setup_probes(probe, count, setups, tally):
    """Appends `count` set-up times measured by `probe()` to `setups`."""
    for _ in range(count):
        try:
            setups.append(probe())
        except Failure as e:
            tally.fail(0, f"setup probe: {e}")


def host_probe(bins, cals, tally):
    """Appends one perfbench_calibrate time to `cals`. Its checksum must
    match the probes before it."""
    try:
        out = run_child([bins["calibrate"]])["stdout"].split()
        if len(out) != 3 or out[0] != "CAL":
            raise Failure(f"calibrate printed {out}")
        if cals and cals[0][1] != out[2]:
            raise Failure("calibrate checksum changed between probes")
        cals.append((float(out[1]), out[2]))
    except Failure as e:
        tally.fail(0, f"host probe: {e}")


def host_scaled(e2e, rates, setup, cals):
    """Fills the wall-clock end-to-end metrics in reference seconds: the
    median rate and set-up time, scaled by how much slower than
    REFERENCE_CAL_S the host ran the calibration job during this run."""
    slow = median([c for c, _ in cals]) / REFERENCE_CAL_S if cals else 1.0
    e2e["events_per_ref_s"] = median(rates) * slow
    e2e["setup_s"] = setup / slow
    return (f"host: calibration median {slow * REFERENCE_CAL_S:.4f} s over "
            f"{len(cals)} probes (x{slow:.3f} of reference); wall: "
            f"{median(rates):.6g} events/s, set-up {setup:.6f} s")


def run_inproc(bins, w, seed, seconds, trace, corrupt=False):
    args, tally = w["args"], Tally()
    seeds = sub_seeds(seed, w["inputs"])
    t_start = time.monotonic()
    refs = references(bins, "inproc", args, seeds, tally)
    if corrupt:
        for ref in refs:
            if "stdout" in ref:
                ref["stdout"] = ref["stdout"].replace("latency (s)", "latency (s) ", 1)
    # klink_run with a one-second run and no warm-up: process start, engine,
    # queries and feeds built, then eight cycles.
    probe = lambda: run_child(klink_run_cmd(bins, args, seeds[0], duration=1,
                                            warmup=0))["wall_s"]
    runs, traced, seen, setups, cals = [], [], {}, [], []
    n_timed = min(w["timed_inputs"], len(seeds))
    deadline = time.monotonic() + seconds
    i = 0
    while (i == 0 or time.monotonic() < deadline) and \
            time.monotonic() - t_start < RUN_BUDGET_S:
        k = i % n_timed
        i += 1
        setup_probes(probe, PROBES_PER_REPEAT, setups, tally)
        host_probe(bins, cals, tally)
        ref = refs[k]
        events = ref["json"]["ingested"] if "json" in ref else 0
        tally.attempted += events
        try:
            r = run_child(klink_run_cmd(bins, args, seeds[k]))
            got = table(r["stdout"], "Results")
            if "stdout" in ref and got != table(ref["stdout"], "Results"):
                raise Failure(f"seed {seeds[k]}: klink_run results differ "
                              f"from the reference\n{got}")
            if seen.setdefault(k, got) != got:
                raise Failure(f"seed {seeds[k]}: results differ across repeats")
            runs.append({"wall_s": r["wall_s"], "events": events,
                         "rss_mb": r["rusage"].ru_maxrss / 1024.0})
        except Failure as e:
            tally.fail(events, str(e))
            continue
        if not trace:
            continue
        tally.attempted += events
        try:
            t = run_child(driver_cmd(bins, "inproc", args, seeds[k], trace=1))
            if table(t["stdout"], "Results") != got:
                raise Failure(f"seed {seeds[k]}: traced driver results differ "
                              "from klink_run")
            traced.append({"json": bench_json(t["stdout"]),
                           "overhead": t["wall_s"] / r["wall_s"] - 1.0})
        except Failure as e:
            tally.fail(events, str(e))

    setup_probes(probe, SETUP_PROBES - len(setups), setups, tally)
    setup = median(setups)
    rates = [x["events"] / max(x["wall_s"] - setup, 1e-9) for x in runs]
    e2e = {"peak_rss_mb": median([x["rss_mb"] for x in runs])}
    host = host_scaled(e2e, rates, setup, cals)
    e2e.update(virtual_metrics(refs))
    notes = [f"{len(runs)} timed klink_run runs over "
             f"{min(i, n_timed)} inputs; virtual metrics: median "
             f"over {len(seeds)} inputs; {len(setups)} set-up probes", host,
             "wall events/s per run: " + " ".join(f"{r:.4g}" for r in rates)]
    layers = layer_metrics([x["json"] for x in traced],
                           [x["overhead"] for x in traced]) if trace else {}
    return tally, e2e, layers, notes


# -------------------------------------------------------------- TCP job --

LISTEN_RE = re.compile(r"listening on 127\.0\.0\.1:(\d+)")


class Client:
    """The driver's load client: generates the feed once, then replays it
    for every 'go PORT'."""

    def __init__(self, bins, args, seed):
        self.proc = spawn(driver_cmd(bins, "client", args, seed),
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.out = LineReader(self.proc)

    def wait_ready(self):
        line = self.out.readline(time.monotonic() + SETUP_DEADLINE_S)
        if not line.startswith("ready"):
            raise Failure(f"client: {line}")

    def go(self, port):
        self.proc.stdin.write(f"go {port}\n".encode())
        self.proc.stdin.flush()

    def done(self):
        line = self.out.readline(time.monotonic() + CHILD_DEADLINE_S)
        if not line.startswith("BENCH "):
            raise Failure(f"client: {line}")
        return json.loads(line[6:])

    def close(self):
        if self.proc.returncode is not None:
            return
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        wait4(self.proc, CHILD_DEADLINE_S)


def start_server(cmd):
    """Spawns a server and waits for its listening line. Returns
    (proc, reader, port, set-up seconds)."""
    t0 = time.perf_counter()
    proc = spawn(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    reader = LineReader(proc)
    deadline = time.monotonic() + CHILD_DEADLINE_S
    try:
        while True:
            m = LISTEN_RE.search(reader.readline(deadline))
            if m:
                return proc, reader, int(m.group(1)), time.perf_counter() - t0
    except Failure:
        proc.kill()
        wait4(proc, CHILD_DEADLINE_S)
        raise


def tcp_session(client, cmd, ref, expected_events):
    """One blast: a fresh server, the client replaying its stored feed, the
    server draining to empty and exiting. Checks the results against the
    in-process reference and events sent against events ingested."""
    proc, reader, port, setup = start_server(cmd)
    t_go = time.perf_counter()
    client.go(port)
    code, ru, killed = wait4(proc, CHILD_DEADLINE_S)
    run_s = time.perf_counter() - t_go
    out = reader.rest(time.monotonic() + 5)
    try:
        sent = client.done()
    except Failure as e:
        raise ClientFailure(str(e)) from e
    session = {"setup_s": setup, "run_s": run_s, "server_cpu_s": cpu_s(ru),
               "rss_mb": ru.ru_maxrss / 1024.0, "client_cpu_s": sent["cpu_s"],
               "client_thread_cpu_s": sent["thread_cpu_s"],
               "sent": sent["data_events_sent"], "stdout": out,
               "lost": expected_events}
    if killed:
        raise Failure(f"server killed at the {CHILD_DEADLINE_S:.0f} s deadline")
    if code != 0 or not sent["ok"]:
        raise Failure(f"server exit {code}, client ok={sent['ok']}")
    m = re.search(r"ingested events\s+(\d+)", out)
    ingested = int(m.group(1)) if m else -1
    session["ingested"] = ingested
    session["lost"] = max(0, sent["data_events_sent"] - ingested)
    if ingested != sent["data_events_sent"] or ingested != expected_events:
        raise Failure(f"events sent {sent['data_events_sent']}, ingested "
                      f"{ingested}, reference {expected_events}")
    if table(out, "Results (TCP ingest)") != table(ref, "Results (TCP ingest)"):
        raise Failure("TCP results differ from the in-process run:\n" +
                      table(out, "Results (TCP ingest)"))
    return session


def run_tcp(bins, w, seed, seconds, trace, corrupt=False):
    args, tally = w["args"], Tally()
    seeds = sub_seeds(seed, w["inputs"])
    s = seeds[0]  # the input the sessions replay
    t_start = time.monotonic()
    listen = [bins["klink_run"], "--listen=0", "--lockstep", "--policy=klink",
              "--executor=sequential"] + flags(args, seed=s)
    serve = driver_cmd(bins, "serve", args, s)
    refs, setups, plain, traced, cals = [], [], [], [], []
    expected = 0
    client = Client(bins, args, s)
    try:
        refs = references(bins, "listen-ref", args, seeds, tally)
        client.wait_ready()
        if "json" not in refs[0]:
            raise Failure("no reference run")
        ref, expected = refs[0]["stdout"], refs[0]["json"]["ingested"]
        if corrupt:
            ref = re.sub(r"results_hash (\w)", lambda m: "results_hash " +
                         ("1" if m.group(1) != "1" else "2"), ref)
        if refs[0]["json"]["truncated"]:
            tally.fail(0, "reference run hit the drain deadline")

        def probe():
            proc, _, _, setup = start_server(listen)
            proc.kill()
            wait4(proc, CHILD_DEADLINE_S)
            return setup

        deadline = time.monotonic() + seconds
        sessions = 0
        while (sessions == 0 or time.monotonic() < deadline) and \
                time.monotonic() - t_start < RUN_BUDGET_S:
            sessions += 1
            setup_probes(probe, PROBES_PER_REPEAT, setups, tally)
            host_probe(bins, cals, tally)
            for cmd, sink in [(listen, plain)] + ([(serve, traced)] if trace else []):
                tally.attempted += expected
                try:
                    sink.append(tcp_session(client, cmd, ref, expected))
                except ClientFailure:
                    raise
                except Failure as e:
                    tally.fail(expected, str(e))
                    if client.proc.poll() is not None:
                        raise Failure("load client died") from e
        setup_probes(probe, SETUP_PROBES - len(setups), setups, tally)
    except ClientFailure as e:
        tally.fail(expected, str(e))
    except Failure as e:
        tally.fail(0, str(e))
    finally:
        client.close()

    rates = [x["ingested"] / x["run_s"] for x in plain]
    e2e = {"peak_rss_mb": median([x["rss_mb"] for x in plain])}
    host = host_scaled(e2e, rates,
                       median(setups + [x["setup_s"] for x in plain]), cals)
    e2e.update(virtual_metrics(refs))
    client_cpu = median([x["client_cpu_s"] for x in plain])
    server_cpu = median([x["server_cpu_s"] for x in plain])
    notes = [f"{len(plain)} untraced sessions, {len(traced)} traced; "
             f"{len(setups)} extra set-up probes; CPU per session: client "
             f"{client_cpu:.3f} s, server {server_cpu:.3f} s", host,
             "wall events/s per session: " +
             " ".join(f"{r:.4g}" for r in rates)]
    layers = {}
    if trace:
        overhead = (median([x["run_s"] for x in traced]) /
                    max(median([x["run_s"] for x in plain]), 1e-9) - 1.0)
        layers = layer_metrics([bench_json(x["stdout"]) for x in traced],
                               [overhead])
        try:
            dec = run_child(driver_cmd(bins, "decode", args, s))
            layers["net.decode_ns_per_frame"] = \
                bench_json(dec["stdout"])["decode_ns_per_frame"]
        except Failure as e:
            tally.fail(0, f"decode: {e}")
        layers["tcp.client_cpu_s"] = client_cpu
        layers["tcp.client_thread_cpu_s"] = median(
            [x["client_thread_cpu_s"] for x in plain])
        layers["tcp.server_cpu_s"] = server_cpu
    return tally, e2e, layers, notes


# --------------------------------------------------------------- layers --

def layer_metrics(jsons, overheads):
    """Per-layer figures summed over the traced runs of one benchmark run."""
    tot = lambda key: sum(j.get(key, 0) for j in jsons)
    per = lambda a, b: tot(a) / tot(b) if tot(b) else 0.0
    wall = tot("wall_ns")
    share = lambda *keys: sum(tot(k) for k in keys) / wall if wall else 0.0
    cycles_us = [ns / 1000.0 for j in jsons for ns in j["select_ns_per_cycle"]]
    n = max(len(jsons), 1)
    return {
        "workloads.poll_ns_per_event": per("feed_ns", "feed_data"),
        "workloads.share": share("feed_ns"),
        "sched.select_us_per_cycle_p50": quantile(cycles_us, 0.50),
        "sched.select_us_per_cycle_p99": quantile(cycles_us, 0.99),
        "sched.share": share("select_ns", "eval_ns"),
        "sched.modelled_us_per_cycle": per("modelled_us", "cycles"),
        "sched.snapshot_queries": per("snapshot_queries", "select_calls"),
        "sched.slots_filled": per("slots_filled", "slots_offered"),
        "runtime.self_us_per_cycle": per("self_ns", "cycles") / 1000.0,
        "runtime.share": share("self_ns"),
        "runtime.cycles": tot("cycles") / n,
        "runtime.ns_per_op_event": per("self_ns", "processed_events"),
        "net.poll_ns_per_frame": per("poll_ns", "frames_decoded"),
        "net.share": share("poll_ns", "net_feed_ns"),
        "net.feed_pop_ns_per_event": per("net_feed_ns", "net_feed_data"),
        "net.decode_ns_per_frame": 0.0,
        "net.bytes_per_event": per("bytes_read", "decoded_data"),
        "net.stalls": tot("stalls") / n,
        "net.stall_ms": tot("stall_us") / n / 1000.0,
        "tcp.client_cpu_s": 0.0,
        "tcp.client_thread_cpu_s": 0.0,
        "tcp.server_cpu_s": 0.0,
        "trace.overhead_share": median(overheads),
    }


# ---------------------------------------------------------------- main --

def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(bins, name, seed, seconds, trace, workloads=WORKLOADS,
            corrupt=False):
    w = workloads[name]
    _hard_stop[0] = time.monotonic() + HARD_STOP_S
    run = run_inproc if w["kind"] == "inproc" else run_tcp
    tally, e2e, layers, notes = run(bins, w, seed, seconds, trace, corrupt)
    return tally, e2e, layers, notes


def result_json(contract, tally, e2e, layers, trace):
    specs = contract["per_layer"] if trace else contract["end_to_end"]
    source = layers if trace else e2e
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in specs}
    return {"correct": tally.correct, "attempted": max(tally.attempted, 1),
            "failed": tally.failed, "metrics": metrics}


def report(name, seed, tally, e2e, layers, notes, contract):
    print(f"perfbench {name} seed {seed}: {stamp()}")
    for note in notes:
        print(f"  {note}")
    units = {m["name"]: m["unit"] for m in
             contract["end_to_end"] + contract["per_layer"]}
    for key, value in list(e2e.items()) + list(layers.items()):
        if key in units:
            print(f"  {key:34s} {value:16.6f} {units[key]}")
    share = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_share':34s} {share:16.6f} ratio "
          f"({tally.failed} of {tally.attempted} source events)")
    print(f"  SWM latency samples: {e2e.get('swm_samples', 0)}")
    for err in tally.errors:
        print(f"  CHECK FAILED: {err}")


def self_test(bins, contract):
    """A tiny run of each workload: every named metric present with its
    unit, and a corrupted expected fingerprint must fail the check."""
    tiny = {name: dict(w, inputs=min(w["inputs"], 2),
                       args=dict(w["args"], **SELF_TEST_ARGS[name]))
            for name, w in WORKLOADS.items()}
    problems = []
    for name in tiny:
        for trace in (0, 1):
            tally, e2e, layers, _ = measure(bins, name, 1, 1, trace, tiny)
            res = result_json(contract, tally, e2e, layers, trace)
            specs = contract["per_layer"] if trace else contract["end_to_end"]
            if not tally.correct:
                problems.append(f"{name} trace {trace}: {tally.errors}")
            for m in specs:
                got = res["metrics"].get(m["name"])
                source = layers if trace else e2e
                if m["name"] not in source or got["unit"] != m["unit"]:
                    problems.append(f"{name} trace {trace}: metric "
                                    f"{m['name']} missing")
        tally, _, _, _ = measure(bins, name, 1, 1, 0, tiny, corrupt=True)
        if tally.correct:
            problems.append(f"{name}: a corrupted fingerprint passed the check")
        print(f"self-test {name}: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(f"  {p}")
    return not problems


def main():
    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: run from the root of a klink checkout")
    contract = load_contract()
    bins = build()
    if a.self_test:
        raise SystemExit(0 if self_test(bins, contract) else 1)
    if a.workload is None:
        ap.error("--workload is required")
    tally, e2e, layers, notes = measure(bins, a.workload, a.seed, a.seconds,
                                        a.trace)
    report(a.workload, a.seed, tally, e2e, layers, notes, contract)
    print(json.dumps(result_json(contract, tally, e2e, layers, a.trace)))


if __name__ == "__main__":
    main()
