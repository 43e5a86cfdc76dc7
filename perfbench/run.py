#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload firehose_hh --seed 1 --seconds 20 \
        --trace 0

Builds the library, lps_serve and perfbench_driver from the checkout
(into $CARGO_TARGET_DIR, default .bench_build), runs one workload, checks
every answer, prints one line per metric and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics of a separate
traced run. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics as M  # noqa: E402

ROOT = os.path.dirname(HERE)
SERVED = {"firehose_hh": 64, "paper_samplers": 16}  # workload -> tenants
WORKLOADS = list(SERVED) + ["dup_replay"]
SETUP_REPEATS = 7  # cold starts per run; setup_s is their median
TICKS = os.sysconf("SC_CLK_TCK")
# Host steal on a shared VM comes in bursts of a few seconds. The served
# workloads' gated rates are therefore taken per window of this length and
# reported as the faster quartile across windows (README.md).
WINDOW_S = 1.0
CPU_TRACE_S = 0.05
# Every end-to-end number printed, with the sample count it rests on. The
# gated subset is BENCHMARK.json's end_to_end list; throughput, the tails
# and query latency are printed here and reported per layer as
# e2e.<name>, because their run-to-run spread on a shared host reaches or
# exceeds the largest bound (README.md, "End-to-end metrics").
PRINTED = [
    ("setup_s", "s", "setup"),
    ("ingest_ups", "updates/s", None),
    ("ingest_p50_ms", "ms", "ingest"),
    ("ingest_p99_ms", "ms", "ingest"),
    ("query_p50_ms", "ms", "query"),
    ("query_p90_ms", "ms", "query"),
    ("window_p50_ms", "ms", "window"),
    ("cpu_us_per_update", "us", None),
    ("peak_rss_mb", "MB", None),
]
UNGATED = ["ingest_ups", "ingest_p99_ms", "query_p50_ms", "query_p90_ms",
           "window_p50_ms"]


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --

def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark package; returns the paths of
    lps_serve and perfbench_driver."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "lps.h"))):
        raise BenchError(f"no library source tree at {ROOT}")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logf = os.path.join(out, "perfbench-build.log")
    with open(logf, "w") as f:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           stdout=f, stderr=subprocess.STDOUT, check=False)
        r = subprocess.run(["cmake", "--build", out, "-j", "4", "--target",
                            "lps_serve", "perfbench_driver"],
                           stdout=f, stderr=subprocess.STDOUT, check=False)
    if r.returncode != 0:
        with open(logf) as f:
            sys.stderr.write(f.read()[-4000:])
        raise BenchError("build failed")
    return (os.path.join(out, "lps", "lps_serve"),
            os.path.join(out, "perfbench_driver"))


# -------------------------------------------------------------- processes --

class Procs:
    """Every process the run starts; stop() ends and reaps them all."""

    def __init__(self):
        self.live = []

    def start(self, argv, **kw):
        p = subprocess.Popen(argv, **kw)
        self.live.append(p)
        return p

    def stop(self, p, sig=signal.SIGTERM, timeout=60):
        if p.poll() is None:
            p.send_signal(sig)
            try:
                p.wait(timeout)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        for stream in (p.stdin, p.stdout):
            if stream:
                stream.close()
        if p in self.live:
            self.live.remove(p)
        return p.returncode

    def stop_all(self):
        for p in list(self.live):
            self.stop(p, signal.SIGKILL)


def stats_tenants(port):
    """Sends one STATS request and returns the tenant count it reports
    (the first u64 word of the reply body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(struct.pack("<IBQ", 9, 8, 0))
        head = recv_exact(s, 4)
        body = recv_exact(s, struct.unpack("<I", head)[0])
    if body[0] != 0 or len(body) < 17:
        raise BenchError("STATS refused")
    return struct.unpack("<Q", body[9:17])[0]


def recv_exact(s, n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        if not chunk:
            raise BenchError("daemon closed the connection")
        buf += chunk
    return buf


def start_daemon(procs, serve, data_dir):
    """Launches lps_serve over data_dir and reads its start-up lines;
    returns (process, port, kernel backend)."""
    p = procs.start([serve, "--port", "0", "--data-dir", data_dir],
                    stdout=subprocess.PIPE, text=True)
    line = p.stdout.readline()
    if "listening on" not in line:
        raise BenchError(f"lps_serve did not start: {line!r}")
    port = int(line.rsplit(":", 1)[1])
    backend = p.stdout.readline().rsplit(":", 1)[-1].strip()
    return p, port, backend


def boot(procs, serve, golden, data_dir, tenants):
    """Restart-to-ready on a fresh copy of the store: seconds from launch
    until STATS lists every tenant."""
    shutil.rmtree(data_dir, ignore_errors=True)
    shutil.copytree(golden, data_dir)
    t0 = time.perf_counter()
    p, port, backend = start_daemon(procs, serve, data_dir)
    while stats_tenants(port) != tenants:
        time.sleep(0.001)
    return p, port, backend, time.perf_counter() - t0


def prep_store(procs, serve, driver, workload, seed, golden):
    """The boot image: the daemon under test creates the tenants and
    ingests the prep stretch, then shuts down cleanly (final snapshot)."""
    shutil.rmtree(golden, ignore_errors=True)
    p, port, _ = start_daemon(procs, serve, golden)
    r = subprocess.run([driver, "prep", "--workload", workload, "--seed",
                        str(seed), "--port", str(port)], check=False)
    procs.stop(p)
    if r.returncode != 0 or p.returncode != 0:
        raise BenchError("prep failed")


class Sampler:
    """/proc readings of the process under test, the load generator (if
    any) and the host at each handshake line. Between a 'start X' and an
    'end X' line it also traces the target's CPU seconds every
    CPU_TRACE_S on CLOCK_MONOTONIC, the driver's steady clock."""

    def __init__(self, target, loadgen=None):
        self.target, self.loadgen = target, loadgen
        self.marks = []  # (line, reading) in arrival order
        self.traces = {}  # phase name -> [(monotonic seconds, cpu seconds)]
        self._stop = None
        self._thread = None

    def get(self, name):
        return [m for n, m in self.marks if n == name]

    def cpu(self):
        return M.read_proc_cpu_seconds(self.target, ticks_per_second=TICKS)

    def mark(self, name):
        if name.startswith("end "):
            self._stop.set()
            self._thread.join()
        reading = {
            "cpu": self.cpu(),
            "host": M.read_host_ticks(),
            "hwm_mb": M.read_vm_hwm_mb(self.target),
        }
        if self.loadgen is not None:
            reading["lg_cpu"] = M.read_proc_cpu_seconds(
                self.loadgen, ticks_per_second=TICKS)
        self.marks.append((name, reading))
        if name.startswith("start "):
            trace = self.traces.setdefault(name[len("start "):], [])
            self._stop = threading.Event()
            self._thread = threading.Thread(target=self._trace,
                                            args=(trace, self._stop))
            self._thread.start()

    def _trace(self, trace, stop):
        while True:
            trace.append((time.monotonic(), self.cpu()))
            if stop.wait(CPU_TRACE_S):
                trace.append((time.monotonic(), self.cpu()))
                return


def converse(p, sampler):
    """Runs the handshake with a driver process: each 'start X' / 'end X'
    / 'done' line is answered with 'go' after sampling /proc; JSON lines
    are collected and returned."""
    results = []
    for line in p.stdout:
        line = line.strip()
        if line.startswith("{"):
            results.append(json.loads(line))
            continue
        sampler.mark(line)
        p.stdin.write("go\n")
        p.stdin.flush()
    if p.wait() != 0:
        raise BenchError(f"driver exited with {p.returncode}")
    return results


# ---------------------------------------------------------------- served --

def run_served(args, serve, driver, work, procs):
    tenants = SERVED[args.workload]
    golden = os.path.join(work, "golden")
    prep_store(procs, serve, driver, args.workload, args.seed, golden)
    setups = []
    repeats = SETUP_REPEATS if args.trace == 0 else 1
    for i in range(repeats):
        p, port, backend, seconds = boot(procs, serve, golden,
                                         os.path.join(work, "store"), tenants)
        setups.append(seconds)
        if i + 1 < repeats:
            procs.stop(p, signal.SIGKILL)
    phases = ["measured"] if args.trace == 0 else ["untraced", "traced"]
    seconds = args.seconds if args.trace == 0 else args.seconds / 2
    spans_load = os.path.join(work, "spans-load.csv")
    lg = procs.start([driver, "load", "--workload", args.workload, "--seed",
                      str(args.seed), "--port", str(port), "--seconds",
                      str(seconds), "--phases", ",".join(phases), "--spans",
                      spans_load],
                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    sampler = Sampler(p.pid, lg.pid)
    results = converse(lg, sampler)
    procs.stop(lg)
    if procs.stop(p) != 0:
        raise BenchError("lps_serve did not shut down cleanly")
    by_phase = {r["phase"]: r for r in results if "phase" in r}
    final = next(r for r in results if "verify_checks" in r)
    meta = {"kernel_backend": final["kernel_backend"] or backend,
            "io_backend": final["io_backend"],
            "hardware_threads": final["hardware_threads"]}
    e2e = {name: served_e2e(by_phase[name], sampler, name, setups)
           for name in phases}
    failed = final["verify_wrong"] + sum(
        e["errors"] + e["wrong"] for e in e2e.values())
    attempted = final["verify_checks"] + sum(
        e["ingests"] + e["queries"] for e in e2e.values())
    if args.trace == 0:
        return e2e["measured"], meta, attempted, failed, {}
    layers = served_layers(args, driver, work, golden, e2e)
    failed += layers.pop("_wrong")
    return e2e["untraced"], meta, attempted, failed, layers


def served_e2e(ph, sampler, name, setups):
    a, b = sampler.get(f"start {name}")[0], sampler.get(f"end {name}")[0]
    updates = ph["updates"]
    latency = M.latencies_from_due(ph["query_due"], ph["query_done"])
    late = [1e3 * x for x in M.latencies_from_due(ph["query_due"],
                                                   ph["query_sent"])]
    query_ms = [1e3 * x for x, w in zip(latency, ph["query_window"]) if not w]
    window_ms = [1e3 * x for x, w in zip(latency, ph["query_window"]) if w]
    done, rtt = ph["ingest_done"], ph["ingest_ms"]
    per_item = updates / max(1, ph["ingests"])
    cpu_trace = sampler.traces[name]
    p50s, cpus = [], []
    for i, idx in enumerate(M.windows(done, WINDOW_S, ph["ingest_seconds"])):
        if len(idx) >= M.samples_needed(0.5):
            p50s.append(M.median([rtt[j] for j in idx]))
        if idx:
            t0 = ph["start_clock"] + i * WINDOW_S
            cpu = (M.interpolate(cpu_trace, t0 + WINDOW_S)
                   - M.interpolate(cpu_trace, t0))
            cpus.append(cpu * 1e6 / (len(idx) * per_item))
    rates = M.window_rates(done, per_item, WINDOW_S, ph["ingest_seconds"])
    out = {
        "setup_s": M.median(setups),
        "ingest_ups": M.quantile(rates, 0.75) if rates else None,
        "ingest_p50_ms": M.quantile(p50s, 0.25) if p50s else None,
        "cpu_us_per_update": M.quantile(cpus, 0.25) if cpus else None,
        "ingest_p99_ms": M.percentile(ph["ingest_ms"], 0.99),
        "query_p50_ms": M.percentile(query_ms, 0.5),
        "query_p90_ms": M.percentile(query_ms, 0.9),
        "window_p50_ms": M.percentile(window_ms, 0.5),
        "peak_rss_mb": b["hwm_mb"],
        "_counts": {"ingest": len(ph["ingest_ms"]),
                    "query": len(query_ms),
                    "window": len(window_ms),
                    "setup": len(setups)},
        "loadgen.late_ms_p90": M.percentile(late, 0.9),
        "loadgen.cpu_us_per_update": (b["lg_cpu"] - a["lg_cpu"]) * 1e6
        / updates,
        "loadgen.steal_pct": M.steal_pct(a["host"], b["host"]),
        "loadgen.requests": ph["ingests"],
        "loadgen.queries": ph["queries"],
        "ingests": ph["ingests"],
        "queries": ph["queries"],
        "errors": ph["errors"],
        "wrong": ph["wrong"],
        "sampler_fails": ph["sampler_fails"],
        "sampler_answers": ph["sampler_answers"],
        "ingest_mean_ms": M.mean(ph["ingest_ms"]),
    }
    return out


def load_spans(path):
    """{(name, label): [duration_us, ...]} in file order."""
    spans = {}
    with open(path) as f:
        next(f)
        for line in f:
            name, label, start, end, _parent, _req = line.rstrip().split(",")
            spans.setdefault((name, label), []).append(
                float(end) - float(start))
    return spans


def collect(spans, name, labels=None):
    out = []
    for (n, label), durations in spans.items():
        if n == name and (labels is None or label in labels):
            out.extend(durations)
    return out


def served_layers(args, driver, work, golden, e2e):
    """Runs the in-process replay and turns its spans into the per-layer
    metrics."""
    base = e2e["untraced"]
    ratio = base["queries"] / max(1, base["ingests"])
    spans_path = os.path.join(work, "spans-replay.csv")
    r = subprocess.run([driver, "replay", "--workload", args.workload,
                        "--seed", str(args.seed), "--store", golden,
                        "--work", os.path.join(work, "replay"),
                        "--requests", str(base["ingests"]),
                        "--seconds", str(args.seconds / 2),
                        "--query-ratio", f"{ratio:.6f}", "--spans",
                        spans_path],
                       stdout=subprocess.PIPE, text=True, check=False)
    if r.returncode != 0:
        raise BenchError("replay failed")
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    spans = load_spans(spans_path)
    batch = summary["batch"]
    requests = base["ingests"]
    L = {}

    def per_request(name):
        return sum(collect(spans, name)) / requests

    client = per_request("client.ingest")
    registry = per_request("registry.ingest")
    window = (sum(collect(spans, "window.push"))
              + sum(collect(spans, "window.push_seal"))) / requests
    sketch = per_request("sketch.update")
    L["server.encode_us_per_update"] = per_request("codec.encode") / batch
    L["server.decode_us_per_update"] = per_request("codec.decode") / batch
    L["server.frame_bytes_per_update"] = (summary["frame_bytes"]
                                          / summary["updates"])
    L["server.transport_us_per_request"] = M.self_time(client, registry)
    library_ups = summary["updates"] / (sum(collect(spans, "sketch.update"))
                                        / 1e6)
    L["server.served_library_ratio"] = base["ingest_ups"] / library_ups
    L["registry.ingest_self_us_per_request"] = M.self_time(registry, window)
    L["registry.query_us"] = M.mean(collect(spans, "registry.query"))
    L["registry.window_us"] = M.mean(collect(spans, "registry.window"))
    uncontended = M.percentile(collect(spans, "client.query"), 0.5) or 0.0
    L["registry.query_wait_ms"] = base["query_p50_ms"] - uncontended / 1e3
    L["stream.window_push_us_per_update"] = M.self_time(window, sketch) / batch
    seal = M.mean(collect(spans, "window.push_seal"))
    L["stream.window_seal_ms"] = (seal - M.mean(collect(spans, "window.push"))
                                  ) / 1e3
    L["stream.window_seals"] = summary["seals"]
    L["stream.window_materialize_ms"] = M.mean(
        collect(spans, "window.materialize")) / 1e3
    L["stream.checkpoint_bytes"] = summary["checkpoint_bytes"]
    hh = collect(spans, "sketch.update", {"hh"})
    L["heavy.update_us_per_update"] = M.mean(hh) / batch if hh else 0.0
    L["heavy.query_us"] = M.mean(collect(spans, "sketch.query", {"hh"}))
    hh_bytes = [b for label, b in summary["state_bytes"] if label == "hh"]
    L["heavy.state_bytes"] = M.mean(hh_bytes)
    for k in ("lp05", "lp10", "lp15", "l0"):
        upd = collect(spans, "sketch.update", {k})
        L[f"core.{k}.update_us_per_update"] = M.mean(upd) / batch
        L[f"core.{k}.sample_ms"] = M.mean(
            collect(spans, "sketch.query", {k})) / 1e3
    answers = summary["sampler_answers"] + base["sampler_answers"]
    fails = summary["sampler_fails"] + base["sampler_fails"]
    L["core.sample_fail_ratio"] = fails / answers if answers else 0.0
    core_bytes = [b for label, b in summary["state_bytes"] if label != "hh"]
    L["core.state_bytes"] = M.mean(core_bytes)
    for k in ("lp05", "lp10", "lp15"):
        L[f"norm.{k}.update_us_per_update"] = M.mean(
            collect(spans, "norm.update", {k})) / batch
    L["persist.open_ms"] = summary["open_ms"]
    L["persist.restore_ms"] = summary["restore_ms"]
    passes = collect(spans, "persist.snapshot_pass")
    L["persist.snapshot_pass_ms"] = M.mean(passes) / 1e3
    L["persist.snapshot_bytes_per_pass"] = (summary["snapshot_bytes"]
                                            / max(1, len(passes)))
    L["persist.spill_encode_us"] = M.mean(collect(spans,
                                                  "persist.spill_encode"))
    L["persist.spill_ratio"] = (summary["spill_bytes"]
                                / max(1, summary["spill_raw_bytes"]))
    for key in ("late_ms_p90", "cpu_us_per_update", "steal_pct", "requests",
                "queries"):
        L[f"loadgen.{key}"] = base[f"loadgen.{key}"]
    traced = e2e["traced"]
    L["trace.untraced_ingest_ups"] = base["ingest_ups"]
    L["trace.traced_ingest_ups"] = traced["ingest_ups"]
    L["trace.overhead_pct"] = 100.0 * (1 - traced["ingest_ups"]
                                       / base["ingest_ups"])
    # Along an INGEST request the self times telescope to the in-process
    # client round trip; what the measured round trip spends beyond it
    # (process boundary, the concurrent query connection) is unattributed.
    measured_us = base["ingest_mean_ms"] * 1e3
    L["trace.unattributed_us_per_request"] = measured_us - client
    L["trace.attributed_share"] = client / measured_us
    L["_wrong"] = summary["wrong"]
    log(f"ingest path per request (us): transport "
        f"{L['server.transport_us_per_request']:.1f}, registry self "
        f"{L['registry.ingest_self_us_per_request']:.1f}, window self "
        f"{window - sketch:.1f}, sketch {sketch:.1f}; measured "
        f"{measured_us:.1f}, unattributed "
        f"{L['trace.unattributed_us_per_request']:.1f}")
    return L


# ------------------------------------------------------------ dup_replay --

def run_dup(args, driver, work, procs):
    trace = os.path.join(work, "letters.bin")
    if subprocess.run([driver, "dup-gen", "--seed", str(args.seed),
                       "--trace", trace], check=False).returncode != 0:
        raise BenchError("dup-gen failed")
    seconds = args.seconds if args.trace == 0 else 0
    p = procs.start([driver, "dup", "--seed", str(args.seed), "--trace",
                     trace, "--seconds", str(seconds)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    sampler = Sampler(p.pid)
    results = converse(p, sampler)
    procs.stop(p)
    jobs = [r for r in results if "setup_s" in r]
    meta_line = results[-1]
    meta = {k: meta_line[k] for k in ("kernel_backend", "io_backend",
                                      "hardware_threads")}
    # Jobs play the part of the served workloads' windows: the gated rates
    # are the faster quartile across the run's jobs.
    cpus = [b["cpu"] - a["cpu"] for a, b in zip(sampler.get("start job"),
                                                sampler.get("end job"))]
    sink = [x for j in jobs for x in j["sink_ms"]]
    query = [x for j in jobs for x in j["query_ms"]]
    e2e = {
        "setup_s": M.median([j["setup_s"] for j in jobs]),
        "ingest_ups": M.quantile([j["letters"] / j["feed_s"] for j in jobs],
                                 0.75),
        "ingest_p50_ms": M.quantile([M.median(j["sink_ms"]) for j in jobs],
                                    0.25),
        "ingest_p99_ms": M.percentile(sink, 0.99),
        "query_p50_ms": M.percentile(query, 0.5),
        "query_p90_ms": M.percentile(query, 0.9),
        "window_p50_ms": None,
        "cpu_us_per_update": M.quantile(
            [c * 1e6 / j["letters"] for c, j in zip(cpus, jobs)], 0.25),
        "peak_rss_mb": sampler.get("done")[0]["hwm_mb"],
        "_counts": {"ingest": len(sink), "query": len(query), "window": 0,
                    "setup": len(jobs)},
    }
    failed = sum(1 for j in jobs if j["verdict"] == 2)
    attempted = len(jobs)
    if args.trace == 0:
        return e2e, meta, attempted, failed, {}
    return e2e, meta, attempted, failed, dup_layers(args, driver, work,
                                                    trace, e2e)


def dup_layers(args, driver, work, trace, e2e):
    spans_path = os.path.join(work, "spans-dup.csv")
    r = subprocess.run([driver, "dup-replay", "--seed", str(args.seed),
                        "--trace", trace, "--spans", spans_path],
                       stdout=subprocess.PIPE, text=True, check=False)
    if r.returncode != 0:
        raise BenchError("dup-replay failed")
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    spans = load_spans(spans_path)
    letters = summary["letters"]
    L = {}
    decode_s = M.median(collect(spans, "io.decode")) / 1e6
    L["io.decode_mb_per_s"] = summary["bytes"] / 1e6 / decode_s
    L["io.read_wait_s"] = summary["read_wait_s"]
    L["io.ingest_wait_s"] = summary["ingest_wait_s"]
    L["io.sink_s"] = summary["sink_s"]
    L["duplicates.init_ms"] = M.mean(collect(spans, "duplicates.init",
                                             {"dup"})) / 1e3
    L["duplicates.update_us_per_letter"] = sum(
        collect(spans, "duplicates.update", {"solo"})) / letters
    L["duplicates.merge_ms"] = M.mean(collect(spans, "duplicates.merge")) / 1e3
    L["duplicates.query_ms"] = M.mean(collect(spans, "duplicates.query",
                                              {"dup"})) / 1e3
    push = sum(collect(spans, "pipeline.push"))
    L["stream.pipeline_us_per_update"] = push / letters
    merge = M.mean(collect(spans, "pipeline.merge"))
    L["stream.pipeline_merge_ms"] = merge / 1e3
    solo = M.mean(collect(spans, "job.solo"))
    sharded = M.mean(collect(spans, "job.sharded"))
    L["stream.pipeline_vs_solo"] = solo / sharded
    traced_ups = letters / ((push + merge) / 1e6)
    L["trace.untraced_ingest_ups"] = e2e["ingest_ups"]
    L["trace.traced_ingest_ups"] = traced_ups
    L["trace.overhead_pct"] = 100.0 * (1 - traced_ups / e2e["ingest_ups"])
    attributed = (sum(collect(spans, "duplicates.init", {"dup"})) + push
                  + merge + M.mean(collect(spans, "duplicates.query",
                                           {"dup"})))
    L["trace.unattributed_us_per_request"] = sharded - attributed
    L["trace.attributed_share"] = attributed / sharded
    if summary["verdict"] == 2:
        raise BenchError("dup-replay answered wrong")
    return L


# ------------------------------------------------------------------ main --

def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = spec()
    serve, driver = build()
    work = os.path.join(build_dir(), "perfbench-runs",
                        f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    procs = Procs()
    try:
        if args.workload in SERVED:
            e2e, meta, attempted, failed, layers = run_served(
                args, serve, driver, work, procs)
        else:
            e2e, meta, attempted, failed, layers = run_dup(
                args, driver, work, procs)
    finally:
        procs.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    for key, value in meta.items():
        print(f"meta {key} {value}")
    print(f"meta workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds}")
    if "loadgen.steal_pct" in e2e:
        print(f"meta steal_pct {e2e['loadgen.steal_pct']:.3f} "
              f"generator_late_ms_p90 {fmt(e2e['loadgen.late_ms_p90'])}")
    counts = e2e["_counts"]
    for name, unit, n in PRINTED:
        if e2e[name] is None and n == "window":
            continue  # dup_replay has no WINDOW
        tail = f" (n={counts[n]})" if n else ""
        print(f"metric {name} {fmt(e2e[name])} {unit}{tail}")
    print(f"metric error_rate {failed / attempted:.6g} ratio (n={attempted})")

    correct = failed == 0 and all(
        e2e[m["name"]] is not None for m in bench["end_to_end"])
    if args.trace == 0:
        wanted, values = bench["end_to_end"], e2e
    else:
        wanted, values = bench["per_layer"], layers
        for name in UNGATED:
            values[f"e2e.{name}"] = e2e[name] or 0.0
        for m in wanted:
            print(f"layer {m['name']} {fmt(values.get(m['name'], 0.0))} "
                  f"{m['unit']}")
    out = {m["name"]: {"value": float(values.get(m["name"]) or 0.0),
                       "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(str(e))
        sys.exit(1)
