#!/usr/bin/env python3
"""The repository benchmark: host cost of paper workloads, end to end and per layer.

Run from anywhere inside a checkout:

    python3 xpbench/run.py --workload dumbbell_xp_1024 --seed 29 --seconds 30 --trace 0
    python3 xpbench/run.py --all              # every workload, both modes, one table

It builds xpbench (xpbench/CMakeLists.txt, which compiles ../src) into
.bench_build/, then drives xpbench processes:

  --trace 0  set-up runs, then untraced engine instances until --seconds is
             spent, then instance 0 again to check the outputs repeat. Prints
             the end-to-end metrics (medians over instances).
  --trace 1  pairs of (untraced engine, traced rebuild) instances; the traced
             outputs must equal the untraced ones exactly. Prints the
             per-layer metrics (medians over pairs) and the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. See xpbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BIN = os.path.join(BUILD, "xpbench")

WORKLOADS = ["dumbbell_xp_1024", "clos_websearch_xp", "clos_webserver_shootout"]
# The repo's own seeds: fig15's 29 and the section 6.3 kWorkloadSeed 101.
# README.md names the held-out seed later claims must also hold on.
DEFAULT_SEED = {"dumbbell_xp_1024": 29, "clos_websearch_xp": 101,
                "clos_webserver_shootout": 101}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "sim.events": "count", "sim.events_per_hop": "ratio",
    "sim.ns_per_event": "ns", "sim.self_s": "s", "sim.cancelled": "count",
    "sim.wheel_share": "ratio", "sim.peak_pending": "count",
    "sim.event_slots": "count",
    "net.build_s": "s", "net.packet_hops": "count", "net.kick_events": "count",
    "net.retry_events": "count", "net.credit_drops": "count",
    "net.credit_drop_ratio": "ratio", "net.data_drops": "count",
    "net.flow_pause_events": "count", "net.bp_peak_flows": "count",
    "net.pool_peak_packets": "count",
    "core.credits_sent": "count", "core.credit_waste_ratio": "ratio",
    "core.credits_lost": "count", "core.credit_stops": "count",
    "transport.retransmits": "count", "transport.timeouts": "count",
    "transport.grant_waste_ratio": "ratio",
    "runner.flow_setup_s": "s", "runner.teardown_s": "s",
    "runner.harness_s": "s", "runner.flows_scheduled": "count",
    "runner.flows_completed": "count", "runner.failed_frac": "ratio",
    "workload.gen_s": "s", "workload.offered_bytes": "bytes",
    "stats.collect_s": "s", "stats.fct_samples": "count",
    "exec.task_busy_s": "s", "exec.critical_task_s": "s",
    "exec.queue_wait_s": "s", "exec.worker_util": "ratio",
    "out.goodput_gbps": "Gbps", "out.jain": "ratio", "out.fct_p50_ms": "ms",
    "out.fct_p99_ms": "ms", "out.fct_samples": "count",
    "out.sim_end_ms": "ms", "out.digest": "hash",
    "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}

# Runs its cells on several workers, so its processes are never pinned.
PARALLEL = {"clos_webserver_shootout"}

MIN_INSTANCES = 3   # end-to-end medians are over at least this many
SETUP_REPS = 9      # at least this many set-ups per run; setup_s is the median
RUN_CAP_S = 170.0   # every run ends well inside the 180 s limit


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds xpbench; False if either step fails."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE not in f.read():
                shutil.rmtree(BUILD)  # a cache from another source tree
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    # The compiler's scratch files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            # Build chatter goes to stderr; stdout carries only results.
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                               stderr=sys.stderr)
        except OSError as e:
            log("xpbench: cannot run %s: %s" % (cmd[0], e))
            return False
        if r.returncode != 0:
            return False
    return os.path.exists(BIN)


def read_first(paths):
    for p in paths:
        try:
            with open(p) as f:
                return f.read().strip()
        except OSError:
            pass
    return None


def git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    head = read_first([os.path.join(git, "HEAD")])
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = read_first([os.path.join(git, ref)])
    if sha:
        return sha
    packed = read_first([os.path.join(git, "packed-refs")]) or ""
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown (" + ref + ")"


def fingerprint():
    host = {"nproc": os.cpu_count(),
            "cpu_max": read_first(["/sys/fs/cgroup/cpu.max",
                                   "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"])
            or "absent",
            "commit": git_commit()}
    try:
        host.update(json.loads(subprocess.run(
            [BIN, "host"], capture_output=True, text=True, timeout=30).stdout))
    except (OSError, ValueError, subprocess.TimeoutExpired):
        host.update({"compiler": "unknown", "build_type": "unknown"})
    return host


class Run:
    """Bookkeeping shared by both modes: operations, failures, problems."""

    def __init__(self, workload, seed, quick, deadline):
        self.workload, self.seed, self.quick = workload, seed, quick
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.flows = None  # operations per instance, learnt from the first
        # Cores differ in speed on a shared host, and the scheduler tends to
        # keep a run's processes on one core. Serial instances rotate over
        # the allowed cores so a run's median does not hinge on that core.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.pin = workload not in PARALLEL

    def child(self, mode, instance, *extra):
        """One xpbench process; its JSON result, or None if it failed."""
        cmd = [BIN, mode, "--workload", self.workload, "--seed", str(self.seed),
               "--instance", str(instance)] + list(extra)
        if self.quick:
            cmd.append("--quick")
        pin = None
        if self.pin and mode != "setup":
            cpu = self.cpus[instance % len(self.cpus)]
            pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            r = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=timeout, preexec_fn=pin)
            if r.returncode == 0:
                return json.loads(r.stdout.strip().splitlines()[-1])
            why = "exit %d: %s" % (r.returncode, r.stderr.strip()[-300:])
        except subprocess.TimeoutExpired:
            why = "timed out"
        except (OSError, ValueError, IndexError) as e:
            why = str(e)
        self.problems.append("%s instance %d: %s" % (mode, instance, why))
        return None

    def account(self, result):
        """Counts one workload run's flows; a failed process fails them all."""
        if result is None:
            n = self.flows or 1
            self.attempted += n
            self.failed += n
            return False
        self.flows = self.flows or result["attempted"]
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result["problems"]
        return True

    def fail_pair(self, a, b, why):
        self.problems.append(why)
        self.failed += a["attempted"] + b["attempted"]

    def budget_left(self, started, seconds, samples, n_min):
        """True while another instance fits in the measurement budget."""
        if len(samples) < n_min:
            return time.monotonic() + 5 < self.deadline
        typical = statistics.median(samples)
        return (time.monotonic() - started + typical <= seconds and
                time.monotonic() + 2 * typical < self.deadline)


def end_to_end(run, seconds):
    metrics = {}
    setup = run.child("setup", 0, "--reps", str(SETUP_REPS))
    if setup is not None:
        metrics["setup_s"] = statistics.median(setup["setup_s"])
    samples, walls = [], []
    started = time.monotonic()
    i = 0
    while run.budget_left(started, seconds, walls, MIN_INSTANCES):
        r = run.child("engine", i)
        i += 1
        if run.account(r):
            samples.append(r)
            walls.append(r["wall_s"])
    # Repeat instance 0: the simulated outputs must be identical.
    if samples:
        again = run.child("engine", 0)
        if run.account(again):
            samples.append(again)
            if again["out"] != samples[0]["out"]:
                run.fail_pair(samples[0], again,
                              "instance 0 outputs differ on repetition")
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        if samples:
            metrics[name] = statistics.median(s[name] for s in samples)
    return metrics, {"instances": len(samples),
                     "wall_s": [s["wall_s"] for s in samples]}


def per_layer(run, seconds):
    pairs = []
    started = time.monotonic()
    os.makedirs(OUT_DIR, exist_ok=True)
    i = 0
    while run.budget_left(started, seconds,
                          [u["wall_s"] + t["wall_s"] for u, t in pairs], 1):
        u = run.child("engine", i)
        extra = []
        if i == 0:
            extra = ["--spans", os.path.join(
                OUT_DIR, "spans-%s-%d.json" % (run.workload, run.seed))]
        t = run.child("trace", i, *extra)
        i += 1
        ok_u, ok_t = run.account(u), run.account(t)
        if not (ok_u and ok_t):
            continue
        if u["out"] != t["out"]:
            run.fail_pair(u, t, "instance %d: traced outputs %s differ from "
                          "untraced %s" % (i - 1, t["out"], u["out"]))
        pairs.append((u, t))
    metrics = {}
    if pairs:
        layers = [dict(t["layers"], **t["out"]) for _, t in pairs]
        for t, (_, tr) in zip(layers, pairs):
            sched = t["runner.flows_scheduled"]
            t["runner.failed_frac"] = tr["unfinished"] / sched if sched else 0.0
        # Times vary run to run: median over pairs. Counts and outputs are
        # exact for instance 0, which follows from the seed alone.
        for name, unit in PER_LAYER.items():
            if name not in layers[0]:
                continue
            if unit in ("s", "ns") or name == "exec.worker_util":
                metrics[name] = statistics.median(l[name] for l in layers)
            else:
                metrics[name] = layers[0][name]
        metrics["trace.untraced_wall_s"] = statistics.median(
            u["wall_s"] for u, _ in pairs)
        metrics["trace.traced_wall_s"] = statistics.median(
            t["wall_s"] for _, t in pairs)
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in pairs)
    details = {"pairs": len(pairs)}
    if pairs:
        details["untraced_out"] = pairs[0][0]["out"]
        details["traced_out"] = pairs[0][1]["out"]
        details["cells"] = pairs[0][1]["cells"]
    return metrics, details


def measure(workload, seed, seconds, trace, quick):
    """One benchmark run; returns (result dict, details dict)."""
    run = Run(workload, seed, quick, time.monotonic() + RUN_CAP_S)
    if trace:
        metrics, details = per_layer(run, seconds)
        units = PER_LAYER
    else:
        metrics, details = end_to_end(run, seconds)
        units = END_TO_END
    missing = [n for n in units if n not in metrics]
    if missing:
        run.problems.append("metrics not measured: " + ", ".join(missing))
    details["problems"] = run.problems
    result = {
        "correct": not run.problems and run.failed == 0 and not missing,
        "attempted": max(run.attempted, 1),
        "failed": min(run.failed, run.attempted) if run.attempted else 1,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units if n in metrics},
    }
    return result, details


def print_table(title, metrics):
    print(title)
    for name, m in metrics.items():
        print("  %-28s %18.6g %s" % (name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny instances, for the self-check")
    ap.add_argument("--all", action="store_true",
                    help="every workload, untraced and traced, as one report")
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("--workload is required (or --all)")

    if not build():
        log("xpbench: build failed; no result")
        return 3
    host = fingerprint()
    print("host: " + json.dumps(host, sort_keys=True))

    if not args.all:
        seed = DEFAULT_SEED[args.workload] if args.seed is None else args.seed
        result, details = measure(args.workload, seed, args.seconds,
                                  args.trace, args.quick)
        print_table("%s seed %d trace %d:" % (args.workload, seed, args.trace),
                    result["metrics"])
        print("details: " + json.dumps(details, sort_keys=True))
        print(json.dumps(result))
        return 0

    report = {"host": host, "workloads": {}}
    ok = True
    for w in WORKLOADS:
        seed = DEFAULT_SEED[w] if args.seed is None else args.seed
        entry = {}
        for trace in (0, 1):
            result, details = measure(w, seed, args.seconds, trace, args.quick)
            print_table("%s seed %d trace %d (correct=%s, failed %d of %d):" % (
                w, seed, trace, result["correct"], result["failed"],
                result["attempted"]), result["metrics"])
            for p in details["problems"]:
                print("  problem: " + p)
            ok = ok and result["correct"]
            entry["trace%d" % trace] = result
        report["workloads"][w] = entry
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
