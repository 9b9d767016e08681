#!/usr/bin/env python3
"""Quick self-check of the benchmark at tiny scale (about a minute after the build).

    python3 xpbench/selfcheck.py

Checks that BENCHMARK.json and run.py name the same workloads and metrics
with the same units; that every workload, in both modes, prints a last line
with exactly the keys correct/attempted/failed/metrics, is correct, and emits
every metric BENCHMARK.json names with its unit; that the traced run's
outputs equal the untraced run's; and that the benchmark fails without a
result in a directory holding only BENCHMARK.json and xpbench/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark's own tables)


def check(cond, what):
    if not cond:
        print("selfcheck: FAILED: " + what)
        sys.exit(1)


def bench(cwd, *args):
    r = subprocess.run(["python3", os.path.join(cwd, "xpbench", "run.py")] +
                       list(args), cwd=cwd, capture_output=True, text=True,
                       timeout=900)
    return r.returncode, r.stdout.strip().splitlines()


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check([w["name"] for w in spec["workloads"]] == run.WORKLOADS,
          "BENCHMARK.json workloads match run.WORKLOADS")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "end_to_end metrics and units match run.py")
    check(layers == run.PER_LAYER, "per_layer metrics and units match run.py")

    for w in run.WORKLOADS:
        for trace, expected in ((0, e2e), (1, layers)):
            rc, lines = bench(ROOT, "--workload", w, "--seed", "1",
                              "--seconds", "1", "--trace", str(trace),
                              "--quick")
            what = "%s --trace %d" % (w, trace)
            check(rc == 0 and lines, what + " exits 0 with output")
            last = json.loads(lines[-1])
            check(set(last) == {"correct", "attempted", "failed", "metrics"},
                  what + " last line has exactly the four keys")
            details = [l for l in lines if l.startswith("details: ")]
            check(last["correct"] and last["failed"] == 0,
                  what + " is correct: " + (details[-1] if details else ""))
            check(isinstance(last["attempted"], int) and last["attempted"] >= 1,
                  what + " attempted >= 1")
            got = {n: m["unit"] for n, m in last["metrics"].items()}
            check(got == expected, what + " emits every metric with its unit")
            check(all(isinstance(m["value"], (int, float))
                      for m in last["metrics"].values()),
                  what + " metric values are numbers")
            if trace == 0:
                check(all(m["value"] > 0 for m in last["metrics"].values()),
                      what + " end-to-end metrics are never 0")
            else:
                d = json.loads(details[-1][len("details: "):])
                check(d["pairs"] >= 1 and d["traced_out"] == d["untraced_out"],
                      what + " traced out.* equal untraced out.*")
            print("selfcheck: %s ok" % what)

    bare = os.path.join(ROOT, ".bench_out", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "xpbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = bench(bare, "--workload", run.WORKLOADS[0], "--seed", "1",
                          "--seconds", "1", "--trace", "0")
        check(rc != 0 and not any(l.startswith("{") for l in lines),
              "without the sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selfcheck: bare directory fails without a result ok")
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
