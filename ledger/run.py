#!/usr/bin/env python3
"""Cost-ledger entry point: builds bench_ledger from source, runs one workload.

    python3 ledger/run.py --workload nav --seed 42 --seconds 22 --trace 0

Run it from the root of a checkout. The first call configures and builds
ledger/CMakeLists.txt into $CARGO_TARGET_DIR/ledger (default
.bench_build/ledger); later calls only rebuild what changed. The ledger's
own output (metric lines, per-class lines, LEDGER_JSON) is passed through,
and the last line of standard output is one JSON object:

    {"correct": true, "attempted": 1234, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics (the traced run). "correct" is true when
every op matched the plaintext oracle; a failed measurement check (a class
with fewer than 100 samples, trace coverage outside 0.9-1.1) is reported on
standard error but leaves correct answers correct. Exit status is 0 only
when the run was correct; a missing source tree or a failed build exits
non-zero without printing a result.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("ledger/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "ledger")


def build(directory):
    """Configures (once) and builds bench_ledger; returns the binary path."""
    for required in ("src/core/database.h", "tools/tool_util.h",
                     "ledger/CMakeLists.txt"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail("missing %s: run from a full checkout" % required)
    os.makedirs(directory, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(directory, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", directory,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", directory, "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(step))
            if done.returncode != 0:
                fail("build failed: " + " ".join(step))
    return os.path.join(directory, "bench_ledger")


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run(binary, args, directory):
    work = os.path.join(directory, "work-%d" % os.getpid())
    # The slice servers' unix sockets live in `work`, and a socket path may
    # not exceed 107 bytes: name it relative to the checkout root, which is
    # the binary's working directory.
    relative = os.path.relpath(work, ROOT)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed % (1 << 32)),
               "--seconds", str(args.seconds),
               "--dir", work if relative.startswith("..") else relative]
    if args.trace:
        command.append("--trace")
        if args.spans:
            command += ["--spans", os.path.abspath(args.spans)]
    ledger = None
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("bench_ledger timed out after %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    for line in out.splitlines():
        print(line)
        if line.startswith("LEDGER_JSON "):
            ledger = json.loads(line[len("LEDGER_JSON "):])
    if ledger is None:
        fail("bench_ledger exited %d without a LEDGER_JSON line"
             % proc.returncode)
    return ledger, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="",
                        help="traced run: write spans (Chrome JSON) here")
    args = parser.parse_args()

    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload,
                                                ", ".join(names)))
    binary = build(build_dir())
    ledger, code = run(binary, args, build_dir())

    wanted = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        got = ledger["metrics"].get(metric["name"])
        if got is None:
            fail("the ledger did not report %s" % metric["name"])
        metrics[metric["name"]] = {"value": got["value"],
                                   "unit": metric["unit"]}
    correct = bool(ledger["correct"])
    if correct and code != 0:
        print("ledger/run.py: measurement checks failed; see the ledger "
              "output (undersampled: %s)"
              % (", ".join(ledger.get("undersampled", [])) or "none"),
              file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": int(ledger["attempted"]),
                      "failed": int(ledger["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
