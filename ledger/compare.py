#!/usr/bin/env python3
"""Compares two sets of cost-ledger runs, metric by metric.

    python3 ledger/compare.py RUNS_A RUNS_B [--bench BENCHMARK.json]
    python3 ledger/compare.py --selftest

RUNS_A holds the parent's runs and RUNS_B the change's. Each is a directory
(or a single file) of run outputs: any file with `LEDGER_JSON {...}` lines
(the output of bench_ledger or ledger/run.py), or a JSON file holding one
ledger object or {"runs": [...]} (a committed trajectory point). Runs are
paired in file order, so make them alternating: A, B, A, B, ...

For every workload and metric the comparer prints each side's median and
quartiles, the fraction of pairs the change wins, and a verdict:

  better      the change wins at least 9/10 of the pairs and its median
              beats the parent's by more than the parent's own spread
              (the distance between its quartiles);
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json (metrics without a bound:
              the parent wins 9/10 of the pairs by more than its spread);
  unresolved  the parent's spread is wider than the bound, and not every
              run of the change beats every run of the parent;
  unchanged   otherwise.

Runs of the same workload and seed must also report identical exact
counts (per-class round trips and wire bytes of the correctness pass).
Exit status 1 when any metric is worse or any exact count differs.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    """Every ledger object under `path`, in file order."""
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(path, name) for name in sorted(os.listdir(path))]
    runs = []
    for name in files:
        if not os.path.isfile(name):
            continue
        with open(name) as f:
            text = f.read()
        found = [json.loads(line[len("LEDGER_JSON "):])
                 for line in text.splitlines()
                 if line.startswith("LEDGER_JSON ")]
        if not found:
            try:
                data = json.loads(text)
            except ValueError:
                continue
            if isinstance(data, dict) and isinstance(data.get("runs"), list):
                found = data["runs"]
            elif isinstance(data, dict) and "metrics" in data:
                found = [data]
        runs.extend(r for r in found if "workload" in r and "metrics" in r)
    return runs


def load_bounds(path):
    """name -> (better, bound or None) from BENCHMARK.json."""
    with open(path) as f:
        bench = json.load(f)
    out = {}
    for metric in bench.get("end_to_end", []):
        out[metric["name"]] = (metric["better"], metric["bound"])
    for metric in bench.get("per_layer", []):
        out[metric["name"]] = (metric["better"], None)
    return out


# Ledger metrics BENCHMARK.json does not list (workload-specific ones).
EXTRA_DIRECTIONS = {"mutation_p50_ms": "lower", "error_rate": "lower",
                    "trace.coverage": "higher", "query.useful_ratio": "higher"}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a, b, better, bound):
    """The verdict for parent values `a` and change values `b`."""
    sign = 1 if better == "higher" else -1
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    spread = q3 - q1
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    gain = sign * (med_b - med_a)
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > spread:
            return "worse"
        return "unchanged" if abs(gain) <= spread else "unresolved"
    if med_a == 0:
        if gain < 0:
            return "worse"
    elif -gain / abs(med_a) > bound:
        return "worse"
    if med_a != 0 and spread / abs(med_a) > bound:
        all_better = all(sign * (y - x) > 0 for x in a for y in b)
        if not all_better:
            return "unresolved"
    return "unchanged"


def compare(runs_a, runs_b, bounds):
    """Rows (workload, metric, stats..., verdict) and count mismatches."""
    def group(runs):
        out = {}
        for run in runs:
            key = (run["workload"], bool(run.get("trace")))
            out.setdefault(key, []).append(run)
        return out

    ga, gb = group(runs_a), group(runs_b)
    rows = []
    for key in sorted(set(ga) & set(gb)):
        workload, traced = key
        names = []
        for run in ga[key] + gb[key]:
            for name in run["metrics"]:
                if name not in names:
                    names.append(name)
        for name in names:
            a = [r["metrics"][name]["value"] for r in ga[key]
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in gb[key]
                 if name in r["metrics"]]
            if not a or not b:
                continue
            better, bound = bounds.get(
                name, (EXTRA_DIRECTIONS.get(name, "lower"), None))
            pairs = list(zip(a, b))
            sign = 1 if better == "higher" else -1
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            rows.append({
                "workload": workload + (" (traced)" if traced else ""),
                "metric": name,
                "a": (statistics.median(a),) + quartiles(a),
                "b": (statistics.median(b),) + quartiles(b),
                "win": wins / len(pairs) if pairs else 0.0,
                "bound": bound,
                "verdict": verdict(a, b, better, bound),
            })

    mismatches = []
    by_seed = {}
    for side, runs in (("A", runs_a), ("B", runs_b)):
        for run in runs:
            if run.get("trace") or "classes" not in run:
                continue
            counts = {cls: (c.get("round_trips"), c.get("bytes"))
                      for cls, c in run["classes"].items()}
            key = (run["workload"], run.get("seed"))
            first = by_seed.setdefault(key, (side, counts))
            if first[1] != counts:
                mismatches.append("%s seed %s: exact counts differ (%s vs %s)"
                                  % (key[0], key[1], first[0], side))
    return rows, mismatches


def print_rows(rows, out=sys.stdout):
    header = "%-18s %-34s %-30s %-30s %5s %6s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "win", "bound", "verdict")
    print(header, file=out)
    for row in rows:
        fmt = lambda s: "%.5g [%.5g, %.5g]" % s
        bound = "-" if row["bound"] is None else "%.2f" % row["bound"]
        print("%-18s %-34s %-30s %-30s %4.0f%% %6s  %s" % (
            row["workload"], row["metric"], fmt(row["a"]), fmt(row["b"]),
            100 * row["win"], bound, row["verdict"]), file=out)


def selftest():
    failures = []

    def expect(got, want, what):
        status = "ok  " if got == want else "FAIL"
        print("%s %s: %s" % (status, what, got))
        if got != want:
            failures.append(what)

    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    expect(verdict(steady, [v * 1.2 for v in steady], "higher", 0.1),
           "better", "a clear qps gain")
    expect(verdict(steady, [v * 0.8 for v in steady], "higher", 0.1),
           "worse", "a qps loss beyond the bound")
    expect(verdict(steady, [v * 0.97 for v in steady], "higher", 0.1),
           "unchanged", "a qps loss within the bound")
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    expect(verdict(noisy, [v * 1.01 for v in noisy], "higher", 0.1),
           "unresolved", "a spread wider than the bound")
    expect(verdict([10.0] * 10, [10.0] * 10, "lower", 0.1), "unchanged",
           "identical counts")
    expect(verdict([0.0] * 5, [0.1, 0.0, 0.1, 0.1, 0.0], "lower", 0.0),
           "worse", "an error rate rising from zero")
    expect(verdict(steady, [v - 5 for v in steady], "lower", None), "better",
           "an unbounded metric's clear gain")

    def run(workload, seed, qps, trips):
        return {"workload": workload, "seed": seed, "trace": False,
                "metrics": {"qps": {"value": qps, "unit": "ops/s"}},
                "classes": {"c": {"round_trips": trips, "bytes": 10}}}

    a = [run("nav", s, 100.0 + s % 3, 5) for s in range(10)]
    b = [run("nav", s, 100.5 + s % 3, 5) for s in range(10)]
    rows, mismatches = compare(a, b, {"qps": ("higher", 0.1)})
    expect([r["verdict"] for r in rows], ["unchanged"], "compare() rows")
    expect(mismatches, [], "identical exact counts")
    b[3]["classes"]["c"]["round_trips"] = 6
    _, mismatches = compare(a, b, {"qps": ("higher", 0.1)})
    expect(len(mismatches), 1, "a changed exact count is reported")
    print("selftest %s" % ("passed" if not failures else "FAILED"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("runs_a", nargs="?")
    parser.add_argument("runs_b", nargs="?")
    parser.add_argument("--bench",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.runs_a or not args.runs_b:
        parser.error("need RUNS_A and RUNS_B")
    rows, mismatches = compare(load_runs(args.runs_a), load_runs(args.runs_b),
                               load_bounds(args.bench))
    print_rows(rows)
    for line in mismatches:
        print("count mismatch: " + line)
    worse = [r for r in rows if r["verdict"] == "worse"]
    return 1 if worse or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
