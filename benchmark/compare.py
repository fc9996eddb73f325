#!/usr/bin/env python3
"""Compare benchmark results of a parent (OLD) and a change (NEW).

    python3 benchmark/compare.py OLD NEW

OLD and NEW are results.json files written by `benchmark/run.py`, or
directories searched for them. The two sides must be run in
alternation on one host, at least ten times each (benchmark/README.md,
"Measuring a claim"). Every run records when it started; the runs of a
workload from both sides, taken in that order, form pairs two by two.
The pairs alternate when each holds one run of each side, and only
alternating pairs count.

For every workload and end-to-end metric it prints both sides' median
and quartiles and a verdict:

  improved      at least 10 alternating pairs, the change wins at least
                9 in 10 of them (ties count for neither side), the
                medians differ by more than OLD's quartile distance,
                and NEW failed no more operations than OLD
  unresolved    the change looks better but has fewer than 10
                alternating pairs to show it, or either side's quartile
                distance exceeds the metric's bound and not every NEW
                run beats every OLD run
  REGRESSED     the change's median is worse than OLD's by more than the
                metric's bound in BENCHMARK.json
  within bound  none of the above

Per-layer medians from the traced runs print alongside. Exits 1 when
anything regressed.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10


def load(path):
    """(runs, problems) of every results.json at or under @p path."""
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "**", "results.json"),
                                 recursive=True))
    else:
        files = [path]
    if not files:
        sys.exit("compare.py: no results.json under " + path)
    runs, problems = [], []
    for name in files:
        with open(name) as f:
            doc = json.load(f)
        runs.extend(doc["runs"])
        problems.extend(doc.get("problems", []))
    return runs, problems


def by_workload(runs, trace):
    """{workload: [run, ...]} of the traced or the timed runs."""
    out = {}
    for run in runs:
        if bool(run["trace"]) == trace:
            out.setdefault(run["workload"], []).append(run)
    return out


def alternating_pairs(old, new):
    """[(old run, new run)] of the runs of both sides in start order,
    taken two by two; None when they do not alternate."""
    if len(old) != len(new) or any("started" not in r for r in old + new):
        return None
    merged = sorted([(r["started"], 0, r) for r in old] +
                    [(r["started"], 1, r) for r in new],
                    key=lambda t: t[0])
    pairs = []
    for a, b in zip(merged[0::2], merged[1::2]):
        if a[1] == b[1]:
            return None
        pairs.append((a[2], b[2]) if a[1] == 0 else (b[2], a[2]))
    return pairs


def medians(runs):
    """{metric: median over @p runs}."""
    values = {}
    for run in runs:
        for name, m in run["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(old, new, pairs, better, bound, failures_ok):
    """The verdict on one metric and the change's pair wins; @p pairs
    holds the (old, new) values of the alternating pairs, or is None."""
    def beats(a, b):
        return a < b if better == "lower" else a > b

    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    wins = sum(1 for o, n in pairs or [] if beats(n, o))
    if failures_ok and beats(nm, om) and abs(nm - om) > o3 - o1:
        if pairs is None or len(pairs) < MIN_PAIRS:
            return "unresolved (needs %d alternating pairs)" % MIN_PAIRS, wins
        if wins >= 0.9 * len(pairs):
            return "improved", wins
    all_better = all(beats(n, o) for n in new for o in old)
    spread = max((o3 - o1) / om, (n3 - n1) / nm)
    if spread > bound and not all_better:
        return "unresolved", wins
    worse_by = ((nm - om) if better == "lower" else (om - nm)) / om
    if worse_by > bound:
        return "REGRESSED", wins
    return "within bound", wins


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    (old_runs, old_problems), (new_runs, new_problems) = (
        load(sys.argv[1]), load(sys.argv[2]))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    old_failed = sum(r["failed"] for r in old_runs)
    new_failed = sum(r["failed"] for r in new_runs)
    failures_ok = new_failed <= old_failed
    print("failed operations: old %d, new %d%s" % (
        old_failed, new_failed,
        "" if failures_ok else " (no gain can be claimed)"))
    for problems, label in ((old_problems, "old"), (new_problems, "new")):
        for problem in problems:
            print("%s PROBLEM: %s" % (label, problem))

    old_timed, new_timed = by_workload(old_runs, False), \
        by_workload(new_runs, False)
    old_traced, new_traced = by_workload(old_runs, True), \
        by_workload(new_runs, True)
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        old, new = old_timed.get(workload), new_timed.get(workload)
        if not old or not new:
            continue
        runs = alternating_pairs(old, new)
        print("\n%s: %s" % (workload, "%d alternating pairs" % len(runs)
                            if runs is not None else
                            "runs do not alternate, no pairs"))
        for m in spec["end_to_end"]:
            name = m["name"]
            if any(name not in r["metrics"] for r in old + new):
                continue
            olds = [r["metrics"][name]["value"] for r in old]
            news = [r["metrics"][name]["value"] for r in new]
            pairs = None if runs is None else [
                (o["metrics"][name]["value"], n["metrics"][name]["value"])
                for o, n in runs]
            what, wins = verdict(olds, news, pairs, m["better"],
                                 m["bound"], failures_ok)
            regressed |= what == "REGRESSED"
            o1, om, o3 = quartiles(olds)
            n1, nm, n3 = quartiles(news)
            print("  %-12s %-8s old %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]"
                  "  %+6.1f%%  wins %s  %s" % (
                      name, m["unit"], om, o1, o3, nm, n1, n3,
                      100.0 * (nm - om) / om,
                      "-" if pairs is None else "%d/%d" % (wins, len(pairs)),
                      what))
        old_layer = medians(old_traced.get(workload, []))
        new_layer = medians(new_traced.get(workload, []))
        if old_layer and new_layer:
            print("  per layer (traced runs, medians):")
        for name, om in old_layer.items():
            if name not in new_layer:
                continue
            nm = new_layer[name]
            delta = ("%+.1f%%" % (100.0 * (nm - om) / om) if om else
                     ("same" if nm == 0 else "new"))
            print("    %-30s old %-12.6g new %-12.6g %s" % (
                name, om, nm, delta))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
