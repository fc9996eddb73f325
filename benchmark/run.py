#!/usr/bin/env python3
"""The repository benchmark's one command (see benchmark/README.md).

One run of one workload, printing the result as the last line of
standard output:

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Repeated runs, aggregated into a table and a results document:

    python3 benchmark/run.py [--reps N] [--seed S] [--workloads a,b]
                             [--seconds S] [--trace] [--smoke] [--out DIR]

Both forms first configure and build benchmark/ (Release) into
--build-dir, then start one fresh nuca_bench process per run. The exit
status is non-zero when a build or run fails, or any output is wrong.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir):
    """Configure (Release, whatever the build directory held before)
    and build nuca_bench and the tools it runs."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", BENCH_DIR, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs,
              "--target", "nuca_bench"]]
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.exit("run.py: build step failed: " + " ".join(step))


def clean_env():
    """The environment minus the simulator's knobs, so a stray
    REPRO_* or SWEEPD_* setting cannot change what is measured."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("REPRO_", "SWEEPD_"))}


def host_record():
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = ""
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "git_revision": rev or "unknown"}


def end_session(pgid):
    """Kill whatever is left of a run's process group and wait until
    it is gone (at most 10 s; orphans are reaped by init)."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_once(build_dir, workload, seed, seconds, trace, smoke):
    """One nuca_bench process in a fresh directory under the build
    tree; returns its result document (None when it wrote none)."""
    name = "%s-s%d-t%d%s" % (workload, seed, int(trace),
                             "-smoke" if smoke else "")
    run_dir = os.path.join(build_dir, "runs", name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "nuca_bench"), workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    load_before = list(os.getloadavg())
    started = time.time()
    with open(os.path.join(run_dir, "nuca_bench.log"), "w") as log:
        # Its own session, so a timeout or a crash cannot leave a
        # daemon or a sandbox running.
        proc = subprocess.Popen(cmd, cwd=run_dir, env=clean_env(),
                                stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        end_session(proc.pid)
    result_path = os.path.join(run_dir, workload + ".result.json")
    result = None
    if os.path.exists(result_path):
        with open(result_path) as f:
            result = json.load(f)
        result["exit_code"] = proc.returncode
        # compare.py pairs the runs of two results by this.
        result["started"] = started
        result["host"] = dict(host_record(), loadavg_before=load_before)
        result["run_dir"] = run_dir
        with open(result_path, "w") as f:
            json.dump(result, f, indent=1)
    # Daemon state and checkpoint caches are disposable.
    for entry in os.listdir(run_dir):
        path = os.path.join(run_dir, entry)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    if result is None:
        sys.stderr.write("run.py: %s wrote no result (exit %d); see %s\n"
                         % (workload, proc.returncode,
                            os.path.join(run_dir, "nuca_bench.log")))
    return result


def check_run(build_dir, spec, result):
    """Everything wrong with one run: its own failures, metrics that
    differ from BENCHMARK.json's names and units, and a traced run's
    trace failing `trace_report --check-trace`."""
    problems = list(result["errors"])
    if not result["correct"] and not problems:
        problems.append("run not correct (exit %d)" % result["exit_code"])
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if result["trace"] else
                              "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    for name in sorted(set(expected) - set(got)):
        problems.append("missing metric " + name)
    for name in sorted(set(got) - set(expected)):
        problems.append("metric %s is not in BENCHMARK.json" % name)
    for name in sorted(set(got) & set(expected)):
        if got[name] != expected[name]:
            problems.append("metric %s has unit %s, not %s"
                            % (name, got[name], expected[name]))
        if not isinstance(result["metrics"][name].get("value"),
                          (int, float)):
            problems.append("metric %s has no numeric value" % name)
    if result["trace"] and "trace" not in result["details"]:
        problems.append("the traced run wrote no trace")
    elif result["trace"]:
        path = os.path.join(result["run_dir"], result["details"]["trace"])
        proc = subprocess.run([os.path.join(build_dir, "trace_report"),
                               "--check-trace", path],
                              capture_output=True, text=True)
        if proc.returncode != 0 or "trace ok" not in proc.stdout:
            problems.append("trace_report --check-trace failed on %s: %s"
                            % (path, (proc.stdout + proc.stderr)[-500:]))
    return problems


def single(args, spec):
    """One run of one workload, its result on the last line."""
    build(args.build_dir)
    result = run_once(args.build_dir, args.workload, args.seed,
                      args.seconds, bool(args.trace), False)
    if result is None:
        sys.exit(1)
    problems = check_run(args.build_dir, spec, result)
    for p in problems:
        sys.stderr.write("run.py: %s\n" % p)
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result["metrics"].items()}
    print(json.dumps({"correct": not problems,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]) +
                      len(problems) - len(result["errors"]),
                      "metrics": metrics}))
    sys.exit(1 if problems else 0)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, spec):
    """{workload: {metric: {unit, median, q1, q3, n, values}}} over
    the timed runs, and the traced runs' metrics as they are."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for run in runs:
        if run is None:
            continue
        kind = "per_layer" if run["trace"] else "end_to_end"
        table = summary.setdefault(run["workload"], {}).setdefault(kind, {})
        for name, m in run["metrics"].items():
            table.setdefault(name, {"unit": units.get(name, m["unit"]),
                                    "values": []})["values"].append(
                                        m["value"])
    for tables in summary.values():
        for table in tables.values():
            for entry in table.values():
                q1, q2, q3 = quartiles(entry["values"])
                entry.update(median=q2, q1=q1, q3=q3,
                             n=len(entry["values"]))
    return summary


def cross_check(runs):
    """Digests that must agree: op 0 of every run of one workload and
    seed, timed or traced, computes the same result."""
    problems = []
    by_key = {}
    for run in runs:
        if run is None or "op0_digest" not in run["details"]:
            continue
        key = (run["workload"], run["seed"], run["smoke"])
        by_key.setdefault(key, set()).add(run["details"]["op0_digest"])
    for (workload, seed, _), digests in sorted(by_key.items()):
        if len(digests) > 1:
            problems.append("%s seed %s: op 0 digests differ across runs: %s"
                            % (workload, seed, ", ".join(sorted(digests))))
    return problems


def repeated(args, spec):
    build(args.build_dir)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        sys.exit("run.py: unknown workload(s): " + ", ".join(unknown))
    reps = 1 if args.smoke else args.reps
    host_before = host_record()

    runs, problems = [], []

    def record(workload, trace):
        result = run_once(args.build_dir, workload, args.seed,
                          args.seconds, trace, args.smoke)
        runs.append(result)
        if result is None:
            problems.append("%s: no result" % workload)
            return
        found = check_run(args.build_dir, spec, result)
        problems.extend("%s: %s" % (workload, p) for p in found)
        sys.stderr.write("  %s%s: %s\n" % (
            workload, " (traced)" if trace else "",
            "FAILED" if found else "ok"))

    for rep in range(reps):
        # Rotating the order spreads slow drift over every workload.
        order = workloads[rep % len(workloads):] + \
            workloads[:rep % len(workloads)]
        sys.stderr.write("rep %d/%d\n" % (rep + 1, reps))
        for workload in order:
            record(workload, False)
    if args.trace or args.smoke:
        sys.stderr.write("traced pass\n")
        for workload in workloads:
            record(workload, True)
    problems.extend(cross_check(runs))

    summary = summarize(runs, spec)
    doc = {"host": dict(host_before,
                        loadavg_after=list(os.getloadavg()),
                        build=next((r["build"] for r in runs if r), None)),
           "seed": args.seed, "reps": reps, "seconds": args.seconds,
           "smoke": args.smoke, "workloads": workloads,
           "problems": problems, "summary": summary,
           "runs": [r for r in runs if r is not None]}
    out = args.out or os.path.join(
        args.build_dir, "results", time.strftime("%Y%m%d-%H%M%S"))
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "results.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)

    for workload in workloads:
        for kind in ("end_to_end", "per_layer"):
            table = summary.get(workload, {}).get(kind)
            if not table:
                continue
            print("%s (%s)" % (workload, kind.replace("_", "-")))
            for name, e in table.items():
                print("  %-28s %-10s median %-12.6g q1 %-12.6g q3 %-12.6g n %d"
                      % (name, e["unit"], e["median"], e["q1"], e["q3"],
                         e["n"]))
    for run in runs:
        if run is not None and not run["trace"] and \
                "op0_digest" in run["details"]:
            print("digest %s seed %s op0 %s" % (
                run["workload"], run["seed"], run["details"]["op0_digest"]))
    print("results: " + path)
    for p in problems:
        print("PROBLEM: " + p)
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one run of this workload")
    parser.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                        choices=(0, 1),
                        help="traced pass: per-layer metrics")
    parser.add_argument("--seed", type=int, default=20070201)
    spec = load_spec()
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/100 size, timed and "
                        "traced once")
    parser.add_argument("--out", help="directory for results.json")
    parser.add_argument("--build-dir",
                        default=os.path.join(BENCH_DIR, "build"))
    args = parser.parse_args()
    args.build_dir = os.path.abspath(args.build_dir)
    if args.workload:
        single(args, spec)
    else:
        repeated(args, spec)


if __name__ == "__main__":
    main()
