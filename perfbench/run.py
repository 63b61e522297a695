#!/usr/bin/env python3
"""The repository's benchmark: build, then run one workload per process.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Builds the benchmark and spanner_cli with dune, runs one workload
      and prints its result as the last line of stdout: one JSON object
      with "correct", "attempted", "failed" and "metrics" (every
      end-to-end metric of BENCHMARK.json, or with --trace 1 every
      per-layer metric).

  python3 perfbench/run.py steady --workload NAME [--runs 10] [--seed0 1]
                                  [--save FILE] [--against FILE]
      Runs one workload RUNS times, each for BENCHMARK.json's run_seconds,
      with seeds SEED0, SEED0+1, ... and
      prints, per end-to-end metric, the median, the quartiles and the
      quartile spread as a share of the median, beside the metric's
      bound.  --save keeps the values; --against compares the medians
      with a saved set and flags every metric that moved by more than
      its bound in the worse direction.

  python3 perfbench/run.py selftest
      The benchmark's own test: every workload on tiny inputs, untraced
      and traced, with every check on.  Fails unless every run is
      correct, has no failed operation and prints every metric of
      BENCHMARK.json with its unit.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "spanbench.exe")
CLI = os.path.join("_build", "default", "bin", "spanner_cli.exe")
RUN_TIMEOUT = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "bin", "perfbench"):
        if not os.path.exists(need):
            die("run from the root of a checkout of the repository (no %s here)" % need)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/spanbench.exe", "./bin/spanner_cli.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0:
        die("build failed")


def spanbench(args):
    """Runs the benchmark executable; returns (exit code, stdout text).

    It runs in a process group of its own, so that a run cut by the
    timeout takes the server it started down with it."""
    p = subprocess.Popen([EXE, "--cli", CLI] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        die("the run did not end within %d s" % RUN_TIMEOUT)
    return p.returncode, out


def result_of(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def one_run(argv):
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    build()
    code, out = spanbench(
        ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
         "--trace", str(a.trace)]
    )
    sys.stdout.write(out)
    sys.exit(code)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(argv):
    p = argparse.ArgumentParser(prog="run.py steady")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--save")
    p.add_argument("--against")
    a = p.parse_args(argv)
    spec = load_spec()
    seconds = spec["run_seconds"]
    build()
    runs = []
    for i in range(a.runs):
        seed = a.seed0 + i
        code, out = spanbench(
            ["--workload", a.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        )
        res = result_of(out)
        if code != 0 or res is None:
            die("run with seed %d failed (exit %d)" % (seed, code))
        runs.append(res)
        print("seed %d: correct=%s attempted=%d failed=%d" % (seed, res["correct"], res["attempted"], res["failed"]),
              file=sys.stderr)
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print("workload %s, %d runs of %g s, failed share %s" % (a.workload, a.runs, seconds, shares))
    print("%-14s %-5s %12s %12s %12s %8s %6s %6s" % ("metric", "unit", "q1", "median", "q3", "spread", "bound", "/bound"))
    values = {}
    for m in spec["end_to_end"]:
        vs = [r["metrics"][m["name"]]["value"] for r in runs]
        values[m["name"]] = vs
        q1, q2, q3 = quartiles(vs)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        print("%-14s %-5s %12.5g %12.5g %12.5g %7.1f%% %5.0f%% %6.2f" % (
            m["name"], m["unit"], q1, q2, q3, 100 * spread, 100 * m["bound"], spread / m["bound"]))
    if a.save:
        with open(a.save, "w") as f:
            json.dump({"workload": a.workload, "seconds": seconds, "values": values, "runs": runs}, f)
    if a.against:
        with open(a.against) as f:
            old = json.load(f)["values"]
        print("against %s:" % a.against)
        worse = 0
        for m in spec["end_to_end"]:
            before = statistics.median(old[m["name"]])
            after = statistics.median(values[m["name"]])
            change = (after - before) / before
            bad = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse += bad
            print("%-14s %12.5g -> %12.5g  %+6.1f%%%s" % (m["name"], before, after, 100 * change,
                                                        "  WORSE beyond bound" if bad else ""))
        if worse:
            sys.exit(1)


# Runnable by name but not in BENCHMARK.json: too noisy to gate on the
# machine the benchmark was built on (see README.md, "Workloads").
UNGATED = ["versions-packed"]


def selftest(argv):
    spec = load_spec()
    build()
    bad = 0
    for w in [w["name"] for w in spec["workloads"]] + UNGATED:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, out = spanbench(
                ["--workload", w, "--seed", "7", "--seconds", "0", "--trace", str(trace),
                 "--tiny"]
            )
            res = result_of(out) if code == 0 else None
            problems = []
            if res is None:
                problems.append("exit %d" % code)
            else:
                if not res["correct"]:
                    problems.append("incorrect")
                if res["failed"]:
                    problems.append("%d failed" % res["failed"])
                for m in metrics:
                    got = res["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        problems.append("metric %s missing or in another unit" % m["name"])
                extra = set(res["metrics"]) - {m["name"] for m in metrics}
                if extra:
                    problems.append("metrics not in BENCHMARK.json: %s" % sorted(extra))
            print("%-16s trace=%d %s" % (w, trace, "ok" if not problems else "; ".join(problems)))
            bad += bool(problems)
    sys.exit(1 if bad else 0)


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "steady":
        steady(argv[1:])
    elif argv and argv[0] == "selftest":
        selftest(argv[1:])
    else:
        one_run(argv)


if __name__ == "__main__":
    main()
