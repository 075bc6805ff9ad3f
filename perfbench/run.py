#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, then runs it.

One workload, one mode:

    python3 perfbench/run.py --workload uf-d11-p1e-3 --seed 1 \
        --seconds 20 --trace 0

Every workload, untraced, as a table of the end-to-end metrics:

    python3 perfbench/run.py --all [--seed 1] [--seconds 20] [--trace 1]

Seconds-long smoke run of every workload at tiny shot counts, plus a
run against deliberately wrong pins that must be reported as failed:

    python3 perfbench/run.py --self-check

The build goes to .bench_build/ and traces to .bench_out/, both at the
root of the checkout. The last line of standard output is the driver's
result object; build chatter goes to standard error. See README.md.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ["uf-d11-p1e-3", "mwpm-d11-p1e-3", "sweep-scheduled"]
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                log("build step failed: " + " ".join(cmd))
                return False
    return os.path.exists(DRIVER)


def run_driver(workload, seed, seconds, trace, extra=(), echo=True):
    """Run the driver; returns (exit code, stdout lines)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(
            OUT_DIR, "trace-%s-seed%s.json" % (workload, seed))]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 124, []
    lines = out.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    return proc.returncode, lines


def last_json(lines, key=None):
    for line in reversed(lines):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if key is None or obj.get("perfbench") == key:
            return obj
    return None


def run_all(seed, seconds, trace):
    """Every workload in one mode, as a metric table followed by one
    combined result object on the last line of standard output."""
    attempted = failed = 0
    rows = []
    for name in WORKLOADS:
        code, lines = run_driver(name, seed, seconds, trace, echo=False)
        result, detail = last_json(lines), last_json(lines, "run")
        if result is None or "correct" not in result:
            log("%s produced no result (exit %d)" % (name, code))
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "failed_frac", detail["failed_frac"], "frac"))
        rows.append((name, "workers", detail["host"]["workers"], "count"))
    width = max(len(r[1]) for r in rows)
    for name, metric, value, unit in rows:
        print("%-16s %-*s %14.6g %s" % (name, width, metric, value, unit),
              flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed}))
    return 0 if failed == 0 else 1


def self_check():
    """Smoke every workload in both modes, then prove the pin gate can
    fail: a run against corrupted pins must report correct=false."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_driver(name, 1, 1, trace, ["--smoke"],
                                     echo=False)
            result = last_json(lines)
            good = code == 0 and result is not None and result["correct"]
            log("smoke %-16s trace=%d: %s" % (name, trace,
                                               "ok" if good else "FAILED"))
            ok = ok and good
        code, lines = run_driver(name, 1, 1, 0,
                                 ["--smoke", "--break-pins"], echo=False)
        result = last_json(lines)
        caught = (code != 0 and result is not None
                  and not result["correct"] and result["failed"] > 0)
        log("smoke %-16s broken pins: %s" % (
            name, "reported as failed (gate works)" if caught
            else "NOT CAUGHT"))
        ok = ok and caught
    print(json.dumps({"self_check": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print a metric table")
    ap.add_argument("--self-check", action="store_true",
                    help="smoke run plus a must-fail pin check")
    args = ap.parse_args()
    if not (args.workload or args.all or args.self_check):
        ap.error("give --workload, --all or --self-check")

    started = time.time()
    if not build():
        return 3
    log("driver ready in %.1f s" % (time.time() - started))
    if args.self_check:
        return self_check()
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    code, lines = run_driver(args.workload, args.seed, args.seconds,
                             args.trace)
    result = last_json(lines)
    if result is None or "correct" not in result:
        log("driver exited %d without a result" % code)
        return code or 4
    return code


if __name__ == "__main__":
    sys.exit(main())
