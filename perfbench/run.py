#!/usr/bin/env python3
"""Builds and runs the host-performance benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload paper-sweep|service-steady|service-churn
                             --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (which builds the libraries from src/) into
.bench_build/perfbench, then runs the driver for one workload in its own
process. While the driver runs, this process serves its host-speed probes:
on each request it times a fixed pure-Python loop (the driver waits
meanwhile) and replies with the CPU seconds. Build output goes to stderr;
the driver's stdout is passed through, and its last line is the JSON
result. Exits non-zero without a result when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    for attempt in range(2):
        ok = subprocess.run(configure, stdout=sys.stderr).returncode == 0
        if ok or attempt:
            break
        # A cache left by a checkout at another path cannot be reused.
        shutil.rmtree(BUILD, ignore_errors=True)
    if not ok:
        log("configure failed")
        return False
    built = subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
         "-j", jobs], stdout=sys.stderr).returncode == 0
    if not built:
        log("build failed")
    return built


def probe():
    """CPU seconds of a fixed pure-Python loop: the best of ten."""
    best = float("inf")
    for _ in range(10):
        t0 = time.process_time()
        d = {}
        for i in range(40000):
            k = i % 977
            d[k] = d.get(k, 0) + (i * 3) % 7
        best = min(best, time.process_time() - t0)
    return best


def run_driver(cmd, out_path):
    """Runs the driver, serving its probe requests; returns its exit code,
    or None when it did not finish in time."""
    req_r, req_w = os.pipe()  # driver -> this process
    rep_r, rep_w = os.pipe()  # this process -> driver
    deadline = time.monotonic() + RUN_TIMEOUT_S
    with open(out_path, "w") as out:
        proc = subprocess.Popen(cmd + ["--probe-fds", f"{rep_r},{req_w}"],
                                stdout=out, pass_fds=(rep_r, req_w))
    os.close(rep_r)
    os.close(req_w)
    try:
        with os.fdopen(req_r, "rb", buffering=0) as req, \
                os.fdopen(rep_w, "wb", buffering=0) as rep:
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([req], [], [], left)[0]:
                    return None
                if not req.readline():
                    break  # The driver closed its end: it has exited.
                try:
                    rep.write(f"{probe():.9f}\n".encode())
                except BrokenPipeError:
                    break
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def commit_id():
    """The git commit when there is one, else a hash of the sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-" + h.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["paper-sweep", "service-steady", "service-churn"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not build():
        return 1
    state = BUILD / "state"
    state.mkdir(parents=True, exist_ok=True)
    cmd = [str(DRIVER), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--state-dir", str(state), "--commit", commit_id()]
    out_path = state / f"stdout-{a.workload}-{a.seed}.txt"
    rc = run_driver(cmd, out_path)
    if rc is None:
        log(f"driver did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = out_path.read_text().rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if rc != 0:
        log(f"driver exited with {rc}")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("driver printed no JSON result")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed JSON result")
        return 1
    print(lines[-1], flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
