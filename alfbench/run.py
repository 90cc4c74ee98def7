#!/usr/bin/env python3
"""ALF serving benchmark: one run of one workload.

    python3 alfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 alfbench/run.py --self-test

Run from the root of a source checkout. Builds libalf, the alf_served
daemon and the benchmark driver from source into $CARGO_TARGET_DIR
(default .bench_build) with alfbench/CMakeLists.txt, then runs the driver,
whose last stdout line is the result object. Exits non-zero without a
result when the sources are missing, the build fails or the run fails.
See alfbench/README.md.
"""
import argparse
import glob
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("closed_full_batch", "closed_alf_full_batch")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the driver and the daemon; returns the
    driver and daemon paths. Build output goes to build.log."""
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        sys.exit("alfbench: no ALF sources next to alfbench/ (run from the "
                 "root of a checkout)")
    out = os.path.join(build_dir, "alfbench")
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "alfbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    with open(os.path.join(out, "build.log"), "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.exit("alfbench: build failed, see " + log.name)
    return (os.path.join(out, "alfbench_driver"),
            os.path.join(out, "repo", "alf_served"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and a.workload is None:
        ap.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    driver, served = build(build_dir)
    if a.self_test:
        cmd = [driver, "--self-test"]
        work = None
    else:
        work = os.path.join(build_dir, "work",
                            "%s-%d-%d" % (a.workload, a.seed, os.getpid()))
        os.makedirs(work, exist_ok=True)
        cmd = [driver, "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(a.trace),
               "--served", served, "--work", work]
    # Own process group: on a timeout the driver and the daemon it spawned
    # are killed together, then reaped.
    p = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = p.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit("alfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if work is not None:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        for spans in glob.glob(os.path.join(work, "spans-*.csv")):
            shutil.move(spans, os.path.join(traces, os.path.basename(spans)))
        shutil.rmtree(work, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
