#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds the library and the benchmark program
from source (CMake, Release) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), then runs one workload.  The program's last stdout
line is the result: {"correct", "attempted", "failed", "metrics"}.  A run
manifest (configuration, seed, host fingerprint, source id, warm-up, check
margins) is written to perfbench/runs/.  Build output and progress go to
stderr.  Workloads: paper_bandloop, stream_small, service_mixed.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper_bandloop", "stream_small", "service_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs cmd with its output on stderr; fails the benchmark on error."""
    try:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        fail(f"build step failed: {' '.join(cmd)}: {e}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; "
             "run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT if not os.path.isabs(target) else "", target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release", *gen],
                  BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench_run")


def source_id():
    """git sha when the tree is a git checkout, plus a digest of the sources."""
    sha = "none"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "runs")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return f"git:{sha} tree:{h.hexdigest()[:16]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    exe = build()
    runs = os.path.join(HERE, "runs")
    os.makedirs(runs, exist_ok=True)
    manifest = os.path.join(runs, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--manifest", manifest, "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
