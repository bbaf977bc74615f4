#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1]

Run from the repository root.  For every workload and end-to-end metric it
prints the median over the runs and the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json; also the failed
share of attempted operations.  Runs are sequential.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]

    for wl in args.workloads.split(","):
        values, fail_share = {}, set()
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, bench["command"][1]), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                check=True).stdout.strip().splitlines()[-1]
            res = json.loads(out)
            if not res["correct"]:
                print(f"{wl} seed {seed}: outputs INCORRECT", file=sys.stderr)
            fail_share.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {wl}: {len(args.seeds)} runs, failed share(s) {sorted(fail_share)}")
        for m in metrics:
            v = values.get(m["name"], [])
            if len(v) < 2:
                continue
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = m.get("bound")
            flag = "" if bound is None else ("  OVER BOUND" if spread > bound else
                                             ("  over bound/3" if spread > bound / 3 else ""))
            print(f"  {m['name']:32s} median {med:14.6g} {m['unit']:8s} spread {spread:6.3f}"
                  + ("" if bound is None else f" (bound {bound})") + flag)


if __name__ == "__main__":
    main()
