#!/usr/bin/env python3
"""Run the benchmark over many seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads validation casework]
        [--trace 0|1] [--seconds S] [--out perfbench/baseline.json]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
from the repository root, and prints for every metric its median, first
and third quartile (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median, next to the bound that
BENCHMARK.json fixes. With ``--out`` the raw values and the summary are
written as JSON. Exits non-zero if any run failed or printed an incorrect
result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,  # None: median is 0
        "values": values,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary = {}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units = {}
        walls = []
        infos = []
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            start = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            walls.append(time.perf_counter() - start)
            lines = out.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                infos.append(json.loads(lines[-2])["info"])
            except (IndexError, KeyError, json.JSONDecodeError):
                result = {"correct": False, "failed": None, "metrics": {}}
            if out.returncode != 0 or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
            print(
                f"{workload} seed {seed}: {walls[-1]:.1f} s wall, attempted {result.get('attempted')}, "
                f"failed {result.get('failed')}",
                file=sys.stderr,
            )
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        stats = {name: dict(summarise(v), unit=units[name]) for name, v in values.items()}
        summary[workload] = {"wall_s": summarise(walls), "metrics": stats, "info": infos}
        print(f"\n{workload} (trace {args.trace}, {args.seconds:g} s runs, seeds {args.seeds})")
        for name, s in stats.items():
            bound = bounds.get(name)
            spread = s["spread"]
            flag = "" if bound is None else f"  bound {bound:g}{'  (above bound/3)' if spread > bound / 3 else ''}"
            print(
                f"  {name:48s} median {s['median']:.6g} {s['unit']:6s} "
                f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {'-' if spread is None else f'{spread:.3f}'}{flag}"
            )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                       "workloads": summary}, fh, indent=1, allow_nan=False)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
