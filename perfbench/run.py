#!/usr/bin/env python3
"""Benchmark for the raretype package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repository checkout; the package is imported from
``src/``. Workloads (see ``workloads.py``):

* ``validation``  - the paper's validation study: ``run_experiment`` on the
  Dutch fixture, sample size 101, 24 replicates per call on the pool.
* ``casework``    - forensic casework at database scale: ``load_profiles``
  and ``run_case`` on fresh 18925-record profile tables.
* ``model_check`` - simulate at PD(0.51, 216), reduce, refit, and map the
  likelihood surface.

BENCHMARK.json gates only ``casework`` and ``model_check``. A 24-replicate
``run_experiment`` call on 2 vCPUs takes 5-20 s: the pool's two workers
each run a multi-threaded OpenBLAS on the two CPUs, so only 2-3 calls fit
in a run and the per-run medians spread by ~30%, wider than the largest
regression bound (25%) a gated metric may carry. The traced run still
covers ``validation`` in full.

With ``--trace 0`` the chosen workload is timed with tracing off over a
fixed number of operations for its seed (as many as take S seconds at
the seed commit on 2 vCPUs) and the end-to-end metrics are printed. With
``--trace 1`` all three workloads run with spans around each layer's
public functions (validation on one worker, so every call stays
in-process) and the per-layer metrics are printed. Every output is
checked either way; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is 0 only if every check passed. An operation that raised the one known defect (the
``fit_mle`` overflow) returned nothing to check: it counts in ``failed``,
and makes the run incorrect only when it hits more than a set share of
the units. Any other exception is a wrong result.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("validation", "casework", "model_check")
SETUP_REPEATS = 5  # the benchmark's own set-up plus four fresh processes
TRACE_SHARES = {"validation": 0.4, "casework": 0.3, "model_check": 0.3}
CLI_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail latency


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=seed_arg, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "raretype", "__init__.py")):
        sys.exit(f"error: no package source under {SRC}; run from a repository checkout")


def import_package():
    sys.path.insert(0, SRC)
    import raretype

    return raretype


def set_up(name: str, seed: int, workdir: str):
    """Import, input generation and warm-up; returns (package, workload, seconds)."""
    start = time.perf_counter()
    rt = import_package()
    import workloads

    workload = workloads.WORKLOADS[name](rt, seed, workdir)
    return rt, workload, time.perf_counter() - start


def probe_set_up(name: str, seed: int, workdir: str) -> float:
    """Set up once more in a fresh process, which starts cold."""
    os.makedirs(workdir)
    out = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe", workdir],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def cli_startup(rt) -> tuple[float, list[str]]:
    """Median wall time of ``python -m raretype fixture --quiet``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    walls = []
    problems = []
    for _ in range(CLI_REPEATS):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "raretype", "fixture", "--quiet"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
        )
        walls.append(time.perf_counter() - start)
        if out.returncode != 0 or json.loads(out.stdout) != rt.dutch_fixture().to_dict():
            problems.append(f"fixture command failed: exit {out.returncode}")
    return statistics.median(walls), problems


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond
    it, and that percentile (the maximum when there are too few samples)."""
    ordered = sorted(latencies)
    index = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any waited-for child
    (the pool's workers among them)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def provenance(rt) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "raretype", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = out.stdout.strip() or None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "raretype": rt.__version__,
        "source_sha256": digest.hexdigest(),
        "commit": commit,
    }


def global_checks(rt, workload_objs, seed: int) -> tuple[list[str], dict]:
    """Oracle self-check against the package's enumeration, and a
    determinism check per workload."""
    import numpy as np

    import oracle

    problems = []
    worst = oracle.self_check(rt, np.random.default_rng([seed, 3]))
    if not worst <= 1e-12:
        problems.append(f"oracle disagrees with exact_true_lr: relative error {worst:.3g}")
    for wl in workload_objs:
        problems += wl.determinism()
    return problems, {"oracle_self_check_rel_err": worst}


def untraced(args, workdir: str):
    rt, wl, own_setup = set_up(args.workload, args.seed, os.path.join(workdir, args.workload))
    setups = [own_setup] + [
        probe_set_up(args.workload, args.seed, os.path.join(workdir, f"probe{i}"))
        for i in range(1, SETUP_REPEATS)
    ]
    tally = wl.run(args.seconds)
    problems, info = global_checks(rt, [wl], args.seed)
    measured = tally.measured()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_per_s": (tally.done / measured, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    if tally.latencies:
        tail_s, tail_pct = tail(tally.latencies)
        metrics["latency_p50_s"] = (statistics.median(tally.latencies), "s")
        metrics["latency_tail_s"] = (tail_s, "s")
        info.update(tail_percentile=tail_pct)
    else:
        problems.append("no operation completed")
    info.update(
        unit=tally.unit,
        units_done=tally.done,
        operations=len(tally.walls),
        completed_operations=len(tally.latencies),
        latencies_s=tally.latencies,
        measured_s=measured,
        setup_samples_s=setups,
        check_worst=tally.worst,
    )
    if args.workload == "validation":
        info.update(oracle_fits=wl.oracle_fits, oracle_tries=wl.oracle_tries)
    return rt, [tally], problems, metrics, info


def traced(args, workdir: str):
    rt = import_package()
    import workloads

    metrics = {}
    tallies = []
    objs = []
    spans = {}
    info = {}
    for name in WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name](rt, args.seed, os.path.join(workdir, name))
        out, tally, tracer = wl.traced(args.seconds * TRACE_SHARES[name])
        spans[name] = tracer.to_dict()
        metrics.update(out)
        tallies.append(tally)
        objs.append(wl)
        info[f"{name}_check_worst"] = tally.worst
    startup, problems = cli_startup(rt)
    metrics["cli.startup_s"] = (startup, "s")
    more, checks_info = global_checks(rt, objs, args.seed)
    problems += more
    info.update(checks_info)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    metrics["failed_ratio"] = (failed / max(1, attempted), "ratio")
    info["spans_file"] = os.path.relpath(write_spans(spans, args.seed), ROOT)
    return rt, tallies, problems, metrics, info


def write_spans(spans: dict, seed: int) -> str:
    """Write the traced run's spans (name, start, end, parent, case id)
    and counts, per workload, next to the benchmark's working files."""
    path = os.path.join(HERE, ".work", f"spans-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(spans, fh)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    if args.setup_probe:
        print(set_up(args.workload, args.seed, args.setup_probe)[2])
        return 0
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        run = traced if args.trace else untraced
        for name in WORKLOAD_NAMES:
            os.makedirs(os.path.join(workdir, name))
        rt, tallies, problems, metrics, info = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for t in tallies:
        if t.too_many_raised():
            problems.append(f"{t.raised} of {t.attempted} {t.unit} raised the known fit_mle overflow")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    attempted = sum(t.attempted for t in tallies) + 1
    wrong = sum(t.wrong for t in tallies) + (1 if problems else 0)
    failed = sum(t.raised for t in tallies) + wrong
    info["provenance"] = provenance(rt)
    print(json.dumps({"info": info}, default=repr))
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
