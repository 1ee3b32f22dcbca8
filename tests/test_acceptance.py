"""Acceptance criteria, one test per criterion.

Each test prints a single `[ACCEPTANCE k] name: PASS/FAIL` line (visible
with `pytest -s` or on failure). Tolerances are pinned here and nowhere
else.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import chisquare

from raretype.lr import (
    InfeasibleAssignmentError,
    MhConfig,
    exact_true_lr,
    lr_empirical_bayes,
    lr_true_mh,
)
from raretype.mle import fit_mle
from raretype.partitions import (
    IntegerPartition,
    augment,
    enumerate_partitions,
    reduce_sample,
    to_integer_partition,
)
from raretype.pitman import PdParams, PopulationVector, crp_sample, eppf_log
from raretype.workbench import ExperimentSpec, dutch_fixture, run_experiment


def _report(k: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE {k}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {k} ({name}) failed: {detail}"


def test_criterion_1_plug_in_lr_reproduction():
    lr = lr_empirical_bayes(18925, PdParams(0.51, 216.0))
    exact = 19142 / 0.49
    log10 = math.log10(lr)
    ok = lr == pytest.approx(exact, rel=1e-12) and abs(log10 - 4.5918) <= 0.005
    _report(1, "plug-in LR reproduction", ok, f"log10 LR = {log10:.4f}")


def test_criterion_2_dutch_mle_reproduction():
    t0 = time.time()
    fit = fit_mle(dutch_fixture())
    elapsed = time.time() - t0
    ok = (
        fit.converged
        and 0.59 <= fit.alpha_hat <= 0.65
        and 17.0 <= fit.theta_hat <= 27.0
        and elapsed < 10.0
    )
    _report(
        2,
        "Dutch MLE reproduction",
        ok,
        f"alpha_hat={fit.alpha_hat:.4f} theta_hat={fit.theta_hat:.2f} in {elapsed:.1f}s",
    )


def test_criterion_3_eppf_normalization():
    t0 = time.time()
    worst = 0.0
    for n in range(1, 9):
        groups: dict = {}
        for p in enumerate_partitions(n):
            ip = to_integer_partition(p)
            groups[ip] = groups.get(ip, 0) + 1
        for alpha in (0.2, 0.5, 0.8):
            for theta in (-0.1, 1.0, 50.0):
                params = PdParams(alpha, theta)
                total = math.fsum(
                    count * math.exp(eppf_log(ip, params)) for ip, count in groups.items()
                )
                worst = max(worst, abs(total - 1.0))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(3, "EPPF normalization", ok, f"worst |sum-1| = {worst:.2e} in {elapsed:.1f}s")


def test_criterion_4_crp_eppf_agreement():
    t0 = time.time()
    params = PdParams(0.5, 1.0)
    reps = 100_000
    rng = np.random.default_rng(20240500)
    observed: dict = {}
    for _ in range(reps):
        plan = crp_sample(5, params, seed=rng)
        key = plan.to_set_partition().blocks
        observed[key] = observed.get(key, 0) + 1
    partitions = list(enumerate_partitions(5))
    assert len(partitions) == 52
    expected = np.array([reps * math.exp(eppf_log(p, params)) for p in partitions])
    counts = np.array([observed.get(p.blocks, 0) for p in partitions], dtype=float)
    stat, pvalue = chisquare(counts, expected * counts.sum() / expected.sum())
    elapsed = time.time() - t0
    ok = pvalue > 0.001 and elapsed < 30.0
    _report(4, "CRP-EPPF agreement", ok, f"chi2 p = {pvalue:.4f} over 52 partitions in {elapsed:.1f}s")


def _random_small_instance(rng):
    """Instance with m <= 8 types, suspect-augmented partition of size <= 6."""
    while True:
        n_db = int(rng.integers(2, 6))  # n+1 in 3..6
        labels = rng.integers(0, 3, size=n_db)
        part = to_integer_partition(reduce_sample(labels.tolist())).add_singleton()
        m = int(rng.integers(max(part.k, 4), 9))
        raw = np.sort(rng.dirichlet(np.full(m, 2.0)))[::-1]
        raw = raw / raw.sum()
        if raw.min() <= 0 or np.any(np.diff(raw) > 0):
            continue
        pop = PopulationVector(probs=tuple(float(x) for x in raw), pop_size=1000)
        try:
            exact = exact_true_lr(part, pop)
        except InfeasibleAssignmentError:
            continue
        return part, pop, exact


def test_criterion_5_oracle_correctness():
    t0 = time.time()
    rng = np.random.default_rng(555)
    cfg = MhConfig(iterations=100_000, burn_in=20_000, thinning=1_000)
    details = []
    ok = True
    for case in range(5):
        part, pop, exact = _random_small_instance(rng)
        est = lr_true_mh(part, pop, MhConfig(**{**cfg.__dict__, "seed": 1000 + case}))
        err = abs(est.lr - exact)
        tol = max(0.02 * exact, 3 * est.stderr)
        details.append(f"{err / exact:.3%}")
        ok = ok and err <= tol
    # uniform-population symmetry: the answer is the number of types
    part = IntegerPartition((1, 2), (2, 2))
    pop = PopulationVector(probs=(1 / 7,) * 7, pop_size=700)
    for seed in range(5):
        est = lr_true_mh(part, pop, MhConfig(iterations=100_000, burn_in=20_000,
                                             thinning=1_000, seed=seed))
        ok = ok and abs(est.lr - 7.0) <= 0.01 * 7.0
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _report(5, "oracle correctness", ok, f"rel errors {details}, uniform case exact, {elapsed:.1f}s")


def test_criterion_6_sequential_consistency():
    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 200))
        labels = rng.integers(0, max(2, n // 3), size=n)
        db = reduce_sample(labels.tolist())
        alpha = float(rng.uniform(0.05, 0.95))
        theta = float(rng.uniform(-alpha + 0.02, 50.0))
        params = PdParams(alpha, theta)
        delta = eppf_log(augment(db, "suspect_and_trace"), params) - eppf_log(
            augment(db, "suspect_only"), params
        )
        expected = math.log((1.0 - alpha) / (db.n + 1 + theta))
        worst = max(worst, abs(delta - expected))
    ok = worst <= 1e-12
    _report(6, "sequential consistency", ok, f"worst deviation {worst:.2e}")


def test_criterion_7_mle_recovery():
    t0 = time.time()
    hats = []
    for seed in range(10):
        plan = crp_sample(20_000, PdParams(0.5, 200.0), seed=seed)
        fit = fit_mle(to_integer_partition(plan.to_set_partition()))
        assert fit.converged, fit.diagnosis
        hats.append(fit.alpha_hat)
    mean_hat = float(np.mean(hats))
    elapsed = time.time() - t0
    ok = abs(mean_hat - 0.5) <= 0.03 and elapsed < 120.0
    _report(7, "MLE recovery", ok, f"mean alpha_hat = {mean_hat:.4f} over 10 seeds in {elapsed:.1f}s")


def test_criterion_8_experiment_replication():
    t0 = time.time()
    spec = ExperimentSpec(
        population=dutch_fixture(),
        sample_size=101,
        replicates=24,
        seed=20240810,
        mh=MhConfig(iterations=100_000, burn_in=20_000, thinning=1_000),
    )
    result = run_experiment(spec)
    diff1 = result.summary["diff1"].mean
    diff2 = result.summary["diff2"].mean
    elapsed = time.time() - t0
    ok = -0.10 <= diff1 <= 0.25 and -0.70 <= diff2 <= 0.30 and elapsed < 1800.0
    _report(
        8,
        "experiment replication",
        ok,
        f"mean diff1 = {diff1:.3f}, mean diff2 = {diff2:.3f}, "
        f"{len(result.rows)} replicates in {elapsed:.0f}s",
    )


def _run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "raretype", *argv], capture_output=True, text=True
    )


def test_criterion_9_cli_determinism(tmp_path):
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"a": [1, 2], "r": [3, 2]}))
    pop = tmp_path / "pop.json"
    pop.write_text(
        json.dumps({"probs": [0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05], "pop_size": 200})
    )
    invocations = [
        ["simulate", "--mode", "crp", "--n", "80", "--alpha", "0.62", "--theta", "22",
         "--seed", "7", "--format", "csv", "--quiet"],
        ["simulate", "--mode", "gem", "--m", "50", "--alpha", "0.5", "--theta", "10",
         "--seed", "3", "--powerlaw", "--format", "csv", "--quiet"],
        ["true-lr", "--partition", str(part), "--population", str(pop),
         "--iterations", "4000", "--burn-in", "500", "--thinning", "50",
         "--seed", "11", "--quiet"],
        ["experiment", "--replicates", "2", "--sample-size", "31",
         "--iterations", "3000", "--burn-in", "500", "--thinning", "50",
         "--seed", "5", "--format", "csv", "--quiet"],
    ]
    ok = True
    for argv in invocations:
        a = _run_cli(argv)
        b = _run_cli(argv)
        if a.returncode != 0 or a.stdout != b.stdout or not a.stdout:
            ok = False
            break
    _report(9, "CLI determinism", ok, f"{len(invocations)} stochastic invocations repeated")
