"""The three workloads: set-up, timed loop, output checks, traced pass.

Each workload object is built by its set-up (inputs plus warm-up), then
``run`` times the number of operations that fills the time budget at the
workload's nominal rate and checks every output outside the timed
region. ``traced`` repeats the work with spans around each layer's
public functions. Checks compare against the benchmark's own inputs,
closed forms and oracle, never against values taken from the package's
random streams.
"""
from __future__ import annotations

import contextlib
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import inputs
import oracle
from spans import Tracer

EXACT_TOL = 1e-12  # outputs that are closed-form functions of other outputs
ORACLE_TOL = 0.15  # |log10 LR_true - exact|: ~3.5x the worst of 96 measured errors
# |K_n / E[K_n] - 1|: the exact sd at n = 18925 is 3.39%, and K_n is
# skewed (1e5 simulated K_n: 4e-4 beyond 12%); 20% is 6 sd
TABLES_TOL = 0.20
ALPHA_TOL = 0.06  # |alpha_hat - 0.51|; measured sd 0.009
# share of units that may hit the known fit_mle overflow (see known_defect)
# before the run counts as incorrect; at the seed commit 24 of 3530
# casework and model_check units raised it, at most 3 in one run
RAISED_SHARE = 0.15
RAISED_FLOOR = 6  # ... and never fewer than this many units
WARM = 999_999  # input index of the warm-up call, apart from the timed ones
# A run does a fixed number of operations, ``operations(seconds, RATE)``,
# where each workload's RATE is its rate at the seed commit on 2 vCPUs,
# rather than as many as fit in the time: a seed then gives the same
# inputs, and the same number of them, on every run, so the known
# fit_mle overflow raises on the same inputs every time. A run that is
# far slower than that stops once its measured time passes TIME_CAP
# times the budget.
TIME_CAP = 2.0

N_PROCS = len(os.sched_getaffinity(0))


def derived_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


@contextlib.contextmanager
def threads(n: int):
    """Pin ``RARETYPE_THREADS`` (run_experiment's worker count)."""
    old = os.environ.get("RARETYPE_THREADS")
    os.environ["RARETYPE_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["RARETYPE_THREADS"]
        else:
            os.environ["RARETYPE_THREADS"] = old


def known_defect(exc: BaseException) -> bool:
    """The one known defect an operation may raise: ``fit_mle`` overflows
    in ``math.expm1`` when L-BFGS-B steps to log(theta + 1) > 709. An
    exception from a pool worker carries the worker's traceback as text
    in its cause."""
    if not isinstance(exc, OverflowError):
        return False
    frames = {f.name for f in traceback.extract_tb(exc.__traceback__)}
    return "fit_mle" in frames or "in fit_mle" in str(exc.__cause__ or "")


@dataclass
class Tally:
    """Units of work attempted, raised and failing a check, per-operation
    latencies, and the worst value each check statistic reached (its
    margin to the tolerance).

    An operation that raised the known ``fit_mle`` overflow returned no
    output to check: it counts as failed and is left out of the
    latencies, and the run turns incorrect only once such units exceed
    RAISED_SHARE of those attempted. Any other exception is a wrong result.
    """

    unit: str
    attempted: int = 0
    raised: int = 0
    wrong: int = 0
    done: int = 0  # units that passed every check
    walls: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    worst: dict = field(default_factory=dict)
    error: BaseException | None = None  # what the last timed operation raised

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.wrong += 1
            for p in problems:
                print(f"check failed ({what}): {p}", file=sys.stderr)
        else:
            self.done += 1

    @classmethod
    def after_warm_up(cls, workload) -> "Tally":
        """A tally that already counts a warm-up call that raised."""
        return cls(workload.unit, attempted=workload.warm_raised, raised=workload.warm_raised)

    def record_raised(self, units: int, what: str) -> None:
        self.attempted += units
        if known_defect(self.error):
            self.raised += units
        else:
            self.wrong += units
            print(f"check failed ({what}): raised {self.error!r}", file=sys.stderr)

    def too_many_raised(self) -> bool:
        return self.raised > max(RAISED_FLOOR, RAISED_SHARE * self.attempted)

    def see(self, name: str, value: float) -> None:
        self.worst[name] = max(self.worst.get(name, -math.inf), float(value))

    def measured(self) -> float:
        return sum(self.walls)


def timed(tally: Tally, fn, *args):
    """Run ``fn`` timed; returns None, and keeps the exception in the
    tally, if it raised."""
    start = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:
        traceback.print_exc()
        tally.walls.append(time.perf_counter() - start)
        tally.error = exc
        return None
    wall = time.perf_counter() - start
    tally.walls.append(wall)
    tally.latencies.append(wall)
    return out


def warm_up(fn, *args) -> int:
    """Run one untimed call to finish lazy set-up; 1 if it raised the
    known defect (any other exception propagates)."""
    try:
        fn(*args)
    except Exception as exc:
        if not known_defect(exc):
            raise
        traceback.print_exc()
        return 1
    return 0


def outcome(fn, *args):
    """What a determinism probe compares: the call's result, or the known
    defect it raised (any other exception propagates)."""
    try:
        return fn(*args)
    except Exception as exc:
        if not known_defect(exc):
            raise
        print(f"determinism probe raised the known defect: {exc!r}", file=sys.stderr)
        return repr(exc)


def operations(seconds: float, rate: float) -> int:
    """Operations a run of ``seconds`` does at ``rate`` per second."""
    return max(1, math.ceil(seconds * rate))


def close(x, y, tol: float = EXACT_TOL) -> bool:
    return x is not None and y is not None and abs(x - y) <= tol


def _count_fit(tr, args, kwargs, fit):
    tr.count("mle.fit_iterations", fit.iterations)
    tr.count("mle.fit_converged", fit.converged)


def _count_chain(tr, args, kwargs, est):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    tr.count("lr.iterations", cfg.iterations)
    tr.count("lr.acceptance_rate", est.acceptance_rate)


def _count_crp(tr, args, kwargs, plan):
    tr.count("pitman.tables", plan.k)
    tr.count("pitman.customers", args[0])


def _count_surface(tr, args, kwargs, surface):
    tr.count("mle.surface_points", surface.rel_loglik.size)


@contextlib.contextmanager
def spans(rt, tracer: Tracer):
    """Spans around the public functions the workloads call, in the
    package namespace they look them up in, and around those
    ``raretype.workbench`` calls, in its own namespace. Output checks
    call through the submodules (``rt.mle.fit_mle``), which stay bare."""
    wb = rt.workbench
    for module, attr, name, on_result in (
        (rt, "run_experiment", "workbench.run_experiment", None),
        (rt, "load_profiles", "workbench.load_profiles", None),
        (rt, "run_case", "workbench.run_case", None),
        (rt, "crp_sample", "pitman.crp_sample", _count_crp),
        (rt.SeatingPlan, "to_set_partition", "pitman.to_set_partition", None),
        (rt, "to_integer_partition", "partitions.to_integer", None),
        (rt, "fit_mle", "mle.fit", _count_fit),
        (rt, "loglik_surface", "mle.surface", _count_surface),
        (rt, "symmetry_diagnostic", "mle.symmetry", None),
        (wb, "fit_mle", "mle.fit", _count_fit),
        (wb, "lr_true_mh", "lr.chain", _count_chain),
        (wb, "reduce_sample", "partitions.reduce", None),
        (wb, "to_integer_partition", "partitions.to_integer", None),
    ):
        tracer.install(module, attr, name, on_result)
    try:
        yield
    finally:
        tracer.uninstall()


def layer_metrics(tracer: Tracer, prefix: str, layers: dict) -> dict:
    """Median self time per call and the call count for each span name
    in ``layers`` (span name -> metric stem)."""
    out = {}
    for span_name, stem in layers.items():
        selfs = tracer.self_times(span_name)
        out[f"{prefix}.{stem}_s"] = (_median(selfs), "s")
        out[f"{prefix}.{stem}_calls"] = (len(selfs), "count")
    return out


def chain_metrics(tracer: Tracer, prefix: str) -> dict:
    out = layer_metrics(tracer, prefix, {"lr.chain": "lr.chain"})
    rates = [it / t for it, t in zip(tracer.counts["lr.iterations"], tracer.self_times("lr.chain"))]
    out[f"{prefix}.lr.chain_iterations_per_s"] = (_median(rates), "1/s")
    out[f"{prefix}.lr.acceptance_rate"] = (_median(tracer.counts["lr.acceptance_rate"]), "ratio")
    return out


def fit_metrics(tracer: Tracer, prefix: str) -> dict:
    out = layer_metrics(tracer, prefix, {"mle.fit": "mle.fit"})
    out[f"{prefix}.mle.fit_iterations"] = (_median(tracer.counts["mle.fit_iterations"]), "count")
    converged = tracer.counts["mle.fit_converged"]
    out[f"{prefix}.mle.fit_converged_ratio"] = (sum(converged) / max(1, len(converged)), "ratio")
    return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Validation:
    """run_experiment on the Dutch fixture at sample size 101, default
    chain schedule, 24 replicates per call (the call size whose serial
    and pooled wall times the roadmap records; the CLI and script default
    of 96 is four such calls), workers = CPUs."""

    unit = "replicates"
    REPLICATES_PER_CALL = 24
    RATE = 0.1  # 24-replicate calls per second on the pool
    TRACED_RATE = 1 / 30  # traced rounds (serial, traced, pooled call) per second

    def __init__(self, rt, seed: int, workdir: str):
        self.rt = rt
        self.seed = seed
        self.fixture = rt.dutch_fixture()
        self.pop = rt.population_from_partition(self.fixture)
        self.counts = np.array(self.fixture.sizes_desc())
        self.probs = np.array(self.pop.probs)
        self.calls = 0
        self.errors: list[float] = []  # log10_lr_true - exact, per replicate the oracle fits
        self.zs: list[float] = []
        self.oracle_fits = 0
        self.oracle_tries = 0
        # warm-up: one in-process replicate finishes lazy set-up in the
        # parent, which the pool's forked workers inherit
        with threads(1):
            self.warm_raised = warm_up(rt.run_experiment, self.spec(derived_seed(seed, WARM), 1))

    def spec(self, master: int, replicates: int):
        return self.rt.ExperimentSpec(
            population=self.fixture, sample_size=inputs.SAMPLE_SIZE, replicates=replicates, seed=master
        )

    def next_master(self) -> int:
        self.calls += 1
        return derived_seed(self.seed, self.calls)

    def sampling_changed(self, row, a, r, suspect) -> bool:
        """Whether the benchmark's re-draw of a replicate's database differs
        from the one the package drew: the oracle consumes the partition
        (a, r), so the fit on it must reproduce the row's (alpha, theta)."""
        if not close(row.log10_lr_freq, -math.log10(self.probs[suspect - 1])):
            return True
        rt = self.rt
        fit = rt.mle.fit_mle(rt.IntegerPartition(a=a, r=r), small_n_threshold=0)
        return not (
            close(fit.alpha_hat, row.alpha_hat)
            and close(fit.theta_hat, row.theta_hat, EXACT_TOL * max(1.0, abs(row.theta_hat)))
        )

    def check(self, result, master: int, replicates: int, tally: Tally) -> None:
        if result is None:
            tally.record_raised(replicates, f"experiment {master}")
            return
        n_db = inputs.SAMPLE_SIZE - 1
        drawn = inputs.replicate_databases(master, replicates, self.counts)
        for row, (a, r, suspect) in zip(result.rows, drawn):
            what = f"experiment {master} replicate {row.replicate}"
            fields = (
                row.alpha_hat, row.theta_hat, row.log10_lr, row.log10_lr_true,
                row.log10_lr_true_se, row.log10_lr_freq, row.diff1, row.diff2,
            )
            if not all(v is not None and math.isfinite(v) for v in fields):
                tally.record([f"non-finite row {row}"], what)
                continue
            problems = []
            if not close(row.diff1, row.log10_lr - row.log10_lr_true):
                problems.append("diff1 != log10_lr - log10_lr_true")
            if not close(row.diff2, row.log10_lr - row.log10_lr_freq):
                problems.append("diff2 != log10_lr - log10_lr_freq")
            plug_in = math.log10((n_db + 1.0 + row.theta_hat) / (1.0 - row.alpha_hat))
            if not close(row.log10_lr, plug_in):
                problems.append(f"log10_lr {row.log10_lr} != plug-in formula {plug_in}")
            if self.sampling_changed(row, a, r, suspect):
                problems.append("sampling changed: re-drawn database does not match the replicate")
            else:
                self.oracle_tries += 1
                exact = oracle.exact_lr(a, r, self.probs, self.pop.pop_size)
                if exact is not None:
                    self.oracle_fits += 1
                    err = row.log10_lr_true - math.log10(exact)
                    self.errors.append(err)
                    self.zs.append(err / row.log10_lr_true_se)
                    tally.see("validation |log10_lr_true - exact|", abs(err))
                    if abs(err) > ORACLE_TOL:
                        problems.append(f"|log10_lr_true - exact| = {abs(err):.4f} > {ORACLE_TOL}")
            tally.record(problems, what)

    def run(self, seconds: float) -> Tally:
        tally = Tally.after_warm_up(self)
        with threads(N_PROCS):
            for _ in range(operations(seconds, self.RATE)):
                if tally.measured() > TIME_CAP * seconds:
                    break
                master = self.next_master()
                spec = self.spec(master, self.REPLICATES_PER_CALL)
                result = timed(tally, self.rt.run_experiment, spec)
                self.check(result, master, self.REPLICATES_PER_CALL, tally)
        return tally

    def traced(self, seconds: float) -> tuple[dict, Tally, Tracer]:
        """One call's replicates untraced and serial, the same traced, and
        the same again on the pool: self times, tracing overhead and
        parallel efficiency all come from identical inputs."""
        rt = self.rt
        tally = Tally.after_warm_up(self)
        tracer = Tracer()
        walls = {"serial": 0.0, "traced": 0.0, "parallel": 0.0}
        n = self.REPLICATES_PER_CALL
        replicates = 0
        for _ in range(operations(seconds, self.TRACED_RATE)):
            if tally.measured() > TIME_CAP * seconds:
                break
            master = self.next_master()
            tracer.case = master
            outputs = []
            for mode, workers in (("serial", 1), ("traced", 1), ("parallel", N_PROCS)):
                tracing = spans(rt, tracer) if mode == "traced" else contextlib.nullcontext()
                with threads(workers), tracing:
                    result = timed(tally, rt.run_experiment, self.spec(master, n))
                walls[mode] += tally.walls[-1]
                outputs.append(None if result is None else result.to_dict())
                if mode == "traced":
                    self.check(result, master, n, tally)
            if None not in outputs and not outputs[0] == outputs[1] == outputs[2]:
                tally.record(["serial, traced and pooled rows differ"], f"experiment {master}")
            replicates += n
        p = "validation"
        out = {}
        out.update(chain_metrics(tracer, p))
        out.update(fit_metrics(tracer, p))
        errors = np.array(self.errors)
        out[f"{p}.lr.err_log10_max"] = (float(np.abs(errors).max()) if errors.size else 0.0, "log10")
        out[f"{p}.lr.err_log10_rms"] = (float(np.sqrt(np.mean(errors**2))) if errors.size else 0.0, "log10")
        out[f"{p}.lr.z_sd"] = (float(np.std(self.zs, ddof=1)) if len(self.zs) > 1 else 0.0, "ratio")
        out[f"{p}.lr.oracle_fit_ratio"] = (self.oracle_fits / max(1, self.oracle_tries), "ratio")
        experiment_self = sum(tracer.self_times("workbench.run_experiment"))
        out[f"{p}.workbench.replicate_self_s"] = (experiment_self / replicates, "s")
        out[f"{p}.workbench.serial_replicates_per_s"] = (replicates / walls["serial"], "1/s")
        out[f"{p}.workbench.parallel_efficiency"] = (
            walls["serial"] / (N_PROCS * walls["parallel"]), "ratio"
        )
        traced_total = tracer.total_time("workbench.run_experiment")
        lr_mle = sum(tracer.self_times("lr.chain")) + sum(tracer.self_times("mle.fit"))
        out[f"{p}.lr_mle_share"] = (lr_mle / traced_total, "ratio")
        out["trace.overhead_ratio"] = (walls["traced"] / walls["serial"], "ratio")
        return out, tally, tracer

    def determinism(self) -> list[str]:
        """A small experiment twice, serial then pooled, must agree exactly."""
        rt = self.rt
        spec = rt.ExperimentSpec(
            population=self.fixture, sample_size=21, replicates=2, seed=derived_seed(self.seed, 0),
            mh=rt.MhConfig(iterations=4_000, burn_in=1_000, thinning=100),
        )
        with threads(1):
            first = outcome(rt.run_experiment, spec)
        with threads(N_PROCS):
            second = outcome(rt.run_experiment, spec)
        return [] if first == second else ["experiment output differs between two runs"]


class Casework:
    """One rare-type case per fresh 18925-record profile table drawn from a
    seeded census of 100,000: load_profiles then run_case, serially."""

    unit = "cases"
    RATE = 3.0  # cases per second

    def __init__(self, rt, seed: int, workdir: str):
        self.rt = rt
        self.seed = seed
        census = inputs.make_census(seed)
        self.probs = census.counts / census.size
        self.pop = rt.PopulationVector(probs=tuple(self.probs.tolist()), pop_size=census.size)
        self.source = inputs.CaseSource(census, seed, workdir)
        self.index = 0
        # set-up writes only the warm-up table; every later table is
        # written between the timed operations
        warm = self.source.next()
        self.warm_raised = warm_up(self.solve, warm.path, self.options(warm, WARM))

    def options(self, case, index: int):
        rt = self.rt
        return rt.CaseOptions(
            population=self.pop,
            matched_rank=case.suspect_rank,
            mh=rt.MhConfig(seed=derived_seed(self.seed, index)),
        )

    def next_case(self):
        self.index += 1
        return self.source.next(), self.index

    def solve(self, path, options):
        return self.rt.run_case(self.rt.load_profiles(path), options)

    def check(self, report, case, tally: Tally) -> None:
        rt = self.rt
        what = f"case {case.path}"
        if report is None:
            tally.record_raised(1, what)
            return
        if report.log10_lr_eb is None:
            tally.record([f"fit did not converge: {report.notes}"], what)
            return
        problems = []
        db_plus = rt.IntegerPartition.from_block_sizes(np.append(case.db_sizes, 1))
        fit = rt.mle.fit_mle(db_plus)
        if not fit.converged:
            problems.append(f"re-fit did not converge: {fit.diagnosis}")
        else:
            alpha, theta = fit.alpha_hat, fit.theta_hat
            plug_in = math.log10((inputs.DATABASE_SIZE + 1.0 + theta) / (1.0 - alpha))
            if not close(report.log10_lr_eb, plug_in):
                problems.append(f"log10_lr_eb {report.log10_lr_eb} != plug-in formula {plug_in}")
            at_fit = rt.pitman.eppf_log(db_plus, fit.params())
            for da, dt in ((0.005, 0.0), (-0.005, 0.0), (0.0, 0.02 * theta), (0.0, -0.02 * theta)):
                near = rt.pitman.eppf_log(db_plus, rt.PdParams(alpha + da, theta + dt))
                tally.see("casework eppf(neighbour) - eppf(fit)", near - at_fit)
                if near > at_fit:
                    problems.append(f"eppf_log higher at ({alpha + da}, {theta + dt}) than at the fit")
        freq = -math.log10(self.probs[case.suspect_rank - 1])
        if not close(report.log10_lr_freq, freq):
            problems.append(f"log10_lr_freq {report.log10_lr_freq} != census {freq}")
        s1 = db_plus.s1
        low = math.log10(s1 / self.probs[:s1].sum())
        high = math.log10(s1 / self.probs[-s1:].sum())
        true = report.log10_lr_true
        if true is None or not low - 1e-9 <= true <= high + 1e-9:
            problems.append(f"log10_lr_true {true} outside [{low}, {high}]")
        tally.record(problems, what)

    def run(self, seconds: float, tracer: Tracer | None = None) -> Tally:
        tally = Tally.after_warm_up(self)
        for _ in range(operations(seconds, self.RATE)):
            if tally.measured() > TIME_CAP * seconds:
                break
            case, index = self.next_case()
            if tracer is not None:
                tracer.case = index
            report = timed(tally, self.solve, case.path, self.options(case, index))
            os.remove(case.path)
            self.check(report, case, tally)
        return tally

    def traced(self, seconds: float) -> tuple[dict, Tally, Tracer]:
        tracer = Tracer()
        with spans(self.rt, tracer):
            tally = self.run(seconds, tracer)
        p = "casework"
        out = layer_metrics(
            tracer,
            p,
            {
                "workbench.load_profiles": "workbench.load_profiles",
                "workbench.run_case": "workbench.run_case_self",
                "partitions.reduce": "partitions.reduce",
                "partitions.to_integer": "partitions.to_integer",
            },
        )
        out.update(chain_metrics(tracer, p))
        out.update(fit_metrics(tracer, p))
        return out, tally, tracer

    def determinism(self) -> list[str]:
        rt = self.rt
        case, _ = self.next_case()
        options = rt.CaseOptions(
            population=self.pop,
            matched_rank=case.suspect_rank,
            mh=rt.MhConfig(iterations=4_000, burn_in=1_000, thinning=100, seed=self.seed),
        )
        db = rt.load_profiles(case.path)
        same = outcome(rt.run_case, db, options) == outcome(rt.run_case, db, options)
        return [] if same else ["run_case output differs between two runs"]


class ModelCheck:
    """Simulate n = 18925 at PD(0.51, 216) by the seating scheme, reduce,
    refit, and map the 41x41 likelihood surface, serially."""

    unit = "realizations"
    RATE = 1.3  # realizations per second
    N = inputs.DATABASE_SIZE
    WARM_N = 2_000

    def __init__(self, rt, seed: int, workdir: str):
        self.rt = rt
        self.seed = seed
        self.params = rt.PdParams(inputs.CENSUS_ALPHA, inputs.CENSUS_THETA)
        self.expected_k = inputs.expected_tables(self.N, inputs.CENSUS_ALPHA, inputs.CENSUS_THETA)
        self.index = 0
        self.warm_raised = warm_up(self.realize, self.WARM_N, derived_seed(seed, WARM))

    def realize(self, n: int, seed: int):
        rt = self.rt
        plan = rt.crp_sample(n, self.params, seed)
        part = rt.to_integer_partition(plan.to_set_partition())
        fit = rt.fit_mle(part)
        surface = rt.loglik_surface(part, fit, rt.SurfaceGrid(41, 41))
        return plan, part, fit, surface, rt.symmetry_diagnostic(surface)

    def check(self, out, tally: Tally) -> None:
        if out is None:
            tally.record_raised(1, f"realization {self.index}")
            return
        plan, part, fit, surface, sym = out
        problems = []
        if sum(plan.table_counts) != self.N or part.n != self.N:
            problems.append("table counts do not sum to n")
        k_ratio = plan.k / self.expected_k - 1.0
        tally.see("model_check |K/E[K] - 1|", abs(k_ratio))
        if abs(k_ratio) > TABLES_TOL:
            problems.append(f"k={plan.k} is {k_ratio:+.1%} off E[K_n]={self.expected_k:.1f}")
        tally.see("model_check |alpha_hat - 0.51|", abs(fit.alpha_hat - inputs.CENSUS_ALPHA))
        if not fit.converged or abs(fit.alpha_hat - inputs.CENSUS_ALPHA) > ALPHA_TOL:
            problems.append(f"fit converged={fit.converged} alpha_hat={fit.alpha_hat}")
        if not (np.linalg.eigvalsh(np.asarray(fit.hessian)) < 0).all():
            problems.append("Hessian is not negative definite")
        centre = (len(surface.phi) // 2, len(surface.theta) // 2)
        if np.unravel_index(np.nanargmax(surface.rel_loglik), surface.rel_loglik.shape) != centre:
            problems.append("surface centre is not the grid maximum")
        if not math.isfinite(sym.score):
            problems.append("symmetry score is not finite")
        tally.record(problems, f"realization {self.index}")

    def run(self, seconds: float, tracer: Tracer | None = None) -> Tally:
        tally = Tally.after_warm_up(self)
        for _ in range(operations(seconds, self.RATE)):
            if tally.measured() > TIME_CAP * seconds:
                break
            self.index += 1
            if tracer is not None:
                tracer.case = self.index
            out = timed(tally, self.realize, self.N, derived_seed(self.seed, self.index))
            self.check(out, tally)
        return tally

    def traced(self, seconds: float) -> tuple[dict, Tally, Tracer]:
        tracer = Tracer()
        with spans(self.rt, tracer):
            tally = self.run(seconds, tracer)
        p = "model_check"
        out = layer_metrics(
            tracer,
            p,
            {
                "pitman.crp_sample": "pitman.crp_sample",
                "pitman.to_set_partition": "pitman.to_set_partition",
                "partitions.to_integer": "partitions.to_integer",
                "mle.surface": "mle.surface",
                "mle.symmetry": "mle.symmetry",
            },
        )
        out.update(fit_metrics(tracer, p))
        crp = tracer.self_times("pitman.crp_sample")
        out[f"{p}.pitman.customers_per_s"] = (
            _median([c / t for c, t in zip(tracer.counts["pitman.customers"], crp)]), "1/s"
        )
        out[f"{p}.pitman.tables"] = (_median(tracer.counts["pitman.tables"]), "count")
        surface = tracer.self_times("mle.surface")
        out[f"{p}.mle.surface_points_per_s"] = (
            _median([c / t for c, t in zip(tracer.counts["mle.surface_points"], surface)]), "1/s"
        )
        return out, tally, tracer

    def determinism(self) -> list[str]:
        first = self.rt.crp_sample(500, self.params, seed=self.seed)
        second = self.rt.crp_sample(500, self.params, seed=self.seed)
        return [] if first == second else ["crp_sample output differs between two runs"]


WORKLOADS = {"validation": Validation, "casework": Casework, "model_check": ModelCheck}
