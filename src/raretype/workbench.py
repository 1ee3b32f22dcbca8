"""Data ingestion, the embedded Dutch population fixture, and the
sampled rare-type experiment.

The experiment treats a finite population (given as an integer partition:
one type per block, block size = carrier count) as the whole population
of potential sources, draws databases plus one suspect without
replacement, conditions on the suspect's type being unseen in the
database, and evaluates each drawn case with ``run_case``, which compares
the plug-in LR against the known-population and frequentist ones.
"""
from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .lr import LrReport, MhConfig, diff_metrics, lr_empirical_bayes, lr_frequentist, lr_true_mh
from .mle import fit_mle
from .partitions import (
    IntegerPartition,
    SetPartition,
    as_integer_partition,
    reduce_sample,
    to_integer_partition,
)
from .pitman import PopulationVector
from .rng import SeedLike, as_generator, spawn_seeds

__all__ = [
    "ProfileParseError",
    "MissingColumnError",
    "DuplicateColumnError",
    "RaggedRowError",
    "EmptyFileError",
    "ProfileSource",
    "ProfileDatabase",
    "load_profiles",
    "dutch_fixture",
    "DUTCH_FIXTURE_METADATA",
    "population_from_partition",
    "CaseOptions",
    "run_case",
    "ExperimentSpec",
    "ExperimentRow",
    "SummaryStats",
    "ExperimentResult",
    "run_experiment",
    "THREADS_ENV_VAR",
]

THREADS_ENV_VAR = "RARETYPE_THREADS"

# joins multi-column profiles; the unit separator cannot collide with
# printable allele tokens
_FIELD_JOIN = "\x1f"


class ProfileParseError(ValueError):
    """Input file cannot be parsed into profile records."""


class MissingColumnError(ProfileParseError):
    pass


class DuplicateColumnError(ProfileParseError):
    pass


class RaggedRowError(ProfileParseError):
    pass


class EmptyFileError(ProfileParseError):
    pass


@dataclass(frozen=True)
class ProfileSource:
    path: str
    columns: tuple[str, ...]
    notes: str = ""


@dataclass(frozen=True)
class ProfileDatabase:
    """Opaque profile strings; record equality is the only structure used."""

    records: tuple[str, ...]
    source: ProfileSource

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("profile database must be nonempty")

    @property
    def n(self) -> int:
        return len(self.records)


def load_profiles(path: str, format: str = "tsv", columns="all") -> ProfileDatabase:
    """Read a delimited profile table into opaque record strings.

    ``columns`` selects header names joined (in the given order) into each
    record, or "all" for every column; a bare string other than "all" names
    one column. Selecting a different column subset changes profile
    identity; values are never interpreted numerically. A header that
    repeats a name is rejected, whichever columns are selected.
    """
    if format not in ("tsv", "csv"):
        raise ValueError(f"format must be 'tsv' or 'csv', got {format!r}")
    delimiter = "\t" if format == "tsv" else ","
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFileError(f"{path}: no header row")
        # a repeated name would read its first column twice and never the next
        for i, name in enumerate(header):
            if name in header[:i]:
                raise DuplicateColumnError(f"{path}: column {name!r} repeated in header {header}")
        if columns == "all":
            wanted = list(header)
        elif isinstance(columns, str):
            wanted = [columns]
        else:
            wanted = list(columns)
        if not wanted:
            # zero fields would join every record to "" and merge them all
            raise MissingColumnError(f"{path}: no columns selected")
        indices = []
        for name in wanted:
            if name not in header:
                raise MissingColumnError(f"{path}: column {name!r} not in header {header}")
            indices.append(header.index(name))
        # the whole header in header order joins each row as it stands
        whole = indices == list(range(len(header)))
        join = _FIELD_JOIN.join
        records = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise RaggedRowError(
                    f"{path}:{lineno}: expected {len(header)} fields, found {len(row)}"
                )
            records.append(join(row) if whole else join([row[i] for i in indices]))
    if not records:
        raise EmptyFileError(f"{path}: no data rows")
    return ProfileDatabase(
        records=tuple(records),
        source=ProfileSource(path=str(path), columns=tuple(wanted)),
    )


# Dutch population summary: 557 distinct types over 2085 individuals in
# (a, r) form. The source reports size 2037, which disagrees with the sum
# of these vectors; the vectors are trusted operationally and both numbers
# are kept in the metadata.
_DUTCH_A = (
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15,
    16, 17, 19, 20, 23, 24, 29, 35, 41, 46, 94, 152, 168, 174,
)
_DUTCH_R = (
    356, 80, 31, 20, 13, 11, 5, 6, 3, 5, 4, 3, 2, 3,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1,
)

DUTCH_FIXTURE_METADATA = {
    "reported_n": 2037,
    "vector_n": 2085,
    "distinct_types": 557,
    "note": "reported size disagrees with the printed vectors; vector sums are used",
}


def dutch_fixture() -> IntegerPartition:
    """The embedded Dutch Y-STR frequency summary."""
    return IntegerPartition(a=_DUTCH_A, r=_DUTCH_R)


def population_from_partition(pi: IntegerPartition) -> PopulationVector:
    """One type per block; p_i = block size / n, N = n."""
    sizes = pi.sizes_desc()
    n = pi.n
    return PopulationVector(probs=tuple(s / n for s in sizes), pop_size=n)


@dataclass(frozen=True)
class CaseOptions:
    """Optional extras for a single case evaluation."""

    population: Optional[PopulationVector] = None
    matched_rank: Optional[int] = None
    mh: Optional[MhConfig] = None
    strict_support: bool = False
    small_n_threshold: int = 500


DatabaseLike = Union[ProfileDatabase, IntegerPartition, SetPartition]


def _as_db_partition(db: DatabaseLike) -> IntegerPartition:
    if isinstance(db, ProfileDatabase):
        return to_integer_partition(reduce_sample(db.records))
    return as_integer_partition(db)


def run_case(db: DatabaseLike, options: CaseOptions = CaseOptions()) -> LrReport:
    """Evaluate one rare-type match case against a reference database.

    The database partition is augmented with the suspect as a fresh
    singleton, hyperparameters are fitted on that augmented partition, and
    the fit with its plug-in LR for the database size is reported. When a
    population is supplied, the known-population LR (with an MH schedule)
    and the frequentist benchmark (with the matching type's rank) join the
    report; neither needs the fit, so both are reported when it fails.
    """
    base = _as_db_partition(db)
    db_plus = base.add_singleton()
    fit = fit_mle(db_plus, small_n_threshold=options.small_n_threshold)
    if fit.converged:
        report = LrReport(
            alpha_hat=fit.alpha_hat,
            theta_hat=fit.theta_hat,
            log10_lr_eb=math.log10(lr_empirical_bayes(base.n, fit.params())),
            notes=fit.warnings,
        )
    else:
        report = LrReport(notes=fit.warnings + (f"fit did not converge: {fit.diagnosis}",))
    if options.population is not None and options.mh is not None:
        est = lr_true_mh(
            db_plus, options.population, options.mh, strict_support=options.strict_support
        )
        report = replace(
            report, log10_lr_true=est.log10_lr, log10_lr_true_se=est.log10_stderr
        )
    if options.population is not None and options.matched_rank is not None:
        report = replace(
            report,
            log10_lr_freq=math.log10(lr_frequentist(options.population, options.matched_rank)),
        )
    return diff_metrics(report)


@dataclass(frozen=True)
class ExperimentSpec:
    """Sampled rare-type-case comparison over a finite population.

    ``sample_size`` counts the database plus the suspect (101 means a
    database of 100). Each replicate gets its own seed split off the
    master seed, so results do not depend on scheduling.
    """

    population: Union[IntegerPartition, PopulationVector]
    sample_size: int = 101
    replicates: int = 96
    seed: SeedLike = None
    mh: MhConfig = MhConfig()
    strict_support: bool = False
    max_conditioning_attempts: int = 10_000

    def __post_init__(self) -> None:
        if self.sample_size < 2:
            raise ValueError("sample_size must be >= 2 (database plus suspect)")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        n = (
            self.population.n
            if isinstance(self.population, IntegerPartition)
            else self.population.pop_size
        )
        if n is None:
            raise ValueError("explicit population vectors need pop_size")
        if self.sample_size > n:
            raise ValueError(f"sample_size {self.sample_size} exceeds population size {n}")


@dataclass(frozen=True)
class ExperimentRow:
    replicate: int
    alpha_hat: Optional[float]
    theta_hat: Optional[float]
    log10_lr: Optional[float]
    log10_lr_true: Optional[float]
    log10_lr_true_se: Optional[float]
    log10_lr_freq: Optional[float]
    diff1: Optional[float]
    diff2: Optional[float]
    notes: tuple[str, ...] = ()


ROW_COLUMNS = (
    "alpha_hat",
    "theta_hat",
    "log10_lr",
    "log10_lr_true",
    "log10_lr_freq",
    "diff1",
    "diff2",
)


@dataclass(frozen=True)
class SummaryStats:
    """R-style summary: Min, 1st Qu., Median, Mean, 3rd Qu., Max plus sd."""

    minimum: float
    q1: float
    median: float
    mean: float
    q3: float
    maximum: float
    sd: float
    count: int

    @classmethod
    def of(cls, values: np.ndarray) -> "SummaryStats":
        q1, med, q3 = np.percentile(values, [25, 50, 75])
        sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
        return cls(
            minimum=float(values.min()),
            q1=float(q1),
            median=float(med),
            mean=float(values.mean()),
            q3=float(q3),
            maximum=float(values.max()),
            sd=sd,
            count=int(values.size),
        )

    def to_dict(self) -> dict:
        return {
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "mean": self.mean,
            "q3": self.q3,
            "max": self.maximum,
            "sd": self.sd,
            "count": self.count,
        }


def summarize_rows(rows) -> dict[str, SummaryStats]:
    out = {}
    for col in ROW_COLUMNS:
        values = np.array([getattr(r, col) for r in rows if getattr(r, col) is not None])
        if values.size:
            out[col] = SummaryStats.of(values)
    return out


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ExperimentRow, ...]
    summary: dict[str, SummaryStats]

    def recompute_summary(self) -> dict[str, SummaryStats]:
        return summarize_rows(self.rows)

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "replicate": r.replicate,
                    **{col: getattr(r, col) for col in ROW_COLUMNS},
                    "log10_lr_true_se": r.log10_lr_true_se,
                    "notes": list(r.notes),
                }
                for r in self.rows
            ],
            "summary": {col: s.to_dict() for col, s in self.summary.items()},
        }

    def write_rows_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("replicate",) + ROW_COLUMNS + ("log10_lr_true_se",))
        for r in self.rows:
            writer.writerow(
                [r.replicate]
                + [_csv_cell(getattr(r, col)) for col in ROW_COLUMNS]
                + [_csv_cell(r.log10_lr_true_se)]
            )


def _csv_cell(v):
    return "" if v is None else repr(v)


def _experiment_population(spec: ExperimentSpec) -> tuple[PopulationVector, np.ndarray]:
    if isinstance(spec.population, IntegerPartition):
        pop = population_from_partition(spec.population)
        counts = np.asarray(pop.as_array() * pop.pop_size)
    else:
        pop = spec.population
        counts = pop.as_array() * pop.pop_size
        if np.abs(counts - np.rint(counts)).max() > 1e-6:
            raise ValueError(
                "population frequencies do not describe integer carrier counts; "
                "supply the population as an integer partition instead"
            )
    counts = np.rint(counts).astype(np.int64)
    if counts.sum() != pop.pop_size or (counts < 1).any():
        raise ValueError("carrier counts inconsistent with pop_size")
    return pop, counts


def _run_replicate(
    spec: ExperimentSpec,
    pop: PopulationVector,
    counts: np.ndarray,
    index: int,
    seed: np.random.SeedSequence,
) -> ExperimentRow:
    sample_seed, mh_seed = seed.spawn(2)
    rng = as_generator(sample_seed)
    individuals = np.repeat(np.arange(1, pop.m + 1), counts)
    for _ in range(spec.max_conditioning_attempts):
        drawn = rng.choice(individuals, size=spec.sample_size, replace=False)
        suspect = int(drawn[-1])
        db_ranks = drawn[:-1]
        if suspect not in db_ranks:
            break
    else:
        raise RuntimeError(
            f"rare-type conditioning failed in {spec.max_conditioning_attempts} attempts: "
            "population too concentrated"
        )
    type_counts = np.bincount(db_ranks)
    options = CaseOptions(
        population=pop,
        matched_rank=suspect,
        mh=replace(spec.mh, seed=mh_seed),
        strict_support=spec.strict_support,
        small_n_threshold=0,
    )
    report = run_case(IntegerPartition.from_block_sizes(type_counts[type_counts > 0]), options)
    return ExperimentRow(
        replicate=index,
        alpha_hat=report.alpha_hat,
        theta_hat=report.theta_hat,
        log10_lr=report.log10_lr_eb,
        log10_lr_true=report.log10_lr_true,
        log10_lr_true_se=report.log10_lr_true_se,
        log10_lr_freq=report.log10_lr_freq,
        diff1=report.diff1,
        diff2=report.diff2,
        notes=report.notes,
    )


def _worker(payload) -> ExperimentRow:
    return _run_replicate(*payload)


def _worker_count(replicates: int) -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        cap = int(env)
        if cap < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {env!r}")
    elif hasattr(os, "sched_getaffinity"):
        # the CPUs this process may run on, fewer than os.cpu_count() under
        # taskset or a cpuset
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, replicates))


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the replicated comparison; rows come back in replicate order
    regardless of scheduling."""
    pop, counts = _experiment_population(spec)
    seeds = spawn_seeds(spec.seed, spec.replicates)
    payloads = [(spec, pop, counts, i, seeds[i]) for i in range(spec.replicates)]
    workers = _worker_count(spec.replicates)
    if workers == 1:
        rows = [_worker(payload) for payload in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_worker, payloads))
    return ExperimentResult(rows=tuple(rows), summary=summarize_rows(rows))
