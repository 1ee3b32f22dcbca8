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
import functools
import io
import math
import os
from collections import Counter
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Optional, Union

import numpy as np

from .lr import (
    LrReport,
    MhConfig,
    _exact_fits,
    lr_empirical_bayes,
    lr_frequentist,
    lr_true_mh,
    saddle_true_lr,
)
from .mle import fit_mle
from .partitions import (
    IntegerPartition,
    _are_integers,
    # not called here since run_case counts records directly; perfbench's
    # traced casework run still wraps both names in this namespace
    reduce_sample,
    to_integer_partition,
)
from .pitman import PopulationVector
from .rng import SeedLike, spawn_seeds

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
    "ExperimentResult",
    "run_experiment",
    "THREADS_ENV_VAR",
]

THREADS_ENV_VAR = "RARETYPE_THREADS"

# joins multi-column profiles; a text holding it is rejected, so no field
# can merge with its neighbour
_FIELD_JOIN = "\x1f"
# a text free of these is read without csv: each line is one row and each
# delimiter, once replaced by _FIELD_JOIN, one field boundary
_NOT_PLAIN = ('"', "\r", "\0")


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

    The file is read as one string. A text holding the unit separator
    U+001F, which joins a record's fields, raises ``ProfileParseError``
    naming its first line. A text holding no quote, CR or NUL has no csv
    syntax beyond the delimiter and LF, so its lines are split and checked
    in whole-text passes, each distinct line once; such a text has no field
    size limit. Any other text goes through ``csv.reader``, the only reader
    of quoted fields and CR line ends, whose parse errors (a quoted field
    over ``csv.field_size_limit()``, a NUL on Python 3.10) raise
    ``ProfileParseError`` naming the line. Both readers give the same
    records and the same errors, and a ragged row is reported at the first
    offending line in file order.
    """
    if format not in ("tsv", "csv"):
        raise ValueError(f"format must be 'tsv' or 'csv', got {format!r}")
    delimiter = "\t" if format == "tsv" else ","
    with open(path, newline="") as fh:
        text = fh.read()
    if _FIELD_JOIN in text:
        lineno = len(io.StringIO(text[: text.index(_FIELD_JOIN) + 1], newline="").readlines())
        raise ProfileParseError(f"{path}:{lineno}: unit separator U+001F in a field")
    rows = header = None
    if any(c in text for c in _NOT_PLAIN):
        rows = _csv_rows(path, text, delimiter)
        header = next(rows, None)
    else:
        lines = text.replace(delimiter, _FIELD_JOIN).split("\n")
        if lines[-1] == "":
            lines.pop()  # the last line's terminator, or the empty file's one line
        if lines:
            # csv reads a blank line as no fields, where split gives [""]
            header = lines[0].split(_FIELD_JOIN) if lines[0] else []
    if header is None:
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
    if rows is None:
        records = _plain_records(path, lines[1:], len(header), None if whole else indices)
    else:
        join = _FIELD_JOIN.join
        records = []
        for lineno, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise _ragged(path, lineno, len(header), len(row))
            records.append(join(row) if whole else join([row[i] for i in indices]))
    if not records:
        raise EmptyFileError(f"{path}: no data rows")
    return ProfileDatabase(
        records=tuple(records),
        source=ProfileSource(path=str(path), columns=tuple(wanted)),
    )


def _csv_rows(path: str, text: str, delimiter: str):
    """``csv.reader`` rows of ``text``, split at LF, CR and CRLF as a file
    opened with ``newline=""`` is."""
    reader = csv.reader(io.StringIO(text, newline=""), delimiter=delimiter)
    try:
        yield from reader
    except csv.Error as exc:
        raise ProfileParseError(f"{path}:{reader.line_num}: {exc}") from None


def _ragged(path: str, lineno: int, width: int, found: int) -> RaggedRowError:
    return RaggedRowError(f"{path}:{lineno}: expected {width} fields, found {found}")


def _field_count(line: str) -> int:
    return line.count(_FIELD_JOIN) + 1 if line else 0


def _plain_records(path: str, body: list[str], width: int, indices) -> list[str]:
    """Records from plain lines whose delimiters are already
    ``_FIELD_JOIN``: each line whole, or projected on ``indices``. Each
    distinct line is counted and projected once. ``width`` is at least 1,
    so a blank line, which holds no field, is always ragged."""
    distinct = set(body)
    if "" in distinct or not set(map(str.count, distinct, repeat(_FIELD_JOIN))) <= {width - 1}:
        for lineno, line in enumerate(body, start=2):
            if _field_count(line) != width:
                raise _ragged(path, lineno, width, _field_count(line))
    if indices is None:
        return body
    project = {}
    for line in distinct:
        fields = line.split(_FIELD_JOIN)
        project[line] = _FIELD_JOIN.join([fields[i] for i in indices])
    return [project[line] for line in body]


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
    return PopulationVector(probs=tuple(s / pi.n for s in pi.sizes_desc()), pop_size=pi.n)


@dataclass(frozen=True)
class CaseOptions:
    """Optional extras for a single case evaluation."""

    population: Optional[PopulationVector] = None
    matched_rank: Optional[int] = None
    mh: MhConfig = MhConfig()
    strict_support: bool = False
    small_n_threshold: int = 500


DatabaseLike = Union[ProfileDatabase, IntegerPartition]


def _as_db_partition(db: DatabaseLike) -> IntegerPartition:
    if isinstance(db, ProfileDatabase):
        # the block sizes are the records' counts; no set partition is built
        counts = Counter(db.records).values()
        return IntegerPartition.from_block_sizes(np.fromiter(counts, np.int64, len(counts)))
    return db


def run_case(db: DatabaseLike, options: CaseOptions = CaseOptions()) -> LrReport:
    """Evaluate one rare-type match case against a reference database.

    The database partition is augmented with the suspect as a fresh
    singleton, hyperparameters are fitted on that augmented partition, and
    the fit with its plug-in LR for the database size is reported. When a
    population is supplied, the known-population LR (see
    ``_known_population_lr`` for its route) and the frequentist benchmark
    (with the matching type's rank) join the report; neither needs the
    fit, so both are reported when it fails. diff1 = eb - true and
    diff2 = eb - freq where both operands exist, else a note says which
    is missing.
    """
    pop, rank = options.population, options.matched_rank
    # taken first, so that a bad rank fails before the fit or the route runs
    freq = None if pop is None or rank is None else math.log10(lr_frequentist(pop, rank))
    base = _as_db_partition(db)
    db_plus = base.add_singleton()
    fit = fit_mle(db_plus, small_n_threshold=options.small_n_threshold)
    notes = fit.warnings
    alpha = theta = eb = None
    if fit.converged:
        alpha, theta = fit.alpha_hat, fit.theta_hat
        eb = math.log10(lr_empirical_bayes(base.n, fit.params()))
    else:
        notes += (f"fit did not converge: {fit.diagnosis}",)
    true = se = route = None
    if pop is not None:
        true, se, route, route_notes = _known_population_lr(db_plus, options)
        notes += route_notes
    diff1 = diff2 = None
    if eb is not None and true is not None:
        diff1 = eb - true
    else:
        notes += ("diff1 unavailable: needs both plug-in and known-population LRs",)
    if eb is not None and freq is not None:
        diff2 = eb - freq
    else:
        notes += ("diff2 unavailable: needs both plug-in and frequentist LRs",)
    return LrReport(
        alpha_hat=alpha,
        theta_hat=theta,
        log10_lr_eb=eb,
        log10_lr_true=true,
        log10_lr_true_se=se,
        log10_lr_true_route=route,
        log10_lr_freq=freq,
        diff1=diff1,
        diff2=diff2,
        notes=notes,
    )


def _known_population_lr(db_plus: IntegerPartition, options: CaseOptions):
    """The known-population LR's log10 value, SE, route and notes.

    Within the exact pass's state budget the swap chain runs, so that its
    rows keep their standard errors; past the budget the saddle-point
    route runs, whose error bar is a calibrated bound rather than an SE.
    The chain stands in, with a note, where the saddle point has no
    converged tilt or lies outside the regime that bound was calibrated in.
    """
    pop, strict = options.population, options.strict_support
    notes = ()
    if not _exact_fits(db_plus):
        est = saddle_true_lr(db_plus, pop, strict_support=strict)
        if est.calibrated:
            return est.log10_lr, None, "saddle", (est.note,)
        notes = (est.note,)
    est = lr_true_mh(db_plus, pop, options.mh, strict_support=strict)
    return est.log10_lr, est.log10_stderr, "mcmc", notes


@dataclass(frozen=True)
class ExperimentSpec:
    """Sampled rare-type-case comparison over a finite population.

    ``sample_size`` counts the database plus the suspect (101 means a
    database of 100). Each replicate gets its own seed split off the
    master seed, so results do not depend on scheduling.
    """

    population: IntegerPartition
    sample_size: int = 101
    replicates: int = 96
    seed: SeedLike = None
    mh: MhConfig = MhConfig()
    strict_support: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.population, IntegerPartition):
            raise ValueError(f"population must be an IntegerPartition, not {type(self.population)}")
        if not _are_integers((self.sample_size, self.replicates)):
            raise ValueError("sample_size and replicates must be integers")
        if self.sample_size < 2:
            raise ValueError("sample_size must be >= 2 (database plus suspect)")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.sample_size > self.population.n:
            raise ValueError(f"sample_size {self.sample_size} > population size {self.population.n}")
        # each replicate draws its people by an int64 index
        if self.population.n >= 2**63:
            raise ValueError(f"population size {self.population.n} is past the int64 limit 2**63 - 1")


# the row columns the summary describes, in its order
_SUMMARY_COLUMNS = (
    "alpha_hat", "theta_hat", "log10_lr", "log10_lr_true", "log10_lr_freq", "diff1", "diff2"
)
# the columns of each row in the JSON and CSV output, in order
_OUTPUT_COLUMNS = ("replicate", *_SUMMARY_COLUMNS, "log10_lr_true_se")


@dataclass(frozen=True)
class ExperimentRow(LrReport):
    """One replicate's case report, indexed by its replicate."""

    replicate: int = 0

    @property
    def log10_lr(self) -> Optional[float]:
        """The plug-in LR, under the experiment's column name."""
        return self.log10_lr_eb

    def to_dict(self) -> dict:
        # the output columns in order, the notes as a JSON list
        return {**{col: getattr(self, col) for col in _OUTPUT_COLUMNS}, "notes": list(self.notes)}


def summarize_rows(rows) -> dict[str, dict]:
    """R-style summary of each summarised column over the rows that have
    a value: min, q1, median, mean, q3 and max, plus sd and count."""
    out = {}
    for col in _SUMMARY_COLUMNS:
        values = np.array([getattr(r, col) for r in rows if getattr(r, col) is not None])
        if values.size:
            q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
            out[col] = {
                "min": float(values.min()),
                "q1": q1,
                "median": median,
                "mean": float(values.mean()),
                "q3": q3,
                "max": float(values.max()),
                "sd": float(values.std(ddof=1)) if values.size > 1 else 0.0,
                "count": values.size,
            }
    return out


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ExperimentRow, ...]
    summary: dict[str, dict]  # summarize_rows(rows)

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows], "summary": self.summary}


# draws per replicate before a population counts as too concentrated for
# the suspect's type to go unseen
_CONDITIONING_ATTEMPTS = 10_000


@functools.lru_cache(maxsize=1)
def _census(population: IntegerPartition) -> tuple[PopulationVector, np.ndarray]:
    """The population vector and each rank's cumulative carrier count (read-only)."""
    ends = np.cumsum(population.sizes_desc())
    ends.flags.writeable = False
    return population_from_partition(population), ends


def _run_replicate(spec: ExperimentSpec, index: int, seed: np.random.SeedSequence) -> ExperimentRow:
    pop, ends = _census(spec.population)
    sample_seed, mh_seed = seed.spawn(2)
    rng = np.random.default_rng(sample_seed)
    for _ in range(_CONDITIONING_ATTEMPTS):
        # individuals by index, as choice over an array of their ranks draws them
        idx = rng.choice(spec.population.n, size=spec.sample_size, replace=False)
        drawn = np.searchsorted(ends, idx, side="right") + 1
        if drawn[-1] not in drawn[:-1]:
            break
    else:
        raise RuntimeError(
            f"rare-type conditioning failed in {_CONDITIONING_ATTEMPTS} attempts: "
            "population too concentrated"
        )
    options = CaseOptions(
        population=pop,
        matched_rank=int(drawn[-1]),
        mh=replace(spec.mh, seed=mh_seed),
        strict_support=spec.strict_support,
        small_n_threshold=0,
    )
    db_counts = np.unique(drawn[:-1], return_counts=True)[1]
    report = run_case(IntegerPartition.from_block_sizes(db_counts), options)
    return ExperimentRow(**vars(report), replicate=index)


def _worker_count(replicates: int) -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer >= 1, got {env!r}")
    elif hasattr(os, "sched_getaffinity"):
        # the CPUs this process may run on, fewer than os.cpu_count() under
        # taskset or a cpuset
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, replicates))


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the replicated comparison; rows come back in replicate order
    regardless of scheduling. Each process builds the census once (`_census`,
    cached) and draws individuals by index, so a task carries its spec, index and seed."""
    args = (repeat(spec), range(spec.replicates), spawn_seeds(spec.seed, spec.replicates))
    workers = _worker_count(spec.replicates)
    if workers == 1:
        rows = list(map(_run_replicate, *args))
    else:
        # imported here: loading concurrent.futures pulls in multiprocessing,
        # which the serial branch and run_case never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_replicate, *args))
    return ExperimentResult(rows=tuple(rows), summary=summarize_rows(rows))
