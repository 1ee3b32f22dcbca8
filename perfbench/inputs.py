"""Seeded inputs owned by the benchmark.

Every input is a pure function of the workload seed and is built with
numpy alone, so a change inside the package (its samplers in particular)
cannot change what the package is asked to process.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

SAMPLE_SIZE = 101  # validation: database of 100 plus the suspect
CENSUS_SIZE = 100_000
CENSUS_ALPHA = 0.51
CENSUS_THETA = 216.0
DATABASE_SIZE = 18_925  # the paper's database size
STICKS = 400_000  # truncation of the census stick-breaking
ALLELE_COLUMNS = ("DYS19", "DYS389I", "DYS389II", "DYS390", "DYS391", "DYS392")
ALLELE_BASE = 10  # alleles 10..19 per column; 10**6 distinct profiles


def replicate_databases(seed: int, replicates: int, counts: np.ndarray):
    """Re-draw the databases ``run_experiment`` samples for one master seed.

    ``ExperimentSpec`` documents that each replicate's seed is split off
    the master seed; the replicate spends the first of two children on its
    draw, without replacement, of a database plus a suspect whose type is
    unseen in the database. Returns, per replicate, the suspect-augmented
    block sizes (a, r) and the suspect's 1-based rank.
    """
    out = []
    individuals = np.repeat(np.arange(1, counts.size + 1), counts)
    for child in np.random.SeedSequence(seed).spawn(replicates):
        rng = np.random.default_rng(child.spawn(2)[0])
        while True:
            drawn = rng.choice(individuals, size=SAMPLE_SIZE, replace=False)
            suspect = int(drawn[-1])
            if suspect not in drawn[:-1]:
                break
        sizes = np.bincount(drawn[:-1])
        sizes = np.append(sizes[sizes > 0], 1)
        a, r = np.unique(sizes, return_counts=True)
        out.append((tuple(int(x) for x in a), tuple(int(x) for x in r), suspect))
    return out


@dataclass(frozen=True)
class Census:
    """A finite population: ``type_of[person]`` is a 0-based type rank,
    types ranked by carrier count (largest first)."""

    counts: np.ndarray
    type_of: np.ndarray

    @property
    def size(self) -> int:
        return int(self.type_of.size)


def make_census(seed: int) -> Census:
    """CENSUS_SIZE people under PD(alpha, theta): truncated stick-breaking
    V_i ~ Beta(1 - alpha, theta + i alpha), then one multinomial draw."""
    rng = np.random.default_rng([seed, 1])
    i = np.arange(1, STICKS + 1, dtype=float)
    v = rng.beta(1.0 - CENSUS_ALPHA, CENSUS_THETA + i * CENSUS_ALPHA)
    w = v * np.concatenate(([1.0], np.cumprod(1.0 - v)[:-1]))
    counts = rng.multinomial(CENSUS_SIZE, w / w.sum())
    counts = np.sort(counts[counts > 0])[::-1]
    type_of = np.repeat(np.arange(counts.size), counts)
    rng.shuffle(type_of)
    return Census(counts=counts, type_of=type_of)


@dataclass(frozen=True)
class Case:
    path: str
    suspect_rank: int  # 1-based census rank of the suspect's type
    db_sizes: np.ndarray  # block sizes of the database


def _profile_strings(types: np.ndarray) -> list[str]:
    """A distinct allele profile per type: its base-10 digits, one per column."""
    cols = []
    rest = types.copy()
    for _ in ALLELE_COLUMNS:
        cols.append((rest % ALLELE_BASE + ALLELE_BASE).astype(str))
        rest //= ALLELE_BASE
    return ["\t".join(row) for row in zip(*cols)]


def make_case(census: Census, rng: np.random.Generator, path: str) -> Case:
    """Draw a database without replacement plus a suspect whose type the
    database lacks, and write the database as a profile TSV."""
    people = rng.permutation(census.size)
    db_types = census.type_of[people[:DATABASE_SIZE]]
    seen = np.zeros(census.counts.size, dtype=bool)
    seen[db_types] = True
    rest = census.type_of[people[DATABASE_SIZE:]]
    suspect_type = int(rest[np.flatnonzero(~seen[rest])[0]])
    with open(path, "w") as fh:
        fh.write("\t".join(ALLELE_COLUMNS) + "\n")
        fh.write("\n".join(_profile_strings(db_types)) + "\n")
    sizes = np.bincount(db_types)
    return Case(path=path, suspect_rank=suspect_type + 1, db_sizes=sizes[sizes > 0])


class CaseSource:
    """Yields fresh cases, so no two cases share a database; files live
    under ``workdir``."""

    def __init__(self, census: Census, seed: int, workdir: str):
        self.census = census
        self.rng = np.random.default_rng([seed, 2])
        self.workdir = workdir
        self.made = 0

    def next(self) -> Case:
        path = os.path.join(self.workdir, f"case{self.made:04d}.tsv")
        self.made += 1
        return make_case(self.census, self.rng, path)


def expected_tables(n: int, alpha: float, theta: float) -> float:
    """E[K_n] under PD(alpha, theta):
    (theta/alpha) * ((theta+alpha)_n / (theta)_n - 1), rising factorials."""
    log_ratio = (
        math.lgamma(theta + alpha + n)
        - math.lgamma(theta + alpha)
        - math.lgamma(theta + n)
        + math.lgamma(theta)
    )
    return theta / alpha * (math.exp(log_ratio) - 1.0)
