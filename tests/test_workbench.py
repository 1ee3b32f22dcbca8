import math
import os
from dataclasses import replace

import numpy as np
import pytest

from raretype.lr import MhConfig
from raretype.mle import fit_mle
from raretype.partitions import IntegerPartition, reduce_sample
from raretype.pitman import PopulationVector
from raretype.rng import spawn_seeds
from raretype.workbench import (
    DUTCH_FIXTURE_METADATA,
    CaseOptions,
    DuplicateColumnError,
    EmptyFileError,
    ExperimentRow,
    ExperimentSpec,
    MissingColumnError,
    RaggedRowError,
    _worker_count,
    dutch_fixture,
    load_profiles,
    population_from_partition,
    run_case,
    run_experiment,
)


def write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadProfiles:
    def test_identical_rows_collapse(self, tmp_path):
        path = write(tmp_path / "db.tsv", "L1\tL2\n14\t30\n14\t30\n14\t30\n")
        db = load_profiles(path)
        assert db.n == 3
        assert reduce_sample(db.records).blocks == ((1, 2, 3),)

    def test_column_subset_changes_identity(self, tmp_path):
        path = write(tmp_path / "db.tsv", "L1\tL2\nA\tx\nA\ty\n")
        all_cols = load_profiles(path)
        just_l1 = load_profiles(path, columns=["L1"])
        assert len(set(all_cols.records)) == 2
        assert len(set(just_l1.records)) == 1

    def test_round_trip_preserves_equality_classes(self, tmp_path):
        rows = ["a\tb", "c\tb", "a\tb", "d\te"]
        path = write(tmp_path / "db.tsv", "L1\tL2\n" + "\n".join(rows) + "\n")
        db = load_profiles(path)
        again = load_profiles(write(tmp_path / "copy.tsv", "L1\tL2\n" + "\n".join(rows) + "\n"))
        assert db.n == again.n
        assert reduce_sample(db.records) == reduce_sample(again.records)

    def test_csv_format(self, tmp_path):
        path = write(tmp_path / "db.csv", "L1,L2\n1,2\n1,2\n")
        db = load_profiles(path, format="csv")
        assert db.n == 2
        assert db.records[0] == db.records[1]

    def test_missing_column(self, tmp_path):
        path = write(tmp_path / "db.tsv", "L1\tL2\nx\ty\n")
        with pytest.raises(MissingColumnError):
            load_profiles(path, columns=["L3"])

    def test_empty_column_selection(self, tmp_path):
        # zero fields once joined every record to "" and merged distinct profiles
        path = write(tmp_path / "db.tsv", "L1\tL2\nx\ty\nx\tz\nw\ty\n")
        with pytest.raises(MissingColumnError, match="no columns selected"):
            load_profiles(path, columns=[])

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path / "db.tsv", "L1\tL2\nx\ty\nonly_one\n")
        with pytest.raises(RaggedRowError):
            load_profiles(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFileError):
            load_profiles(write(tmp_path / "empty.tsv", ""))
        with pytest.raises(EmptyFileError):
            load_profiles(write(tmp_path / "header_only.tsv", "L1\tL2\n"))

    def test_explicit_full_header_equals_all(self, tmp_path):
        path = write(tmp_path / "db.tsv", "L1\tL2\tL3\na\tb\tc\nd\te\tf\n")
        assert load_profiles(path, columns=["L1", "L2", "L3"]).records == (
            load_profiles(path).records
        )

    def test_reordered_subset_joins_in_given_order(self, tmp_path):
        path = write(tmp_path / "db.tsv", "L1\tL2\tL3\na\tb\tc\nd\te\tf\n")
        db = load_profiles(path, columns=["L3", "L1"])
        assert db.records == ("c\x1fa", "f\x1fd")
        assert db.source.columns == ("L3", "L1")

    def test_bare_string_names_one_column(self, tmp_path):
        path = write(tmp_path / "db.tsv", "L1\tL2\nA\tx\nA\ty\n")
        assert load_profiles(path, columns="L1") == load_profiles(path, columns=["L1"])

    def test_missing_column_names_it(self, tmp_path):
        path = write(tmp_path / "db.tsv", "L1\tL2\nx\ty\n")
        with pytest.raises(MissingColumnError, match="column 'L3' not in header"):
            load_profiles(path, columns="L3")

    def test_repeated_header_name_is_rejected(self, tmp_path):
        # read by name, L1 L1 once loaded "a\tb" and "a\tc" as one type
        path = write(tmp_path / "db.tsv", "L1\tL1\tL2\na\tb\tx\na\tc\tx\n")
        for columns in ("all", ["L1"], ["L2"]):
            with pytest.raises(DuplicateColumnError, match="column 'L1' repeated in header"):
                load_profiles(path, columns=columns)

    def test_ragged_row_names_line_and_counts(self, tmp_path):
        path = write(tmp_path / "db.tsv", "L1\tL2\nx\ty\nonly_one\n")
        for columns in ("all", ["L2"]):
            with pytest.raises(RaggedRowError, match=r"db.tsv:3: expected 2 fields, found 1"):
                load_profiles(path, columns=columns)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            load_profiles(write(tmp_path / "db.tsv", "L1\nx\n"), format="xlsx")


class TestDutchFixture:
    def test_shape(self):
        pi = dutch_fixture()
        assert pi.num_size_classes == 28
        assert pi.k == 557
        assert pi.n == 2085
        assert pi.s1 == 356

    def test_metadata_records_both_sizes(self):
        assert DUTCH_FIXTURE_METADATA["reported_n"] == 2037
        assert DUTCH_FIXTURE_METADATA["vector_n"] == 2085


class TestPopulationFromPartition:
    def test_dutch(self):
        pop = population_from_partition(dutch_fixture())
        assert pop.m == 557
        assert pop.probs[0] == pytest.approx(174 / 2085)
        assert math.fsum(pop.probs) == pytest.approx(1.0, abs=1e-12)
        assert pop.pop_size == 2085

    def test_all_singletons_is_uniform(self):
        pop = population_from_partition(IntegerPartition((1,), (6,)))
        assert pop.probs == (1 / 6,) * 6

    def test_full_sample_recovers_partition(self):
        pi = IntegerPartition((1, 2, 4), (3, 2, 1))
        pop = population_from_partition(pi)
        counts = np.rint(pop.as_array() * pop.pop_size).astype(int)
        individuals = np.repeat(np.arange(1, pop.m + 1), counts)
        rng = np.random.default_rng(0)
        drawn = rng.choice(individuals, size=pi.n, replace=False)
        rebuilt = IntegerPartition.from_block_sizes(np.bincount(drawn)[np.bincount(drawn) > 0])
        assert rebuilt == pi


class TestRunCase:
    def test_singleton_database_reports_diagnosis(self):
        report = run_case(IntegerPartition((1,), (1,)))
        assert report.log10_lr_eb is None
        assert any("did not converge" in note for note in report.notes)

    def test_fixture_eb_path_matches_formula(self):
        from raretype.lr import lr_empirical_bayes
        from raretype.mle import fit_mle

        pi = dutch_fixture()
        report = run_case(pi)
        fit = fit_mle(pi.add_singleton())
        expected = math.log10(lr_empirical_bayes(pi.n, fit.params()))
        assert report.log10_lr_eb == pytest.approx(expected, abs=1e-12)

    def test_row_permutation_invariance(self, tmp_path):
        rows = ["a", "b", "a", "c", "b", "b"]
        p1 = write(tmp_path / "one.tsv", "L\n" + "\n".join(rows) + "\n")
        p2 = write(tmp_path / "two.tsv", "L\n" + "\n".join(reversed(rows)) + "\n")
        assert run_case(load_profiles(p1)) == run_case(load_profiles(p2))

    def test_full_report_with_population(self):
        pi = IntegerPartition((1, 2, 4, 8), (20, 6, 2, 1))
        pop = population_from_partition(dutch_fixture())
        options = CaseOptions(
            population=pop,
            matched_rank=300,
            mh=MhConfig(iterations=4000, burn_in=500, thinning=50, seed=5),
        )
        report = run_case(pi, options)
        assert report.log10_lr_eb is not None
        assert report.log10_lr_true is not None
        assert report.log10_lr_freq is not None
        assert report.diff1 == pytest.approx(report.log10_lr_eb - report.log10_lr_true)
        assert report.diff2 == pytest.approx(report.log10_lr_eb - report.log10_lr_freq)

    def test_report_carries_the_fit(self):
        pi = IntegerPartition((1, 2, 4, 8), (20, 6, 2, 1))
        fit = fit_mle(pi.add_singleton())
        report = run_case(pi)
        assert (report.alpha_hat, report.theta_hat) == (fit.alpha_hat, fit.theta_hat)

    def test_failed_fit_keeps_the_population_lrs(self):
        # the fit ends at the alpha -> 0 boundary, but the known-population
        # and frequentist LRs need no fit
        pop = population_from_partition(dutch_fixture())
        options = CaseOptions(population=pop, matched_rank=400, mh=MhConfig(seed=1))
        report = run_case(IntegerPartition((1, 2), (120, 10)), options)
        assert any("of the boundary" in note for note in report.notes)
        assert report.alpha_hat is report.theta_hat is report.log10_lr_eb is None
        assert report.log10_lr_true is not None
        assert report.log10_lr_freq == pytest.approx(-math.log10(pop.probs[399]), abs=1e-12)
        assert report.diff1 is report.diff2 is None


class TestWorkerCount:
    def test_counts_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("RARETYPE_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert _worker_count(96) == 2
        assert _worker_count(1) == 1

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("RARETYPE_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert _worker_count(96) == 5

    def test_env_var_overrides_affinity(self, monkeypatch):
        monkeypatch.setenv("RARETYPE_THREADS", "3")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _worker_count(96) == 3
        monkeypatch.setenv("RARETYPE_THREADS", "0")
        with pytest.raises(ValueError, match="RARETYPE_THREADS"):
            _worker_count(96)


def tiny_spec(replicates=2, seed=99):
    return ExperimentSpec(
        population=dutch_fixture(),
        sample_size=31,
        replicates=replicates,
        seed=seed,
        mh=MhConfig(iterations=3000, burn_in=500, thinning=50),
    )


class TestExperiment:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(population=dutch_fixture(), sample_size=1)
        with pytest.raises(ValueError):
            ExperimentSpec(population=dutch_fixture(), replicates=0)
        with pytest.raises(ValueError):
            ExperimentSpec(population=IntegerPartition((1,), (5,)), sample_size=10)
        with pytest.raises(ValueError):
            ExperimentSpec(population=PopulationVector(probs=(0.5, 0.5)), sample_size=2)

    def test_single_replicate_summary_equals_row(self, monkeypatch):
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        result = run_experiment(tiny_spec(replicates=1))
        (row,) = result.rows
        for col in ("log10_lr", "log10_lr_true", "log10_lr_freq", "diff1", "diff2"):
            stats = result.summary[col]
            value = getattr(row, col)
            assert stats.minimum == stats.maximum == stats.mean == value
            assert stats.sd == 0.0

    def test_summary_recomputable_from_rows(self, monkeypatch):
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        result = run_experiment(tiny_spec(replicates=3))
        assert result.recompute_summary() == result.summary

    def test_deterministic_and_parallel_consistent(self, monkeypatch):
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        serial = run_experiment(tiny_spec(replicates=3))
        monkeypatch.setenv("RARETYPE_THREADS", "3")
        parallel = run_experiment(tiny_spec(replicates=3))
        assert serial == parallel

    def test_rare_type_conditioning_holds(self, monkeypatch):
        # the suspect's type is by construction unseen, so every replicate
        # fits on a partition with an extra singleton: s1 >= 1
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        result = run_experiment(tiny_spec(replicates=2))
        for row in result.rows:
            assert row.log10_lr_true is not None
            assert row.log10_lr_freq is not None

    def test_conditioning_failure_raises(self, monkeypatch):
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        # single-type population: the suspect always matches the database
        spec = ExperimentSpec(
            population=IntegerPartition((50,), (1,)),
            sample_size=3,
            replicates=1,
            seed=0,
            mh=MhConfig(iterations=1000, burn_in=100, thinning=10),
            max_conditioning_attempts=50,
        )
        with pytest.raises(RuntimeError, match="too concentrated"):
            run_experiment(spec)

    def test_rows_are_run_case_reports(self, monkeypatch):
        # each row is run_case on that replicate's database, drawn here
        # again, with the replicate's chain seed and no small-n warning
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        spec = tiny_spec(replicates=3)
        pop = population_from_partition(spec.population)
        individuals = np.repeat(np.arange(1, pop.m + 1), spec.population.sizes_desc())
        rows = run_experiment(spec).rows
        for i, (row, seed) in enumerate(zip(rows, spawn_seeds(spec.seed, spec.replicates))):
            sample_seed, mh_seed = seed.spawn(2)
            rng = np.random.default_rng(sample_seed)
            while True:
                drawn = rng.choice(individuals, size=spec.sample_size, replace=False)
                if drawn[-1] not in drawn[:-1]:
                    break
            sizes = np.bincount(drawn[:-1])
            options = CaseOptions(
                population=pop,
                matched_rank=int(drawn[-1]),
                mh=replace(spec.mh, seed=mh_seed),
                small_n_threshold=0,
            )
            report = run_case(IntegerPartition.from_block_sizes(sizes[sizes > 0]), options)
            assert row == ExperimentRow(
                replicate=i,
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
        # replicate 1's fit fails, so both paths through run_case are compared
        assert [row.log10_lr is None for row in rows] == [False, True, False]

    def test_rows_csv_shape(self, monkeypatch, tmp_path):
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        result = run_experiment(tiny_spec(replicates=2))
        out = tmp_path / "rows.csv"
        with out.open("w") as fh:
            result.write_rows_csv(fh)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("replicate,alpha_hat,theta_hat,log10_lr")
        assert len(lines) == 3
