import csv
import json
import math
import os
import pickle
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from raretype import workbench
from raretype.lr import SADDLE_LOG10_BOUND, MhConfig, lr_empirical_bayes, saddle_true_lr
from raretype.mle import fit_mle
from raretype.partitions import IntegerPartition, reduce_sample, to_integer_partition
from raretype.pitman import PdParams, PopulationVector, crp_sample
from raretype.workbench import (
    DUTCH_FIXTURE_METADATA,
    CaseOptions,
    DuplicateColumnError,
    EmptyFileError,
    ExperimentRow,
    ExperimentSpec,
    MissingColumnError,
    ProfileParseError,
    RaggedRowError,
    _OUTPUT_COLUMNS,
    _as_db_partition,
    _worker_count,
    dutch_fixture,
    load_profiles,
    population_from_partition,
    run_case,
    run_experiment,
    summarize_rows,
)

from reference import crp_case, reference_load, replicate_draws


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
        cases = [
            ("x\ty\nonly_one\n", "3: expected 2 fields, found 1"),
            # the first offender in file order, not the first distinct line
            ("x\ty\n" * 3 + "u\tv\tw\nbad\nx\ty\nbad\nu\tv\tw\n", "5: expected 2 fields, found 3"),
            ("x\ty\n" * 3 + "".join(f"r{i}\n" for i in range(20)) * 2, "5: expected 2 fields, found 1"),
            ("x\ty\n\nx\ty\n", "3: expected 2 fields, found 0"),
            ("x\ty\nx\ty\tz\n", "3: expected 2 fields, found 3"),
        ]
        for body, where in cases:
            # LF alone takes the plain reader, CRLF the csv one
            for ending in ("\n", "\r\n"):
                path = write(tmp_path / "db.tsv", ("L1\tL2\n" + body).replace("\n", ending))
                for columns in ("all", ["L2"]):
                    with pytest.raises(RaggedRowError, match=rf"^{path}:{where}$"):
                        load_profiles(path, columns=columns)

    def test_width_one_ragged_rows(self, tmp_path):
        # at width 1 a blank line has one field fewer, not zero separators too many
        for body, where in (("x\n\nx\n", "3: expected 1 fields, found 0"),
                            ("x\nx\ty\n", "3: expected 1 fields, found 2")):
            for ending in ("\n", "\r\n"):
                path = write(tmp_path / "db.tsv", ("L1\n" + body).replace("\n", ending))
                with pytest.raises(RaggedRowError, match=rf"^{path}:{where}$"):
                    load_profiles(path)

    def test_csv_error_is_a_parse_error(self, tmp_path):
        # unquoted, the same field would take the plain reader, which has no limit
        path = write(tmp_path / "db.tsv", 'L1\nx\n"' + "y" * 140_000 + '"\n')
        with pytest.raises(ProfileParseError, match=r"db.tsv:3: field larger than field limit"):
            load_profiles(path)
        unquoted = write(tmp_path / "plain.tsv", "L1\nx\n" + "y" * 140_000 + "\n")
        assert load_profiles(unquoted).records == ("x", "y" * 140_000)

    def test_unit_separator_is_rejected(self, tmp_path):
        # joined with U+001F, these two distinct rows loaded as one record
        for ending in ("\n", "\r\n"):
            text = "L1\tL2\na\x1fb\tc\na\tb\x1fc\n".replace("\n", ending)
            path = write(tmp_path / "db.tsv", text)
            with pytest.raises(ProfileParseError, match=rf"^{path}:2: unit separator U\+001F"):
                load_profiles(path)
        # the first one names its line, whichever line ends precede it
        path = write(tmp_path / "db.csv", 'L1\rx\r\n"y\nz"\r\x1f\n')
        with pytest.raises(ProfileParseError, match=rf"^{path}:5: "):
            load_profiles(path, format="csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            load_profiles(write(tmp_path / "db.tsv", "L1\nx\n"), format="xlsx")


def load_outcome(load, path, format, columns):
    try:
        db = load(path, format, columns)
    except (ValueError, csv.Error) as exc:
        return type(exc), str(exc)
    return db if isinstance(db, tuple) else (db.records, db.source.columns)


NAMES = ["L1", "L2", "L3"]
FIELDS = ["x", "y", "7", " ", ""]


@st.composite
def profile_tables(draw):
    """A table text that is plain or holds quotes, CR, NUL or the join
    character, with blank, short and long rows."""
    plain = draw(st.booleans())
    alphabet = st.sampled_from("xy7 \t," + ("" if plain else '"\r\0\x1f\n'))
    field = st.one_of(st.sampled_from(FIELDS), st.text(alphabet, max_size=3))
    if not plain:
        quoted = st.text(alphabet, max_size=3).map(lambda s: '"' + s.replace('"', '""') + '"')
        field = st.one_of(field, quoted)
    names = st.sampled_from(NAMES)
    header = draw(
        st.one_of(
            st.permutations(NAMES),
            st.lists(names, max_size=3, unique=True),
            st.lists(names, max_size=3),
        )
    )
    width = st.integers(0, 4) if draw(st.booleans()) else st.just(len(header))
    rows = draw(st.lists(width.flatmap(lambda k: st.lists(field, min_size=k, max_size=k)), max_size=6))
    ending = st.just("\n") if plain else st.sampled_from(["\n", "\r\n", "\r"])
    delimiter = draw(st.sampled_from(["\t", ","]))
    text = ""
    for fields in [header, *rows]:
        text += delimiter.join(fields) + draw(ending)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    return text


# "L9" is in no header
columns_choices = st.one_of(
    st.just("all"),
    st.sampled_from(NAMES + ["L9"]),
    st.lists(st.sampled_from(NAMES * 4 + ["L9"]), min_size=1, max_size=3, unique=True),
    st.just([]),
)


@settings(max_examples=300, deadline=None)
@given(
    text=profile_tables(),
    format=st.sampled_from(["tsv", "csv"]),
    columns=columns_choices,
)
# csv reads an empty header line as no fields, where str.split gives [""]
@example(text="\nx\n", format="tsv", columns="all")
@example(text="\nx\n", format="csv", columns=["L1"])
@example(text="L1\n\n", format="tsv", columns="all")
@example(text="L1\tL2\nx\ty", format="tsv", columns=["L2", "L1"])
@example(text='L1,L2\r\n"a,b",c\r\n', format="csv", columns="all")
# the join character is rejected, not read as a field boundary
@example(text="L1\tL2\na\x1fb\tc\n", format="tsv", columns="all")
# csv rejects a NUL on Python 3.10 and reads it as a character from 3.11
@example(text="L1\nx\0y\n", format="tsv", columns="all")
def test_loader_agrees_with_the_csv_reader_loop(tmp_path_factory, text, format, columns):
    path = str(tmp_path_factory.getbasetemp() / "loader-agreement.txt")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    want = load_outcome(reference_load, path, format, columns)
    got = load_outcome(load_profiles, path, format, columns)
    if want[0] is csv.Error:
        assert got[0] is ProfileParseError
        assert got[1].startswith(f"{path}:") and got[1].endswith(f": {want[1]}")
    else:
        assert got == want


@st.composite
def counted_tables(draw):
    """A well-formed table with repeated rows, for either reader (LF
    takes the plain one, CRLF the csv one), and a nonempty column choice."""
    header = NAMES[: draw(st.integers(1, 3))]
    row = st.lists(st.sampled_from(["x", "y", "7", "xy"]), min_size=len(header), max_size=len(header))
    rows = draw(st.lists(row, min_size=1, max_size=40))
    delimiter = draw(st.sampled_from(["\t", ","]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = "".join(delimiter.join(fields) + ending for fields in [header, *rows])
    columns = draw(st.one_of(st.just("all"), st.lists(st.sampled_from(header), min_size=1, unique=True)))
    return text, "tsv" if delimiter == "\t" else "csv", columns


@settings(max_examples=150, deadline=None)
@given(table=counted_tables())
def test_case_partition_counts_the_records(tmp_path_factory, table):
    text, format, columns = table
    path = str(tmp_path_factory.getbasetemp() / "counted.txt")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    db = load_profiles(path, format, columns)
    assert _as_db_partition(db) == to_integer_partition(reduce_sample(db.records))


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


def _close(got, want):
    """Equal structures with keys in the same order, floats equal to
    1e-12 relative."""
    if isinstance(want, float) and isinstance(got, float):
        return got == pytest.approx(want, rel=1e-12, abs=0.0)
    if isinstance(want, dict):
        return isinstance(got, dict) and list(got) == list(want) and all(
            _close(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_close, got, want))
    return got == want


def past_budget_case(seed=3):
    """A database of 3000 from a census of 20,000: its classes need ~1e20
    states, past the exact pass's budget."""
    return crp_case(20_000, PdParams(0.51, 216.0), seed, 3000)


def regime_census():
    """A census of 20,000 at PD(0.5, 50) with its chain schedule; against it
    a database (1^8 2^30 3^30 4^30) lies past the exact budget with too few
    singletons for the saddle point's calibrated regime, and (1^30 2^30
    3^30 4^30) within that regime."""
    census = to_integer_partition(crp_sample(20_000, PdParams(0.5, 50.0), seed=3).to_set_partition())
    pop = population_from_partition(census)
    return pop, CaseOptions(population=pop, matched_rank=pop.m, mh=MhConfig(4000, 500, 50, seed=1))


class TestKnownPopulationRoute:
    def test_in_budget_experiment_keeps_the_chain(self, monkeypatch):
        # every Dutch-101 replicate fits the exact pass's budget, so each
        # keeps the chain and its SE: the dump is the one the chain-only
        # pipeline wrote (tests/data, to 1e-12 for platform rounding)
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        want = json.loads((Path(__file__).parent / "data" / "dutch_experiment_seed77.json").read_text())
        got = run_experiment(ExperimentSpec(dutch_fixture(), replicates=40, seed=77)).to_dict()
        assert _close(json.loads(json.dumps(got)), want)

    def test_in_budget_case_records_the_chain(self):
        pi = IntegerPartition((1, 2, 4, 8), (20, 6, 2, 1))
        options = CaseOptions(
            population=population_from_partition(dutch_fixture()),
            mh=MhConfig(iterations=4000, burn_in=500, thinning=50, seed=5),
        )
        report = run_case(pi, options)
        assert report.log10_lr_true_route == "mcmc"
        assert report.log10_lr_true_se > 0.0
        assert report.to_dict()["log10_lr_true_route"] == "mcmc"

    def test_past_budget_takes_the_saddle_point(self, monkeypatch):
        def no_chain(*args, **kwargs):
            raise AssertionError("the chain ran past the exact budget")

        monkeypatch.setattr(workbench, "lr_true_mh", no_chain)
        db, pop = past_budget_case()
        report = run_case(db, CaseOptions(population=pop, matched_rank=pop.m, mh=MhConfig(seed=1)))
        assert report.log10_lr_true_route == "saddle"
        assert report.log10_lr_true_se is None
        assert report.log10_lr_true == saddle_true_lr(db.add_singleton(), pop).log10_lr
        assert report.diff1 == report.log10_lr_eb - report.log10_lr_true
        assert report.diff2 == report.log10_lr_eb - report.log10_lr_freq
        (note,) = [n for n in report.notes if "saddle point" in n]
        assert "Newton steps" in note and f"error bound {SADDLE_LOG10_BOUND}" in note
        assert report.to_dict()["log10_lr_true_route"] == "saddle"

    def test_notes_in_order(self):
        # every note a case carries, in order: the fit's warning and
        # failure, the saddle route's, and both missing diffs
        pop, options = regime_census()
        for s1, n, route, saddle in (
            (8, 279, "mcmc", "saddle point outside its calibrated regime (s1 < 10 or correction > "
             "0.008 log10); known-population LR from the chain"),
            (30, 301, "saddle", "known-population LR by the saddle point: 4 Newton steps, 3 sweeps, "
             "max|g/r| {:.2g}; error bound 0.005 log10"),
        ):
            db = IntegerPartition((1, 2, 3, 4), (s1, 30, 30, 30))
            report = run_case(db, options).to_dict()
            fit = fit_mle(db.add_singleton())
            assert "of the boundary" in fit.diagnosis
            assert report["log10_lr_true_route"] == route
            assert report["notes"] == [
                f"n={n} is below 500; the Gaussian plug-in approximation is not validated at this scale",
                f"fit did not converge: {fit.diagnosis}",
                saddle.format(saddle_true_lr(db.add_singleton(), pop).max_rel_grad),
                "diff1 unavailable: needs both plug-in and known-population LRs",
                "diff2 unavailable: needs both plug-in and frequentist LRs",
            ]

    @pytest.mark.parametrize("rank", [0, 558, 400.0, 2.5, True, np.float64(400.0)])
    def test_bad_rank_fails_before_the_route(self, monkeypatch, rank):
        def no_route(*args, **kwargs):
            raise AssertionError("the known-population route ran")

        monkeypatch.setattr(workbench, "lr_true_mh", no_route)
        monkeypatch.setattr(workbench, "saddle_true_lr", no_route)
        options = CaseOptions(population=population_from_partition(dutch_fixture()), matched_rank=rank)
        with pytest.raises(ValueError, match="matched_rank must be an integer in 1..557"):
            run_case(IntegerPartition((1, 2, 4, 8), (20, 6, 2, 1)), options)

    def test_population_alone_gives_the_known_population_lr(self):
        # the default chain schedule stands by; the saddle route never reads it
        db, pop = past_budget_case()
        report = run_case(db, CaseOptions(population=pop))
        assert report.log10_lr_true_route == "saddle"
        assert report.log10_lr_true == saddle_true_lr(db.add_singleton(), pop).log10_lr
        assert report.diff1 == report.log10_lr_eb - report.log10_lr_true

    def test_tilt_without_finite_solution_falls_back_to_the_chain(self):
        # 300 blocks over 300 ranks: every rank is observed, so the tilt
        # that matches the counts lies at infinity; 101^3 states are past
        # the budget. Every assignment has the same singleton mass 100/300
        pop = PopulationVector(probs=(1 / 300,) * 300, pop_size=3000)
        db = IntegerPartition((1, 2, 3), (99, 100, 100))
        options = CaseOptions(population=pop, mh=MhConfig(iterations=2000, burn_in=500, thinning=50))
        report = run_case(db, options)
        assert report.log10_lr_true_route == "mcmc"
        assert report.log10_lr_true == pytest.approx(math.log10(300.0), abs=1e-12)
        assert math.isfinite(report.log10_lr_true_se)
        assert any("without a finite tilt" in note and "from the chain" in note for note in report.notes)


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
        for bad in ("0", "abc", "1.5", ""):
            monkeypatch.setenv("RARETYPE_THREADS", bad)
            with pytest.raises(ValueError, match=f"^RARETYPE_THREADS must be an integer >= 1, got {bad!r}$"):
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
        # the census is an integer partition; its vector form, pop_size and all, is not taken
        with pytest.raises(ValueError, match="IntegerPartition"):
            ExperimentSpec(population=population_from_partition(dutch_fixture()), sample_size=31)
        # a census past int64 failed only inside each replicate's draw
        with pytest.raises(ValueError, match=r"population size \d+ is past the int64 limit"):
            ExperimentSpec(IntegerPartition((1, 10**20), (5, 1)), sample_size=3, replicates=2)
        # a float sample_size failed deep inside rng.choice, and True ran one replicate
        for bad in ({"sample_size": 31.0}, {"replicates": True}, {"replicates": 2.0}):
            with pytest.raises(ValueError, match="must be integers"):
                ExperimentSpec(population=dutch_fixture(), **bad)
        assert ExperimentSpec(population=dutch_fixture(), sample_size=np.int64(31)).sample_size == 31

    def test_single_replicate_summary_equals_row(self, monkeypatch):
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        result = run_experiment(tiny_spec(replicates=1))
        (row,) = result.rows
        for col in ("log10_lr", "log10_lr_true", "log10_lr_freq", "diff1", "diff2"):
            stats = result.summary[col]
            value = getattr(row, col)
            assert stats["min"] == stats["max"] == stats["mean"] == value
            assert stats["sd"] == 0.0

    def test_summary_recomputable_from_rows(self, monkeypatch):
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        result = run_experiment(tiny_spec(replicates=3))
        assert summarize_rows(result.rows) == result.summary

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
        )
        with pytest.raises(RuntimeError, match="too concentrated"):
            run_experiment(spec)

    def test_census_too_large_to_list(self, monkeypatch):
        # 3e15 people, whose list would take 21.3 PiB, past the address
        # space; drawn by index, they need their 43 ranks' counts alone
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        census = IntegerPartition((1, 10**15), (40, 3))
        spec = ExperimentSpec(census, sample_size=11, replicates=2, seed=1, mh=MhConfig(300, 50, 5))
        rows = run_experiment(spec).rows
        assert len(rows) == 2
        assert all(math.isfinite(r.log10_lr_true) and math.isfinite(r.log10_lr_freq) for r in rows)

    def test_rows_are_run_case_reports(self, monkeypatch):
        # each row is run_case on that replicate's database, drawn here
        # again, with the replicate's chain seed and no small-n warning
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        spec = tiny_spec(replicates=3)
        rows = run_experiment(spec).rows
        for i, (row, (pop, db, suspect, mh_seed)) in enumerate(zip(rows, replicate_draws(spec))):
            options = CaseOptions(
                population=pop,
                matched_rank=suspect,
                mh=replace(spec.mh, seed=mh_seed),
                small_n_threshold=0,
            )
            report = run_case(db, options)
            # every report field, the known-population route included
            assert row == ExperimentRow(
                replicate=i, **{f.name: getattr(report, f.name) for f in fields(report)}
            )
            assert row.log10_lr == row.log10_lr_eb
            assert row.log10_lr_true_route == "mcmc"
        # replicate 1's fit fails, so both paths through run_case are compared
        assert [row.log10_lr is None for row in rows] == [False, True, False]

    def test_payload_keys_and_pickled_row(self, monkeypatch):
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        result = run_experiment(tiny_spec(replicates=3))
        payload = result.to_dict()
        assert [list(row) for row in payload["rows"]] == [[*_OUTPUT_COLUMNS, "notes"]] * 3
        assert list(payload["summary"]) == ["alpha_hat", "theta_hat", "log10_lr", "log10_lr_true",
                                            "log10_lr_freq", "diff1", "diff2"]
        for stats in payload["summary"].values():
            assert list(stats) == ["min", "q1", "median", "mean", "q3", "max", "sd", "count"]
            assert {type(v) for k, v in stats.items() if k != "count"} == {float}
            assert type(stats["count"]) is int
        # the pool sends rows back pickled
        for row in result.rows:
            assert pickle.loads(pickle.dumps(row)) == row
