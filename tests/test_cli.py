import argparse
import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from raretype.cli import _build_parser, _mh_config, cli_dispatch
from raretype.lr import MhConfig
from raretype.workbench import dutch_fixture


def run_cli(argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "raretype", *argv],
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestDispatch:
    def test_lr_reference_value(self, capsys):
        code = cli_dispatch(["lr", "--n", "18925", "--alpha", "0.51", "--theta", "216"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["log10_lr"] == pytest.approx(4.5918, abs=0.005)

    def test_lr_csv_format(self, capsys):
        code = cli_dispatch(
            ["lr", "--n", "100", "--alpha", "0.5", "--theta", "10", "--format", "csv", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "lr,log10_lr"
        assert float(out[1].split(",")[0]) == pytest.approx(111 / 0.5)

    def test_fixture_payload(self, capsys):
        assert cli_dispatch(["fixture", "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["a"][:3] == [1, 2, 3]
        assert payload["r"][0] == 356
        assert sum(a * r for a, r in zip(payload["a"], payload["r"])) == 2085

    def test_fixture_with_meta(self, capsys):
        assert cli_dispatch(["fixture", "--with-meta", "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metadata"]["reported_n"] == 2037

    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self, capsys):
        assert cli_dispatch(["lr", "--n", "5", "--alpha", "0.5", "--theta", "1", "--wat"]) == 2
        capsys.readouterr()

    def test_missing_file_exits_2(self, capsys):
        assert cli_dispatch(["fit", "--partition", "/nonexistent.json", "--quiet"]) == 2
        capsys.readouterr()

    def test_invalid_params_exit_2(self, capsys):
        assert cli_dispatch(["lr", "--n", "10", "--alpha", "1.5", "--theta", "1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("width", ["nan", "inf"])
    def test_non_finite_half_width_exits_2(self, capsys, inputs, width):
        # the grid took it, and the surface then found no point in the domain
        argv = ["surface", "--partition", inputs["dutch"], "--half-width-sd", width, "--quiet"]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: half_width_sd must be finite and positive, got {float(width)}\n"

    @pytest.mark.parametrize(
        "command, flag, payload",
        [
            ("fit", "--partition", "5"),
            ("fit", "--partition", '{"a": 1, "r": 1}'),
            ("fit", "--partition", '{"n": 2, "blocks": 7}'),
            ("freq-lr", "--population", '{"probs": 5, "pop_size": 3}'),
            # JSON booleans are not numbers
            ("fit", "--partition", '{"a": [true], "r": [5]}'),
            ("freq-lr", "--population", '{"probs": [true], "pop_size": 3}'),
            ("fit", "--partition", '{"n": true, "blocks": [[1]]}'),
            ("fit", "--partition", None),  # a directory, not a file
        ],
    )
    def test_malformed_input_exits_2(self, capsys, tmp_path, command, flag, payload):
        path = tmp_path / "input.json"
        if payload is None:
            path.mkdir()
        else:
            path.write_text(payload)
        argv = [command, flag, str(path), "--quiet"]
        if command == "freq-lr":
            argv += ["--rank", "1"]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert any(line.startswith("error:") for line in err.splitlines())
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["freq-lr", "true-lr"])
    def test_nan_population_exits_2(self, capsys, tmp_path, command):
        # json reads NaN, and every comparison with NaN is False: freq-lr
        # printed "lr": NaN and true-lr exited 3 as infeasible
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"a": [1], "r": [2]}))
        pop = tmp_path / "pop.json"
        pop.write_text('{"probs": [0.5, NaN, 0.5], "pop_size": 10}')
        extra = ["--rank", "2"] if command == "freq-lr" else ["--partition", str(part), "--seed", "1"]
        assert cli_dispatch([command, "--population", str(pop), "--quiet", *extra]) == 2
        assert "population frequencies must be finite" in capsys.readouterr().err

    def test_one_retained_sample_exits_2(self, capsys, inputs):
        # a single retained sample would report a NaN error bar
        code = cli_dispatch(
            [
                "true-lr", "--partition", inputs["db"], "--population", inputs["pop"],
                "--iterations", "1000", "--burn-in", "0", "--thinning", "1000",
                "--seed", "1", "--quiet",
            ]
        )
        assert code == 2
        assert "fewer than 2 retained samples" in capsys.readouterr().err

    def test_fit_non_convergence_exits_3(self, capsys, tmp_path):
        # one block, and one pair among 30,000 singletons, where theta diverges
        for sizes in ({"a": [4], "r": [1]}, {"a": [1, 2], "r": [30000, 1]}):
            path = tmp_path / "part.json"
            path.write_text(json.dumps(sizes))
            assert cli_dispatch(["fit", "--partition", str(path), "--quiet"]) == 3
            payload = json.loads(capsys.readouterr().out)
            assert payload["converged"] is False
        assert payload["diagnosis"] == "theta diverged: no interior optimum"

    def test_unallocatable_block_exits_2(self, capsys, tmp_path):
        # the terms of a 10^15 block exceed the address space, so the
        # allocation fails without touching memory; a 10^20 block is past
        # int64 in the fit and the surface, and the experiment's census
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"a": [1, 10**15], "r": [1, 1]}))
        past = tmp_path / "past_int64.json"
        past.write_text(json.dumps({"a": [1, 10**20], "r": [5, 1]}))
        for argv in (
            ["fit", "--partition", huge],
            ["fit", "--partition", past],
            ["surface", "--partition", past],
            ["experiment", "--population-partition", past, "--replicates", "1", "--sample-size", "3"],
        ):
            assert cli_dispatch([*map(str, argv), "--quiet"]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, err
        # the experiment refuses the census itself, naming the limit
        assert "int64" in err, err

    def test_reduce_and_fit_pipeline(self, capsys, tmp_path):
        profiles = tmp_path / "profiles.tsv"
        rows = ["x"] * 6 + ["y"] * 3 + ["z", "w", "v", "u", "t", "s", "r", "q"]
        profiles.write_text("L\n" + "\n".join(rows) + "\n")
        part_path = tmp_path / "part.json"
        code = cli_dispatch(
            ["reduce", "--input", str(profiles), "--integer", "--out", str(part_path), "--quiet"]
        )
        assert code == 0
        part = json.loads(part_path.read_text())
        assert part == {"a": [1, 3, 6], "r": [8, 1, 1]}
        code = cli_dispatch(["fit", "--partition", str(part_path), "--quiet"])
        assert code in (0, 3)  # tiny sample may legitimately sit on a boundary
        capsys.readouterr()

    def test_fit_of_the_set_form_is_the_fit_of_the_integer_form(self, capsys, tmp_path):
        profiles = tmp_path / "profiles.tsv"
        sizes = [1] * 20 + [2] * 6 + [3] * 3 + [5, 8]
        rows = [f"t{j}" for j, size in enumerate(sizes) for _ in range(size)]
        profiles.write_text("L\n" + "\n".join(rows[::2] + rows[1::2]) + "\n")
        fits = []
        for form in ([], ["--integer"]):
            part_path = tmp_path / f"part{len(form)}.json"
            argv = ["reduce", "--input", str(profiles), *form, "--out", str(part_path), "--quiet"]
            assert cli_dispatch(argv) == 0
            code = cli_dispatch(["fit", "--partition", str(part_path), "--quiet"])
            fits.append((code, capsys.readouterr().out))
        assert "blocks" in json.loads((tmp_path / "part0.json").read_text())
        assert fits[0] == fits[1]
        assert fits[0][0] == 0

    def test_repeated_header_name_exits_2(self, capsys, tmp_path):
        profiles = tmp_path / "profiles.tsv"
        profiles.write_text("L1\tL1\na\tb\na\tc\n")
        assert cli_dispatch(["reduce", "--input", str(profiles), "--quiet"]) == 2
        assert "repeated in header" in capsys.readouterr().err

    def test_unit_separator_exits_2(self, capsys, tmp_path):
        # these two distinct rows once reduced to one type of size 2
        profiles = tmp_path / "profiles.tsv"
        profiles.write_text("L1\tL2\na\x1fb\tc\na\tb\x1fc\n")
        assert cli_dispatch(["reduce", "--input", str(profiles), "--integer", "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {profiles}:2: unit separator U+001F")

    def test_empty_column_selection_exits_2(self, capsys, tmp_path):
        profiles = tmp_path / "profiles.tsv"
        profiles.write_text("L1\tL2\nx\ty\nx\tz\nw\ty\n")
        argv = ["reduce", "--input", str(profiles), "--columns", ",", "--quiet"]
        assert cli_dispatch(argv) == 2
        assert "no columns selected" in capsys.readouterr().err

    def test_csv_parse_error_exits_2(self, capsys, tmp_path):
        # quoted, so csv reads it; a plain text has no field size limit
        profiles = tmp_path / "profiles.tsv"
        profiles.write_text('L1\n"' + "x" * 140_000 + '"\n')
        assert cli_dispatch(["reduce", "--input", str(profiles), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {profiles}:2: field larger than field limit")

    def test_freq_lr(self, capsys, tmp_path):
        pop = tmp_path / "pop.json"
        pop.write_text(json.dumps({"probs": [0.5, 0.3, 0.2], "pop_size": 10}))
        assert cli_dispatch(["freq-lr", "--population", str(pop), "--rank", "3", "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lr"] == pytest.approx(5.0)

    def test_true_lr_infeasible_exits_3(self, capsys, tmp_path):
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"a": [1], "r": [5]}))
        pop = tmp_path / "pop.json"
        pop.write_text(json.dumps({"probs": [0.5, 0.5], "pop_size": 10}))
        code = cli_dispatch(
            [
                "true-lr", "--partition", str(part), "--population", str(pop),
                "--iterations", "1000", "--burn-in", "100", "--thinning", "10",
                "--seed", "1", "--quiet",
            ]
        )
        assert code == 3
        capsys.readouterr()

    def test_true_lr_trace(self, capsys, tmp_path):
        # the Dutch fixture against a census that doubles each of its types
        # and adds 200 types carried once, so the singleton mass moves
        dutch, pop, trace = tmp_path / "dutch.json", tmp_path / "pop.json", tmp_path / "trace.csv"
        assert cli_dispatch(["fixture", "--quiet", "--out", str(dutch)]) == 0
        fixture = json.loads(dutch.read_text())
        doubled = [2 * a for a, r in zip(fixture["a"], fixture["r"]) for _ in range(r)]
        counts = sorted(doubled + [1] * 200, reverse=True)
        pop.write_text(json.dumps({"probs": [c / sum(counts) for c in counts], "pop_size": sum(counts)}))
        capsys.readouterr()
        code = cli_dispatch(
            [
                "true-lr", "--partition", str(dutch), "--population", str(pop),
                "--iterations", "3000", "--burn-in", "500", "--thinning", "100",
                "--seed", "1", "--trace", str(trace), "--quiet",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        header, *rows = trace.read_text().splitlines()
        assert header == "step,singleton_mass"
        steps, masses = zip(*(row.split(",") for row in rows))
        assert [int(t) for t in steps] == list(range(600, 3001, 100))
        masses = [float(m) for m in masses]
        assert len(set(masses)) > 1
        assert float(np.mean(masses)) == payload["mean_singleton_mass"]

    def test_true_lr_constant_chain_has_no_error_bar(self, capsys, tmp_path):
        # the fixture's own census supports one assignment only: every
        # proposal is rejected and every retained mass is the same
        dutch = tmp_path / "dutch.json"
        assert cli_dispatch(["fixture", "--quiet", "--out", str(dutch)]) == 0
        code = cli_dispatch(
            [
                "true-lr", "--partition", str(dutch), "--population-from-partition", str(dutch),
                "--iterations", "5000", "--burn-in", "1000", "--thinning", "100",
                "--seed", "1", "--quiet",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["acceptance_rate"] == 0.0
        assert payload["stderr"] == 0.0 and payload["log10_stderr"] == 0.0
        assert payload["lr"] == 356 / payload["mean_singleton_mass"]

    def test_surface_csv(self, capsys, inputs):
        code = cli_dispatch(
            [
                "surface", "--partition", inputs["part"], "--format", "csv",
                "--n-phi", "5", "--n-theta", "5", "--quiet",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "phi,theta,rel_loglik,gauss_overlay,valid"
        assert len(lines) == 26


def _run(capsys, argv, fmt):
    code = cli_dispatch([*argv, "--format", fmt, "--quiet"])
    out, err = capsys.readouterr()
    return code, out, err


def _cell(v):
    # the CSV rule: None is empty, a bool is JSON's true/false, anything else its repr
    return "" if v is None else json.dumps(v) if isinstance(v, bool) else repr(v)


@pytest.fixture
def inputs(tmp_path):
    files = {
        "part": {"a": [1, 2, 4, 8], "r": [20, 6, 2, 1]},
        "dutch": dutch_fixture().to_dict(),
        "db": {"a": [1, 2], "r": [3, 2]},
        "pop": {"probs": [0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05], "pop_size": 200},
    }
    paths = {}
    for name, payload in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    paths["profiles"] = tmp_path / "profiles.tsv"
    paths["profiles"].write_text("L1\tL2\na\tb\nc\td\nc\td\ne\tf\n")
    return {name: str(path) for name, path in paths.items()}


TRUE_LR = ["true-lr", "--partition", "{db}", "--population", "{pop}", "--iterations", "5000",
           "--burn-in", "500", "--thinning", "50", "--seed", "11"]
# every subcommand, and whether its payload nests lists or dicts
SUBCOMMANDS = [
    (["reduce", "--input", "{profiles}", "--integer"], True),
    (["fit", "--partition", "{part}"], True),
    (["fixture"], True),
    (["lr", "--n", "100", "--alpha", "0.5", "--theta", "10"], False),
    (TRUE_LR, False),
    (["freq-lr", "--population", "{pop}", "--rank", "3"], False),
    (["simulate", "--mode", "gem", "--m", "40", "--alpha", "0.5", "--theta", "10", "--seed", "3",
      "--powerlaw"], False),
    # 6 sd wide, so some points are invalid and write an empty rel_loglik
    (["surface", "--partition", "{dutch}", "--n-phi", "21", "--n-theta", "21",
      "--half-width-sd", "6"], False),
    (["experiment", "--sample-size", "31", "--replicates", "2", "--seed", "99",
      "--iterations", "3000", "--burn-in", "500", "--thinning", "50"], False),
]
EXPERIMENT_COLUMNS = [
    "replicate", "alpha_hat", "theta_hat", "log10_lr", "log10_lr_true",
    "log10_lr_freq", "diff1", "diff2", "log10_lr_true_se",
]


class TestCsvPayloads:
    def test_every_subcommand_is_covered(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(argv[0] for argv, _ in SUBCOMMANDS) == sorted(sub.choices)

    @pytest.mark.parametrize("argv, json_only", SUBCOMMANDS, ids=[a[0] for a, _ in SUBCOMMANDS])
    def test_csv_rows_are_the_json_records(self, capsys, monkeypatch, inputs, argv, json_only):
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        argv = [arg.format(**inputs) for arg in argv]
        code, out, _ = _run(capsys, argv, "json")
        assert code == 0
        payload = json.loads(out)
        code, out, err = _run(capsys, argv, "csv")
        if json_only:
            assert (code, out) == (2, "")
            assert err == f"error: {argv[0]} output is JSON only\n"
            return
        assert code == 0
        if isinstance(payload, list):
            records = payload
        else:
            records = payload.get("rows", [payload])
        # experiment's CSV rows leave out their notes
        records = [{k: v for k, v in rec.items() if k != "notes"} for rec in records]
        header, *lines = csv.reader(out.splitlines())
        assert header == list(records[0])
        assert lines == [[_cell(v) for v in rec.values()] for rec in records]

    def test_true_lr_csv_header_is_the_json_keys(self, capsys, inputs):
        argv = [arg.format(**inputs) for arg in TRUE_LR]
        keys = list(json.loads(_run(capsys, argv, "json")[1]))
        header = _run(capsys, argv, "csv")[1].splitlines()[0]
        assert header.split(",") == keys
        assert "mean_singleton_mass" in keys

    def test_surface_csv_shape(self, capsys, inputs):
        argv = ["surface", "--partition", inputs["dutch"], "--n-phi", "5", "--n-theta", "5",
                "--half-width-sd", "1.0"]
        rows = json.loads(_run(capsys, argv, "json")[1])["rows"]
        header, *lines = csv.reader(_run(capsys, argv, "csv")[1].splitlines())
        assert header == ["phi", "theta", "rel_loglik", "gauss_overlay", "valid"]
        assert len(lines) == len(rows) == 25
        for line, row in zip(lines, rows):
            assert line == [_cell(row[col]) for col in header]

    def test_experiment_rows_csv_shape(self, capsys, monkeypatch):
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        argv = ["experiment", "--sample-size", "31", "--replicates", "2", "--seed", "99",
                "--iterations", "3000", "--burn-in", "500", "--thinning", "50"]
        dumped = json.loads(_run(capsys, argv, "json")[1])["rows"]
        header, *lines = csv.reader(_run(capsys, argv, "csv")[1].splitlines())
        assert header == EXPERIMENT_COLUMNS
        assert len(lines) == len(dumped) == 2
        for line, row in zip(lines, dumped):
            assert list(row) == EXPERIMENT_COLUMNS + ["notes"]
            assert line == ["" if row[col] is None else repr(row[col]) for col in EXPERIMENT_COLUMNS]


@pytest.mark.slow
class TestSubprocessDeterminism:
    def test_simulate_crp_byte_identical(self):
        argv = ["simulate", "--mode", "crp", "--n", "60", "--alpha", "0.62",
                "--theta", "22", "--seed", "7", "--format", "csv", "--quiet"]
        a = run_cli(argv)
        b = run_cli(argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout and a.stdout

    def test_simulate_gem_byte_identical(self):
        argv = ["simulate", "--mode", "gem", "--m", "40", "--alpha", "0.5",
                "--theta", "10", "--seed", "3", "--powerlaw", "--format", "csv", "--quiet"]
        a = run_cli(argv)
        b = run_cli(argv)
        assert a.returncode == 0
        assert a.stdout == b.stdout

    def test_true_lr_byte_identical(self, inputs):
        argv = ["true-lr", "--partition", inputs["db"], "--population", inputs["pop"],
                "--iterations", "5000", "--burn-in", "500", "--thinning", "50",
                "--seed", "11", "--quiet"]
        a = run_cli(argv)
        b = run_cli(argv)
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout


@pytest.mark.parametrize("argv", [["true-lr", "--partition", "p.json"], ["experiment"]])
def test_chain_option_defaults_are_the_config_defaults(argv):
    cfg = _mh_config(_build_parser().parse_args(argv))
    defaults = MhConfig()
    assert (cfg.iterations, cfg.burn_in, cfg.thinning) == (
        defaults.iterations,
        defaults.burn_in,
        defaults.thinning,
    )


class TestStrictSupport:
    """--strict-support reaches the census caps of both commands that take it."""

    def test_true_lr_on_the_dutch_census_against_itself(self, inputs, capsys):
        argv = ["true-lr", "--partition", inputs["dutch"], "--population-from-partition", inputs["dutch"],
                "--quiet"]
        assert cli_dispatch(argv) == 0
        capsys.readouterr()
        # the strict rule forbids a type seen as often as it occurs: the
        # block of 174 has no rank to go on
        assert cli_dispatch([*argv, "--strict-support"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: class of block size 174 needs 1 ranks") and "only 0 available" in err

    def test_experiment_output_changes(self, capsys, monkeypatch):
        monkeypatch.setenv("RARETYPE_THREADS", "1")
        argv = ["experiment", "--replicates", "2", "--sample-size", "31", "--seed", "1", "--quiet"]
        outputs = []
        for extra in ([], ["--strict-support"]):
            assert cli_dispatch([*argv, *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1]


def test_lr_loads_neither_the_fit_nor_the_workbench():
    code = (
        "import json, sys; from raretype.cli import cli_dispatch; "
        "code = cli_dispatch(['lr', '--n', '18925', '--alpha', '0.51', '--theta', '216', '--quiet']); "
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('raretype.') "
        "or m == 'concurrent.futures')]))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    code, loaded = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == ["raretype.cli", "raretype.lr", "raretype.partitions", "raretype.pitman", "raretype.rng"]


def test_fit_loads_no_lr(tmp_path):
    # the chain options take their defaults from MhConfig only when a chain runs
    part = tmp_path / "dutch.json"
    part.write_text(json.dumps(dutch_fixture().to_dict()))
    code = (
        "import json, sys; from raretype.cli import cli_dispatch; "
        "code = cli_dispatch(['fit', '--partition', sys.argv[1], '--quiet']); "
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('raretype.'))]))"
    )
    out = subprocess.run([sys.executable, "-c", code, str(part)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    code, loaded = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == ["raretype.cli", "raretype.mle", "raretype.partitions", "raretype.pitman", "raretype.rng"]


def test_import_loads_no_optimizer_library():
    # the package needs numpy alone; importing scipy.special would add
    # ~0.35 s to every process start
    code = "import sys, raretype, raretype.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.slow
@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--partition", "{part}"],
        ["surface", "--partition", "{part}", "--n-phi", "5", "--n-theta", "5"],
        ["true-lr", "--partition", "{db}", "--population", "{pop}", "--iterations", "2000",
         "--burn-in", "200", "--thinning", "20"],
        ["simulate", "--mode", "crp", "--n", "200", "--alpha", "0.5", "--theta", "10"],
    ],
)
def test_commands_run_where_scipy_cannot_import(argv, inputs):
    # sys.modules["scipy"] = None makes every scipy import raise ImportError
    argv = [arg.format(**inputs) for arg in argv] + ["--seed", "3", "--quiet"]
    code = (
        "import runpy, sys; sys.modules['scipy'] = None; "
        "runpy.run_module('raretype', run_name='__main__')"
    )
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout
