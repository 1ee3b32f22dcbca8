import json
import subprocess
import sys

import pytest

from raretype.cli import _build_parser, cli_dispatch
from raretype.lr import MhConfig


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

    def test_one_retained_sample_exits_2(self, capsys, tmp_path):
        # a single retained sample would report a NaN error bar
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"a": [1, 2], "r": [3, 2]}))
        pop = tmp_path / "pop.json"
        pop.write_text(json.dumps({"probs": [0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05],
                                   "pop_size": 200}))
        code = cli_dispatch(
            [
                "true-lr", "--partition", str(part), "--population", str(pop),
                "--iterations", "1000", "--burn-in", "0", "--thinning", "1000",
                "--seed", "1", "--quiet",
            ]
        )
        assert code == 2
        assert "fewer than 2 retained samples" in capsys.readouterr().err

    def test_fit_non_convergence_exits_3(self, capsys, tmp_path):
        path = tmp_path / "oneblock.json"
        path.write_text(json.dumps({"a": [4], "r": [1]}))
        assert cli_dispatch(["fit", "--partition", str(path), "--quiet"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is False

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

    def test_repeated_header_name_exits_2(self, capsys, tmp_path):
        profiles = tmp_path / "profiles.tsv"
        profiles.write_text("L1\tL1\na\tb\na\tc\n")
        assert cli_dispatch(["reduce", "--input", str(profiles), "--quiet"]) == 2
        assert "repeated in header" in capsys.readouterr().err

    def test_empty_column_selection_exits_2(self, capsys, tmp_path):
        profiles = tmp_path / "profiles.tsv"
        profiles.write_text("L1\tL2\nx\ty\nx\tz\nw\ty\n")
        argv = ["reduce", "--input", str(profiles), "--columns", ",", "--quiet"]
        assert cli_dispatch(argv) == 2
        assert "no columns selected" in capsys.readouterr().err

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

    def test_surface_csv(self, capsys, tmp_path):
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"a": [1, 2, 4, 8], "r": [20, 6, 2, 1]}))
        code = cli_dispatch(
            [
                "surface", "--partition", str(part), "--format", "csv",
                "--n-phi", "5", "--n-theta", "5", "--quiet",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "phi,theta,rel_loglik,gauss_overlay,valid"
        assert len(lines) == 26


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

    def test_true_lr_byte_identical(self, tmp_path):
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"a": [1, 2], "r": [3, 2]}))
        pop = tmp_path / "pop.json"
        pop.write_text(json.dumps({"probs": [0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05],
                                   "pop_size": 200}))
        argv = ["true-lr", "--partition", str(part), "--population", str(pop),
                "--iterations", "5000", "--burn-in", "500", "--thinning", "50",
                "--seed", "11", "--quiet"]
        a = run_cli(argv)
        b = run_cli(argv)
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout


@pytest.mark.parametrize("argv", [["true-lr", "--partition", "p.json"], ["experiment"]])
def test_chain_option_defaults_are_the_config_defaults(argv):
    args = _build_parser().parse_args(argv)
    defaults = MhConfig()
    assert (args.iterations, args.burn_in, args.thinning) == (
        defaults.iterations,
        defaults.burn_in,
        defaults.thinning,
    )


def test_import_loads_no_optimizer_library():
    # both solves use the package's own Newton search; scipy.optimize would
    # add ~0.3 s to every process start
    code = "import sys, raretype; print([m for m in sys.modules if m.startswith('scipy.optimize')])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
