"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.io import save_assay
from repro.operations import AssayBuilder


@pytest.fixture
def assay_file(tmp_path):
    b = AssayBuilder("cli-demo")
    cap = b.op("cap", 4, indeterminate=True, accessories=["cell_trap"])
    b.op("detect", 2, accessories=["optical_system"], after=[cap])
    path = tmp_path / "assay.json"
    save_assay(b.build(), path)
    return path


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("synthesize", "layer", "table2", "table3", "demo"):
            args = parser.parse_args(
                [cmd] if cmd in ("table2", "table3", "demo")
                else [cmd, "x.json"]
            )
            assert args.command == cmd

    def test_spec_arguments(self):
        args = build_parser().parse_args(
            ["synthesize", "a.json", "--max-devices", "7",
             "--threshold", "3", "--scheduler", "ilp-highs"]
        )
        assert args.max_devices == 7
        assert args.threshold == 3
        assert args.scheduler == "ilp-highs"
        # The solver-backend flag is gone: HiGHS is the only solver.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synthesize", "a.json", "--backend", "highs"])


class TestCommands:
    def test_layer_command(self, assay_file, capsys):
        assert main(["layer", str(assay_file)]) == 0
        out = capsys.readouterr().out
        assert "2 layer(s)" in out
        assert "cap" in out

    def test_synthesize_command(self, assay_file, capsys, tmp_path):
        out_file = tmp_path / "result.json"
        code = main([
            "synthesize", str(assay_file),
            "--max-devices", "4", "--time-limit", "5",
            "--max-iterations", "0", "--gantt", "--out", str(out_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "+I_1" in out
        assert "hybrid schedule" in out
        report = json.loads(out_file.read_text())
        assert report["assay"] == "cli-demo"

    def test_synthesize_conventional_flag(self, assay_file, capsys):
        code = main([
            "synthesize", str(assay_file), "--conventional",
            "--max-devices", "4", "--time-limit", "5",
            "--max-iterations", "0",
        ])
        assert code == 0

    def test_missing_file_graceful(self, capsys, tmp_path):
        code = main(["synthesize", str(tmp_path / "none.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestBadInput:
    """Bad input exits with code 2 and one line on stderr — no traceback."""

    def check(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        self.check(capsys, ["synthesize", str(bad)])

    def test_valid_json_wrong_shape(self, capsys, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        self.check(capsys, ["synthesize", str(bad)])

    def test_unreadable_path(self, capsys, tmp_path):
        self.check(capsys, ["synthesize", str(tmp_path / "missing.json")])

    def test_bad_fault_spec(self, capsys, assay_file):
        self.check(
            capsys,
            ["simulate", str(assay_file), "--faults", "bogus", "--runs", "1"],
        )

    def test_unknown_benchmark_case(self, capsys):
        self.check(capsys, ["synthesize", "--case", "9"])

    def test_case_and_path_conflict(self, capsys, assay_file):
        self.check(capsys, ["synthesize", str(assay_file), "--case", "1"])

    def test_neither_case_nor_path(self, capsys):
        self.check(capsys, ["synthesize"])


class TestCaseFlag:
    def test_synthesize_benchmark_case(self, capsys):
        code = main([
            "synthesize", "--case", "1", "--time-limit", "5",
            "--mip-gap", "0.25", "--max-iterations", "0",
        ])
        assert code == 0
        assert "kinase-radioassay" in capsys.readouterr().out


class TestServiceVerbs:
    def test_parser_accepts_service_verbs(self):
        parser = build_parser()
        serve = parser.parse_args(["serve", "--port", "0", "--workers", "1"])
        assert serve.command == "serve" and serve.workers == 1
        sub = parser.parse_args(["submit", "--case", "2", "--no-wait"])
        assert sub.command == "submit" and sub.case == 2
        jobs = parser.parse_args(["jobs", "--metrics"])
        assert jobs.command == "jobs" and jobs.metrics

    def test_submit_unreachable_server_fails_cleanly(self, capsys):
        code = main([
            "submit", "--case", "1", "--server", "127.0.0.1:1", "--no-wait",
        ])
        assert code == 1
        assert "cannot reach synthesis server" in capsys.readouterr().err

    def test_table3_via_server_bad_address(self, capsys):
        code = main(["table3", "--cases", "2", "--via-server", "nonsense"])
        assert code == 1
        assert "bad server address" in capsys.readouterr().err
