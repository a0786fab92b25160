"""Tests for the experiment report formatting (repro.experiments)."""

from repro.experiments.report import format_table2, format_table3
from repro.experiments.table2 import PAPER_TABLE2, Table2Row
from repro.experiments.table3 import PAPER_TABLE3, Table3Row


def make_row(case=1, method="Our", exe="94m", devices=4, paths=2):
    return Table2Row(
        case=case,
        method=method,
        num_ops=16,
        num_indeterminate=0,
        exe_time=exe,
        fixed_makespan=94,
        num_devices=devices,
        num_paths=paths,
        runtime_seconds=12.5,
        layer_statuses=["optimal"],
    )


class TestTable2Format:
    def test_columns_present(self):
        text = format_table2([make_row()])
        assert "Exe.Time" in text and "#D." in text and "#P." in text
        assert "94m" in text and "12.5" in text

    def test_paper_rows_interleaved(self):
        text = format_table2([make_row()], include_paper=True)
        assert "(paper)" in text
        assert "220m" in text  # paper's case-1 Our value

    def test_paper_rows_suppressed(self):
        text = format_table2([make_row()], include_paper=False)
        assert "(paper)" not in text

    def test_conv_maps_to_conv_paper_row(self):
        text = format_table2([make_row(method="Conv.")])
        assert "225m" in text

    def test_row_columns_tuple(self):
        row = make_row()
        assert row.columns[0] == 1
        assert row.columns[2] == "94m"


class TestTable3Format:
    def test_improvements(self):
        row = Table3Row(case=2, exe_times=[295, 247, 244],
                        devices=[21, 21, 21])
        imps = row.improvements
        assert imps[0] == (295 - 247) / 295
        assert row.total_improvement == (295 - 244) / 295

    def test_format_includes_paper(self):
        row = Table3Row(case=2, exe_times=[300, 250], devices=[20, 20])
        text = format_table3([row])
        assert "295m" in text  # paper initial
        assert "300m" in text and "250m" in text

    def test_short_history_padded(self):
        row = Table3Row(case=3, exe_times=[641], devices=[24])
        text = format_table3([row])
        assert "-" in text

    def test_zero_history_improvement(self):
        row = Table3Row(case=2, exe_times=[], devices=[])
        assert row.total_improvement == 0.0


class TestPaperConstants:
    def test_paper_table2_complete(self):
        for case in (1, 2, 3):
            assert set(PAPER_TABLE2[case]) == {"conv", "ours"}
            for exe, devices, paths in PAPER_TABLE2[case].values():
                assert exe.endswith("m") or "+I_" in exe
                assert devices > 0 and paths > 0

    def test_paper_table3_shape(self):
        for case in (2, 3):
            exe = PAPER_TABLE3[case]["exe"]
            assert exe[0] > exe[1] > exe[2]  # monotone improvement
            devices = PAPER_TABLE3[case]["devices"]
            assert len(set(devices)) == 1  # flat device counts


class TestProfileGuards:
    """synthesis_profile / format_profile / export stay valid with zero
    solves, empty passes, and foreign or missing keys."""

    def empty_profile(self):
        return {
            "assay": "empty",
            "num_layers": 0,
            "passes": [],
            "totals": {
                "passes": 0, "cache_hits": 0, "ilp_solves": 0, "nodes": 0,
                "simplex_iterations": 0, "build_time": 0.0,
                "solve_time": 0.0, "mean_solve_time": 0.0, "runtime": 0.0,
            },
        }

    def test_zero_solve_profile_formats(self):
        from repro.experiments import format_profile

        text = format_profile(self.empty_profile())
        assert "0 layer solve(s)" in text

    def test_profile_table_has_no_dead_solver_columns(self):
        from repro.experiments import format_profile

        profile = self.empty_profile()
        profile["passes"] = [{
            "label": "Initial",
            "layers": [{"layer": 0, "backend": "highs", "status": "optimal",
                        "nodes": 7}],
        }]
        text = format_profile(profile)
        header = text.splitlines()[0].split()
        # HiGHS reports neither warm starts nor simplex iterations, so
        # those columns and the iteration total always read no/0.
        assert "warm" not in header and "simplex" not in header
        assert "nodes" in header
        assert "simplex" not in text
        row = text.splitlines()[1].split()
        assert row[:6] == ["Initial", "0", "highs", "optimal", "miss", "7"]

    def test_missing_totals_keys_format(self):
        from repro.experiments import format_profile

        assert "totals:" in format_profile({"passes": [], "totals": {}})
        assert "totals:" in format_profile({})

    def test_zero_solve_export_is_valid_json(self, tmp_path):
        import json

        from repro.experiments import export_profiles

        out = tmp_path / "profiles.json"
        export_profiles({0: self.empty_profile()}, str(out))
        data = json.loads(out.read_text())
        assert data["0"]["totals"]["ilp_solves"] == 0

    def test_nan_totals_rejected_not_emitted(self, tmp_path):
        import pytest

        from repro.errors import SerializationError
        from repro.experiments import export_profiles

        profile = self.empty_profile()
        profile["totals"]["runtime"] = float("nan")
        with pytest.raises(SerializationError):
            export_profiles({0: profile}, str(tmp_path / "bad.json"))

    def test_real_profile_has_guarded_mean(self, linear_assay):
        from repro.experiments import synthesis_profile
        from repro.hls import SynthesisSpec, synthesize

        result = synthesize(
            linear_assay,
            SynthesisSpec(max_devices=6, threshold=2, time_limit=5,
                          max_iterations=0),
        )
        totals = synthesis_profile(result)["totals"]
        if totals["ilp_solves"]:
            expected = totals["solve_time"] / totals["ilp_solves"]
            assert abs(totals["mean_solve_time"] - expected) < 1e-9
        else:
            assert totals["mean_solve_time"] == 0.0

    def test_solve_stats_from_dict_ignores_unknown_keys(self):
        from repro.ilp import SolveStats

        stats = SolveStats.from_dict(
            {"layer": 2, "backend": "highs", "from_the_future": True}
        )
        assert stats.layer == 2
        assert stats.backend == "highs"

    def test_stats_profile_json_valid_for_fixed_assay(
        self, linear_assay, tmp_path
    ):
        import json

        from repro.cli import main
        from repro.io import save_assay

        path = tmp_path / "assay.json"
        save_assay(linear_assay, path)
        out = tmp_path / "profile.json"
        code = main([
            "stats", str(path), "--time-limit", "5",
            "--max-iterations", "0", "--profile-json", str(out),
        ])
        assert code == 0
        json.loads(out.read_text())


class TestDeterministicProfile:
    def test_strips_wall_clock_fields(self):
        from repro.experiments import deterministic_profile

        profile = {
            "passes": [{
                "label": "Initial",
                "stage_timings": {"layering": 0.5},
                "layers": [{"layer": 0, "build_time": 0.2,
                            "solve_time": 1.5, "nodes": 7}],
            }],
            "totals": {"ilp_solves": 1, "build_time": 0.2,
                       "solve_time": 1.5, "mean_solve_time": 1.5,
                       "runtime": 2.0},
        }
        out = deterministic_profile(profile)
        layer = out["passes"][0]["layers"][0]
        assert layer["build_time"] == 0.0 and layer["solve_time"] == 0.0
        assert layer["nodes"] == 7  # solver work is deterministic, kept
        assert out["passes"][0]["stage_timings"] == {}
        assert out["totals"]["runtime"] == 0.0
        assert out["totals"]["ilp_solves"] == 1
        # The input is untouched.
        assert profile["totals"]["runtime"] == 2.0

    def test_identical_runs_export_identically(self, linear_assay):
        import json

        from repro.experiments import deterministic_profile, synthesis_profile
        from repro.hls import SynthesisSpec, synthesize

        spec = SynthesisSpec(max_devices=6, threshold=2, time_limit=5,
                             max_iterations=0)
        a = deterministic_profile(
            synthesis_profile(synthesize(linear_assay, spec))
        )
        b = deterministic_profile(
            synthesis_profile(synthesize(linear_assay, spec))
        )
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
