"""CLI, worker, and serialization coverage for throughput mode."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main
from repro.hls import SynthesisSpec, synthesize
from repro.io import save_assay
from repro.io.json_io import (
    assay_to_json,
    result_to_json,
    spec_from_json,
    spec_to_json,
)
from repro.operations import AssayBuilder
from repro.service.worker import run_job


@pytest.fixture
def assay_file(tmp_path, indeterminate_assay):
    path = tmp_path / "assay.json"
    save_assay(indeterminate_assay, path)
    return path


class TestThroughputVerb:
    def test_single_assay(self, assay_file, capsys):
        code = main([
            "throughput", str(assay_file),
            "--max-devices", "6", "--threshold", "2",
            "--time-limit", "5", "--max-iterations", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "initiation II" in out
        assert "lower bound" in out
        assert "II search" in out

    def test_variant_prefixes(self, assay_file, capsys):
        code = main([
            "throughput", str(assay_file),
            "--variant-prefixes", "0.5",
            "--max-devices", "6", "--threshold", "2",
            "--time-limit", "5", "--max-iterations", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "variants       : 2" in out
        assert "shared II=" in out

    def test_variant_files(self, tmp_path, assay_file, capsys):
        b = AssayBuilder("qc")
        prep = b.op("prep0", 4, container="chamber", function="load")
        b.op(
            "capture0", 6, indeterminate=True, accessories=["cell_trap"],
            function="capture", after=[prep],
        )
        other = tmp_path / "qc.json"
        save_assay(b.build(), other)
        code = main([
            "throughput", str(assay_file), "--variants", str(other),
            "--max-devices", "6", "--threshold", "2",
            "--time-limit", "5", "--max-iterations", "1",
        ])
        assert code == 0
        assert "variants       : 2" in capsys.readouterr().out

    def test_synthesize_prints_periodic_block(self, assay_file, capsys):
        code = main([
            "synthesize", str(assay_file), "--throughput",
            "--max-devices", "6", "--threshold", "2",
            "--time-limit", "5", "--max-iterations", "1",
        ])
        assert code == 0
        assert "initiation II" in capsys.readouterr().out


class TestEnumHardening:
    """Bad enum values exit 2 with a one-line error, not a traceback."""

    @pytest.mark.parametrize(
        ("flag", "value", "needle"),
        [
            ("--storage", "bogus", "storage_mode"),
            ("--throughput", "bogus", "throughput_mode"),
            ("--periodic-scheduler", "bogus", "throughput_scheduler"),
            ("--target-ii", "0", "target_ii"),
        ],
    )
    def test_bad_value_exits_two(self, capsys, flag, value, needle):
        code = main(["synthesize", "--case", "1", flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert needle in err
        assert len(err.strip().splitlines()) == 1

    def test_choices_listed_in_message(self, capsys):
        assert main(["synthesize", "--case", "1", "--throughput", "x"]) == 2
        assert "off|periodic" in capsys.readouterr().err


class TestSpecSerialization:
    def test_round_trip_throughput_fields(self):
        spec = SynthesisSpec(
            throughput_mode="periodic",
            target_ii=7,
            throughput_scheduler="greedy",
            throughput_variants=(0.5, 0.75),
        )
        data = spec_to_json(spec)
        assert data["throughput_mode"] == "periodic"
        assert data["throughput_variants"] == [0.5, 0.75]
        back = spec_from_json(data)
        assert back == spec

    def test_default_round_trip_stays_off(self):
        back = spec_from_json(spec_to_json(SynthesisSpec()))
        assert back.throughput_mode == "off"
        assert back.target_ii is None
        assert back.throughput_variants == ()

    def test_fingerprint_tracks_throughput(self, indeterminate_assay):
        from repro.hls.cache import fingerprint_run

        base = SynthesisSpec()
        periodic = dataclasses.replace(base, throughput_mode="periodic")
        assert fingerprint_run(indeterminate_assay, base) != fingerprint_run(
            indeterminate_assay, periodic
        )


class TestWorkerPayload:
    def _request(self, assay, spec):
        return {
            "assay": assay_to_json(assay),
            "spec": spec_to_json(spec),
            "method": "hls",
        }

    def test_periodic_block_present(self, indeterminate_assay, fast_spec):
        spec = dataclasses.replace(fast_spec, throughput_mode="periodic")
        tag, payload = run_job(self._request(indeterminate_assay, spec))
        assert tag == "ok"
        periodic = payload["periodic"]
        assert periodic["validated"] is True
        assert periodic["ii"] <= periodic["base_makespan"]
        assert periodic["lower_bound"] <= periodic["ii"]
        assert periodic["scheduler"] in ("auto", "ilp", "greedy", "baseline")
        assert payload["quality"]["ii"] == periodic["ii"]

    def test_periodic_block_absent_when_off(
        self, indeterminate_assay, fast_spec
    ):
        tag, payload = run_job(self._request(indeterminate_assay, fast_spec))
        assert tag == "ok"
        assert "periodic" not in payload
        assert "ii" not in payload["quality"]


class TestOffModeIdentity:
    def test_result_json_unchanged_by_throughput(
        self, indeterminate_assay, fast_spec
    ):
        """Periodic mode re-times the result *after* synthesis; the
        one-shot artifact serializes byte-identically either way."""
        import json

        off = synthesize(indeterminate_assay, fast_spec)
        on = synthesize(
            indeterminate_assay,
            dataclasses.replace(fast_spec, throughput_mode="periodic"),
        )
        assert json.dumps(
            result_to_json(off, deterministic=True), sort_keys=True
        ) == json.dumps(
            result_to_json(on, deterministic=True), sort_keys=True
        )
