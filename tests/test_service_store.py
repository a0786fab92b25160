"""Tests for the persistent result store (repro.service.store)."""

import dataclasses
import json

import pytest

from repro.assays import benchmark_assay
from repro.hls import LayerSolveCache, SynthesisSpec, fingerprint_run, synthesize
from repro.hls.context import SynthesisContext
from repro.hls.pipeline import SynthesisPipeline
from repro.io import json_result_equal
from repro.io.json_io import result_to_json
from repro.service import STORE_SCHEMA, ResultStore, payload_checksum


def payload(n: int) -> dict:
    return {"result": {"value": n}}


class TestInMemory:
    def test_miss_then_hit(self):
        store = ResultStore()
        assert store.get("fp0") is None
        store.put("fp0", payload(0))
        assert store.get("fp0") == payload(0)
        assert store.counters() == {
            "entries": 1, "capacity": 256, "hits": 1, "misses": 1,
            "puts": 1, "evictions": 0, "corruptions": 0, "quarantined": 0,
            "verifications": 0, "rejected_writes": 0, "adoptions": 0,
        }

    def test_lru_eviction_prefers_recently_used(self):
        store = ResultStore(capacity=2)
        store.put("a", payload(1))
        store.put("b", payload(2))
        assert store.get("a") is not None  # a is now most recent
        store.put("c", payload(3))  # evicts b
        assert store.get("b") is None
        assert store.get("a") is not None
        assert store.get("c") is not None
        assert store.counters()["evictions"] == 1

    def test_overwrite_does_not_grow(self):
        store = ResultStore(capacity=4)
        store.put("a", payload(1))
        store.put("a", payload(2))
        assert len(store) == 1
        assert store.get("a") == payload(2)


class TestOnDisk:
    def test_round_trip_and_reload(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(str(root))
        store.put("fp1", payload(1))
        store.put("fp2", payload(2))

        # A brand-new instance over the same directory sees both entries.
        reloaded = ResultStore(str(root))
        assert reloaded.get("fp1") == payload(1)
        assert reloaded.get("fp2") == payload(2)

    def test_eviction_removes_files(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(str(root), capacity=1)
        store.put("fp1", payload(1))
        store.put("fp2", payload(2))
        assert store.get("fp1") is None
        assert store.get("fp2") == payload(2)
        files = {p.name for p in root.glob("*.json")} - {"index.json"}
        assert files == {"fp2.json"}

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(str(root))
        store.put("fp1", payload(1))
        envelope = json.loads((root / "fp1.json").read_text())
        assert envelope["schema"] == STORE_SCHEMA
        envelope["schema"] = STORE_SCHEMA + 1
        (root / "fp1.json").write_text(json.dumps(envelope))
        assert ResultStore(str(root)).get("fp1") is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(str(root))
        store.put("fp1", payload(1))
        (root / "fp1.json").write_text("{not json")
        assert ResultStore(str(root)).get("fp1") is None

    def test_unindexed_files_are_adopted(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(str(root))
        store.put("fp1", payload(1))
        (root / "index.json").unlink()
        reloaded = ResultStore(str(root))
        assert reloaded.get("fp1") == payload(1)

    def test_probe_checks_presence_without_reading(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(str(root))
        store.put("fp1", payload(1))
        # A peer-written entry this instance has never seen: probe finds
        # the file without reading or hashing it.
        (root / "fp2.json").write_text("{}")
        assert store.probe("fp1")
        assert store.probe("fp2")
        assert not store.probe("fp-missing")
        assert store.verifications == 0
        assert store.hits == 0 and store.misses == 0

    def test_fleet_sidecars_never_load_as_entries(self, tmp_path):
        """lease.json / inflight.json share the store directory in fleet
        mode; they must never be adopted as fingerprints (an eviction
        would unlink the fleet's lease record)."""
        root = tmp_path / "store"
        store = ResultStore(str(root))
        store.put("fp1", payload(1))
        (root / "lease.json").write_text("{}")
        (root / "inflight.json").write_text("{}")
        reloaded = ResultStore(str(root), capacity=1)
        assert len(reloaded) == 1
        assert "lease" not in reloaded
        assert reloaded.sweep() == 0
        assert (root / "lease.json").exists()
        assert (root / "inflight.json").exists()


class TestIntegrity:
    """Checksummed envelopes: corruption is detected, quarantined, and
    read as a miss — never a crash."""

    def test_entries_carry_payload_checksum(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(str(root)).put("fp1", payload(1))
        envelope = json.loads((root / "fp1.json").read_text())
        assert envelope["checksum"] == payload_checksum(payload(1))

    def test_tampered_payload_is_quarantined(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(str(root)).put("fp1", payload(1))
        envelope = json.loads((root / "fp1.json").read_text())
        envelope["payload"] = payload(999)  # checksum now stale
        (root / "fp1.json").write_text(json.dumps(envelope))

        store = ResultStore(str(root))
        assert store.get("fp1") is None
        assert store.corruptions == 1
        assert store.counters()["misses"] == 1
        assert store.quarantined() == ["fp1.json"]
        assert not (root / "fp1.json").exists()
        # The quarantined original is preserved for post-mortem.
        kept = json.loads((root / "quarantine" / "fp1.json").read_text())
        assert kept["payload"] == payload(999)

    def test_zero_byte_entry_reads_as_miss(self, tmp_path):
        """Regression: a torn write used to surface as a crash on read;
        with fsync-before-replace it cannot appear at all, and if forced
        onto disk it must quarantine as a corruption."""
        root = tmp_path / "store"
        ResultStore(str(root)).put("fp1", payload(1))
        (root / "fp1.json").write_text("")

        store = ResultStore(str(root))
        assert store.get("fp1") is None
        assert store.corruptions == 1
        assert store.quarantined() == ["fp1.json"]

    def test_truncated_entry_is_quarantined(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(str(root)).put("fp1", payload(1))
        text = (root / "fp1.json").read_text()
        (root / "fp1.json").write_text(text[: len(text) // 2])

        store = ResultStore(str(root))
        assert store.get("fp1") is None
        assert store.corruptions == 1
        assert store.quarantined() == ["fp1.json"]

    def test_foreign_schema_is_dropped_not_quarantined(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(str(root)).put("fp1", payload(1))
        envelope = json.loads((root / "fp1.json").read_text())
        envelope["schema"] = STORE_SCHEMA + 1
        (root / "fp1.json").write_text(json.dumps(envelope))

        store = ResultStore(str(root))
        assert store.get("fp1") is None
        assert store.corruptions == 0
        assert store.quarantined() == []

    def test_corruption_then_reput_recovers(self, tmp_path):
        root = tmp_path / "store"
        store = ResultStore(str(root))
        store.put("fp1", payload(1))
        (root / "fp1.json").write_text("{not json")
        assert store.get("fp1") is None
        store.put("fp1", payload(2))
        assert store.get("fp1") == payload(2)
        assert store.counters()["quarantined"] == 1


class TestVerifiedFingerprintCache:
    """Satellite: repeat disk hits skip re-hashing the payload — the
    checksum is verified once per process per fingerprint."""

    def test_repeat_hits_verify_once(self, tmp_path):
        root = tmp_path / "store"
        ResultStore(str(root)).put("fp1", payload(1))

        store = ResultStore(str(root))
        assert store.get("fp1") == payload(1)
        assert store.verifications == 1
        for _ in range(3):
            assert store.get("fp1") == payload(1)
        assert store.verifications == 1
        assert store.counters()["verifications"] == 1

    def test_own_puts_are_pre_verified(self, tmp_path):
        """A payload this process just wrote needs no checksum pass."""
        root = tmp_path / "store"
        store = ResultStore(str(root))
        store.put("fp1", payload(1))
        assert store.get("fp1") == payload(1)
        assert store.verifications == 0

    def test_first_read_verification_still_quarantines(self, tmp_path):
        """The cache must not weaken integrity: corruption on the first
        read of a fingerprint is still caught and quarantined."""
        root = tmp_path / "store"
        ResultStore(str(root)).put("fp1", payload(1))
        envelope = json.loads((root / "fp1.json").read_text())
        envelope["payload"] = payload(999)
        (root / "fp1.json").write_text(json.dumps(envelope))

        store = ResultStore(str(root))
        assert store.get("fp1") is None
        assert store.corruptions == 1
        assert store.quarantined() == ["fp1.json"]

    def test_eviction_forgets_verification(self, tmp_path):
        """Evicting an entry drops its verified mark, so a later adopted
        file with the same fingerprint is re-verified from scratch."""
        root = tmp_path / "store"
        store = ResultStore(str(root), capacity=1)
        store.put("fp1", payload(1))
        store.put("fp2", payload(2))  # evicts fp1 (file + verified mark)
        assert "fp1" not in store._verified


class TestResultRoundTrip:
    """The satellite contract: result_to_json(deterministic=True) ->
    store -> reload -> json_result_equal with the direct result."""

    def round_trip(self, result, tmp_path):
        report = result_to_json(result, deterministic=True)
        fingerprint = fingerprint_run(result.assay, result.spec)
        store = ResultStore(str(tmp_path / "store"))
        store.put(fingerprint, {"result": report})
        reloaded = ResultStore(str(tmp_path / "store")).get(fingerprint)
        assert reloaded is not None
        assert json_result_equal(reloaded["result"], report)
        # Byte-level too: the store holds canonical JSON.
        assert json.dumps(reloaded["result"], sort_keys=True) == json.dumps(
            report, sort_keys=True
        )

    @pytest.mark.parametrize("case", [1, 2])
    def test_paper_cases(self, case, tmp_path):
        spec = SynthesisSpec(
            threshold=4, time_limit=10.0, mip_gap=0.25, max_iterations=0
        )
        self.round_trip(synthesize(benchmark_assay(case), spec), tmp_path)

    def test_contingency_resynthesis_result(self, indeterminate_assay,
                                            tmp_path):
        """A contingency re-synthesis (residual assay, external cache,
        zero refinement passes — exactly what ResynthesisPolicy runs)
        stores and reloads equal."""
        spec = SynthesisSpec(
            max_devices=6, threshold=2, time_limit=5.0, max_iterations=0
        )
        residual = indeterminate_assay.subset(
            sorted(op.uid for op in indeterminate_assay)[:4],
            name="ind-contingency",
        )
        cache = LayerSolveCache()
        first = SynthesisPipeline().run(
            SynthesisContext(assay=residual, spec=spec, cache=cache)
        )
        self.round_trip(first, tmp_path)

        # A second contingency over the warm cache replays layer solves;
        # its report must still round-trip and equal the cold result's.
        again = SynthesisPipeline().run(
            SynthesisContext(
                assay=residual,
                spec=dataclasses.replace(spec),
                cache=cache,
            )
        )
        assert again.cache_hits > 0
        self.round_trip(again, tmp_path)
        assert json_result_equal(
            result_to_json(first, deterministic=True),
            result_to_json(again, deterministic=True),
        )
