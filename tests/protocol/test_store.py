"""Tests for the ciphertext store and one-pass batch matching against it."""

import random

import pytest

from repro.crypto.group import BilinearGroup
from repro.crypto.hve import HVE
from repro.encoding.huffman import HuffmanEncodingScheme
from repro.protocol.matching import MatchingEngine
from repro.protocol.messages import LocationUpdate, TokenBatch
from repro.protocol.store import CiphertextStore

PROBABILITIES = [0.2, 0.1, 0.5, 0.4, 0.6, 0.3, 0.25, 0.15]


@pytest.fixture(scope="module")
def setup():
    encoding = HuffmanEncodingScheme().build(PROBABILITIES)
    group = BilinearGroup(prime_bits=32, rng=random.Random(71))
    hve = HVE(width=encoding.reference_length, group=group, rng=random.Random(72))
    keys = hve.setup()
    return encoding, hve, keys


def _update(setup, user_id, cell, sequence=0):
    encoding, hve, keys = setup
    ciphertext = hve.encrypt(keys.public, encoding.index_of(cell))
    return LocationUpdate(user_id=user_id, ciphertext=ciphertext, sequence_number=sequence)


def _batch(setup, alert_id, cells):
    encoding, hve, keys = setup
    tokens = hve.generate_tokens(keys.secret, encoding.token_patterns(cells))
    return TokenBatch(alert_id=alert_id, tokens=tuple(tokens))


def _match(hve, store, batches, now, **kwargs):
    """One pass of ``batches`` over ``store`` through a fresh planned engine."""
    return MatchingEngine(hve).match_store(batches, store, now, **kwargs)


class TestCiphertextStore:
    def test_ingest_and_lookup(self, setup):
        store = CiphertextStore()
        assert store.ingest(_update(setup, "alice", 2), received_at=100.0)
        assert "alice" in store
        assert len(store) == 1
        assert store.report_for("alice").sequence_number == 0

    def test_stale_sequence_numbers_are_ignored(self, setup):
        store = CiphertextStore()
        store.ingest(_update(setup, "alice", 2, sequence=5), received_at=100.0)
        assert not store.ingest(_update(setup, "alice", 3, sequence=4), received_at=200.0)
        assert store.report_for("alice").sequence_number == 5

    def test_expiry(self, setup):
        store = CiphertextStore(max_age_seconds=60.0)
        store.ingest(_update(setup, "alice", 2), received_at=0.0)
        store.ingest(_update(setup, "bob", 3), received_at=100.0)
        assert [r.user_id for r in store.fresh_reports(now=110.0)] == ["bob"]
        assert store.stale_users(now=110.0) == ["alice"]
        assert store.purge_stale(now=110.0) == ["alice"]
        assert len(store) == 1

    def test_no_expiry_by_default(self, setup):
        store = CiphertextStore()
        store.ingest(_update(setup, "alice", 2), received_at=0.0)
        assert store.stale_users(now=1e9) == []
        assert len(store.fresh_reports(now=1e9)) == 1

    def test_invalid_max_age(self):
        with pytest.raises(ValueError):
            CiphertextStore(max_age_seconds=0.0)

    def test_save_and_load_round_trip(self, setup, tmp_path):
        encoding, hve, keys = setup
        store = CiphertextStore(max_age_seconds=3600.0)
        store.ingest(_update(setup, "alice", 2), received_at=10.0)
        store.ingest(_update(setup, "bob", 5), received_at=20.0)
        path = tmp_path / "store.json"
        store.save(path)

        restored = CiphertextStore.load(path, hve.group)
        assert len(restored) == 2
        assert restored.max_age_seconds == 3600.0
        assert restored.matching_state is None  # none was saved
        # Restored ciphertexts still match correctly.
        batch = _batch(setup, "zone-a", [2])
        notified = [n.user_id for n in _match(hve, restored, [batch], now=30.0)]
        assert notified == ["alice"]

    def test_restart_preserves_standing_alert_state(self, setup, tmp_path):
        """Provider restart: store + remembered engine outcomes round-trip, so
        standing alerts re-evaluate to identical notifications at zero
        pairings for unchanged users."""
        encoding, hve, keys = setup
        store = CiphertextStore()
        store.ingest(_update(setup, "alice", 2), received_at=10.0)
        store.ingest(_update(setup, "bob", 5), received_at=20.0)
        engine = MatchingEngine(hve)
        batches = [_batch(setup, "standing-1", [2, 3]), _batch(setup, "standing-2", [5])]
        first = engine.match_store(batches, store, now=30.0)
        assert first  # the scenario actually notifies someone

        path = tmp_path / "provider.json"
        store.save(path, engine=engine)

        # --- restart: fresh engine + store rebuilt from disk ---------------
        restored_engine = MatchingEngine(hve)
        restored = CiphertextStore.load(path, hve.group, engine=restored_engine)
        assert len(restored) == 2
        assert restored_engine.standing_alerts() == ["standing-1", "standing-2"]

        counter = hve.group.counter
        before = counter.total
        second = restored_engine.match_store(batches, restored, now=40.0)
        assert second == first
        assert counter.total == before  # every outcome served from restored cache

        # A new report after the restart is re-evaluated normally.
        restored.ingest(_update(setup, "alice", 4, sequence=1), received_at=50.0)
        refreshed = restored_engine.match_store(batches, restored, now=60.0)
        assert {(n.user_id, n.alert_id) for n in refreshed} == {("bob", "standing-2")}

    def test_restart_drops_state_for_redeclared_zone(self, setup, tmp_path):
        """A standing alert re-declared over a different zone after a restart
        must not be served stale outcomes (signature check survives disk)."""
        encoding, hve, keys = setup
        store = CiphertextStore()
        store.ingest(_update(setup, "alice", 2), received_at=10.0)
        engine = MatchingEngine(hve)
        engine.match_store([_batch(setup, "standing", [2])], store, now=20.0)
        path = tmp_path / "provider.json"
        store.save(path, engine=engine)

        restored_engine = MatchingEngine(hve)
        restored = CiphertextStore.load(path, hve.group, engine=restored_engine)
        counter = hve.group.counter
        before = counter.total
        moved_zone = _batch(setup, "standing", [5])  # same alert id, new cells
        notifications = restored_engine.match_store([moved_zone], restored, now=30.0)
        assert counter.total > before  # cache was invalidated, not served stale
        assert notifications == []

    def test_load_without_engine_keeps_state_for_the_caller(self, setup, tmp_path):
        """Loading a stateful file without an engine imports nothing, but
        keeps the raw state on the store so a caller can defer the engine."""
        encoding, hve, keys = setup
        store = CiphertextStore()
        store.ingest(_update(setup, "alice", 2), received_at=10.0)
        engine = MatchingEngine(hve)
        engine.match_store([_batch(setup, "standing", [2])], store, now=20.0)
        path = tmp_path / "provider.json"
        store.save(path, engine=engine)

        restored = CiphertextStore.load(path, hve.group)
        assert restored.matching_state is not None
        later = MatchingEngine(hve)
        assert later.standing_alerts() == []
        later.import_state(restored.matching_state)
        assert later.standing_alerts() == ["standing"]

    def test_save_without_engine_then_load_with_engine(self, setup, tmp_path):
        """Loading a stateless file into an engine is a no-op, not an error."""
        encoding, hve, keys = setup
        store = CiphertextStore()
        store.ingest(_update(setup, "alice", 2), received_at=10.0)
        path = tmp_path / "store.json"
        store.save(path)
        engine = MatchingEngine(hve)
        restored = CiphertextStore.load(path, hve.group, engine=engine)
        assert restored.matching_state is None
        assert engine.standing_alerts() == []

    def test_round_trip_preserves_matching_outcomes(self, setup, tmp_path):
        """Save/load must not change any user's match outcome for any zone."""
        encoding, hve, keys = setup
        store = CiphertextStore()
        cells = {"u0": 0, "u1": 2, "u2": 4, "u3": 5, "u4": 7}
        for user_id, cell in cells.items():
            store.ingest(_update(setup, user_id, cell), received_at=1.0)
        path = tmp_path / "round-trip.json"
        store.save(path)
        restored = CiphertextStore.load(path, hve.group)

        zones = [[0, 1], [2, 3, 4], [5], [6, 7]]
        for i, zone_cells in enumerate(zones):
            batch = _batch(setup, f"zone-{i}", zone_cells)
            before = [n.user_id for n in _match(hve, store, [batch], now=2.0)]
            after = [n.user_id for n in _match(hve, restored, [batch], now=2.0)]
            assert after == before == sorted(u for u, c in cells.items() if c in zone_cells)

    def test_stale_purge_boundary_age_equals_max_age(self, setup):
        """A report aged exactly ``max_age_seconds`` is still fresh, not stale."""
        store = CiphertextStore(max_age_seconds=60.0)
        store.ingest(_update(setup, "edge", 2), received_at=0.0)
        # age == max_age: included in fresh_reports, excluded from stale_users.
        assert [r.user_id for r in store.fresh_reports(now=60.0)] == ["edge"]
        assert store.stale_users(now=60.0) == []
        assert store.purge_stale(now=60.0) == []
        assert len(store) == 1
        # One tick past the boundary the report expires.
        assert store.fresh_reports(now=60.0000001) == []
        assert store.stale_users(now=60.0000001) == ["edge"]
        assert store.purge_stale(now=60.0000001) == ["edge"]
        assert len(store) == 0

    def test_out_of_order_sequence_ingestion(self, setup):
        """Late-arriving older reports never clobber a newer one, at any arrival order."""
        store = CiphertextStore()
        assert store.ingest(_update(setup, "alice", 2, sequence=2), received_at=10.0)
        assert not store.ingest(_update(setup, "alice", 5, sequence=1), received_at=20.0)
        assert not store.ingest(_update(setup, "alice", 7, sequence=0), received_at=30.0)
        assert store.ingest(_update(setup, "alice", 3, sequence=4), received_at=40.0)
        report = store.report_for("alice")
        assert report.sequence_number == 4
        assert report.reported_at == 40.0
        # Matching reflects the newest report (cell 3), not the stragglers.
        _, hve, _ = setup
        assert [n.user_id for n in _match(hve, store, [_batch(setup, "z3", [3])], now=50.0)] == ["alice"]
        assert _match(hve, store, [_batch(setup, "z5", [5])], now=50.0) == []
        assert _match(hve, store, [_batch(setup, "z7", [7])], now=50.0) == []


class TestMatchStore:
    """One pass of several alerts over the store (``MatchingEngine.match_store``)."""

    def test_multiple_alerts_single_pass(self, setup):
        _, hve, _ = setup
        store = CiphertextStore()
        store.ingest(_update(setup, "alice", 2), received_at=0.0)
        store.ingest(_update(setup, "bob", 5), received_at=0.0)
        store.ingest(_update(setup, "carol", 7), received_at=0.0)
        batches = [_batch(setup, "alert-1", [2, 3]), _batch(setup, "alert-2", [5])]
        notifications = _match(hve, store, batches, now=1.0, descriptions={"alert-1": "leak"})
        outcome = {(n.user_id, n.alert_id) for n in notifications}
        assert outcome == {("alice", "alert-1"), ("bob", "alert-2")}
        descriptions = {n.alert_id: n.description for n in notifications}
        assert descriptions["alert-1"] == "leak"

    def test_expired_reports_are_not_matched(self, setup):
        _, hve, _ = setup
        store = CiphertextStore(max_age_seconds=10.0)
        store.ingest(_update(setup, "alice", 2), received_at=0.0)
        batch = _batch(setup, "late-alert", [2])
        assert _match(hve, store, [batch], now=1_000.0) == []

    def test_pairings_never_exceed_the_full_evaluation_cost(self, setup):
        _, hve, _ = setup
        store = CiphertextStore()
        store.ingest(_update(setup, "alice", 2), received_at=0.0)
        store.ingest(_update(setup, "bob", 5), received_at=0.0)
        batch = _batch(setup, "alert", [2, 5])
        # Worst case: every token fully evaluated against every fresh report.
        bound = batch.pairing_cost_per_ciphertext * len(store.fresh_reports(now=1.0))
        counter = hve.group.counter
        before = counter.total
        _match(hve, store, [batch], now=1.0)
        assert counter.total - before <= bound


class TestAtomicSave:
    def test_torn_write_leaves_the_previous_snapshot_intact(
        self, setup, tmp_path, monkeypatch
    ):
        """Regression: a crash mid-save (simulated by failing the atomic
        rename) must leave the previous file readable, never a torn one."""
        encoding, hve, keys = setup
        store = CiphertextStore()
        store.ingest(_update(setup, "alice", 2), received_at=10.0)
        path = tmp_path / "store.json"
        store.save(path)
        before = path.read_bytes()

        store.ingest(_update(setup, "bob", 5), received_at=20.0)
        import repro.durability as durability

        def crash_rename(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(durability.os, "replace", crash_rename)
        with pytest.raises(OSError):
            store.save(path)
        monkeypatch.undo()

        assert path.read_bytes() == before
        restored = CiphertextStore.load(path, hve.group)
        assert len(restored) == 1 and "alice" in restored
        # The failed attempt's temp file was cleaned up, not left behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store.json"]

        # And a later healthy save completes normally.
        store.save(path)
        assert len(CiphertextStore.load(path, hve.group)) == 2
