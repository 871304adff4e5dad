"""The write-ahead request journal and crash recovery.

What is pinned here:

* every mutating request type round-trips through its JSON payload form
  (ciphertexts via the wire codec, coordinates as plain floats);
* the journal file is append-only, checksummed and self-validating: entries
  come back in order, sequence numbers resume across re-opens, a torn tail
  (crash mid-append) is dropped cleanly *and truncated* so later appends
  start on a fresh line;
* :meth:`RequestJournal.checkpoint` atomically drops the entries a snapshot
  covers while later appends keep counting;
* the recovery contract end to end: a session journals mutating requests
  ahead of execution, a snapshot records the journal sequence it covers, and
  ``restore()`` replays exactly the newer entries -- regression-tested both
  in-process and against a genuine ``kill -9`` of a live session.
"""

import os
import pathlib
import random
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.crypto.group import BilinearGroup
from repro.crypto.hve import HVE
from repro.crypto.serialization import serialize_ciphertext
from repro.datasets.synthetic import make_synthetic_scenario
from repro.encoding.huffman import HuffmanEncodingScheme
from repro.grid.alert_zone import AlertZone
from repro.grid.geometry import Point
from repro.protocol.messages import LocationUpdate
from repro.service import AlertService, Move, PublishZone, ServiceConfig, Subscribe
from repro.service.journal import RequestJournal, request_from_payload, request_to_payload
from repro.service.requests import EvaluateStanding, IngestBatch, RetractZone

PROBABILITIES = [0.2, 0.1, 0.5, 0.4, 0.6, 0.3, 0.25, 0.15]


@pytest.fixture(scope="module")
def scenario():
    return make_synthetic_scenario(
        rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=20, seed=31, extent_meters=600.0
    )


class TestRequestPayloadRoundTrip:
    @pytest.mark.parametrize(
        "original",
        [
            Subscribe(user_id="alice", location=Point(10.0, 20.0), at=5.0),
            Move(user_id="bob", location=Point(1.5, 2.5)),
            PublishZone(alert_id="z1", zone=AlertZone(cell_ids=(3, 4, 5)), standing=False),
            PublishZone(alert_id="z2", epicenter=Point(100.0, 50.0), radius=75.0, description="fire"),
            RetractZone(alert_id="z1", at=9.0),
            EvaluateStanding(at=11.0),
        ],
    )
    def test_plaintext_requests_round_trip_exactly(self, original):
        payload = request_to_payload(original)
        rebuilt = request_from_payload(payload, group=None)
        assert rebuilt == original

    def test_ingest_batch_round_trips_through_the_wire_codec(self):
        encoding = HuffmanEncodingScheme().build(PROBABILITIES)
        group = BilinearGroup(prime_bits=32, rng=random.Random(171))
        hve = HVE(width=encoding.reference_length, group=group, rng=random.Random(172))
        keys = hve.setup()
        update = LocationUpdate(
            user_id="alice",
            ciphertext=hve.encrypt(keys.public, encoding.index_of(2)),
            sequence_number=4,
        )
        request = IngestBatch(updates=(update,), evaluate=False, at=3.0)
        rebuilt = request_from_payload(request_to_payload(request), group)
        assert isinstance(rebuilt, IngestBatch)
        assert rebuilt.evaluate is False and rebuilt.at == 3.0
        (rebuilt_update,) = rebuilt.updates
        assert rebuilt_update.user_id == "alice"
        assert rebuilt_update.sequence_number == 4
        assert serialize_ciphertext(rebuilt_update.ciphertext) == serialize_ciphertext(
            update.ciphertext
        )

    def test_unknown_payload_type_is_rejected(self):
        with pytest.raises(ValueError):
            request_from_payload({"type": "drop_tables"}, group=None)


def _entries(path):
    with RequestJournal(path) as journal:
        return journal.entries()


class TestJournalFile:
    def _requests(self):
        return [
            Subscribe(user_id="alice", location=Point(1.0, 2.0)),
            Move(user_id="alice", location=Point(3.0, 4.0)),
            RetractZone(alert_id="z1"),
        ]

    def test_append_entries_and_replay(self, tmp_path):
        with RequestJournal(tmp_path / "wal.log") as journal:
            seqs = [journal.append(r) for r in self._requests()]
            assert seqs == [1, 2, 3]
            assert journal.last_seq == 3
            entries = journal.entries()
            assert [seq for seq, _ in entries] == [1, 2, 3]
            assert entries[1][1]["type"] == "move"
            assert [seq for seq, _ in journal.replay_after(1)] == [2, 3]
            assert journal.replay_after(3) == []

    def test_sequence_resumes_across_reopens(self, tmp_path):
        path = tmp_path / "wal.log"
        with RequestJournal(path) as journal:
            journal.append(self._requests()[0])
        with RequestJournal(path) as journal:
            assert journal.last_seq == 1
            assert journal.append(self._requests()[1]) == 2
            assert len(journal.entries()) == 2

    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        path = tmp_path / "wal.log"
        with RequestJournal(path) as journal:
            journal.append(self._requests()[0])
            journal.append(self._requests()[1])
        # A crash mid-append leaves a half-written line with no newline.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('deadbeef\t{"seq": 3, "requ')
        with RequestJournal(path) as journal:
            assert journal.last_seq == 2  # the torn request never executed
            # The fragment was cut, so this append lands on a fresh line and
            # stays durable instead of concatenating onto garbage.
            assert journal.append(self._requests()[2]) == 3
        assert [seq for seq, _ in _entries(path)] == [1, 2, 3]

    def test_corrupted_line_stops_replay_at_the_last_durable_entry(self, tmp_path):
        path = tmp_path / "wal.log"
        with RequestJournal(path) as journal:
            for request in self._requests():
                journal.append(request)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        # Flip bytes inside the *middle* entry: everything after it is
        # suspect and replay must stop before it.
        lines[1] = lines[1].replace("alice", "mallory")
        path.write_text("".join(lines), encoding="utf-8")
        assert [seq for seq, _ in _entries(path)] == [1]

    def test_checkpoint_drops_covered_entries_atomically(self, tmp_path):
        path = tmp_path / "wal.log"
        with RequestJournal(path) as journal:
            for request in self._requests():
                journal.append(request)
            assert journal.checkpoint(2) == 2
            assert [seq for seq, _ in journal.entries()] == [3]
            assert journal.checkpoint(2) == 0  # idempotent
            # Later appends keep counting from where they were.
            assert journal.append(self._requests()[0]) == 4
        assert [seq for seq, _ in _entries(path)] == [3, 4]


class TestGroupCommit:
    def _requests(self):
        return [
            Subscribe(user_id="alice", location=Point(1.0, 2.0)),
            Move(user_id="alice", location=Point(3.0, 4.0)),
            RetractZone(alert_id="z1"),
        ]

    def test_append_batch_assigns_sequences_under_one_fsync(self, tmp_path):
        path = tmp_path / "wal.log"
        with RequestJournal(path) as journal:
            assert journal.append_batch(self._requests()) == [1, 2, 3]
            assert journal.last_seq == 3
            assert journal.group_commits == 1
            assert journal.fsyncs_saved == 2
            # Empty and singleton batches are not group commits.
            assert journal.append_batch([]) == []
            assert journal.append_batch([self._requests()[0]]) == [4]
            assert journal.group_commits == 1 and journal.fsyncs_saved == 2
            # Per-request appends keep counting from the batched sequence.
            assert journal.append(self._requests()[1]) == 5
        assert [seq for seq, _ in _entries(path)] == [1, 2, 3, 4, 5]

    def test_torn_tail_after_a_group_commit_is_dropped(self, tmp_path):
        path = tmp_path / "wal.log"
        with RequestJournal(path) as journal:
            journal.append_batch(self._requests())
        # A crash mid-append after the batch leaves a half-written line;
        # the whole group-committed batch stays durable behind it.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('deadbeef\t{"seq": 4, "requ')
        with RequestJournal(path) as journal:
            assert journal.last_seq == 3
            assert journal.append(self._requests()[0]) == 4
        assert [seq for seq, _ in _entries(path)] == [1, 2, 3, 4]

    def test_journal_requests_prejournals_a_tick_without_duplicates(self, tmp_path, scenario):
        config = _recovery_config(tmp_path / "wal.log")
        with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
            requests = [
                Subscribe(user_id="alice", location=scenario.grid.cell_center(2)),
                Move(user_id="alice", location=scenario.grid.cell_center(3)),
                EvaluateStanding(),
            ]
            # The network tier's journal stage: the whole tick, evaluation
            # included, lands under one group commit...
            assert service.journal_requests(requests) == 3
            assert service.journal.last_seq == 3
            assert service.journal.group_commits == 1
            # ...and the per-request handlers skip the duplicate append.
            for request in requests:
                service.handle(request)
            assert service.journal.last_seq == 3
            # A request no group commit covered appends exactly as before.
            service.move(Move(user_id="alice", location=scenario.grid.cell_center(4)))
            assert service.journal.last_seq == 4
            types = [payload["type"] for _, payload in service.journal.entries()]
            assert types == ["subscribe", "move", "evaluate_standing", "move"]


def _recovery_config(journal_path):
    return ServiceConfig(
        prime_bits=32,
        seed=19,
        journal_path=str(journal_path),
    )


def _drive_session(service, scenario):
    """The scripted session both the reference and the crash runs replay."""
    for i in range(6):
        service.subscribe(
            Subscribe(user_id=f"user-{i:03d}", location=scenario.grid.cell_center(i))
        )
    service.publish_zone(
        PublishZone(alert_id="zone-a", zone=AlertZone(cell_ids=(5, 6, 7, 11)), evaluate=False)
    )


class TestCrashRecovery:
    def test_restore_replays_the_journal_tail(self, tmp_path, scenario):
        journal_path = tmp_path / "wal.log"
        snapshot_path = tmp_path / "state.json"

        # The doomed session: snapshot mid-way, keep mutating, never close.
        crashed = AlertService(
            scenario.grid, scenario.probabilities, config=_recovery_config(journal_path)
        )
        _drive_session(crashed, scenario)
        payload = crashed.snapshot(snapshot_path)
        assert payload["journal_seq"] == 7  # 6 subscribes + 1 publish
        # The snapshot checkpointed the journal behind itself.
        assert _entries(journal_path) == []
        crashed.move(Move(user_id="user-000", location=scenario.grid.cell_center(6)))
        crashed.move(Move(user_id="user-001", location=scenario.grid.cell_center(7)))
        expected = crashed.evaluate_standing().notified_users
        assert "user-000" in expected and "user-001" in expected
        # Simulated kill: the session is abandoned, nothing is flushed or
        # closed beyond what the write-ahead rule already made durable.
        del crashed

        recovered = AlertService(
            scenario.grid, scenario.probabilities, config=_recovery_config(journal_path)
        )
        try:
            recovered.restore(snapshot_path)
            report = recovered.evaluate_standing()
            assert report.notified_users == expected
        finally:
            recovered.close()

    def test_kill_nine_mid_session_then_restore(self, tmp_path, scenario):
        """The regression the journal exists for: a real SIGKILL, no cleanup."""
        journal_path = tmp_path / "wal.log"
        snapshot_path = tmp_path / "state.json"
        script = tmp_path / "doomed_session.py"
        script.write_text(
            textwrap.dedent(
                """
                import os, signal, sys

                from repro.datasets.synthetic import make_synthetic_scenario
                from repro.grid.alert_zone import AlertZone
                from repro.service import (
                    AlertService, Move, PublishZone, ServiceConfig, Subscribe,
                )

                journal_path, snapshot_path = sys.argv[1], sys.argv[2]
                scenario = make_synthetic_scenario(
                    rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=20, seed=31,
                    extent_meters=600.0,
                )
                config = ServiceConfig(prime_bits=32, seed=19, journal_path=journal_path)
                service = AlertService(
                    scenario.grid, scenario.probabilities, config=config
                )
                for i in range(6):
                    service.subscribe(Subscribe(
                        user_id=f"user-{i:03d}",
                        location=scenario.grid.cell_center(i),
                    ))
                service.publish_zone(PublishZone(
                    alert_id="zone-a",
                    zone=AlertZone(cell_ids=(5, 6, 7, 11)),
                    evaluate=False,
                ))
                service.snapshot(snapshot_path)
                service.move(Move(
                    user_id="user-000", location=scenario.grid.cell_center(6)
                ))
                service.move(Move(
                    user_id="user-001", location=scenario.grid.cell_center(7)
                ))
                os.kill(os.getpid(), signal.SIGKILL)
                """
            ),
            encoding="utf-8",
        )
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, str(script), str(journal_path), str(snapshot_path)],
            env=env,
            timeout=180,
            capture_output=True,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert snapshot_path.exists()
        # The two moves outlived the process: journaled ahead of execution.
        tail = [payload for seq, payload in _entries(journal_path) if seq > 7]
        assert [payload["type"] for payload in tail] == ["move", "move"]

        # The reference outcome: the same session, never crashed.
        with AlertService(
            scenario.grid,
            scenario.probabilities,
            config=_recovery_config(tmp_path / "reference-wal.log"),
        ) as reference:
            _drive_session(reference, scenario)
            reference.move(Move(user_id="user-000", location=scenario.grid.cell_center(6)))
            reference.move(Move(user_id="user-001", location=scenario.grid.cell_center(7)))
            expected = reference.evaluate_standing().notified_users

        recovered = AlertService(
            scenario.grid, scenario.probabilities, config=_recovery_config(journal_path)
        )
        try:
            recovered.restore(snapshot_path)
            report = recovered.evaluate_standing()
            assert report.notified_users == expected
        finally:
            recovered.close()

    def test_snapshot_records_zero_journal_seq_without_a_journal(self, tmp_path, scenario):
        config = ServiceConfig(prime_bits=32, seed=19)
        with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
            _drive_session(service, scenario)
            payload = service.snapshot(tmp_path / "state.json")
        assert payload["journal_seq"] == 0


class TestOriginsAndWriteFailures:
    """Admission origins on journal entries + the typed write-failure path."""

    ORIGIN_A = ("client-a", 7, 3)
    ORIGIN_B = ("client-b", 9, 12)

    def _requests(self):
        return [
            Subscribe(user_id="alice", location=Point(1.0, 2.0)),
            Move(user_id="alice", location=Point(3.0, 4.0)),
        ]

    def test_origins_round_trip_and_survive_reopen(self, tmp_path):
        path = tmp_path / "wal.log"
        reqs = self._requests()
        with RequestJournal(path) as journal:
            journal.append(reqs[0], origins=[self.ORIGIN_A])
            journal.append(reqs[1])  # local caller: no origin
            journal.append_batch(reqs, origins=[[self.ORIGIN_A, self.ORIGIN_B], None])
            records = journal.records()
        assert [origins for _, _, origins in records] == [
            [self.ORIGIN_A], [], [self.ORIGIN_A, self.ORIGIN_B], []
        ]
        # Reopen: parsed back off disk, typed tuples intact.
        with RequestJournal(path) as journal:
            assert [o for _, _, o in journal.replay_records_after(1)] == [
                [], [self.ORIGIN_A, self.ORIGIN_B], []
            ]

    def test_pre_origin_journals_replay_with_empty_origins(self, tmp_path):
        # Journals written before the origins field must replay unchanged.
        path = tmp_path / "wal.log"
        with RequestJournal(path) as journal:
            journal.append(self._requests()[0])
        with RequestJournal(path) as journal:
            (seq, payload, origins), = journal.records()
        assert (seq, origins) == (1, [])
        assert "origins" not in path.read_text(encoding="utf-8")

    def test_append_batch_rejects_misaligned_origins(self, tmp_path):
        with RequestJournal(tmp_path / "wal.log") as journal:
            with pytest.raises(ValueError, match="align"):
                journal.append_batch(self._requests(), origins=[[self.ORIGIN_A]])

    def test_checkpoint_preserves_origins_on_surviving_entries(self, tmp_path):
        path = tmp_path / "wal.log"
        with RequestJournal(path) as journal:
            journal.append(self._requests()[0], origins=[self.ORIGIN_A])
            journal.append(self._requests()[1], origins=[self.ORIGIN_B])
            journal.checkpoint(1)
            (seq, _, origins), = journal.records()
        assert (seq, origins) == (2, [self.ORIGIN_B])

    def test_injected_write_failure_raises_typed_error_and_rolls_back(self, tmp_path):
        from repro.service.faults import FaultInjector, FaultPlan
        from repro.service.journal import JournalWriteError

        path = tmp_path / "wal.log"
        with RequestJournal(path) as journal:
            journal.append(self._requests()[0])
            durable = path.read_bytes()
            journal.fault_injector = FaultInjector(
                FaultPlan.parse("journal_write_fail=1.0", seed=3)
            )
            with pytest.raises(JournalWriteError):
                journal.append(self._requests()[1], origins=[self.ORIGIN_A])
            with pytest.raises(JournalWriteError):
                journal.append_batch(self._requests())
            # The failure consumed no sequence numbers and left no partial
            # bytes -- the file is byte-identical to the last durable state.
            assert journal.last_seq == 1
            assert path.read_bytes() == durable
            assert journal.fault_injector.counts["journal_write_fail"] == 2
            # Disarm: the next append lands on the next sequence number with
            # no gap and no duplicate.
            journal.fault_injector = None
            assert journal.append(self._requests()[1]) == 2
        assert [seq for seq, _ in _entries(path)] == [1, 2]
