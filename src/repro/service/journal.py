"""Write-ahead request journal: crash-safe durability between snapshots.

A snapshot (:meth:`~repro.service.service.AlertService.snapshot`) is a point
in time; everything the session mutates *after* it would be lost to a crash.
The :class:`RequestJournal` closes that window with the classic write-ahead
rule: every request is appended -- flushed and fsynced -- **before** it
executes (an evaluation tick too: it advances the clock, purges expired
reports and updates the engine's remembered outcomes), so after a ``kill -9``
the session restores the latest snapshot and replays the journal's newer
entries to land exactly where it crashed.

Format: one entry per line, ``crc32_hex<TAB>json``, where the JSON body
carries a monotonically increasing ``seq`` and the request payload
(:func:`request_to_payload`).  Entries admitted over the network additionally
carry their ``origins`` -- the ``(client_id, epoch, request_id)`` pairs the
request was admitted under -- so crash recovery can rebuild the per-client
idempotency table (:mod:`repro.service.admission`) and answer a retried
request with its cached response instead of executing it twice.  Readers
ignore keys they do not know, so pre-origin journals replay unchanged.  The
per-line checksum makes the journal self-validating: a torn tail (the crash
hit mid-append) fails its CRC and replay stops cleanly at the last durable
entry instead of raising.  Snapshots record the journal sequence they cover
(``journal_seq``); a later :meth:`RequestJournal.checkpoint` drops the
entries the snapshot already embodies, bounding the file.

Append failures (ENOSPC, a yanked volume, an injected ``journal_write_fail``
fault) surface as the typed :class:`JournalWriteError` *after* rolling the
file back to its pre-append length, so the sequence counter and the on-disk
tail stay consistent and the server can answer the affected requests with a
structured error and keep serving.

Requests serialize to plain JSON: client-side requests carry plaintext
coordinates (the service re-encrypts on replay, exactly as the live request
did), provider-side :class:`~repro.service.requests.IngestBatch` entries use
the ciphertext wire form -- the journal never stores anything the provider
does not legitimately hold.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
from typing import Optional, Sequence

from repro.durability import atomic_write_text, checksum_text
from repro.service.faults import InjectedFault
from repro.service.requests import Request, request_from_wire, request_to_wire

__all__ = [
    "JournalWriteError",
    "RequestJournal",
    "request_to_payload",
    "request_from_payload",
]


class JournalWriteError(RuntimeError):
    """A durable append failed (and was rolled back); the entry did not land.

    The write-ahead rule means the affected requests were never executed, so
    the server answers them with this error instead of crashing -- the client
    may retry, and a later append starts from the same sequence number.
    """


# ----------------------------------------------------------------------
# Request (de)serialization
# ----------------------------------------------------------------------
# The journal entry format *is* the request wire form (the dataclasses'
# ``to_wire``/``from_wire`` -- the same payloads the network codec frames),
# so a journaled request and a framed request are byte-for-byte identical.
# These aliases keep the journal's historical entry-point names.
def request_to_payload(request: Request) -> dict:
    """JSON-compatible form of one service request."""
    return request_to_wire(request)


def request_from_payload(payload: dict, group) -> Request:
    """Rebuild the request :func:`request_to_payload` serialized.

    ``group`` (the deployment's :class:`~repro.crypto.group.BilinearGroup`)
    is only needed for ``ingest_batch`` ciphertexts.
    """
    return request_from_wire(payload, group=group)


# ----------------------------------------------------------------------
# The journal file
# ----------------------------------------------------------------------
class RequestJournal:
    """Append-only, checksummed, fsynced journal of request payloads.

    Parameters
    ----------
    path:
        The journal file; created on first append, re-opened for append when
        it already exists (the sequence resumes after the last valid entry,
        so a restarted session keeps appending where the crashed one stopped).
    fsync:
        Fsync after every append (default).  Disable only for tests that
        hammer the journal and do not care about power-loss durability.
    fault_injector:
        Optional :class:`~repro.service.faults.FaultInjector`; when set, the
        seeded ``fsync_delay`` fault site fires on every durable sync (the
        chaos soak's model of slow durable storage).  Outcome-neutral: the
        sync still happens, just late.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        fsync: bool = True,
        fault_injector=None,
    ):
        self.path = pathlib.Path(path)
        self.fsync = fsync
        self.fault_injector = fault_injector
        self._seq = 0
        #: How many multi-entry batches landed under a single fsync.
        self.group_commits = 0
        #: fsyncs avoided by batching: sum over batches of (entries - 1).
        self.fsyncs_saved = 0
        if self.path.exists():
            self._truncate_torn_tail()
        existing = self.records()
        if existing:
            self._seq = existing[-1][0]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")

    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent durable entry (0 = none)."""
        return self._seq

    @staticmethod
    def _entry_line(seq: int, payload: dict, origins: Optional[Sequence] = None) -> str:
        record: dict = {"seq": seq, "request": payload}
        if origins:
            record["origins"] = [list(origin) for origin in origins]
        body = json.dumps(record, separators=(",", ":"))
        return f"{checksum_text(body):08x}\t{body}\n"

    def _sync(self) -> None:
        """Flush + fsync: the durability point every append path funnels into."""
        self._file.flush()
        if self.fsync:
            injector = self.fault_injector
            if injector is not None:
                injector.journal_fsync()
            os.fsync(self._file.fileno())

    def _pre_append_size(self) -> Optional[int]:
        """Byte length of the durable file before an append, for rollback."""
        with contextlib.suppress(OSError, ValueError):
            self._file.flush()
            return self.path.stat().st_size
        return None

    def _rollback_to(self, size: Optional[int]) -> None:
        """Best-effort truncate back to the pre-append length after a failure.

        Keeps the live file consistent with the unchanged ``_seq`` counter so
        the next append does not mint duplicate sequence numbers; even if the
        truncate itself fails, the CRC torn-tail rule makes the leftover bytes
        harmless on the next reopen.
        """
        if size is None:
            return
        with contextlib.suppress(OSError, ValueError):
            self._file.flush()
        with contextlib.suppress(OSError, ValueError):
            os.ftruncate(self._file.fileno(), size)

    def append(self, request: Request, origins: Optional[Sequence] = None) -> int:
        """Durably append one request; returns its sequence number.

        The entry is flushed and fsynced before this returns -- the caller
        may only *execute* the request afterwards (the write-ahead rule).
        ``origins`` are the network admission pairs the request was admitted
        under (see module docstring); local callers leave them unset.
        """
        seq = self._seq + 1
        before = self._pre_append_size()
        try:
            injector = self.fault_injector
            if injector is not None:
                injector.journal_write()
            self._file.write(self._entry_line(seq, request_to_payload(request), origins))
            self._sync()
        except (OSError, InjectedFault) as exc:
            self._rollback_to(before)
            raise JournalWriteError(f"journal append failed: {exc}") from exc
        self._seq = seq
        return seq

    def append_batch(
        self,
        requests: list[Request],
        origins: Optional[Sequence[Optional[Sequence]]] = None,
    ) -> list[int]:
        """Durably append many requests under **one** buffered write + fsync.

        The group-commit fast path: all entries of one coalesced tick are
        serialized, written in a single buffered write and made durable with
        a single fsync before *any* of them may execute.  The crash contract
        is unchanged from :meth:`append` -- a crash mid-batch loses at most
        the un-fsynced suffix, and a torn last line is dropped by the CRC on
        reopen.  ``origins``, when given, is aligned with ``requests`` (one
        origin list or None per entry).  Returns the assigned sequence
        numbers, in order.
        """
        requests = list(requests)
        if not requests:
            return []
        if origins is None:
            origins = [None] * len(requests)
        if len(origins) != len(requests):
            raise ValueError("origins must align one-to-one with requests")
        seqs: list[int] = []
        lines: list[str] = []
        for request, entry_origins in zip(requests, origins):
            seq = self._seq + len(seqs) + 1
            seqs.append(seq)
            lines.append(self._entry_line(seq, request_to_payload(request), entry_origins))
        before = self._pre_append_size()
        try:
            injector = self.fault_injector
            if injector is not None:
                injector.journal_write()
            self._file.write("".join(lines))
            self._sync()
        except (OSError, InjectedFault) as exc:
            self._rollback_to(before)
            raise JournalWriteError(f"journal append failed: {exc}") from exc
        self._seq = seqs[-1]
        if len(requests) > 1:
            self.group_commits += 1
            self.fsyncs_saved += len(requests) - 1
        return seqs

    @staticmethod
    def _parse_line(line: str) -> Optional[tuple[int, dict, list]]:
        """One ``crc<TAB>json`` line as ``(seq, request, origins)``, or None.

        ``origins`` is a (possibly empty) list of ``(client_id, epoch,
        request_id)`` tuples; pre-origin entries parse with an empty list, so
        journals written before this field replay unchanged.
        """
        crc_hex, sep, body = line.partition("\t")
        if not sep:
            return None
        try:
            expected = int(crc_hex, 16)
        except ValueError:
            return None
        if checksum_text(body) != expected:
            return None
        try:
            record = json.loads(body)
        except ValueError:
            return None
        seq = record.get("seq")
        if not isinstance(seq, int) or "request" not in record:
            return None
        raw_origins = record.get("origins") or []
        origins = [
            (str(client_id), int(epoch), int(request_id))
            for client_id, epoch, request_id in raw_origins
        ]
        return (seq, record["request"], origins)

    def _truncate_torn_tail(self) -> None:
        """Cut a crash's half-written last line off the file.

        Without this, re-opening in append mode would concatenate the *next*
        entry onto the torn fragment, invalidating a perfectly durable write.
        The write-ahead rule guarantees the torn request never executed, so
        dropping the fragment loses nothing.
        """
        raw = self.path.read_bytes()
        durable = 0
        for line in raw.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break
            text = line[:-1].decode("utf-8", errors="replace")
            if text and self._parse_line(text) is None:
                break
            durable += len(line)
        if durable < len(raw):
            with open(self.path, "r+b") as handle:
                handle.truncate(durable)

    def records(self) -> list[tuple[int, dict, list]]:
        """All valid ``(seq, request payload, origins)`` records, in order.

        Parsing stops at the first line that fails its checksum or does not
        parse -- by construction that can only be a torn tail from a crash
        mid-append, and the write-ahead rule means the request it described
        never executed, so dropping it is exactly right.
        """
        if not self.path.exists():
            return []
        records: list[tuple[int, dict, list]] = []
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line:
                    continue
                parsed = self._parse_line(line)
                if parsed is None:
                    break
                records.append(parsed)
        return records

    def entries(self) -> list[tuple[int, dict]]:
        """All valid ``(seq, request payload)`` entries, in order (the
        historical two-tuple view of :meth:`records`)."""
        return [(seq, payload) for seq, payload, _ in self.records()]

    def replay_after(self, seq: int) -> list[tuple[int, dict]]:
        """The entries newer than ``seq`` (what a snapshot at ``seq`` misses)."""
        return [(s, payload) for s, payload in self.entries() if s > seq]

    def replay_records_after(self, seq: int) -> list[tuple[int, dict, list]]:
        """Like :meth:`replay_after`, with each entry's admission origins."""
        return [record for record in self.records() if record[0] > seq]

    def checkpoint(self, upto_seq: int) -> int:
        """Drop entries covered by a snapshot at ``upto_seq``; returns how many.

        The surviving tail is rewritten atomically (tmp + fsync + rename) and
        record-preserving -- origins ride along -- so a crash mid-checkpoint
        leaves either the old or the new journal, never a half-truncated one.
        Sequence numbers keep counting from where they were.
        """
        records = self.records()
        kept = [record for record in records if record[0] > upto_seq]
        dropped = len(records) - len(kept)
        if dropped <= 0:
            return 0
        lines = [self._entry_line(seq, payload, origins) for seq, payload, origins in kept]
        self._file.close()
        atomic_write_text(self.path, "".join(lines))
        self._file = open(self.path, "a", encoding="utf-8")
        return dropped

    def close(self) -> None:
        if self._file is not None and not self._file.closed:
            self._file.close()

    def __enter__(self) -> "RequestJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
