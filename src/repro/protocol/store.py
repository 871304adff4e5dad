"""The service provider's ciphertext store: freshness and persistence.

The in-memory :class:`~repro.protocol.entities.ServiceProvider` keeps exactly
one ciphertext per user; a production deployment additionally needs

* **freshness management** -- location reports age out: a user who stopped
  reporting should not be matched against (and notified for) zones they left
  hours ago;
* **persistence** -- the provider must survive restarts without asking every
  subscriber to re-upload.

Matching a batch of alerts against the store in one pass is
:meth:`MatchingEngine.match_store <repro.protocol.matching.MatchingEngine.match_store>`;
:meth:`CiphertextStore.save` / :meth:`CiphertextStore.load` take the same
engine to persist and restore its remembered outcomes with the ciphertexts.  The
persistence format stores only what the provider legitimately holds anyway:
pseudonyms, ciphertext components and timestamps -- never plaintext locations.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.crypto.group import BilinearGroup
from repro.crypto.hve import HVECiphertext
from repro.crypto.serialization import deserialize_ciphertext, serialize_ciphertext
from repro.durability import atomic_write_bytes
from repro.protocol.matching import MatchCandidate, MatchingEngine
from repro.protocol.messages import LocationUpdate

__all__ = ["StoredReport", "CiphertextStore"]


@dataclass(frozen=True)
class StoredReport:
    """One user's latest encrypted location report plus its metadata."""

    user_id: str
    ciphertext: HVECiphertext
    sequence_number: int
    reported_at: float

    def age(self, now: float) -> float:
        """Seconds elapsed since the report was received."""
        return max(0.0, now - self.reported_at)


class CiphertextStore:
    """The service provider's database of encrypted location reports.

    Parameters
    ----------
    max_age_seconds:
        Reports older than this are considered stale and excluded from
        matching (and can be purged).  ``None`` disables expiry.
    """

    def __init__(self, max_age_seconds: Optional[float] = None):
        if max_age_seconds is not None and max_age_seconds <= 0:
            raise ValueError("max_age_seconds must be positive (or None to disable expiry)")
        self.max_age_seconds = max_age_seconds
        self._reports: dict[str, StoredReport] = {}
        #: Matching-engine state snapshot found by :meth:`load` (``None`` when
        #: the file predates state persistence or none was saved).
        self.matching_state: Optional[dict] = None
        #: Optional :class:`~repro.service.faults.FaultInjector` hook; the
        #: session wires it in for chaos runs (snapshot tears here).  ``None``
        #: in production.
        self.fault_injector = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, update: LocationUpdate, received_at: float) -> bool:
        """Store an update; returns True if it replaced / created the user's record.

        Stale updates (an older sequence number than what is stored) are
        ignored, which makes ingestion idempotent under re-delivery.  An
        equal sequence number replaces the report; when its ciphertext
        differs (a device restarted its numbering) the caller must forget
        the user's remembered outcomes, as ``AlertService`` does.
        """
        existing = self._reports.get(update.user_id)
        if existing is not None and update.sequence_number < existing.sequence_number:
            return False
        self._reports[update.user_id] = StoredReport(
            user_id=update.user_id,
            ciphertext=update.ciphertext,
            sequence_number=update.sequence_number,
            reported_at=received_at,
        )
        return True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._reports)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._reports

    def report_for(self, user_id: str) -> StoredReport:
        """The stored report of one user (KeyError if absent)."""
        return self._reports[user_id]

    def fresh_reports(self, now: float) -> list[StoredReport]:
        """All reports that are still fresh at time ``now``, sorted by user id.

        Expired reports are filtered out *before* sorting, so the sort cost
        scales with the fresh population, not the whole store.
        """
        reports: Iterable[StoredReport] = self._reports.values()
        if self.max_age_seconds is not None:
            reports = (r for r in reports if r.age(now) <= self.max_age_seconds)
        return sorted(reports, key=lambda r: r.user_id)

    def fresh_candidates(self, now: float) -> list[MatchCandidate]:
        """The fresh reports as match candidates, sorted by user id.

        The single construction site of the store-to-candidate mapping
        (including the sequence numbers the engine's outcome reuse relies
        on), shared by :meth:`MatchingEngine.match_store` and the session
        service.
        """
        return [
            MatchCandidate(
                user_id=report.user_id,
                ciphertext=report.ciphertext,
                sequence_number=report.sequence_number,
            )
            for report in self.fresh_reports(now)
        ]

    def stale_users(self, now: float) -> list[str]:
        """Users whose latest report has expired."""
        if self.max_age_seconds is None:
            return []
        return sorted(r.user_id for r in self._reports.values() if r.age(now) > self.max_age_seconds)

    def purge_stale(self, now: float) -> list[str]:
        """Drop expired reports; returns the purged user ids, sorted."""
        stale = self.stale_users(now)
        for user_id in stale:
            del self._reports[user_id]
        return stale

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_payload(self, engine: Optional[MatchingEngine] = None) -> dict:
        """JSON-compatible snapshot of the store (ciphertexts in wire format).

        When ``engine`` is given, its remembered outcomes
        (standing alerts, token signatures, last-seen sequence numbers and
        outcomes -- see :meth:`MatchingEngine.export_state`) is embedded in
        the same payload.  :meth:`save` writes this payload to a file;
        :meth:`repro.service.service.AlertService.snapshot` embeds it inside
        the wider session snapshot.
        """
        payload: dict = {
            "max_age_seconds": self.max_age_seconds,
            "reports": [
                {
                    "user_id": report.user_id,
                    "sequence_number": report.sequence_number,
                    "reported_at": report.reported_at,
                    "ciphertext": serialize_ciphertext(report.ciphertext),
                }
                for report in sorted(self._reports.values(), key=lambda r: r.user_id)
            ],
        }
        if engine is not None:
            payload["matching_state"] = engine.export_state()
        return payload

    @classmethod
    def from_payload(
        cls,
        payload: dict,
        group: BilinearGroup,
        engine: Optional[MatchingEngine] = None,
    ) -> "CiphertextStore":
        """Rebuild a store from :meth:`to_payload` output.

        When ``engine`` is given and the payload carries a matching-state
        snapshot, the engine's remembered outcomes are restored from it.  The
        raw snapshot (or ``None``) is also kept on the returned store as
        ``matching_state`` so a caller can defer engine construction.
        """
        store = cls(max_age_seconds=payload.get("max_age_seconds"))
        for entry in payload.get("reports", []):
            report = StoredReport(
                user_id=entry["user_id"],
                ciphertext=deserialize_ciphertext(group, entry["ciphertext"]),
                sequence_number=int(entry["sequence_number"]),
                reported_at=float(entry["reported_at"]),
            )
            store._reports[report.user_id] = report
        store.matching_state = payload.get("matching_state")
        if engine is not None and store.matching_state is not None:
            engine.import_state(store.matching_state)
        return store

    def save(self, path: str | pathlib.Path, engine: Optional[MatchingEngine] = None) -> None:
        """Persist the store as JSON (see :meth:`to_payload`).

        When ``engine`` is given, its remembered outcomes are embedded in the
        same file, so a provider restart restores both the
        ciphertexts and the standing-alert caches in one step.

        The write is atomic (tmp file + fsync + rename): a crash mid-save
        leaves the previous snapshot intact instead of a torn JSON file that
        :meth:`load` would choke on.
        """
        payload = json.dumps(self.to_payload(engine)).encode("utf-8")
        if self.fault_injector is not None:
            self.fault_injector.maybe_tear_snapshot(path, payload)
        atomic_write_bytes(path, payload)

    @classmethod
    def load(
        cls,
        path: str | pathlib.Path,
        group: BilinearGroup,
        engine: Optional[MatchingEngine] = None,
    ) -> "CiphertextStore":
        """Restore a store previously written by :meth:`save`.

        See :meth:`from_payload` for how ``engine`` participates.
        """
        payload = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
        return cls.from_payload(payload, group, engine=engine)

