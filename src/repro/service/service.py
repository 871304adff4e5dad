"""The :class:`AlertService`: the library's session-oriented front door.

The paper's protocol is a *standing* service: users continuously upload
encrypted locations and the provider continuously evaluates alert zones.  The
underlying :class:`~repro.protocol.alert_system.SecureAlertSystem` is
call-oriented -- every alert re-plans its tokens.  Following the classic expert-system
*shell* pattern (a stable typed facade over an evolving inference core), this
module makes **sessions** the unit of work instead:

* one :class:`~repro.service.config.ServiceConfig` configures the whole
  deployment (encoding, crypto, matching, freshness);
* requests and responses are the typed dataclasses of
  :mod:`repro.service.requests`;
* the service owns the :class:`~repro.protocol.matching.MatchingEngine` and
  the :class:`~repro.protocol.store.CiphertextStore`;
* standing zones keep their minted :class:`~repro.protocol.messages.TokenBatch`
  objects alive, which is exactly what lets the engine's plan cache (and the
  plan's resident packed worklist) serve warm evaluations;
* ``snapshot()``/``restore()`` persist the session (store + the engine's
  remembered outcomes + standing-zone tokens) through the existing
  ``CiphertextStore``/``MatchingEngine`` serialization;
* observer hooks receive per-request :class:`~repro.service.requests.RequestMetrics`
  (pairings, plan reuse, candidates) for monitoring.

Driving a session is parity-tested against driving a bare
``SecureAlertSystem``: identical notifications and bit-exact pairing totals.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Union

from repro.crypto.serialization import deserialize_token, serialize_token
from repro.durability import atomic_write_bytes
from repro.encoding import scheme_by_name
from repro.encoding.base import EncodingScheme
from repro.grid.alert_zone import AlertZone, circular_alert_zone
from repro.grid.grid import Grid
from repro.protocol.alert_system import SecureAlertSystem, SystemInitStats
from repro.protocol.matching import MatchingEngine
from repro.protocol.messages import LocationUpdate, TokenBatch
from repro.protocol.store import CiphertextStore
from repro.service.admission import AdmissionLedger
from repro.service.config import ServiceConfig
from repro.service.faults import FaultInjector
from repro.service.journal import RequestJournal, request_from_payload
from repro.service.requests import (
    EvaluateStanding,
    IngestBatch,
    IngestReceipt,
    MatchReport,
    Move,
    PublishZone,
    Request,
    RequestMetrics,
    RetractReceipt,
    RetractZone,
    Subscribe,
    UnknownRequestError,
    response_to_wire,
)

__all__ = ["AlertService", "SessionStats", "StandingZone"]

Observer = Callable[[RequestMetrics], None]
Response = Union[IngestReceipt, MatchReport, RetractReceipt]


@dataclass(frozen=True)
class StandingZone:
    """One zone under periodic re-evaluation: its tokens, label and shape.

    The ``batch`` object's identity is load-bearing: as long as it is reused,
    the engine's plan cache and packed worklist stay warm.
    """

    batch: TokenBatch
    description: str = ""
    zone: Optional[AlertZone] = None

    @property
    def alert_id(self) -> str:
        return self.batch.alert_id


@dataclass(frozen=True)
class SessionStats:
    """Aggregate health facts of one service session."""

    requests_handled: int
    pairings_spent: int
    plan_builds: int
    plan_reuses: int
    #: Journal group-commit totals (the network tier's tick batching):
    #: multi-entry batches landed under one fsync, and the fsyncs batching
    #: avoided versus the per-request write-ahead path.
    journal_group_commits: int = 0
    journal_fsyncs_saved: int = 0


class AlertService:
    """A long-lived session over the secure location-alert protocol.

    Parameters
    ----------
    grid / probabilities:
        The served area and its public per-cell alert likelihoods (ignored
        when adopting an existing ``system``).
    config:
        The unified :class:`ServiceConfig`; defaults throughout.
    scheme:
        Pre-built encoding scheme overriding ``config.scheme``.
    system:
        Adopt an already-constructed
        :class:`~repro.protocol.alert_system.SecureAlertSystem`: its engine
        and parties are reused, its stored
        ciphertexts back-fill the session store, and future uploads flow into
        both.

    Example
    -------
    >>> from repro.datasets.synthetic import make_synthetic_scenario
    >>> from repro.service import AlertService, PublishZone, ServiceConfig, Subscribe
    >>> scenario = make_synthetic_scenario(rows=4, cols=4, seed=3)
    >>> service = AlertService(
    ...     scenario.grid, scenario.probabilities,
    ...     config=ServiceConfig(prime_bits=32, seed=1),
    ... )
    >>> service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(5)))
    IngestReceipt(user_id='alice', sequence_number=0, stored=True)
    >>> report = service.publish_zone(
    ...     PublishZone(alert_id="demo", zone=AlertZone(cell_ids=(5, 6)))
    ... )
    >>> report.notified_users
    ('alice',)
    """

    def __init__(
        self,
        grid: Optional[Grid] = None,
        probabilities: Optional[Sequence[float]] = None,
        config: Optional[ServiceConfig] = None,
        *,
        scheme: Optional[EncodingScheme] = None,
        system: Optional[SecureAlertSystem] = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        if system is None:
            if grid is None or probabilities is None:
                raise ValueError("pass grid= and probabilities= (or adopt an existing system=)")
            scheme = scheme if scheme is not None else scheme_by_name(
                self.config.scheme, self.config.alphabet_size
            )
            system = SecureAlertSystem(
                grid,
                probabilities,
                scheme=scheme,
                prime_bits=self.config.prime_bits,
                rng=random.Random(self.config.seed),
                matching=self.config.matching_options(),
                backend=self.config.crypto_backend,
            )
        self.system = system
        self.engine: MatchingEngine = system.provider.engine
        fault_plan = self.config.fault_plan()
        #: Non-None only for chaos runs (``config.faults``); wired into the
        #: store's and the session's snapshot writes and the journal's syncs.
        self.fault_injector = (
            FaultInjector(fault_plan) if fault_plan is not None and fault_plan.any_active else None
        )
        self.store = CiphertextStore(max_age_seconds=self.config.max_age_seconds)
        self.store.fault_injector = self.fault_injector
        #: Write-ahead request journal (``config.journal_path``); every
        #: request is durably appended before it executes.  The network
        #: tier group-commits whole ticks through :meth:`journal_requests`.
        self.journal: Optional[RequestJournal] = (
            RequestJournal(self.config.journal_path, fault_injector=self.fault_injector)
            if self.config.journal_path is not None
            else None
        )
        self._replaying = False
        # Identities of requests already covered by a group commit: their
        # handlers must not append a duplicate entry.  Ids are added by the
        # journal stage (before execution starts) and discarded by the
        # handler's append check, so membership is strictly ahead of use.
        self._prejournaled: set[int] = set()
        #: Per-client exactly-once state for the network tier.  Lives here
        #: (not on the server) because crash recovery owns it: journal
        #: entries carry their admission origins, and replay/restore re-cache
        #: each origin's response so a post-crash retry is answered, not
        #: re-executed.
        self.admission = AdmissionLedger()
        self._clock = 0.0
        self._zones: dict[str, StandingZone] = {}
        self._observers: list[Observer] = []
        self._requests_handled = 0
        self._closed = False
        # (user_id, sequence_number, stored) of the most recent store ingest.
        self._last_ingest: tuple[Optional[str], int, bool] = (None, 0, False)

        # Every upload the system performs from now on also lands in the
        # session store; ciphertexts uploaded before adoption are back-filled.
        system.update_sinks.append(self._store_update)
        for user_id in system.provider.subscribers():
            self._store_update(system.provider.latest_update(user_id))

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Dispatch any typed request to its handler.

        Raises :class:`~repro.service.requests.UnknownRequestError` (a
        :class:`TypeError` subclass carrying the recognised type names) for
        anything that is not a typed request -- the network tier forwards the
        list so remote clients learn what would have worked.
        """
        handler = self._HANDLERS.get(type(request))
        if handler is None:
            raise UnknownRequestError(
                type(request).__name__, tuple(t.__name__ for t in self._HANDLERS)
            )
        return handler(self, request)

    def subscribe(self, request: Subscribe) -> IngestReceipt:
        """Register a user and ingest their first encrypted location.

        A pseudonym already known to the store (a client reconnecting after
        :meth:`restore`) is re-attached with its next sequence number so the
        fresh upload supersedes the restored report instead of starting over
        at zero and being dropped as stale.  A pseudonym whose report expired
        and was purged is unknown again and subscribes afresh.
        """
        self._journal_append(request)
        self._set_clock(request.at)
        if request.user_id not in self.system.users and request.user_id in self.store:
            sequence = self.store.report_for(request.user_id).sequence_number + 1
            self.system.reattach_user(request.user_id, request.location, sequence_number=sequence)
            self.system.move_user(request.user_id, request.location)
        else:
            self.system.register_user(request.user_id, request.location)
        receipt = self._receipt_for(request.user_id)
        self._emit("subscribe")
        return receipt

    def move(self, request: Move) -> IngestReceipt:
        """Record a user's movement (uploads + ingests a fresh ciphertext).

        A pseudonym known to the store but not to the in-memory registry
        (typical after :meth:`restore`) is transparently re-attached with the
        next sequence number before the upload.
        """
        self._journal_append(request)
        self._set_clock(request.at)
        if request.user_id not in self.system.users:
            if request.user_id not in self.store:
                raise KeyError(f"unknown user id {request.user_id!r}")
            sequence = self.store.report_for(request.user_id).sequence_number + 1
            self.system.reattach_user(request.user_id, request.location, sequence_number=sequence)
        self.system.move_user(request.user_id, request.location)
        receipt = self._receipt_for(request.user_id)
        self._emit("move")
        return receipt

    def ingest_batch(self, request: IngestBatch) -> MatchReport:
        """Ingest raw encrypted updates, then evaluate every standing zone."""
        self._journal_append(request)
        self._set_clock(request.at)
        for update in request.updates:
            self.system.provider.receive_update(update)
            self._store_update(update)
        if not request.evaluate or not self._zones:
            report = self._empty_report()
            self._emit("ingest_batch", report)
            return report
        return self._evaluate_batches("ingest_batch", self._standing_batches(), self._descriptions())

    def publish_zone(self, request: PublishZone) -> MatchReport:
        """Mint tokens for a zone, optionally keep it standing, and evaluate it."""
        self._journal_append(request)
        self._set_clock(request.at)
        zone = request.zone
        if zone is None:
            zone = circular_alert_zone(
                self.system.grid, request.epicenter, request.radius, label=request.alert_id
            )
        batch = self.system.issue_token_batch(zone, request.alert_id)
        if request.standing:
            self._zones[request.alert_id] = StandingZone(
                batch=batch, description=request.description, zone=zone
            )
        if not request.evaluate:
            report = self._empty_report()
            self._emit("publish_zone", report)
            return report
        descriptions = {request.alert_id: request.description} if request.description else None
        report = self._evaluate_batches("publish_zone", [batch], descriptions)
        if not request.standing:
            # A one-shot alert is never evaluated again: keep no outcomes.
            self.engine.forget_alert(request.alert_id)
        return report

    def retract_zone(self, request: RetractZone) -> RetractReceipt:
        """Retire a standing zone and drop its cached outcomes."""
        self._journal_append(request)
        self._set_clock(request.at)
        existed = request.alert_id in self._zones
        self._zones.pop(request.alert_id, None)
        self.engine.forget_alert(request.alert_id)
        self._emit("retract_zone")
        return RetractReceipt(alert_id=request.alert_id, existed=existed)

    def evaluate_standing(self, request: Optional[EvaluateStanding] = None) -> MatchReport:
        """The periodic tick: re-match every standing zone against fresh reports."""
        request = request if request is not None else EvaluateStanding()
        self._journal_append(request)
        self._set_clock(request.at)
        if not self._zones:
            self._purge_expired()
            report = self._empty_report()
            self._emit("evaluate_standing", report)
            return report
        return self._evaluate_batches(
            "evaluate_standing", self._standing_batches(), self._descriptions()
        )

    _HANDLERS: dict[type, Callable[["AlertService", Any], Response]] = {
        Subscribe: subscribe,
        Move: move,
        IngestBatch: ingest_batch,
        PublishZone: publish_zone,
        RetractZone: retract_zone,
        EvaluateStanding: evaluate_standing,
    }

    # ------------------------------------------------------------------
    # Evaluation core
    # ------------------------------------------------------------------
    def _standing_batches(self) -> list[TokenBatch]:
        # Insertion order; the *same* TokenBatch objects every tick, which is
        # what keeps the engine's plan cache (and packed worklist) warm.
        return [standing.batch for standing in self._zones.values()]

    def _descriptions(self) -> dict[str, str]:
        return {
            alert_id: standing.description
            for alert_id, standing in self._zones.items()
            if standing.description
        }

    def _purge_expired(self) -> None:
        """Forget the pseudonyms whose reports expired at the session clock:
        reports, hosted users and remembered outcomes."""
        purged = self.store.purge_stale(self._clock)
        if purged:
            self.engine.forget_users(purged)
            for user_id in purged:
                self.system.forget_user(user_id)

    def _evaluate_batches(
        self,
        request_name: str,
        batches: Sequence[TokenBatch],
        descriptions: Optional[dict[str, str]],
    ) -> MatchReport:
        self._purge_expired()
        counter = self.system.authority.group.counter
        pairings_before = counter.total
        reuses_before = self.engine.plan_reuses
        notifications = tuple(
            self.engine.match_store(batches, self.store, self._clock, descriptions=descriptions)
        )
        pass_stats = self.engine.last_pass
        report = MatchReport(
            notifications=notifications,
            alerts_evaluated=tuple(batch.alert_id for batch in batches),
            candidates=pass_stats.candidates,
            tokens_evaluated=sum(len(batch.tokens) for batch in batches),
            pairings_spent=counter.total - pairings_before,
            plan_reused=self.engine.plan_reuses > reuses_before,
            zones_evaluated=pass_stats.zones_evaluated,
            fused_evals=pass_stats.fused_evals,
            precomp_hits=pass_stats.precomp_hits,
        )
        self._emit(request_name, report)
        return report

    def _empty_report(self) -> MatchReport:
        # Nothing was evaluated: zero candidates, consistent with evaluation
        # reports counting the fresh candidates actually matched.
        return MatchReport(
            notifications=(),
            alerts_evaluated=(),
            candidates=0,
            tokens_evaluated=0,
            pairings_spent=0,
            plan_reused=False,
        )

    # ------------------------------------------------------------------
    # Clock and ingestion plumbing
    # ------------------------------------------------------------------
    def _set_clock(self, at: Optional[float]) -> None:
        if at is not None:
            self._clock = float(at)

    def advance_clock(self, seconds: float) -> float:
        """Advance the session clock (drives report freshness); returns it."""
        if seconds < 0:
            raise ValueError("the session clock cannot run backwards")
        self._clock += seconds
        return self._clock

    @property
    def clock(self) -> float:
        """The session's logical time, used for report freshness."""
        return self._clock

    def _store_update(self, update: LocationUpdate) -> None:
        user_id = update.user_id
        previous = self.store.report_for(user_id) if user_id in self.store else None
        stored = self.store.ingest(update, received_at=self._clock)
        same = previous is not None and previous.sequence_number == update.sequence_number
        if same and previous.ciphertext != update.ciphertext:
            # Outcomes are remembered per (user, sequence number): a device
            # that restarts its numbering from a new cell is evaluated afresh.
            self.engine.forget_users([user_id])
        # Remembered for the receipt of the request currently being handled
        # (uploads reach the sink synchronously).
        self._last_ingest = (update.user_id, update.sequence_number, stored)

    def _receipt_for(self, user_id: str) -> IngestReceipt:
        last_user, last_sequence, last_stored = self._last_ingest
        if last_user == user_id:
            return IngestReceipt(user_id=user_id, sequence_number=last_sequence, stored=last_stored)
        report = self.store.report_for(user_id)
        return IngestReceipt(user_id=user_id, sequence_number=report.sequence_number, stored=True)

    def _journal_append(self, request: Request) -> None:
        """Write-ahead: durably record a request before executing it (every
        request mutates the session; see :mod:`repro.service.journal`).

        No-op without a configured journal, during :meth:`restore`'s replay
        (replayed requests are already in the journal), and for requests a
        tick's :meth:`journal_requests` group commit already made durable.
        """
        if self.journal is None or self._replaying:
            return
        if self._prejournaled and id(request) in self._prejournaled:
            self._prejournaled.discard(id(request))
            return
        self.journal.append(request)

    def journal_requests(
        self, requests: Sequence[Request], origins: Optional[Sequence] = None
    ) -> int:
        """Group-commit a tick's requests ahead of their execution.

        The network tier's journal stage: every request of one coalesced
        tick is appended under a **single** buffered write + fsync, then
        marked pre-journaled so the per-request handlers skip the duplicate
        append.  The write-ahead contract is exactly the per-request
        one -- all entries are durable before any of them executes -- at one
        fsync per tick instead of one per request.  ``origins``, when given,
        aligns with ``requests`` (one list of ``(client_id, epoch,
        request_id)`` admission pairs, or None, per request) and is journaled
        alongside each entry so replay can rebuild the idempotency table.
        Returns how many entries were written.
        """
        if self.journal is None or self._replaying or not requests:
            return 0
        self.journal.append_batch(requests, origins=origins)
        for request in requests:
            self._prejournaled.add(id(request))
        return len(requests)

    def replay_journal(self) -> int:
        """Journal-only recovery: re-execute every durable entry, in order.

        The snapshotless counterpart of :meth:`restore`: a fresh session
        whose journal file survived a crash replays the fsynced prefix
        exactly (a torn tail was already truncated on open) and lands where
        the crashed session durably stopped.  Returns the entries replayed.
        """
        if self.journal is None:
            return 0
        records = self.journal.records()
        if not records:
            return 0
        group = self.system.authority.group
        self._replaying = True
        try:
            for _, request_payload, origins in records:
                self._replay_one(request_payload, origins, group)
        finally:
            self._replaying = False
        return len(records)

    def _replay_one(self, request_payload: dict, origins: Sequence, group) -> None:
        """Re-execute one journal record and re-cache its admission answers.

        Every origin the entry was admitted under is owed the (single)
        execution's response: a client that was journaled-then-crashed and
        retries after the restart must get this cached answer, not a second
        execution.
        """
        response = self.handle(request_from_payload(request_payload, group))
        if origins:
            payload = response_to_wire(response)
            for origin in origins:
                self.admission.record_replayed(tuple(origin), payload)

    # ------------------------------------------------------------------
    # Observer hooks and stats
    # ------------------------------------------------------------------
    def add_observer(self, observer: Observer) -> None:
        """Register a per-request metrics callback (see :class:`RequestMetrics`)."""
        self._observers.append(observer)

    def remove_observer(self, observer: Observer) -> None:
        """Unregister a previously added callback (no-op if absent)."""
        if observer in self._observers:
            self._observers.remove(observer)

    def _emit(self, request_name: str, report: Optional[MatchReport] = None) -> None:
        self._requests_handled += 1
        if not self._observers:
            return
        metrics = RequestMetrics(
            request=request_name,
            pairings_spent=report.pairings_spent if report is not None else 0,
            plan_reused=report.plan_reused if report is not None else False,
            notifications=len(report.notifications) if report is not None else 0,
            candidates=report.candidates if report is not None else 0,
            zones_evaluated=report.zones_evaluated if report is not None else 0,
            fused_evals=report.fused_evals if report is not None else 0,
            precomp_hits=report.precomp_hits if report is not None else 0,
        )
        for observer in list(self._observers):
            observer(metrics)

    def session_stats(self) -> SessionStats:
        """Aggregate counters of this session (requests, pairings, plans, journal)."""
        return SessionStats(
            requests_handled=self._requests_handled,
            pairings_spent=self.pairing_count,
            plan_builds=self.engine.plan_builds,
            plan_reuses=self.engine.plan_reuses,
            journal_group_commits=self.journal.group_commits if self.journal is not None else 0,
            journal_fsyncs_saved=self.journal.fsyncs_saved if self.journal is not None else 0,
        )

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self, path: Optional[str | pathlib.Path] = None) -> dict:
        """Serialize the session: store, remembered outcomes, standing zones.

        Built on the existing serialization layers --
        :meth:`CiphertextStore.to_payload` embeds
        :meth:`MatchingEngine.export_state`, and standing-zone tokens use the
        JSON token form.  Returns the payload; also writes it to ``path`` when
        given.  Plaintext user locations are client-side state and are *not*
        part of a snapshot: after :meth:`restore`, a :class:`Move` request
        transparently re-attaches a known pseudonym.

        The file write is atomic (tmp + fsync + rename): a crash mid-save
        leaves the previous snapshot intact instead of a torn JSON file.
        With a journal configured the payload records the journal sequence it
        covers (``journal_seq``), and a successful file write checkpoints the
        journal behind itself -- :meth:`restore` then replays only the
        entries newer than the snapshot.
        """
        payload = {
            "kind": "alert_service_state",
            "clock": self._clock,
            "journal_seq": self.journal.last_seq if self.journal is not None else 0,
            "store": self.store.to_payload(engine=self.engine),
            "admission": self.admission.to_payload(),
            "zones": [
                {
                    "alert_id": standing.alert_id,
                    "description": standing.description,
                    "cells": list(standing.zone.cell_ids) if standing.zone is not None else None,
                    "tokens": [serialize_token(token) for token in standing.batch.tokens],
                }
                for standing in self._zones.values()
            ],
        }
        if path is not None:
            data = json.dumps(payload).encode("utf-8")
            if self.fault_injector is not None:
                self.fault_injector.maybe_tear_snapshot(path, data)
            atomic_write_bytes(path, data)
            if self.journal is not None:
                self.journal.checkpoint(payload["journal_seq"])
        return payload

    def restore(self, source: Union[dict, str, pathlib.Path]) -> None:
        """Load a :meth:`snapshot` into this session (replaces its state).

        The session must share the snapshot's key material -- construct it
        with the same :class:`ServiceConfig` (same seed) or the same adopted
        system.  Ciphertexts, remembered outcomes and standing-zone tokens
        are restored; the next evaluation rebuilds the plan exactly once.
        """
        if isinstance(source, (str, pathlib.Path)):
            payload = json.loads(pathlib.Path(source).read_text(encoding="utf-8"))
        else:
            payload = source
        if payload.get("kind") != "alert_service_state":
            raise ValueError("payload is not a serialized alert-service state")
        group = self.system.authority.group
        self._clock = float(payload.get("clock", 0.0))
        self.store = CiphertextStore.from_payload(payload["store"], group)
        # The replacement store inherits the chaos wiring of the old one.
        self.store.fault_injector = self.fault_injector
        if self.store.matching_state is not None:
            self.engine.import_state(self.store.matching_state)
        else:
            self.engine.reset_state()
        zones: dict[str, StandingZone] = {}
        for entry in payload.get("zones", []):
            tokens = tuple(deserialize_token(group, token) for token in entry["tokens"])
            batch = TokenBatch(alert_id=entry["alert_id"], tokens=tokens)
            cells = entry.get("cells")
            zones[batch.alert_id] = StandingZone(
                batch=batch,
                description=entry.get("description", ""),
                zone=AlertZone(cell_ids=tuple(cells)) if cells else None,
            )
        self._zones = zones
        # Reconcile the in-memory user registry with the restored store: a
        # hosted user whose counter lags the restored report would otherwise
        # upload sequence numbers the store drops as stale (and keep matching
        # against the snapshot's old ciphertext).  Users the snapshot does not
        # know are dropped with the rest of the replaced state.
        for user_id, user in list(self.system.users.items()):
            if user_id in self.store:
                self.system.reattach_user(
                    user_id,
                    user.location,
                    sequence_number=self.store.report_for(user_id).sequence_number + 1,
                )
            else:
                del self.system.users[user_id]
        # The idempotency table restores from the snapshot (pre-admission
        # snapshots restore an empty one), then the journal tail re-caches
        # the answers of entries the snapshot missed.
        self.admission = AdmissionLedger.from_payload(payload.get("admission"))
        # Write-ahead recovery: requests journaled after the snapshot was
        # taken executed (or were about to execute) in the crashed session --
        # re-execute them in order to land exactly where it stopped.  The
        # replay flag keeps them from being re-appended.
        if self.journal is not None:
            snapshot_seq = int(payload.get("journal_seq", 0) or 0)
            tail = self.journal.replay_records_after(snapshot_seq)
            if tail:
                self._replaying = True
                try:
                    for _, request_payload, origins in tail:
                        self._replay_one(request_payload, origins, group)
                finally:
                    self._replaying = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def grid(self) -> Grid:
        """The spatial grid served by this session."""
        return self.system.grid

    @property
    def init_stats(self) -> SystemInitStats:
        """Timing of the one-time initialization (encoding + key setup)."""
        return self.system.init_stats

    @property
    def pairing_count(self) -> int:
        """Total bilinear pairings evaluated by the deployment so far."""
        return self.system.pairing_count

    @property
    def subscriber_count(self) -> int:
        """Number of pseudonyms with a stored ciphertext."""
        return len(self.store)

    def standing_zones(self) -> tuple[str, ...]:
        """Alert ids currently under periodic re-evaluation, in publish order."""
        return tuple(self._zones)

    def standing_zone(self, alert_id: str) -> StandingZone:
        """The standing zone registered under ``alert_id`` (KeyError if absent)."""
        return self._zones[alert_id]

    def encoding_name(self) -> str:
        """Name of the deployed encoding scheme."""
        return self.system.authority.encoding.name

    def users_actually_in_zone(self, zone: AlertZone) -> list[str]:
        """Plaintext ground truth of which hosted users are inside ``zone``."""
        return self.system.users_in_zone(zone)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """End the session: stop ingesting the system's uploads and close the
        journal (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._store_update in self.system.update_sinks:
            self.system.update_sinks.remove(self._store_update)
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "AlertService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
