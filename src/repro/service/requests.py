"""Typed requests and responses of the :class:`~repro.service.service.AlertService`.

The session API is message-shaped: every operation a deployment performs is a
small frozen dataclass handed to the service, and every outcome is a typed
response.  This mirrors how the protocol itself flows (location updates in,
token batches in, notifications out) and gives integrators a stable, explicit
surface -- the service facade can evolve its internals (planning, packing,
the remembered outcomes) without touching these types.

Requests
--------
* :class:`Subscribe` / :class:`Move` -- client-side conveniences: the service
  hosts the user object, encrypts the cell index locally and ingests the
  resulting :class:`~repro.protocol.messages.LocationUpdate`.
* :class:`IngestBatch` -- the raw provider-side ingress: a batch of encrypted
  location updates produced elsewhere, optionally followed by an evaluation of
  every standing zone.
* :class:`PublishZone` / :class:`RetractZone` -- declare an alert zone (by
  explicit cells or epicenter + radius; ``standing=True`` keeps it under
  periodic re-evaluation) and retire it again.
* :class:`EvaluateStanding` -- the periodic tick: re-match every standing zone
  against the fresh ciphertexts.

Responses
---------
* :class:`IngestReceipt` -- what happened to one ingested update.
* :class:`MatchReport` -- outcome of an evaluation pass, including the
  session-health facts (plan reuse, per-pass work) the observer metrics also
  carry.
* :class:`RetractReceipt` -- whether the retracted zone existed.
* :class:`ErrorResponse` -- the structured failure form the network tier
  returns instead of dropping a connection.
* :class:`RequestMetrics` -- the per-request record handed to observer hooks.

Wire forms
----------
Every dataclass here carries ``to_wire()`` / ``from_wire()``: a stable,
JSON-compatible dict representation.  These are the substrate of the network
codec (:mod:`repro.net.wire`), the write-ahead journal
(:mod:`repro.service.journal`) and snapshots -- the shapes are shared, so a
journaled request and a framed request are byte-for-byte the same payload.
Client-side requests carry plaintext coordinates (the service re-encrypts, as
the live request path does); :class:`IngestBatch` carries ciphertext wire
forms and therefore needs the deployment's group to deserialize.  The
module-level :func:`request_to_wire` / :func:`request_from_wire` and
:func:`response_to_wire` / :func:`response_from_wire` dispatch on the
``"type"`` tag.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Union

from repro.grid.alert_zone import AlertZone
from repro.grid.geometry import Point
from repro.protocol.messages import LocationUpdate, Notification

__all__ = [
    "Subscribe",
    "Move",
    "PublishZone",
    "RetractZone",
    "IngestBatch",
    "EvaluateStanding",
    "Request",
    "IngestReceipt",
    "RetractReceipt",
    "MatchReport",
    "ErrorResponse",
    "RequestMetrics",
    "Notification",
    "ClientHello",
    "HelloAck",
    "UnknownRequestError",
    "REQUEST_WIRE_TYPES",
    "RESPONSE_WIRE_TYPES",
    "request_to_wire",
    "request_from_wire",
    "response_to_wire",
    "response_from_wire",
]


class UnknownRequestError(TypeError, ValueError):
    """Raised for an unrecognised request -- wrong Python type or wire tag.

    Subclasses both :class:`TypeError` (what :meth:`AlertService.handle`
    historically raised for a foreign object) and :class:`ValueError` (what
    the journal raised for an unknown payload tag) so existing callers keep
    working, and carries the offending name plus the full list of recognised
    request types -- the network tier forwards both in its
    :class:`ErrorResponse` so a remote client learns what *would* have worked.
    """

    def __init__(self, received: str, expected: tuple[str, ...] = ()):
        self.received = received
        self.expected = tuple(expected)
        super().__init__(
            f"unsupported request type {received}; expected one of {sorted(self.expected)}"
        )


def _point_to_wire(point: Optional[Point]) -> Optional[list]:
    return None if point is None else [point.x, point.y]


def _point_from_wire(value) -> Optional[Point]:
    return None if value is None else Point(*value)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Subscribe:
    """Register a user and upload their first encrypted location.

    ``at`` advances the session clock before the update is stored (``None``
    keeps the current clock); the same convention applies to every request.
    """

    user_id: str
    location: Point
    at: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.user_id:
            raise ValueError("user_id must be non-empty")

    def to_wire(self) -> dict:
        return {
            "type": "subscribe",
            "user_id": self.user_id,
            "location": _point_to_wire(self.location),
            "at": self.at,
        }

    @classmethod
    def from_wire(cls, payload: dict, group=None) -> "Subscribe":
        return cls(
            user_id=payload["user_id"],
            location=_point_from_wire(payload["location"]),
            at=payload.get("at"),
        )


@dataclass(frozen=True)
class Move:
    """Record a user's movement: encrypt the new cell and upload it."""

    user_id: str
    location: Point
    at: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.user_id:
            raise ValueError("user_id must be non-empty")

    def to_wire(self) -> dict:
        return {
            "type": "move",
            "user_id": self.user_id,
            "location": _point_to_wire(self.location),
            "at": self.at,
        }

    @classmethod
    def from_wire(cls, payload: dict, group=None) -> "Move":
        return cls(
            user_id=payload["user_id"],
            location=_point_from_wire(payload["location"]),
            at=payload.get("at"),
        )


@dataclass(frozen=True)
class PublishZone:
    """Declare an alert zone, given either explicit ``zone`` cells or an
    ``epicenter`` + ``radius`` circle.

    ``standing=True`` (default) keeps the zone's minted tokens in the
    session's standing set, re-evaluated by :class:`EvaluateStanding` and
    :class:`IngestBatch` ticks; ``standing=False`` is a one-shot alert that is
    evaluated once and forgotten.  ``evaluate=False`` skips the immediate
    evaluation (useful when publishing several zones before the first tick).
    """

    alert_id: str
    zone: Optional[AlertZone] = None
    epicenter: Optional[Point] = None
    radius: Optional[float] = None
    description: str = ""
    standing: bool = True
    evaluate: bool = True
    at: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.alert_id:
            raise ValueError("alert_id must be non-empty")
        circular = self.epicenter is not None or self.radius is not None
        if (self.zone is None) == (not circular):
            raise ValueError("pass exactly one of zone= or epicenter=+radius=")
        if circular:
            if self.epicenter is None or self.radius is None:
                raise ValueError("a circular zone needs both epicenter= and radius=")
            if self.radius <= 0:
                raise ValueError("radius must be positive")

    def to_wire(self) -> dict:
        return {
            "type": "publish_zone",
            "alert_id": self.alert_id,
            "cells": list(self.zone.cell_ids) if self.zone is not None else None,
            "epicenter": _point_to_wire(self.epicenter),
            "radius": self.radius,
            "description": self.description,
            "standing": self.standing,
            "evaluate": self.evaluate,
            "at": self.at,
        }

    @classmethod
    def from_wire(cls, payload: dict, group=None) -> "PublishZone":
        cells = payload.get("cells")
        return cls(
            alert_id=payload["alert_id"],
            zone=AlertZone(cell_ids=tuple(cells)) if cells is not None else None,
            epicenter=_point_from_wire(payload.get("epicenter")),
            radius=payload.get("radius"),
            description=payload.get("description", ""),
            standing=payload.get("standing", True),
            evaluate=payload.get("evaluate", True),
            at=payload.get("at"),
        )


@dataclass(frozen=True)
class RetractZone:
    """Retire a standing zone: stop re-evaluating it and drop its caches."""

    alert_id: str
    at: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.alert_id:
            raise ValueError("alert_id must be non-empty")

    def to_wire(self) -> dict:
        return {"type": "retract_zone", "alert_id": self.alert_id, "at": self.at}

    @classmethod
    def from_wire(cls, payload: dict, group=None) -> "RetractZone":
        return cls(alert_id=payload["alert_id"], at=payload.get("at"))


@dataclass(frozen=True)
class IngestBatch:
    """Ingest encrypted location updates, then (optionally) evaluate standing zones.

    This is the provider-side ingress: updates may come from anywhere (devices,
    a message queue, another region), carry only pseudonym + ciphertext +
    sequence number, and are deduplicated by the store's staleness rules.
    """

    updates: tuple[LocationUpdate, ...]
    evaluate: bool = True
    at: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.updates, tuple):
            object.__setattr__(self, "updates", tuple(self.updates))

    def to_wire(self) -> dict:
        return {
            "type": "ingest_batch",
            "updates": [update.to_wire() for update in self.updates],
            "evaluate": self.evaluate,
            "at": self.at,
        }

    @classmethod
    def from_wire(cls, payload: dict, group=None) -> "IngestBatch":
        if group is None:
            raise ValueError("deserializing an ingest_batch needs the deployment's group")
        return cls(
            updates=tuple(LocationUpdate.from_wire(entry, group) for entry in payload["updates"]),
            evaluate=payload.get("evaluate", True),
            at=payload.get("at"),
        )


@dataclass(frozen=True)
class EvaluateStanding:
    """The periodic tick: re-match every standing zone against fresh reports."""

    at: Optional[float] = None

    def to_wire(self) -> dict:
        return {"type": "evaluate_standing", "at": self.at}

    @classmethod
    def from_wire(cls, payload: dict, group=None) -> "EvaluateStanding":
        return cls(at=payload.get("at"))


Request = Union[Subscribe, Move, PublishZone, RetractZone, IngestBatch, EvaluateStanding]


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IngestReceipt:
    """Outcome of storing one location update."""

    user_id: str
    sequence_number: int
    stored: bool

    def to_wire(self) -> dict:
        return {
            "type": "ingest_receipt",
            "user_id": self.user_id,
            "sequence_number": self.sequence_number,
            "stored": self.stored,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "IngestReceipt":
        return cls(
            user_id=payload["user_id"],
            sequence_number=int(payload["sequence_number"]),
            stored=bool(payload["stored"]),
        )


@dataclass(frozen=True)
class RetractReceipt:
    """Outcome of retiring a zone; ``existed`` is False for unknown ids."""

    alert_id: str
    existed: bool

    def to_wire(self) -> dict:
        return {"type": "retract_receipt", "alert_id": self.alert_id, "existed": self.existed}

    @classmethod
    def from_wire(cls, payload: dict) -> "RetractReceipt":
        return cls(alert_id=payload["alert_id"], existed=bool(payload["existed"]))


@dataclass(frozen=True)
class MatchReport:
    """Outcome of one evaluation pass over the ciphertext store.

    ``plan_reused`` is True when the engine served the pass from its cached
    token plan (the warm-session fast path): in a healthy warm session every
    report after the first shows ``plan_reused=True``.  ``fused_evals`` and
    ``precomp_hits`` mirror :class:`~repro.protocol.matching.PassStats`:
    backend fused-worklist calls and precomputation-table / program-cache
    hits this pass scored.
    """

    notifications: tuple[Notification, ...]
    alerts_evaluated: tuple[str, ...]
    candidates: int
    tokens_evaluated: int
    pairings_spent: int
    plan_reused: bool
    zones_evaluated: int = 0
    fused_evals: int = 0
    precomp_hits: int = 0

    @property
    def notified_users(self) -> tuple[str, ...]:
        """Distinct notified pseudonyms, sorted."""
        return tuple(sorted({n.user_id for n in self.notifications}))

    def notifications_for(self, alert_id: str) -> tuple[Notification, ...]:
        """The notifications belonging to one alert of the pass."""
        return tuple(n for n in self.notifications if n.alert_id == alert_id)

    _WIRE_SPECIAL = ("notifications", "alerts_evaluated")

    def to_wire(self) -> dict:
        # Scalar fields are enumerated so a new counter added to the report
        # automatically rides the wire without touching this method.
        payload: dict = {
            "type": "match_report",
            "notifications": [n.to_wire() for n in self.notifications],
            "alerts_evaluated": list(self.alerts_evaluated),
        }
        for spec in fields(self):
            if spec.name not in self._WIRE_SPECIAL:
                payload[spec.name] = getattr(self, spec.name)
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "MatchReport":
        kwargs = {
            spec.name: payload[spec.name]
            for spec in fields(cls)
            if spec.name not in cls._WIRE_SPECIAL and spec.name in payload
        }
        return cls(
            notifications=tuple(Notification.from_wire(n) for n in payload["notifications"]),
            alerts_evaluated=tuple(payload["alerts_evaluated"]),
            **kwargs,
        )


@dataclass(frozen=True)
class RequestMetrics:
    """Per-request record delivered to observers registered on the service.

    The evaluation fields mirror :class:`MatchReport`, so a metrics observer
    can profile plan reuse and per-pass work without attaching a debugger to
    the session.
    """

    request: str
    pairings_spent: int
    plan_reused: bool
    notifications: int
    candidates: int
    zones_evaluated: int = 0
    fused_evals: int = 0
    precomp_hits: int = 0

    def to_wire(self) -> dict:
        payload: dict = {"type": "request_metrics"}
        for spec in fields(self):
            payload[spec.name] = getattr(self, spec.name)
        return payload

    @classmethod
    def from_wire(cls, payload: dict) -> "RequestMetrics":
        return cls(**{spec.name: payload[spec.name] for spec in fields(cls) if spec.name in payload})


@dataclass(frozen=True)
class ErrorResponse:
    """A structured failure: what the network tier returns instead of dying.

    ``error`` is the exception type name, ``message`` its rendering, and
    ``expected`` (for :class:`UnknownRequestError`) the request types the
    service *does* recognise, so a remote client can self-correct.
    """

    error: str
    message: str
    expected: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.expected, tuple):
            object.__setattr__(self, "expected", tuple(self.expected))

    def to_wire(self) -> dict:
        return {
            "type": "error",
            "error": self.error,
            "message": self.message,
            "expected": list(self.expected),
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "ErrorResponse":
        return cls(
            error=payload["error"],
            message=payload.get("message", ""),
            expected=tuple(payload.get("expected", ())),
        )

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorResponse":
        return cls(
            error=type(exc).__name__,
            message=str(exc),
            expected=tuple(getattr(exc, "expected", ())),
        )


# ----------------------------------------------------------------------
# Session handshake (network tier)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClientHello:
    """The first frame of an exactly-once network session.

    ``client_id`` is the client's stable identity (survives reconnects and
    process restarts when the caller pins it); ``epoch`` identifies one client
    *instance* -- a reconnecting client keeps its epoch so the server resumes
    its idempotency state, while a fresh instance reusing the id starts a new
    epoch and resets it.  ``wire_version`` is the highest frame version the
    client speaks; the server answers with the negotiated minimum.  ``acked``
    is the client's answered low-watermark at connect time (every request id
    at or below it has been answered), letting the server prune immediately.

    These are session-control payloads, deliberately *not* registered in
    :data:`REQUEST_WIRE_TYPES`: they never reach
    :meth:`~repro.service.service.AlertService.handle` and are never
    journaled.  The client requires a :class:`HelloAck` in reply and fails
    the connect on anything else.
    """

    client_id: str
    epoch: int
    wire_version: int = 2
    acked: int = 0

    def __post_init__(self) -> None:
        if not self.client_id:
            raise ValueError("client_id must be non-empty")

    def to_wire(self) -> dict:
        return {
            "type": "client_hello",
            "client_id": self.client_id,
            "epoch": self.epoch,
            "wire_version": self.wire_version,
            "acked": self.acked,
        }

    @classmethod
    def from_wire(cls, payload: dict, group=None) -> "ClientHello":
        return cls(
            client_id=payload["client_id"],
            epoch=int(payload["epoch"]),
            wire_version=int(payload.get("wire_version", 1)),
            acked=int(payload.get("acked", 0)),
        )


@dataclass(frozen=True)
class HelloAck:
    """The server's answer to a :class:`ClientHello`.

    ``wire_version`` is the negotiated frame version both peers will stamp
    from now on; ``resumed`` is True when the server still held idempotency
    state for this ``(client_id, epoch)`` (reconnect, or a supervised restart
    that rebuilt the table from the journal); ``acked`` echoes the server's
    recorded low-watermark for the client.
    """

    wire_version: int
    resumed: bool = False
    acked: int = 0

    def to_wire(self) -> dict:
        return {
            "type": "hello_ack",
            "wire_version": self.wire_version,
            "resumed": self.resumed,
            "acked": self.acked,
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "HelloAck":
        return cls(
            wire_version=int(payload["wire_version"]),
            resumed=bool(payload.get("resumed", False)),
            acked=int(payload.get("acked", 0)),
        )


# ----------------------------------------------------------------------
# Wire dispatch
# ----------------------------------------------------------------------
#: ``"type"`` tag -> request class, the codec's and journal's shared registry.
REQUEST_WIRE_TYPES: dict[str, type] = {
    "subscribe": Subscribe,
    "move": Move,
    "publish_zone": PublishZone,
    "retract_zone": RetractZone,
    "ingest_batch": IngestBatch,
    "evaluate_standing": EvaluateStanding,
}

#: ``"type"`` tag -> response class.
RESPONSE_WIRE_TYPES: dict[str, type] = {
    "ingest_receipt": IngestReceipt,
    "retract_receipt": RetractReceipt,
    "match_report": MatchReport,
    "request_metrics": RequestMetrics,
    "error": ErrorResponse,
}


def request_to_wire(request: Request) -> dict:
    """The tagged wire payload of any typed request."""
    to_wire = getattr(request, "to_wire", None)
    if to_wire is None or type(request) not in REQUEST_WIRE_TYPES.values():
        raise UnknownRequestError(type(request).__name__, tuple(REQUEST_WIRE_TYPES))
    return to_wire()


def request_from_wire(payload: dict, group=None) -> Request:
    """Rebuild the request :func:`request_to_wire` serialized.

    ``group`` (the deployment's :class:`~repro.crypto.group.BilinearGroup`)
    is only needed for ``ingest_batch`` ciphertexts.
    """
    kind = payload.get("type")
    request_cls = REQUEST_WIRE_TYPES.get(kind)
    if request_cls is None:
        raise UnknownRequestError(repr(kind), tuple(REQUEST_WIRE_TYPES))
    return request_cls.from_wire(payload, group=group)


def response_to_wire(response) -> dict:
    """The tagged wire payload of any typed response."""
    if type(response) not in RESPONSE_WIRE_TYPES.values():
        raise TypeError(
            f"unsupported response type {type(response).__name__}; "
            f"expected one of {sorted(c.__name__ for c in RESPONSE_WIRE_TYPES.values())}"
        )
    return response.to_wire()


def response_from_wire(payload: dict):
    """Rebuild the response :func:`response_to_wire` serialized."""
    kind = payload.get("type")
    response_cls = RESPONSE_WIRE_TYPES.get(kind)
    if response_cls is None:
        raise ValueError(
            f"unknown response type {kind!r}; expected one of {sorted(RESPONSE_WIRE_TYPES)}"
        )
    return response_cls.from_wire(payload)
