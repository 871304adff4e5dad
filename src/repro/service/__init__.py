"""repro.service: the session-oriented public API of the alert protocol.

A deployment talks to one long-lived :class:`~repro.service.service.AlertService`
built from a single :class:`~repro.service.config.ServiceConfig`, sends it the
typed requests of :mod:`repro.service.requests` and receives typed responses.
The session owns the matching engine and the ciphertext store, and keeps
standing zones' token plans (and their packed worklists) warm across ticks --
the properties that make high-frequency small batches cheap.  It is the
library's one front door: :class:`~repro.protocol.simulation.AlertServiceSimulation`
and the network server (:mod:`repro.net`) both drive a session of this package.
"""

from repro.service.config import NetOptions, ServiceConfig
from repro.service.faults import ChaosSoakOutcome, FaultInjector, FaultPlan, run_chaos_soak
from repro.service.admission import AdmissionDecision, AdmissionLedger
from repro.service.journal import JournalWriteError, RequestJournal
from repro.service.requests import (
    ClientHello,
    ErrorResponse,
    EvaluateStanding,
    HelloAck,
    IngestBatch,
    IngestReceipt,
    MatchReport,
    Move,
    Notification,
    PublishZone,
    Request,
    RequestMetrics,
    RetractReceipt,
    RetractZone,
    Subscribe,
    UnknownRequestError,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)
from repro.service.service import AlertService, SessionStats, StandingZone

__all__ = [
    "AlertService",
    "NetOptions",
    "ServiceConfig",
    "SessionStats",
    "StandingZone",
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
    "RequestMetrics",
    "Notification",
    "ErrorResponse",
    "UnknownRequestError",
    "request_to_wire",
    "request_from_wire",
    "response_to_wire",
    "response_from_wire",
    "FaultPlan",
    "FaultInjector",
    "ChaosSoakOutcome",
    "run_chaos_soak",
    "RequestJournal",
    "JournalWriteError",
    "AdmissionLedger",
    "AdmissionDecision",
    "ClientHello",
    "HelloAck",
]
