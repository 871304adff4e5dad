"""The location-based alert protocol: users, trusted authority and service provider.

This package implements the system model of Section 2.2 (Fig. 1) and the
variable-length workflow of Fig. 3:

* :mod:`repro.protocol.messages` -- the payloads exchanged between parties
  (location updates, token batches, notifications).
* :mod:`repro.protocol.entities` -- the three parties: mobile users encrypt
  their grid index under the HVE public key; the trusted authority owns the
  secret key, builds the encoding from public per-cell likelihoods and issues
  minimized tokens; the service provider stores ciphertexts and performs the
  matching.
* :mod:`repro.protocol.alert_system` -- :class:`SecureAlertSystem`, the
  end-to-end orchestration used by the examples and the Fig. 14 benchmark.
* :mod:`repro.protocol.matching` -- the :class:`MatchingEngine` the service
  provider evaluates tokens through: planned batched evaluation with
  deduplication, cheapest-first ordering, a fused exponent-arithmetic fast
  path and sequence-keyed outcome reuse.
* :mod:`repro.protocol.store` -- the provider's persistent ciphertext store
  with freshness management.
* :mod:`repro.protocol.simulation` -- a population-scale simulation driving an
  :class:`~repro.service.service.AlertService` session.  It sits above the
  service layer, so it is imported from its module, not re-exported here.
"""

from repro.protocol.alert_system import SecureAlertSystem, SystemInitStats
from repro.protocol.entities import MobileUser, ServiceProvider, TrustedAuthority
from repro.protocol.matching import (
    MatchCandidate,
    MatchingEngine,
    MatchingOptions,
    PlannedToken,
    TokenPlan,
)
from repro.protocol.messages import AlertDeclaration, LocationUpdate, Notification, TokenBatch
from repro.protocol.store import CiphertextStore, StoredReport

__all__ = [
    "MatchCandidate",
    "MatchingEngine",
    "MatchingOptions",
    "PlannedToken",
    "TokenPlan",

    "CiphertextStore",
    "StoredReport",

    "SecureAlertSystem",
    "SystemInitStats",
    "MobileUser",
    "ServiceProvider",
    "TrustedAuthority",
    "AlertDeclaration",
    "LocationUpdate",
    "Notification",
    "TokenBatch",
]
