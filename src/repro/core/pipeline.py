"""The :class:`SecureAlertPipeline`: the library's call-oriented front door.

A pipeline bundles everything a deployment needs:

* a :class:`~repro.grid.grid.Grid` over the served area,
* a per-cell alert-likelihood vector (from any source: sigmoid model, trained
  crime model, domain knowledge),
* an encoding scheme (Huffman by default -- the paper's proposal),
* the HVE key material and the three protocol parties.

Typical use (see ``examples/quickstart_legacy.py``)::

    pipeline = SecureAlertPipeline.from_probabilities(grid, probabilities)
    pipeline.subscribe("alice", Point(120.0, 80.0))
    report = pipeline.raise_alert_at(Point(110.0, 90.0), radius=25.0, alert_id="leak-1")
    print(report.notified_users)

Since the service redesign the pipeline is a thin adapter over
:class:`~repro.service.service.AlertService`: every entry point keeps its
signature and its exact behaviour (parity-tested down to pairing counts), but
the work is done by a session underneath.  New code -- anything long-lived,
multi-zone or tuned -- should talk to the session API directly; the
:attr:`service` property exposes it for migration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.encoding import SCHEME_NAMES, scheme_by_name
from repro.grid.alert_zone import AlertZone, circular_alert_zone
from repro.grid.geometry import Point
from repro.grid.grid import Grid
from repro.protocol.alert_system import SecureAlertSystem, SystemInitStats
from repro.service.config import ServiceConfig
from repro.service.requests import Move, PublishZone, Subscribe
from repro.service.service import AlertService

__all__ = ["PipelineConfig", "AlertReport", "SecureAlertPipeline", "scheme_by_name", "SCHEME_NAMES"]


@dataclass(frozen=True)
class PipelineConfig:
    """Tunables of a :class:`SecureAlertPipeline`.

    ``matching_strategy`` selects the service provider's evaluation path
    (``"planned"`` is the optimized default; ``"naive"`` is the element-wise
    parity path).  ``crypto_backend`` forces a crypto arithmetic backend by name
    (``None`` auto-selects: ``gmpy2`` when installed, the pure-Python
    ``reference`` backend otherwise).

    :meth:`ServiceConfig.from_pipeline <repro.service.config.ServiceConfig.from_pipeline>`
    translates this config onto the unified service surface.
    """

    scheme: str = "huffman"
    alphabet_size: int = 3
    prime_bits: int = 64
    seed: Optional[int] = None
    matching_strategy: str = "planned"
    crypto_backend: Optional[str] = None


@dataclass(frozen=True)
class AlertReport:
    """Outcome of one alert declaration."""

    alert_id: str
    zone: AlertZone
    notified_users: tuple[str, ...]
    tokens_issued: int
    pairings_spent: int


class SecureAlertPipeline:
    """End-to-end secure location alerts behind a minimal API.

    A thin adapter over :class:`~repro.service.service.AlertService`: each
    alert is a one-shot ``PublishZone`` request against the session.  Accepts
    either a pre-built session or (legacy) a bare
    :class:`~repro.protocol.alert_system.SecureAlertSystem`, which is adopted
    into a fresh session.
    """

    def __init__(self, system: Union[AlertService, SecureAlertSystem], config: PipelineConfig):
        if isinstance(system, AlertService):
            self._service = system
        else:
            self._service = AlertService(config=ServiceConfig.from_pipeline(config), system=system)
        self._system = self._service.system
        self.config = config

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_probabilities(
        cls,
        grid: Grid,
        probabilities: Sequence[float],
        config: Optional[PipelineConfig] = None,
    ) -> "SecureAlertPipeline":
        """Build a pipeline from a grid and per-cell alert likelihoods."""
        config = config or PipelineConfig()
        service = AlertService(grid, probabilities, config=ServiceConfig.from_pipeline(config))
        return cls(service, config)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def service(self) -> AlertService:
        """The underlying session (the migration path to the service API)."""
        return self._service

    @property
    def grid(self) -> Grid:
        """The spatial grid served by this deployment."""
        return self._service.grid

    @property
    def init_stats(self) -> SystemInitStats:
        """Timing of the one-time initialization (encoding + key setup)."""
        return self._service.init_stats

    @property
    def pairing_count(self) -> int:
        """Total bilinear pairings evaluated so far."""
        return self._service.pairing_count

    @property
    def subscriber_count(self) -> int:
        """Number of users with a stored encrypted location."""
        return self._service.subscriber_count

    def encoding_name(self) -> str:
        """Name of the deployed encoding scheme."""
        return self._service.encoding_name()

    # ------------------------------------------------------------------
    # User lifecycle
    # ------------------------------------------------------------------
    def subscribe(self, user_id: str, location: Point) -> None:
        """Register a user and upload their first encrypted location."""
        self._service.subscribe(Subscribe(user_id=user_id, location=location))

    def report_location(self, user_id: str, location: Point) -> None:
        """Record a user's movement (uploads a fresh ciphertext)."""
        self._service.move(Move(user_id=user_id, location=location))

    # ------------------------------------------------------------------
    # Alerts
    # ------------------------------------------------------------------
    def raise_alert(self, zone: AlertZone, alert_id: str, description: str = "") -> AlertReport:
        """Declare an alert over an explicit set of cells."""
        report = self._service.publish_zone(
            PublishZone(alert_id=alert_id, zone=zone, description=description, standing=False)
        )
        return AlertReport(
            alert_id=alert_id,
            zone=zone,
            notified_users=tuple(sorted(n.user_id for n in report.notifications)),
            tokens_issued=report.tokens_evaluated,
            pairings_spent=report.pairings_spent,
        )

    def raise_alert_at(
        self,
        epicenter: Point,
        radius: float,
        alert_id: str,
        description: str = "",
    ) -> AlertReport:
        """Declare a circular alert zone around an event epicenter."""
        zone = circular_alert_zone(self.grid, epicenter, radius, label=alert_id)
        return self.raise_alert(zone, alert_id, description=description)

    # ------------------------------------------------------------------
    # Ground truth (testing / demo support)
    # ------------------------------------------------------------------
    def users_actually_in_zone(self, zone: AlertZone) -> list[str]:
        """Plaintext ground truth of which subscribed users are inside ``zone``."""
        return self._service.users_actually_in_zone(zone)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """End the underlying session (closes its journal, if any)."""
        self._service.close()

    def __enter__(self) -> "SecureAlertPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
