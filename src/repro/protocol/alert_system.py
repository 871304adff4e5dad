"""End-to-end secure alert system (the orchestration of Fig. 1 / Fig. 3).

:class:`SecureAlertSystem` wires the three parties together behind one
object so that examples, tests and benchmarks can exercise the full loop --
initialization, subscription, location reporting, alert declaration,
matching, notification -- with a couple of method calls, while still exposing
the cost accounting (pairing counts, initialization time) the evaluation
needs.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.encoding.base import EncodingScheme
from repro.encoding.huffman import HuffmanEncodingScheme
from repro.grid.alert_zone import AlertZone
from repro.grid.geometry import Point
from repro.grid.grid import Grid
from repro.protocol.entities import MobileUser, ServiceProvider, TrustedAuthority
from repro.protocol.matching import MatchingOptions
from repro.protocol.messages import AlertDeclaration, LocationUpdate, Notification, TokenBatch

__all__ = ["SystemInitStats", "SecureAlertSystem"]


@dataclass(frozen=True)
class SystemInitStats:
    """Timing and sizing facts about system initialization (Fig. 14).

    ``encoding_seconds`` covers building the prefix tree, indexes and coding
    tree; ``key_setup_seconds`` covers HVE key generation.  Initialization is
    a one-time cost incurred when the system is deployed.
    """

    n_cells: int
    reference_length: int
    encoding_seconds: float
    key_setup_seconds: float

    @property
    def total_seconds(self) -> float:
        """Total one-time initialization cost."""
        return self.encoding_seconds + self.key_setup_seconds


class SecureAlertSystem:
    """A complete, in-memory deployment of the secure location-alert protocol.

    Parameters
    ----------
    grid:
        Spatial partitioning of the served area.
    probabilities:
        Public per-cell alert likelihoods (drive the encoding).
    scheme:
        Encoding scheme; defaults to the paper's Huffman scheme.
    prime_bits:
        HVE prime size; lower it in tests for speed.
    rng:
        Random source shared by key generation and encryption.
    matching:
        Options for the service provider's
        :class:`~repro.protocol.matching.MatchingEngine` (strategy, token
        order, dedupe/subsume).  Defaults to the planned strategy.
    backend:
        Crypto arithmetic backend name shared by all parties (``None``
        auto-selects; see :mod:`repro.crypto.backends`).

    Example
    -------
    >>> from repro.datasets.synthetic import make_synthetic_scenario
    >>> scenario = make_synthetic_scenario(rows=4, cols=4, seed=3)
    >>> system = SecureAlertSystem(scenario.grid, scenario.probabilities, prime_bits=32)
    >>> system.register_user("alice", scenario.grid.cell_center(5))
    >>> zone = AlertZone(cell_ids=(5, 6))
    >>> [n.user_id for n in system.declare_alert(zone, alert_id="demo")]
    ['alice']
    """

    def __init__(
        self,
        grid: Grid,
        probabilities: Sequence[float],
        scheme: Optional[EncodingScheme] = None,
        prime_bits: int = 64,
        rng: Optional[random.Random] = None,
        matching: Optional[MatchingOptions] = None,
        backend: Optional[str] = None,
    ):
        scheme = scheme or HuffmanEncodingScheme()
        rng = rng or random.Random()

        encoding_start = time.perf_counter()
        # The TrustedAuthority constructor builds the encoding and the keys;
        # time the two phases separately for the Fig. 14 benchmark by building
        # the encoding once here (cheap) purely for timing purposes.
        probe_encoding = scheme.build(list(probabilities))
        encoding_seconds = time.perf_counter() - encoding_start

        key_start = time.perf_counter()
        self.authority = TrustedAuthority(
            grid=grid,
            probabilities=probabilities,
            scheme=scheme,
            prime_bits=prime_bits,
            rng=rng,
            backend=backend,
        )
        key_setup_seconds = time.perf_counter() - key_start

        self.grid = grid
        self.provider = ServiceProvider(self.authority.hve, matching=matching)
        self.users: dict[str, MobileUser] = {}
        #: Extra recipients of every uploaded location update, called after the
        #: provider stored it.  The session service registers its ciphertext
        #: store here so freshness-managed matching sees the same stream.
        self.update_sinks: list[Callable[[LocationUpdate], None]] = []
        self.init_stats = SystemInitStats(
            n_cells=grid.n_cells,
            reference_length=probe_encoding.reference_length,
            encoding_seconds=encoding_seconds,
            key_setup_seconds=key_setup_seconds,
        )

    # ------------------------------------------------------------------
    # Subscription and location reporting
    # ------------------------------------------------------------------
    def register_user(self, user_id: str, location: Point) -> MobileUser:
        """Subscribe a new user and upload their first encrypted location."""
        if user_id in self.users:
            raise ValueError(f"user id {user_id!r} already registered")
        user = MobileUser(user_id=user_id, location=location)
        self.users[user_id] = user
        self._upload(user)
        return user

    def move_user(self, user_id: str, location: Point) -> LocationUpdate:
        """Move a user and upload a fresh encrypted location report."""
        user = self._user(user_id)
        user.move_to(location)
        return self._upload(user)

    def reattach_user(self, user_id: str, location: Point, sequence_number: int = 0) -> MobileUser:
        """Recreate a user object without uploading (e.g. after a state restore).

        The provider's ciphertext store may already know this pseudonym from a
        restored snapshot; ``sequence_number`` seeds the user's next report so
        it supersedes the stored one instead of being dropped as stale.
        """
        user = MobileUser(user_id=user_id, location=location, _sequence=sequence_number)
        self.users[user_id] = user
        return user

    def forget_user(self, user_id: str) -> None:
        """Drop a user and its stored ciphertext (no-op if unknown); the
        pseudonym can then register again."""
        self.users.pop(user_id, None)
        self.provider.forget_user(user_id)

    def _upload(self, user: MobileUser) -> LocationUpdate:
        update = user.report_location(
            grid=self.grid,
            encoding=self.authority.public_encoding(),
            hve=self.authority.hve,
            public_key=self.authority.public_key,
        )
        self.provider.receive_update(update)
        for sink in self.update_sinks:
            sink(update)
        return update

    def _user(self, user_id: str) -> MobileUser:
        if user_id not in self.users:
            raise KeyError(f"unknown user id {user_id!r}")
        return self.users[user_id]

    # ------------------------------------------------------------------
    # Alerts
    # ------------------------------------------------------------------
    def declare_alert(self, zone: AlertZone, alert_id: str, description: str = "") -> list[Notification]:
        """Run the full alert path: minimize, tokenize, match, notify."""
        declaration = AlertDeclaration(zone=zone, alert_id=alert_id, description=description)
        batch = self.authority.issue_tokens(declaration)
        return self.provider.process_alert(batch, description=description)

    def declare_alerts(self, declarations: Sequence[AlertDeclaration]) -> list[Notification]:
        """Declare several alerts and match them in one planned pass.

        The provider's matching engine builds a single token plan for the
        whole batch, so patterns shared between overlapping zones are
        evaluated once per ciphertext.
        """
        batches = [self.authority.issue_tokens(declaration) for declaration in declarations]
        descriptions = {d.alert_id: d.description for d in declarations if d.description}
        return self.provider.process_alerts(batches, descriptions=descriptions)

    def issue_token_batch(self, zone: AlertZone, alert_id: str) -> TokenBatch:
        """Only mint the tokens (used by benchmarks that time matching separately)."""
        declaration = AlertDeclaration(zone=zone, alert_id=alert_id)
        return self.authority.issue_tokens(declaration)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pairing_count(self) -> int:
        """Total pairings evaluated by the system so far."""
        return self.authority.group.counter.total

    def users_in_zone(self, zone: AlertZone) -> list[str]:
        """Ground truth: users whose *actual* cell lies in the zone.

        Used by tests and examples to check that the encrypted matching
        produced exactly the right notifications.
        """
        return sorted(
            user_id
            for user_id, user in self.users.items()
            if user.current_cell(self.grid) in zone
        )
