"""The three protocol parties: mobile users, trusted authority, service provider.

Responsibilities follow Section 2.2 of the paper:

* **Mobile users** know their own location, the public grid encoding and the
  HVE public key.  They map their position to a grid cell, look up the cell's
  padded index and encrypt it; only the ciphertext leaves the device.
* The **Trusted Authority (TA)** owns the HVE secret key.  It builds the grid
  encoding from *public* per-cell alert likelihoods (no user data is
  involved), publishes the encoding and public key, and when an alert zone is
  declared it minimizes the zone into token patterns and derives HVE tokens.
* The **Service Provider (SP)** stores the users' latest ciphertexts and, for
  every declared alert, evaluates each token against each stored ciphertext.
  It learns only the boolean match outcome, notifies matched users and keeps
  pairing-count statistics (the paper's cost metric).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.crypto.counting import PairingCounter
from repro.crypto.group import BilinearGroup
from repro.crypto.hve import HVE, HVEKeyPair, HVEPublicKey, HVESecretKey, HVEToken
from repro.encoding.base import EncodingScheme, GridEncoding
from repro.grid.alert_zone import AlertZone
from repro.grid.geometry import Point
from repro.grid.grid import Grid
from repro.protocol.matching import MatchCandidate, MatchingEngine, MatchingOptions
from repro.protocol.messages import AlertDeclaration, LocationUpdate, Notification, TokenBatch

__all__ = ["MobileUser", "TrustedAuthority", "ServiceProvider"]


class TrustedAuthority:
    """Holder of the HVE secret key; builds the encoding and issues tokens.

    Parameters
    ----------
    grid:
        The spatial partitioning served by the system.
    probabilities:
        Public per-cell alert likelihoods driving the encoding (site
        popularity, historical incident rates, ...).  No user data.
    scheme:
        The encoding scheme to deploy (Huffman, balanced, fixed, SGO, ...).
    prime_bits:
        Size of each prime factor of the HVE group order.
    rng:
        Random source for key material; seed for reproducible experiments.
    backend:
        Crypto arithmetic backend name (``None`` auto-selects; see
        :mod:`repro.crypto.backends`).
    """

    def __init__(
        self,
        grid: Grid,
        probabilities: Sequence[float],
        scheme: EncodingScheme,
        prime_bits: int = 128,
        rng: Optional[random.Random] = None,
        backend: Optional[str] = None,
    ):
        grid.validate_probabilities(probabilities)
        self.grid = grid
        self.probabilities = list(probabilities)
        self.scheme = scheme
        self._rng = rng or random.Random()

        # Build the encoding first: its reference length is the HVE width.
        self.encoding: GridEncoding = scheme.build(self.probabilities)
        self.hve = HVE(
            width=self.encoding.reference_length,
            prime_bits=prime_bits,
            rng=self._rng,
            backend=backend,
        )
        self._keys: HVEKeyPair = self.hve.setup()

    # ------------------------------------------------------------------
    # Published material
    # ------------------------------------------------------------------
    @property
    def public_key(self) -> HVEPublicKey:
        """The HVE public key distributed to all subscribed users."""
        return self._keys.public

    @property
    def group(self) -> BilinearGroup:
        """The bilinear group shared by all parties."""
        return self.hve.group

    def public_encoding(self) -> GridEncoding:
        """The published grid encoding (cell -> padded index).

        The encoding is public information: it is derived from public
        likelihood scores only, so distributing it leaks nothing about users
        (Section 6).
        """
        return self.encoding

    # ------------------------------------------------------------------
    # Token issuance
    # ------------------------------------------------------------------
    def _secret_key(self) -> HVESecretKey:
        return self._keys.secret

    def token_patterns_for_zone(self, zone: AlertZone) -> list[str]:
        """Minimized token patterns for an alert zone (before encryption)."""
        return self.encoding.token_patterns(list(zone.cell_ids))

    def issue_tokens(self, declaration: AlertDeclaration) -> TokenBatch:
        """Minimize the declared zone and derive the HVE search tokens."""
        patterns = self.token_patterns_for_zone(declaration.zone)
        if not patterns:
            raise ValueError("alert declaration produced no token patterns")
        tokens = tuple(self.hve.generate_token(self._secret_key(), pattern) for pattern in patterns)
        return TokenBatch(alert_id=declaration.alert_id, tokens=tokens)


@dataclass
class MobileUser:
    """A subscribed mobile user.

    The user holds only public material (grid, encoding, public key) plus its
    own location; :meth:`report_location` produces the encrypted update the
    service provider stores.
    """

    user_id: str
    location: Point
    _sequence: int = field(default=0, repr=False)

    def current_cell(self, grid: Grid) -> int:
        """The id of the grid cell currently enclosing the user."""
        return grid.cell_at(self.location).cell_id

    def move_to(self, location: Point) -> None:
        """Update the user's physical position (a new report must follow)."""
        self.location = location

    def report_location(
        self,
        grid: Grid,
        encoding: GridEncoding,
        hve: HVE,
        public_key: HVEPublicKey,
    ) -> LocationUpdate:
        """Encrypt the user's current cell index and produce a location update."""
        cell_id = self.current_cell(grid)
        index = encoding.index_of(cell_id)
        ciphertext = hve.encrypt(public_key, index)
        update = LocationUpdate(user_id=self.user_id, ciphertext=ciphertext, sequence_number=self._sequence)
        self._sequence += 1
        return update


class ServiceProvider:
    """Stores encrypted location updates and evaluates alert tokens on them.

    The provider never sees a plaintext location or the secret key; all it can
    compute is, per (ciphertext, token) pair, whether the hidden index
    satisfies the token's pattern.

    All matching is delegated to a :class:`~repro.protocol.matching.MatchingEngine`
    (the planned strategy by default); pass ``matching=MatchingOptions(...)``
    to select the naive parity path or a token order, or inject a pre-built
    ``engine``.  Every alert this provider processes is one-shot: its
    remembered outcomes are dropped after the pass, so repeating an alert
    pays its pairings again and the engine keeps no state for it.
    """

    def __init__(
        self,
        hve: HVE,
        engine: Optional[MatchingEngine] = None,
        matching: Optional[MatchingOptions] = None,
    ):
        if engine is not None and matching is not None:
            raise ValueError("pass either a pre-built engine or matching options, not both")
        self.hve = hve
        self.engine = engine if engine is not None else MatchingEngine(hve, matching)
        self._latest_updates: dict[str, LocationUpdate] = {}
        self._notifications: list[Notification] = []

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def receive_update(self, update: LocationUpdate) -> None:
        """Store a user's update, keeping only the freshest per pseudonym."""
        existing = self._latest_updates.get(update.user_id)
        if existing is None or update.sequence_number >= existing.sequence_number:
            self._latest_updates[update.user_id] = update

    def forget_user(self, user_id: str) -> None:
        """Drop a user's stored ciphertext (no-op if absent)."""
        self._latest_updates.pop(user_id, None)

    @property
    def subscriber_count(self) -> int:
        """Number of users with a stored ciphertext."""
        return len(self._latest_updates)

    def subscribers(self) -> list[str]:
        """Pseudonyms of all users with a stored ciphertext."""
        return sorted(self._latest_updates)

    def latest_update(self, user_id: str) -> LocationUpdate:
        """The freshest stored update of one user (KeyError if absent).

        Used by the session service to back-fill its ciphertext store when it
        adopts an already-running deployment.
        """
        return self._latest_updates[user_id]

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    @property
    def pairing_counter(self) -> PairingCounter:
        """The pairing counter of the underlying group (cost accounting)."""
        return self.hve.group.counter

    def process_alert(self, batch: TokenBatch, description: str = "") -> list[Notification]:
        """Match a token batch against every stored ciphertext.

        Returns the notifications for matched users (also retained in the
        provider's notification log).  Matching short-circuits per user on the
        first matching token.
        """
        descriptions = {batch.alert_id: description} if description else None
        return self.process_alerts([batch], descriptions=descriptions)

    def process_alerts(
        self,
        batches: Sequence[TokenBatch],
        descriptions: Optional[dict[str, str]] = None,
    ) -> list[Notification]:
        """Match several alerts in one planned pass over the stored ciphertexts.

        Processing alerts together lets the engine deduplicate shared token
        patterns across them; per alert, semantics are the same as
        :meth:`process_alert`.
        """
        candidates = [
            MatchCandidate(
                user_id=user_id,
                ciphertext=self._latest_updates[user_id].ciphertext,
                sequence_number=self._latest_updates[user_id].sequence_number,
            )
            for user_id in self.subscribers()
        ]
        notifications = self.engine.match(batches, candidates, descriptions=descriptions)
        for batch in batches:
            self.engine.forget_alert(batch.alert_id)
        self._notifications.extend(notifications)
        return notifications

    def notification_log(self) -> list[Notification]:
        """All notifications emitted so far (most recent last)."""
        return list(self._notifications)
