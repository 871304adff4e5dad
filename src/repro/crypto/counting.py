"""Pairing-operation accounting.

The paper's evaluation metric (Section 7) is *the number of HVE bilinear map
pairing operations* incurred by each encoding technique; these dominate the
cost of the matching step at the service provider.  This module provides:

* :class:`PairingCounter` -- a counter recorded by every pairing evaluation of
  a :class:`~repro.crypto.group.BilinearGroup`, with checkpoint support so an
  experiment can attribute pairings to phases (setup, encryption, matching).
* Analytic helpers that compute, for a set of tokens, how many pairings a
  single ciphertext match would cost without running the crypto: ``1 + 2 * k``
  pairings for a token with ``k`` non-star symbols (one pairing for ``C_0`` /
  ``K_0`` plus two per non-star position), exactly matching the ``Query``
  equation of Section 2.1.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

__all__ = [
    "PairingCounter",
    "non_star_count",
    "pairing_cost_of_token",
    "pairing_cost_of_tokens",
    "matching_cost",
]


@dataclass
class PairingCounter:
    """Counts bilinear pairing evaluations, with named checkpoints.

    Example
    -------
    >>> counter = PairingCounter()
    >>> counter.record_pairing()
    >>> counter.checkpoint("setup")
    >>> counter.record_pairing(); counter.record_pairing()
    >>> counter.since("setup")
    2
    >>> counter.total
    3
    """

    total: int = 0
    _checkpoints: dict[str, int] = field(default_factory=dict)
    # The network server runs the session on its own worker thread while
    # other threads may read the counter; the lock keeps ``total`` exact.
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def record_pairing(self, count: int = 1) -> None:
        """Record ``count`` pairing evaluations (thread-safe)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        with self._lock:
            self.total += count

    def reset(self) -> None:
        """Reset the counter and drop all checkpoints."""
        with self._lock:
            self.total = 0
            self._checkpoints.clear()

    def checkpoint(self, name: str) -> None:
        """Remember the current total under ``name``."""
        self._checkpoints[name] = self.total

    def since(self, name: str) -> int:
        """Number of pairings recorded since checkpoint ``name``."""
        if name not in self._checkpoints:
            raise KeyError(f"unknown checkpoint: {name!r}")
        return self.total - self._checkpoints[name]

    def checkpoints(self) -> Mapping[str, int]:
        """Read-only view of the recorded checkpoints."""
        return dict(self._checkpoints)


def non_star_count(pattern: Sequence[str] | str) -> int:
    """Number of non-star symbols in a token pattern.

    The pattern may be a string such as ``"0*1"`` or any sequence of
    single-character symbols where ``"*"`` denotes the wildcard.
    """
    return sum(1 for symbol in pattern if symbol != "*")


def pairing_cost_of_token(pattern: Sequence[str] | str) -> int:
    """Pairings needed to evaluate one token against one ciphertext.

    From the ``Query`` equation (Section 2.1): one pairing for
    ``e(C_0, K_0)`` plus two pairings (``e(C_i1, K_i1)`` and
    ``e(C_i2, K_i2)``) for every index ``i`` where the pattern is not a star.
    """
    return 1 + 2 * non_star_count(pattern)


def pairing_cost_of_tokens(patterns: Iterable[Sequence[str] | str]) -> int:
    """Total pairings to evaluate each token in ``patterns`` against one ciphertext."""
    return sum(pairing_cost_of_token(p) for p in patterns)


def matching_cost(patterns: Iterable[Sequence[str] | str], num_ciphertexts: int) -> int:
    """Total pairings to match every token against ``num_ciphertexts`` ciphertexts.

    This is the quantity the service provider pays each time an alert zone is
    declared: every stored ciphertext is tested against every token of the
    zone.
    """
    if num_ciphertexts < 0:
        raise ValueError("num_ciphertexts must be non-negative")
    return pairing_cost_of_tokens(patterns) * num_ciphertexts
