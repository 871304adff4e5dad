"""The one configuration surface of the session-oriented service.

:class:`ServiceConfig` is a frozen dataclass covering the deployment (scheme,
primes, backend), the matching engine (strategy, order, dedupe/subsume) and
the session itself (report freshness, journal, fault injection, network
tier).  Build one by keyword; derive a variant with :func:`dataclasses.replace`,
which re-runs every validator.

Every validator raises ``ValueError`` naming *all* recognised choices, so a
typo tells the operator what would have worked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.backends import backend_names
from repro.encoding import SCHEME_NAMES, canonical_scheme_name
from repro.protocol.matching import MATCHING_STRATEGIES, TOKEN_ORDERS, MatchingOptions

__all__ = ["NetOptions", "ServiceConfig"]


def _require_choice(value: str, choices: tuple[str, ...], what: str) -> None:
    if value not in choices:
        raise ValueError(f"unknown {what} {value!r}; expected one of {sorted(choices)}")


#: Wire formats the network tier accepts (``auto`` prefers msgpack when the
#: optional dependency is importable, falling back to stdlib JSON).
WIRE_FORMATS = ("auto", "json", "msgpack")


@dataclass(frozen=True)
class NetOptions:
    """The network tier's knobs: address, backpressure, batching, framing.

    host / port:
        Listen address of :class:`~repro.net.server.AlertServiceServer`;
        ``port=0`` binds an ephemeral port (the bound port is reported by
        ``server.port``).
    max_inflight:
        High-water mark on requests admitted but not yet answered (queued +
        executing, across all connections).  A request arriving at the mark
        is answered with a ``BUSY`` frame immediately and the offending
        connection's reader is paused until the backlog drains below
        ``low_water`` -- explicit backpressure instead of unbounded queueing.
    low_water:
        Resume-reading threshold; defaults to ``max_inflight // 2``.
    batch_max / batch_window_ms:
        Ingest coalescing per tick: consecutive queued :class:`IngestBatch`
        requests are merged (up to ``batch_max`` of them, waiting at most
        ``batch_window_ms`` for stragglers) into one store pass; every member
        receives the tick's shared :class:`MatchReport`.
    max_frame_bytes:
        Reject frames larger than this before allocating their body.
    wire_format:
        ``"auto"`` | ``"json"`` | ``"msgpack"`` -- ``auto`` uses msgpack when
        importable, else the stdlib JSON fallback.
    drain_timeout_seconds:
        Graceful-shutdown budget: how long ``stop()`` waits for the inflight
        queue to drain before closing connections anyway.
    max_inflight_per_conn:
        Per-connection inflight quota.  A single flooding client hits its own
        ``BUSY`` ceiling (and only *its* reader pauses) before it can occupy
        the whole global window and starve polite connections.  ``None``
        (default) disables the per-connection cap; must not exceed
        ``max_inflight`` when set.
    codec_threads:
        Size of the codec offload pool that moves frame decode + response
        encode off the event loop.  ``0`` keeps all codec work on the loop.
    codec_offload_bytes:
        Frame bodies at or above this size are decoded on the codec pool;
        smaller frames decode inline (offloading a 100-byte JSON parse costs
        more in handoff than it saves, which would show up as uncongested
        p99 regression).
    """

    host: str = "127.0.0.1"
    port: int = 7425
    max_inflight: int = 256
    low_water: Optional[int] = None
    batch_max: int = 64
    batch_window_ms: float = 2.0
    max_frame_bytes: int = 8 << 20
    wire_format: str = "auto"
    drain_timeout_seconds: float = 10.0
    max_inflight_per_conn: Optional[int] = None
    codec_threads: int = 2
    codec_offload_bytes: int = 2048

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535] (0 binds an ephemeral port)")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        if self.low_water is not None and not 0 <= self.low_water < self.max_inflight:
            raise ValueError("low_water must satisfy 0 <= low_water < max_inflight (or None)")
        if self.batch_max < 1:
            raise ValueError("batch_max must be at least 1")
        if self.batch_window_ms < 0:
            raise ValueError("batch_window_ms must be non-negative")
        if self.max_frame_bytes < 1024:
            raise ValueError("max_frame_bytes must be at least 1024")
        _require_choice(self.wire_format, WIRE_FORMATS, "wire format")
        if self.drain_timeout_seconds < 0:
            raise ValueError("drain_timeout_seconds must be non-negative")
        if self.max_inflight_per_conn is not None and not (
            1 <= self.max_inflight_per_conn <= self.max_inflight
        ):
            raise ValueError(
                "max_inflight_per_conn must satisfy 1 <= quota <= max_inflight (or None)"
            )
        if self.codec_threads < 0:
            raise ValueError("codec_threads must be non-negative (0 keeps codec on the loop)")
        if self.codec_offload_bytes < 0:
            raise ValueError("codec_offload_bytes must be non-negative")

    @property
    def resolved_low_water(self) -> int:
        """The effective resume threshold (default: half the high water)."""
        return self.low_water if self.low_water is not None else self.max_inflight // 2

    @property
    def resolved_per_conn_quota(self) -> int:
        """The effective per-connection inflight quota.

        ``None`` resolves to the full global window -- per-connection
        fairness is opt-in, so single-client deployments keep the exact
        global-only admission semantics they had before the knob existed.
        """
        if self.max_inflight_per_conn is not None:
            return self.max_inflight_per_conn
        return self.max_inflight


@dataclass(frozen=True)
class ServiceConfig:
    """Everything an :class:`~repro.service.service.AlertService` session needs.

    Deployment
    ----------
    scheme / alphabet_size:
        Encoding scheme name (see :data:`repro.encoding.SCHEME_NAMES`; aliases
        like ``"bary"`` are accepted and normalised) and the B-ary alphabet
        size where applicable.
    prime_bits / seed / crypto_backend:
        HVE prime size, RNG seed for reproducible key material, and the crypto
        arithmetic backend name (``None`` auto-selects).

    Matching engine
    ---------------
    matching_strategy / token_order / dedupe / subsume:
        See :class:`~repro.protocol.matching.MatchingOptions`.  The engine
        always remembers per-(user, alert) outcomes keyed by sequence number,
        so a standing tick evaluates only the users whose ciphertext changed.

    Session
    -------
    max_age_seconds:
        Reports older than this are excluded from matching.  The next
        evaluation pass purges them: the session forgets the pseudonym (its
        report, hosted user and remembered outcomes), which comes back with a
        fresh :class:`~repro.service.requests.Subscribe`.  ``None`` disables
        expiry.
    faults / fault_seed:
        Fault-injection spec for chaos runs (see
        :meth:`~repro.service.faults.FaultPlan.parse`), e.g.
        ``"torn_snapshot=1,fsync_delay=0.1"``, with a seed making the
        run a named reproducible workload.  ``None`` (default) injects
        nothing and adds zero overhead to the hot paths.
    journal_path:
        Write-ahead request journal file.  When set, every request (the
        evaluation tick included) is durably appended *before* it executes;
        :meth:`~repro.service.service.AlertService.restore` replays entries
        newer than the restored snapshot, and a snapshot written to a file
        checkpoints (truncates) the journal behind itself.

    Network tier
    ------------
    net:
        The validated :class:`NetOptions` block consumed by
        :class:`~repro.net.server.AlertServiceServer` and the ``repro serve``
        CLI: listen address, inflight high/low water (backpressure), ingest
        coalescing, frame limits and wire format.  ``None`` (default) means
        the session is not network-facing; a plain dict of NetOptions fields
        is accepted and normalised.
    """

    scheme: str = "huffman"
    alphabet_size: int = 3
    prime_bits: int = 64
    seed: Optional[int] = None
    crypto_backend: Optional[str] = None
    matching_strategy: str = "planned"
    token_order: str = "cheapest"
    dedupe: bool = True
    subsume: bool = True
    max_age_seconds: Optional[float] = None
    faults: Optional[str] = None
    fault_seed: int = 0
    journal_path: Optional[str] = None
    net: Optional[NetOptions] = None

    def __post_init__(self) -> None:
        # The net block accepts a plain dict (handy for JSON-borne configs)
        # and normalises it through NetOptions' own validators.
        if isinstance(self.net, dict):
            object.__setattr__(self, "net", NetOptions(**self.net))
        if self.net is not None and not isinstance(self.net, NetOptions):
            raise ValueError(
                f"net must be a NetOptions (or a dict of its fields), got {type(self.net).__name__}"
            )
        # canonical_scheme_name raises a ValueError listing every recognised
        # scheme; store the normalised form so equal configs compare equal.
        object.__setattr__(self, "scheme", canonical_scheme_name(self.scheme))
        _require_choice(self.matching_strategy, MATCHING_STRATEGIES, "matching strategy")
        _require_choice(self.token_order, TOKEN_ORDERS, "token order")
        if self.crypto_backend is not None:
            names = tuple(backend_names())
            if self.crypto_backend not in names:
                raise ValueError(
                    f"unknown crypto backend {self.crypto_backend!r}; expected one of "
                    f"{sorted(names)} (or None to auto-select)"
                )
        if self.alphabet_size < 2:
            raise ValueError("alphabet_size must be at least 2")
        if self.prime_bits < 16:
            raise ValueError("prime_bits must be at least 16")
        if self.max_age_seconds is not None and self.max_age_seconds <= 0:
            raise ValueError("max_age_seconds must be positive (or None to disable expiry)")
        # Fail on a bad fault spec at construction, with the parser's message.
        self.fault_plan()

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def matching_options(self) -> MatchingOptions:
        """The engine options this config implies."""
        return MatchingOptions(
            strategy=self.matching_strategy,
            order=self.token_order,
            dedupe=self.dedupe,
            subsume=self.subsume,
        )

    def fault_plan(self):
        """The parsed :class:`~repro.service.faults.FaultPlan`, or None."""
        if self.faults is None:
            return None
        from repro.service.faults import FaultPlan

        return FaultPlan.parse(self.faults, seed=self.fault_seed)
