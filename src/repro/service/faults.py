"""Seeded, deterministic fault injection for the alert service.

A :class:`FaultPlan` is a named, reproducible chaos workload (probabilities
and budgets drawn from seeded per-site streams), and a :class:`FaultInjector`
applies it through explicit hooks in the production code paths:

=======================  =====================================================
fault                    injection site
=======================  =====================================================
``torn_snapshot``        :meth:`CiphertextStore.save` and
                         :meth:`AlertService.snapshot` -- the write "crashes"
                         after emitting half the payload (a budgeted count,
                         not a probability)
``conn_drop``            the network tier's per-frame read/write paths
                         (:class:`~repro.net.server.AlertServiceServer`) --
                         the connection is aborted mid-exchange, forcing the
                         client through its reconnect + retry path
``frame_corrupt``        the server's write path -- bytes of an outgoing
                         frame are flipped after encoding, so the client's
                         CRC check rejects it and treats the connection as
                         lost
``slow_client``          both network paths -- the exchange is delayed by
                         ``slow_client_seconds``, modelling a slow consumer
                         without changing any outcome
``fsync_delay``          :meth:`RequestJournal._sync` -- the durable sync of
                         a journal append (or group-commit batch) is delayed
                         by ``fsync_delay_seconds``, modelling slow durable
                         storage; the sync still happens, so no outcome moves
``journal_write_fail``   the journal's appends -- the write fails before any
                         byte lands, so the affected requests are answered
                         with a typed error instead of executing
=======================  =====================================================

Every stream is seeded per site, so a plan replays bit-identically: the same
spec + seed fires the same faults at the same points of the same workload.
Apart from ``journal_write_fail`` (which fails the affected requests, and so
belongs in dedicated failure tests) the injector never changes *what* the
service computes: a chaos run's notifications and pairing totals stay
bit-exact against the fault-free run (:func:`run_chaos_soak` checks exactly
that).

Plans are written as compact specs -- ``"torn_snapshot=1,fsync_delay=0.1"``
-- accepted by ``ServiceConfig(faults=...)`` and the CLI's
``--faults`` flag; see :meth:`FaultPlan.parse`.
"""

from __future__ import annotations

import collections
import json
import pathlib
import random
import tempfile
import time
import zlib
from dataclasses import dataclass, fields, replace
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "InjectedFault",
    "FaultPlan",
    "FaultInjector",
    "ChaosSoakOutcome",
    "run_chaos_soak",
    "DEFAULT_CHAOS_SPEC",
]


class InjectedFault(RuntimeError):
    """An error raised *by* the harness to simulate a crash (e.g. torn write)."""


@dataclass(frozen=True)
class FaultPlan:
    """A seeded chaos workload: per-site fault probabilities and budgets.

    The network fields are per-frame probabilities and the journal fields
    per-append (or per-sync) probabilities.  ``torn_snapshots`` is a *budget*: the first N snapshot
    saves crash mid-write, later ones succeed -- chaos scenarios usually want
    "exactly one torn snapshot", not a coin flip per checkpoint.
    """

    torn_snapshots: int = 0
    conn_drop: float = 0.0
    frame_corrupt: float = 0.0
    slow_client: float = 0.0
    fsync_delay: float = 0.0
    journal_write_fail: float = 0.0
    slow_client_seconds: float = 0.05
    fsync_delay_seconds: float = 0.02
    seed: int = 0

    _PROBABILITIES = (
        "conn_drop",
        "frame_corrupt",
        "slow_client",
        "fsync_delay",
        "journal_write_fail",
    )

    def __post_init__(self) -> None:
        for name in self._PROBABILITIES:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")
        if self.torn_snapshots < 0:
            raise ValueError("torn_snapshots must be non-negative")
        if self.slow_client_seconds < 0 or self.fsync_delay_seconds < 0:
            raise ValueError("slow_client_seconds/fsync_delay_seconds must be non-negative")

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a ``"conn_drop=0.05,fsync_delay=0.1,torn_snapshot=1"`` spec string.

        Keys are the dataclass field names; ``torn_snapshot`` is accepted as
        an alias for ``torn_snapshots``.  An empty spec is the null plan.
        """
        known = {f.name for f in fields(cls)}
        values: dict = {"seed": seed}
        spec = spec.strip()
        if spec:
            for clause in spec.split(","):
                clause = clause.strip()
                if not clause:
                    continue
                if "=" not in clause:
                    raise ValueError(f"bad fault clause {clause!r}; expected name=value")
                name, _, raw = clause.partition("=")
                name = name.strip()
                if name == "torn_snapshot":
                    name = "torn_snapshots"
                if name not in known or name == "seed":
                    raise ValueError(
                        f"unknown fault {name!r}; expected one of {sorted(known - {'seed'})}"
                    )
                try:
                    value: object = int(raw) if name == "torn_snapshots" else float(raw)
                except ValueError as exc:
                    raise ValueError(f"bad value for fault {name!r}: {raw!r}") from exc
                values[name] = value
        return cls(**values)

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    @property
    def any_active(self) -> bool:
        """True when the plan can fire at least one fault."""
        return (
            any(getattr(self, name) > 0 for name in self._PROBABILITIES)
            or self.torn_snapshots > 0
        )


class FaultInjector:
    """Applies a :class:`FaultPlan` through the hooks in the service layers.

    One injector is shared by everything in a session (store and service
    snapshot paths, journal, network server).  Each fault site draws from
    its own :class:`random.Random` stream seeded from ``plan.seed`` and the
    site name, so adding a fault type never perturbs when the others fire.
    ``counts`` records what actually fired, for assertions and CLI reports.
    """

    _SITES = ("snapshot", "net", "journal", "journal_write")

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._rngs = {
            site: random.Random((zlib.crc32(site.encode("utf-8")) << 32) ^ (plan.seed & 0xFFFFFFFF))
            for site in self._SITES
        }
        self._torn_remaining = plan.torn_snapshots
        self.counts: collections.Counter = collections.Counter()

    # ------------------------------------------------------------------
    # Network frames (AlertServiceServer read/write paths)
    # ------------------------------------------------------------------
    def net_frame(self, direction: str) -> Optional[Tuple]:
        """Decide the fate of one frame exchange on ``direction`` ("read"/"write").

        Returns None (deliver normally), ``("conn_drop",)`` (abort the
        connection), ``("frame_corrupt",)`` (flip bytes of the encoded frame
        -- write path only; the server skips it on reads), or
        ``("slow_client", seconds)`` (delay the exchange).  Like every other
        site this draws from its own seeded stream, so the same plan fires
        the same network faults at the same frames of the same workload.
        """
        rng = self._rngs["net"]
        roll = rng.random()
        if roll < self.plan.conn_drop:
            self.counts["conn_drop"] += 1
            return ("conn_drop",)
        roll -= self.plan.conn_drop
        if roll < self.plan.frame_corrupt:
            if direction == "write":
                self.counts["frame_corrupt"] += 1
                return ("frame_corrupt",)
            return None
        roll -= self.plan.frame_corrupt
        if roll < self.plan.slow_client:
            self.counts["slow_client"] += 1
            return ("slow_client", self.plan.slow_client_seconds)
        return None

    # ------------------------------------------------------------------
    # Journal syncs (RequestJournal._sync)
    # ------------------------------------------------------------------
    def journal_fsync(self) -> None:
        """Maybe delay one durable journal sync (slow-storage model).

        Draws from the dedicated ``journal`` stream so arming this site never
        perturbs when any other fault fires.  The sync itself always
        proceeds -- the fault models latency, not loss -- so group-commit
        batches land intact, just late.
        """
        rng = self._rngs["journal"]
        if rng.random() < self.plan.fsync_delay:
            self.counts["fsync_delay"] += 1
            time.sleep(self.plan.fsync_delay_seconds)

    def journal_write(self) -> None:
        """Maybe fail one durable journal append (ENOSPC / yanked-volume model).

        Raises :class:`InjectedFault` *before* anything hits the file, so the
        journal's rollback contract is exercised from a clean pre-write state;
        the journal wraps it into the typed
        :class:`~repro.service.journal.JournalWriteError` the server answers
        with.  Unlike ``fsync_delay`` this fault is **not** outcome-neutral
        (the affected requests fail instead of executing), so it belongs in
        dedicated failure tests, not the bit-exact parity soaks.
        """
        rng = self._rngs["journal_write"]
        if rng.random() < self.plan.journal_write_fail:
            self.counts["journal_write_fail"] += 1
            raise InjectedFault("injected journal append failure")

    # ------------------------------------------------------------------
    # Snapshots (CiphertextStore.save, AlertService.snapshot)
    # ------------------------------------------------------------------
    def maybe_tear_snapshot(self, path, payload: bytes) -> None:
        """While the torn-snapshot budget lasts, crash the write half way.

        Emits the first half of the payload to a side file (the "torn tmp"
        a crashed writer would leave behind) and raises
        :class:`InjectedFault` *before* the atomic rename -- the target file
        must come through untouched, which is exactly what the chaos soak
        verifies.
        """
        if self._torn_remaining <= 0:
            return
        self._torn_remaining -= 1
        self.counts["torn_snapshot"] += 1
        torn = pathlib.Path(str(path) + ".torn")
        torn.write_bytes(payload[: max(1, len(payload) // 2)])
        raise InjectedFault(f"injected torn write of snapshot {path}")


# ----------------------------------------------------------------------
# Chaos soak driver (shared by the test suite and the CLI)
# ----------------------------------------------------------------------
DEFAULT_CHAOS_SPEC = "torn_snapshot=1,fsync_delay=0.10"


@dataclass
class ChaosSoakOutcome:
    """Result of one :func:`run_chaos_soak`: parity verdict + evidence."""

    steps: int
    seed: int
    faults: str
    matched: bool
    baseline_passes: List[Tuple[Tuple[str, ...], int]]
    faulted_passes: List[Tuple[Tuple[str, ...], int]]
    fault_counts: dict
    snapshots_intact: bool
    baseline_pairings: int = 0
    faulted_pairings: int = 0
    stats: object = None

    def summary(self) -> str:
        verdict = "BIT-EXACT" if self.matched else "DIVERGED"
        fired = ", ".join(f"{k}={v}" for k, v in sorted(self.fault_counts.items())) or "none"
        return (
            f"chaos soak: {self.steps} steps, seed {self.seed} -> {verdict} "
            f"(pairings {self.faulted_pairings} vs {self.baseline_pairings})\n"
            f"  faults fired: {fired}\n"
            f"  snapshots intact: {self.snapshots_intact}"
        )


def _chaos_script(steps: int, seed: int, n_cells: int, users: int) -> List[Tuple[str, int]]:
    """The deterministic step list both soak runs replay."""
    rng = random.Random(seed)
    script: List[Tuple[str, int]] = []
    for step in range(steps):
        roll = rng.random()
        if roll < 0.55:
            action = "move"
        elif roll < 0.70:
            action = "publish"
        elif roll < 0.80:
            action = "retract"
        elif roll < 0.90:
            action = "snapshot"
        else:
            action = "tick"
        script.append((action, rng.randrange(n_cells)))
    return script


def _run_scripted_session(
    scenario,
    config,
    script: Sequence[Tuple[str, int]],
    users: int,
    snapshot_dir: Optional[pathlib.Path],
) -> Tuple[List[Tuple[Tuple[str, ...], int]], object, bool, object]:
    """Replay one chaos script; returns (passes, stats, snapshots_intact, service_ref)."""
    from repro.grid.alert_zone import AlertZone
    from repro.service.requests import Move, PublishZone, RetractZone, Subscribe
    from repro.service.service import AlertService

    passes: List[Tuple[Tuple[str, ...], int]] = []
    snapshots_intact = True
    rng = random.Random(1009)
    n_cells = scenario.grid.n_cells
    with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
        for i in range(users):
            cell = rng.randrange(n_cells)
            service.subscribe(
                Subscribe(user_id=f"user-{i:03d}", location=scenario.grid.cell_center(cell))
            )
        service.publish_zone(
            PublishZone(alert_id="zone-a", zone=AlertZone(cell_ids=(5, 6, 7, 11)), evaluate=False)
        )
        service.evaluate_standing()  # cold pass builds the plan
        extra_zone = False
        for step, (action, cell) in enumerate(script):
            if action == "move":
                user = f"user-{cell % users:03d}"
                service.move(Move(user_id=user, location=scenario.grid.cell_center(cell)))
            elif action == "publish" and not extra_zone:
                service.publish_zone(
                    PublishZone(
                        alert_id="zone-x",
                        zone=AlertZone(cell_ids=(cell, (cell + 1) % n_cells)),
                        evaluate=False,
                    )
                )
                extra_zone = True
            elif action == "retract" and extra_zone:
                service.handle(RetractZone(alert_id="zone-x"))
                extra_zone = False
            elif action == "snapshot" and snapshot_dir is not None:
                target = snapshot_dir / "session.json"
                try:
                    service.snapshot(target)
                except InjectedFault:
                    pass  # the simulated crash -- the old file must survive
                if target.exists():
                    try:
                        json.loads(target.read_text(encoding="utf-8"))
                    except (ValueError, OSError):
                        snapshots_intact = False
            report = service.evaluate_standing()
            passes.append((report.notified_users, report.pairings_spent))
        stats = service.session_stats()
    return passes, stats, snapshots_intact, service


def run_chaos_soak(
    steps: int = 50,
    seed: int = 7,
    faults: str = DEFAULT_CHAOS_SPEC,
    users: int = 10,
) -> ChaosSoakOutcome:
    """Run one scripted warm session twice -- fault-free and under ``faults``.

    The two runs share the scenario, the crypto seed, and the step script;
    only the injector differs.  The verdict: notifications *and* pairing
    totals bit-exact, and snapshots never torn.
    """
    from repro.datasets.synthetic import make_synthetic_scenario
    from repro.service.config import ServiceConfig

    scenario = make_synthetic_scenario(
        rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=20, seed=31, extent_meters=600.0
    )
    script = _chaos_script(steps, seed, scenario.grid.n_cells, users)
    base_kwargs = dict(prime_bits=32, seed=19)
    fault_spec = faults or ""
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        tmp_path = pathlib.Path(tmp)
        baseline_dir = tmp_path / "baseline"
        faulted_dir = tmp_path / "faulted"
        baseline_dir.mkdir()
        faulted_dir.mkdir()
        # Both runs journal ahead of execution so the fsync_delay site has a
        # real durable path to slow down; each run gets its own WAL file.
        baseline_config = ServiceConfig(
            **base_kwargs, journal_path=str(baseline_dir / "wal.log")
        )
        faulted_config = ServiceConfig(
            **base_kwargs,
            journal_path=str(faulted_dir / "wal.log"),
            faults=fault_spec,
            fault_seed=seed,
        )
        baseline_passes, baseline_stats, baseline_intact, _ = _run_scripted_session(
            scenario, baseline_config, script, users, baseline_dir
        )
        faulted_passes, faulted_stats, faulted_intact, service = _run_scripted_session(
            scenario, faulted_config, script, users, faulted_dir
        )
    injector = getattr(service, "fault_injector", None)
    fault_counts = dict(injector.counts) if injector is not None else {}
    return ChaosSoakOutcome(
        steps=steps,
        seed=seed,
        faults=fault_spec,
        matched=faulted_passes == baseline_passes,
        baseline_passes=baseline_passes,
        faulted_passes=faulted_passes,
        fault_counts=fault_counts,
        snapshots_intact=baseline_intact and faulted_intact,
        baseline_pairings=sum(p for _, p in baseline_passes),
        faulted_pairings=sum(p for _, p in faulted_passes),
        stats=faulted_stats,
    )
