"""Open-loop load generation for the network service tier.

A *closed-loop* harness (send, await, send) measures only the server's happy
pace: when the service slows down, the harness slows down with it and the
latency numbers stay flattering.  This generator is **open-loop**: request
arrival times are drawn up front from a seeded Poisson process at the offered
rate, each request fires at its scheduled instant whether or not earlier ones
finished, and latency is measured **from the scheduled arrival**, so queueing
delay -- the thing overload actually costs -- lands in the percentiles.

The scenario mix is seeded and deterministic: a warmup subscribes the user
population and fires an unmeasured low-rate burst (so server cold-start cost
never lands on the gated uncongested points), then the steady-state stream
samples ``move`` / ``ingest`` / ``publish`` / ``retract`` per the
:class:`LoadMix` weights.  Ingest requests
carry *real* HVE ciphertexts minted by a **shadow encryptor**: an in-process
:class:`AlertService` built from the same scenario and crypto seed as the
server, whose key material is therefore identical (``ServiceConfig.seed``
drives key generation), so the server accepts the updates exactly as it would
from a fleet of devices.

A sweep runs one :class:`PointResult` per offered rate and reports
p50/p99/p999 latency plus the **saturation throughput** -- the highest
achieved rps across the sweep.  The perf-gated p99 pools the latency
samples of every clean point in the sweep's lower half
(:meth:`SweepResult.gate_points`) rather than trusting one ~60-sample
point; :func:`publish_sweep` renders the table into
``benchmarks/results/net_tier.txt`` and returns the JSON section the
``net_tier`` perf gate stores in ``BENCH_provider.json``.
"""

from __future__ import annotations

import asyncio
import pathlib
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.grid.alert_zone import AlertZone
from repro.net.client import (
    AlertServiceClient,
    ClientError,
    RemoteRequestError,
    RequestTimeout,
    ServerBusy,
)
from repro.service.requests import (
    IngestBatch,
    Move,
    PublishZone,
    Request,
    RetractZone,
    Subscribe,
)

__all__ = [
    "LoadMix",
    "ScheduledOp",
    "PointResult",
    "SweepResult",
    "ShadowEncryptor",
    "build_schedule",
    "run_point",
    "run_sweep",
    "publish_sweep",
    "render_table",
]


@dataclass(frozen=True)
class LoadMix:
    """Relative weights of the steady-state request mix (need not sum to 1)."""

    move: float = 0.55
    ingest: float = 0.30
    publish: float = 0.075
    retract: float = 0.075

    def __post_init__(self) -> None:
        if min(self.move, self.ingest, self.publish, self.retract) < 0:
            raise ValueError("mix weights must be non-negative")
        if self.move + self.ingest + self.publish + self.retract <= 0:
            raise ValueError("mix weights must not all be zero")


@dataclass(frozen=True)
class ScheduledOp:
    """One pre-built request with its open-loop arrival offset (seconds)."""

    at: float
    kind: str
    request: Request


class ShadowEncryptor:
    """Mints valid device-side ciphertexts without talking to the server.

    Built from the same scenario + ``seed`` + ``prime_bits`` as the server's
    session, its :class:`SecureAlertSystem` derives identical HVE key
    material, so updates minted here verify under the server's tokens.
    """

    def __init__(self, scenario, *, prime_bits: int, seed: Optional[int], devices: int = 8):
        from repro.service.config import ServiceConfig
        from repro.service.service import AlertService

        self.scenario = scenario
        self.devices = devices
        self._service = AlertService(
            scenario.grid,
            scenario.probabilities,
            config=ServiceConfig(prime_bits=prime_bits, seed=seed),
        )
        self._rng = random.Random(0xD0_0D if seed is None else seed + 0xD0_0D)
        n_cells = scenario.grid.n_cells
        for i in range(devices):
            cell = self._rng.randrange(n_cells)
            self._service.subscribe(
                Subscribe(user_id=self._device_id(i), location=scenario.grid.cell_center(cell))
            )
        self._next = 0

    @staticmethod
    def _device_id(i: int) -> str:
        return f"dev-{i:03d}"

    def mint(self):
        """One fresh :class:`LocationUpdate` from the next device in rotation."""
        device = self._device_id(self._next % self.devices)
        self._next += 1
        cell = self._rng.randrange(self.scenario.grid.n_cells)
        self._service.move(Move(user_id=device, location=self.scenario.grid.cell_center(cell)))
        return self._service.system.provider.latest_update(device)

    def close(self) -> None:
        self._service.close()


def build_schedule(
    scenario,
    *,
    rate: float,
    duration: float,
    seed: int,
    users: int = 16,
    mix: Optional[LoadMix] = None,
    encryptor: Optional[ShadowEncryptor] = None,
) -> List[ScheduledOp]:
    """Pre-build the open-loop schedule for one offered-rate point.

    Arrivals are a Poisson process at ``rate`` over ``duration`` seconds; each
    arrival is assigned a request sampled from ``mix``.  Everything --
    including ingest ciphertexts -- is materialised *before* the clock
    starts, so schedule construction cost never pollutes latency.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    mix = mix if mix is not None else LoadMix()
    rng = random.Random(seed)
    grid = scenario.grid
    n_cells = grid.n_cells
    kinds = ("move", "ingest", "publish", "retract")
    weights = (mix.move, mix.ingest, mix.publish, mix.retract)
    ops: List[ScheduledOp] = []
    standing = 0
    t = rng.expovariate(rate)
    while t < duration:
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "ingest" and encryptor is None:
            kind = "move"  # no shadow keys: degrade ingest into plaintext moves
        if kind == "retract" and standing == 0:
            kind = "publish"  # nothing standing to retract yet
        if kind == "move":
            user = f"user-{rng.randrange(users):03d}"
            request: Request = Move(user_id=user, location=grid.cell_center(rng.randrange(n_cells)))
        elif kind == "ingest":
            request = IngestBatch(updates=(encryptor.mint(),), evaluate=False)
        elif kind == "publish":
            cell = rng.randrange(n_cells)
            request = PublishZone(
                alert_id=f"lg-zone-{standing % 4}",
                zone=AlertZone(cell_ids=(cell, (cell + 1) % n_cells)),
                evaluate=False,
            )
            standing += 1
        else:  # retract
            standing -= 1
            request = RetractZone(alert_id=f"lg-zone-{standing % 4}")
        ops.append(ScheduledOp(at=t, kind=kind, request=request))
        t += rng.expovariate(rate)
    return ops


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


@dataclass
class PointResult:
    """Latency/throughput outcome of one offered-rate point."""

    rate: float
    duration: float
    offered: int
    completed: int = 0
    busy: int = 0
    timeouts: int = 0
    errors: int = 0
    connection_errors: int = 0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    p999_ms: float = 0.0
    max_ms: float = 0.0
    achieved_rps: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)

    @property
    def dropped(self) -> int:
        """Requests that did not complete successfully."""
        return self.offered - self.completed

    def finalize(self) -> "PointResult":
        ordered = sorted(self.latencies_ms)
        self.p50_ms = _percentile(ordered, 0.50)
        self.p99_ms = _percentile(ordered, 0.99)
        self.p999_ms = _percentile(ordered, 0.999)
        self.max_ms = ordered[-1] if ordered else 0.0
        self.achieved_rps = self.completed / self.duration if self.duration > 0 else 0.0
        return self

    def to_json(self) -> dict:
        return {
            "rate": self.rate,
            "duration_s": self.duration,
            "offered": self.offered,
            "completed": self.completed,
            "busy": self.busy,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "connection_errors": self.connection_errors,
            "dropped": self.dropped,
            "p50_ms": round(self.p50_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "p999_ms": round(self.p999_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "achieved_rps": round(self.achieved_rps, 2),
        }


@dataclass
class SweepResult:
    """All points of one sweep plus the derived saturation throughput."""

    points: List[PointResult]
    seed: int
    connections: int
    workload: dict

    @property
    def saturation_rps(self) -> float:
        return max((p.achieved_rps for p in self.points), default=0.0)

    @property
    def total_dropped(self) -> int:
        return sum(p.dropped for p in self.points)

    def gate_points(self) -> List[PointResult]:
        """The points the perf gate pools: clean rates in the sweep's lower half.

        The gated p99 used to be the single lowest-rate point, whose p99 over
        ~60 samples is statistically the run's max -- one scheduler hiccup
        moved the gate by tens of percent.  Pooling every *uncongested* point
        (zero drops, zero BUSY, offered rate at most half the sweep's top
        rate) multiplies the sample count by the number of clean points while
        staying below the latency knee, so the pooled p99 measures the
        service, not one run's worst outlier.  Falls back to the lowest-rate
        point when nothing qualifies (e.g. a one-point sweep).
        """
        if not self.points:
            return []
        top = max(p.rate for p in self.points)
        clean = [
            p
            for p in self.points
            if p.dropped == 0 and p.busy == 0 and p.rate <= top / 2.0
        ]
        return clean or [min(self.points, key=lambda p: p.rate)]

    def gate_p99_ms(self) -> float:
        """p99 latency over the pooled samples of every gate point."""
        pooled = sorted(
            latency for point in self.gate_points() for latency in point.latencies_ms
        )
        return _percentile(pooled, 0.99)

    def to_json(self) -> dict:
        gate_points = self.gate_points()
        return {
            "workload": self.workload,
            "seed": self.seed,
            "connections": self.connections,
            "points": [p.to_json() for p in self.points],
            "saturation_rps": round(self.saturation_rps, 2),
            "total_dropped": self.total_dropped,
            "gate": {
                "p99_ms": round(self.gate_p99_ms(), 3),
                "samples": sum(len(p.latencies_ms) for p in gate_points),
                "rates": [p.rate for p in gate_points],
            },
        }


async def run_point(
    host: str,
    port: int,
    schedule: Sequence[ScheduledOp],
    *,
    rate: float,
    duration: float,
    connections: int = 4,
    timeout: float = 30.0,
    retry_busy: bool = False,
    client_seed: Optional[int] = None,
) -> PointResult:
    """Fire one schedule open-loop against a live server and measure.

    ``client_seed`` pins deterministic per-connection client identities for
    the exactly-once handshake (each point of a sweep gets its own seed, so
    identities never collide across points); None keeps random identities.
    """
    result = PointResult(rate=rate, duration=duration, offered=len(schedule))
    clients = [
        AlertServiceClient(
            host,
            port,
            timeout=timeout,
            client_id=None if client_seed is None else f"lg-{client_seed}-{i}",
            epoch=None if client_seed is None else client_seed,
        )
        for i in range(max(1, connections))
    ]
    for client in clients:
        await client.connect()
    loop = asyncio.get_running_loop()
    start = loop.time()

    async def fire(op: ScheduledOp, client: AlertServiceClient) -> None:
        arrival = start + op.at
        delay = arrival - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        try:
            if retry_busy:
                # A bigger retry budget than the client default: under
                # ``--retry`` the sweep is expected to ride through server
                # restarts (supervised crash-restart), whose rebind can
                # outlast the default backoff schedule.
                await client.request_with_retry(op.request, timeout=timeout, attempts=10)
            else:
                await client.request(op.request, timeout=timeout)
        except ServerBusy:
            result.busy += 1
            return
        except RequestTimeout:
            result.timeouts += 1
            return
        except RemoteRequestError:
            result.errors += 1
            return
        except ClientError:
            result.connection_errors += 1
            return
        # Open-loop latency: completion minus *scheduled* arrival, so time
        # spent queued behind a slow server counts against the percentiles.
        result.latencies_ms.append((loop.time() - arrival) * 1000.0)
        result.completed += 1

    try:
        await asyncio.gather(
            *(fire(op, clients[i % len(clients)]) for i, op in enumerate(schedule))
        )
    finally:
        for client in clients:
            await client.close()
    return result.finalize()


async def run_sweep(
    host: str,
    port: int,
    scenario,
    *,
    rates: Sequence[float],
    duration: float = 2.0,
    seed: int = 7,
    users: int = 16,
    connections: int = 4,
    prime_bits: int = 32,
    service_seed: Optional[int] = 11,
    mix: Optional[LoadMix] = None,
    timeout: float = 30.0,
    retry_busy: bool = False,
    settle_seconds: float = 0.2,
    warmup_seconds: float = 1.0,
) -> SweepResult:
    """One :func:`run_point` per offered rate, low to high, plus warmup.

    The warmup subscribes the ``users`` population once (subscriptions are
    not idempotent -- re-registering a pseudonym is an error by design), then
    fires an **unmeasured** open-loop burst of ``warmup_seconds`` at the
    lowest swept rate.  The burst exercises every request kind end to end so
    first-touch costs (server code paths, allocator/bytecode caches, worker
    pool spin-up) are paid before measurement starts -- without it those
    costs land entirely on the *lowest*-rate point, which is exactly the one
    the perf gate tracks, and the sweep shows the nonsensical signature of
    p99 improving as offered load quadruples.
    """
    encryptor = ShadowEncryptor(
        scenario, prime_bits=prime_bits, seed=service_seed, devices=max(4, users // 2)
    )
    try:
        async with AlertServiceClient(host, port, timeout=timeout) as warmup:
            rng = random.Random(seed)
            for i in range(users):
                cell = rng.randrange(scenario.grid.n_cells)
                await warmup.request_with_retry(
                    Subscribe(user_id=f"user-{i:03d}", location=scenario.grid.cell_center(cell))
                )
        if warmup_seconds > 0 and rates:
            warmup_rate = min(float(r) for r in rates)
            warmup_schedule = build_schedule(
                scenario,
                rate=warmup_rate,
                duration=warmup_seconds,
                seed=seed + 500_000,
                users=users,
                mix=mix,
                encryptor=encryptor,
            )
            # Result intentionally discarded; retry on BUSY so the warmup
            # completes even against a tightly bounded inflight queue.
            await run_point(
                host,
                port,
                warmup_schedule,
                rate=warmup_rate,
                duration=warmup_seconds,
                connections=connections,
                timeout=timeout,
                retry_busy=True,
                client_seed=seed * 1000 + 999,
            )
            if settle_seconds > 0:
                await asyncio.sleep(settle_seconds)
        points: List[PointResult] = []
        for index, rate in enumerate(sorted(rates)):
            schedule = build_schedule(
                scenario,
                rate=rate,
                duration=duration,
                seed=seed + 1000 * (index + 1),
                users=users,
                mix=mix,
                encryptor=encryptor,
            )
            points.append(
                await run_point(
                    host,
                    port,
                    schedule,
                    rate=rate,
                    duration=duration,
                    connections=connections,
                    timeout=timeout,
                    retry_busy=retry_busy,
                    client_seed=seed * 1000 + index,
                )
            )
            if settle_seconds > 0:
                await asyncio.sleep(settle_seconds)
    finally:
        encryptor.close()
    workload = {
        "rates": sorted(float(r) for r in rates),
        "duration_s": duration,
        "users": users,
        "rows": getattr(scenario.grid, "rows", None),
        "cols": getattr(scenario.grid, "cols", None),
        "prime_bits": prime_bits,
        "mix": "move/ingest/publish/retract",
    }
    return SweepResult(points=points, seed=seed, connections=connections, workload=workload)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def render_table(sweep: SweepResult) -> str:
    header = (
        f"{'rate (rps)':>12} {'offered':>8} {'done':>8} {'busy':>6} {'err':>5} "
        f"{'p50 ms':>9} {'p99 ms':>9} {'p99.9 ms':>9} {'ach rps':>9}"
    )
    lines = ["open-loop sweep (latency from scheduled arrival)", header, "-" * len(header)]
    for p in sweep.points:
        lines.append(
            f"{p.rate:>12.1f} {p.offered:>8} {p.completed:>8} {p.busy:>6} "
            f"{p.errors + p.timeouts + p.connection_errors:>5} "
            f"{p.p50_ms:>9.2f} {p.p99_ms:>9.2f} {p.p999_ms:>9.2f} {p.achieved_rps:>9.1f}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"saturation throughput: {sweep.saturation_rps:.1f} rps; "
        f"dropped/errored: {sweep.total_dropped}"
    )
    return "\n".join(lines)


def publish_sweep(sweep: SweepResult, results_dir: str | pathlib.Path) -> pathlib.Path:
    """Write ``net_tier.txt`` under ``results_dir``; returns the file path."""
    directory = pathlib.Path(results_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "net_tier.txt"
    path.write_text(render_table(sweep) + "\n", encoding="utf-8")
    return path
