"""Workload definitions and the seeded inputs they generate.

Every input -- subscriber cells, zones, arrival schedules, device uploads and
their ciphertexts -- is built here from ``--seed`` before any clock starts.
The server never sees the seed: it is started with fixed scenario and key
seeds, and receives only the requests generated here.

All workloads share one scenario: the CLI's default synthetic city (32x32
grid of 100 m cells, sigmoid a=0.95 b=100, Huffman codes), 64-bit primes,
the same subscriber population for a given seed, and the same closing phases
(a closed-loop capacity phase, then quiescent probe passes that double as the
correctness check).  They differ in their open-loop main phase.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Optional

from repro.datasets.synthetic import make_synthetic_scenario
from repro.grid import Point, circular_alert_zone
from repro.protocol.messages import LocationUpdate
from repro.service import AlertService, ServiceConfig
from repro.service.requests import EvaluateStanding, IngestBatch, Move, PublishZone, Subscribe

#: The scenario the server is started with (``repro serve`` flags) and the
#: load generator rebuilds to place users and mint device ciphertexts.
SCENARIO = {
    "rows": 32,
    "cols": 32,
    "sigmoid_a": 0.95,
    "sigmoid_b": 100.0,
    "seed": 7,
    "extent_meters": 3200.0,
}
PRIME_BITS = 64
SERVICE_SEED = 11
#: Shared by every workload: the subscriber population, the open-loop devices,
#: the capacity loop's own devices, its outstanding requests (below the
#: server's BUSY threshold of 256) and the rate that sizes it, and the zones.
USERS = 200
DEVICES = 64
CAPACITY_DEVICES = 16
CAPACITY_OUTSTANDING = 32
#: The capacity phase sends a fixed number of requests, this rate times its
#: nominal length, so every run leaves the server with the same history: the
#: server slows as its heap grows, and a phase that ran for a fixed time
#: would hand a fast run's probes a bigger heap.
CAPACITY_NOMINAL_RPS = 900
STANDING_RADIUS_M = 200.0
#: Quiescent one-shot alert zones, the same for every seed, published at the
#: close of cycles (see PROBE_GROUPS): the correctness check against the
#: population so far, and the alert latency sample.
ALERT_ZONES = 36
ALERT_RADIUS_M = (50.0, 400.0)


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Phase lengths are fractions of ``--seconds``."""

    name: str
    why: str
    #: Open-loop main phase: device requests (Move + IngestBatch) per second,
    #: the share of them that are Moves and the EvaluateStanding period (s).
    main_fraction: float
    device_rps: float
    move_share: float
    tick_period_s: float
    #: Closed-loop capacity phase: its nominal length, which sets its request
    #: count at ``CAPACITY_NOMINAL_RPS``.
    capacity_fraction: float
    standing_zones: int = 0

    def definition_hash(self, seconds: int) -> str:
        payload = {
            "workload": dataclasses.asdict(self),
            "scenario": SCENARIO,
            "shared": [PRIME_BITS, SERVICE_SEED, USERS, DEVICES, CAPACITY_DEVICES,
                       CAPACITY_OUTSTANDING, CAPACITY_NOMINAL_RPS, STANDING_RADIUS_M,
                       ALERT_RADIUS_M, ALERT_ZONES],
            "cycles": [CYCLES, PROBE_GROUPS],
            "seconds": seconds,
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ingest_stream",
            why="devices only: Poisson IngestBatch+Move and zone-less ticks, then a capacity "
            "phase; codec, admission, journal and store carry the work, matching never runs",
            main_fraction=0.72,
            device_rps=150.0,
            move_share=0.5,
            tick_period_s=0.1,
            capacity_fraction=0.2,
        ),
        Workload(
            name="city_ticks",
            why="6 standing zones ticked every 0.25 s under continuous Poisson movement: every "
            "tick recomputes the packed worklist, so the matching engine dominates",
            main_fraction=0.8,
            device_rps=40.0,
            move_share=1.0,
            tick_period_s=0.25,
            capacity_fraction=0.1,
            standing_zones=6,
        ),
    )
}


#: The run is CYCLES rounds of main -> capacity -> probes.  Host speed on a
#: shared machine drifts over seconds, so every phase is spread over the run:
#: each probe zone is published in every PROBE_GROUPS-th round.
CYCLES = 9
PROBE_GROUPS = 3


@dataclass
class Cycle:
    """One round of the run: open-loop main segment, capacity, probes."""

    main: list
    main_seconds: float
    capacity: list  # per connection, the closed loop's requests
    probes: list


@dataclass
class Op:
    """One generated request and what the load generator must remember about it."""

    kind: str  # "move" | "ingest" | "tick" | "alert" | "subscribe"
    request: object
    at: float = 0.0  # open-loop arrival offset within its phase (s)
    entity: Optional[str] = None  # user or device id
    cell: Optional[int] = None
    seq: int = 0  # device sequence number (ingest)
    zone: Optional[frozenset] = None  # alerted cells (alert)
    conn: int = 0


def make_scenario():
    return make_synthetic_scenario(**SCENARIO)


class CiphertextPool:
    """One real HVE ciphertext per grid cell, minted with the server's keys.

    A shadow :class:`AlertService` built with the server's scenario, prime
    size and key seed derives identical key material, so its ciphertexts are
    valid device uploads.  A device update is a pool ciphertext wrapped in a
    :class:`LocationUpdate` with the device's own pseudonym and next sequence
    number (the sequence number lives outside the ciphertext).
    """

    def __init__(self, scenario):
        service = AlertService(
            scenario.grid,
            scenario.probabilities,
            config=ServiceConfig(prime_bits=PRIME_BITS, seed=SERVICE_SEED),
        )
        try:
            authority = service.system.authority
            encoding = authority.public_encoding()
            self.ciphertexts = [
                authority.hve.encrypt(authority.public_key, encoding.index_of(cell))
                for cell in range(scenario.grid.n_cells)
            ]
        finally:
            service.close()

    def update(self, device: str, cell: int, seq: int) -> LocationUpdate:
        return LocationUpdate(user_id=device, ciphertext=self.ciphertexts[cell], sequence_number=seq)


class Inputs:
    """Everything one run sends, generated from ``seed`` before any clock starts."""

    def __init__(self, workload: Workload, seed: int, seconds: float, scenario, pool):
        self.workload = workload
        self.grid = grid = scenario.grid
        n_cells = grid.n_cells
        # The population depends on the seed only, so every workload of a
        # seed serves the same subscribers.
        population_rng = random.Random(f"perfbench-population:{seed}")
        self.users = [f"u{i:04d}" for i in range(USERS)]
        self.subscribe_cells = {u: population_rng.randrange(n_cells) for u in self.users}
        # The capacity loop owns its own entities (a quarter of the users and
        # its own devices), each re-reporting one cell, so the population the
        # open-loop phases and the probes see is fixed by the seed alone.
        split = USERS // 4
        self.capacity_users, self.movers = self.users[:split], self.users[split:]
        self.devices = [f"d{i:03d}" for i in range(DEVICES)]
        self.capacity_devices = [f"c{i:03d}" for i in range(CAPACITY_DEVICES)]
        rng = random.Random(f"perfbench:{workload.name}:{seed}")
        self._rng = rng
        self._pool = pool
        self._device_seq = {d: 0 for d in self.devices + self.capacity_devices}
        self._capacity_cells = {d: rng.randrange(n_cells) for d in self.capacity_devices}
        self._capacity_cells.update((u, self.subscribe_cells[u]) for u in self.capacity_users)

        self.subscribes = [
            Op("subscribe", Subscribe(user_id=u, location=grid.cell_center(c)), entity=u, cell=c,
               conn=i % 2)
            for i, (u, c) in enumerate(self.subscribe_cells.items())
        ]
        # Standing zones, like the probe alerts, are the same for every seed:
        # their token count sets the cost of every tick.
        zone_rng = random.Random("perfbench-standing")
        self.standing = []  # (alert_id, PublishZone, frozenset cells)
        for z in range(workload.standing_zones):
            epicenter = _random_point(zone_rng)
            cells = frozenset(circular_alert_zone(grid, epicenter, STANDING_RADIUS_M).cell_ids)
            request = PublishZone(
                alert_id=f"standing-{z}", epicenter=epicenter, radius=STANDING_RADIUS_M,
                standing=True, evaluate=False,
            )
            self.standing.append((request.alert_id, request, cells))

        zones = self._alert_zones()
        main_s = seconds * workload.main_fraction
        main = self._open_loop(main_s, workload.device_rps, workload.move_share)
        main += self._ticks(main_s, workload.tick_period_s)
        capacity = round(CAPACITY_NOMINAL_RPS * seconds * workload.capacity_fraction / CYCLES)
        self.cycles = [
            Cycle(segment, main_s / CYCLES, self._capacity(capacity), self._probes(zones, cycle))
            for cycle, segment in enumerate(_split(main, main_s))
        ]

    # -- generators ---------------------------------------------------------
    def _arrivals(self, seconds: float, rate: float) -> list:
        """A Poisson process conditioned on its count: ``rate*seconds``
        uniform arrival times, so every seed offers exactly the same load."""
        count = int(round(rate * seconds))
        return sorted(self._rng.uniform(0.0, seconds) for _ in range(count))

    def _device_op(self, at: float, move_share: float) -> Op:
        cell = self._rng.randrange(self.grid.n_cells)
        if self._rng.random() < move_share:
            user = self._rng.choice(self.movers)
            return Op("move", Move(user_id=user, location=self.grid.cell_center(cell)),
                      at=at, entity=user, cell=cell)
        return self._ingest_op(self._rng.choice(self.devices), cell, at)

    def _ingest_op(self, device: str, cell: int, at: float = 0.0) -> Op:
        self._device_seq[device] += 1
        seq = self._device_seq[device]
        request = IngestBatch(updates=(self._pool.update(device, cell, seq),), evaluate=False)
        return Op("ingest", request, at=at, entity=device, cell=cell, seq=seq)

    def _open_loop(self, seconds: float, rate: float, move_share: float) -> list:
        return [self._device_op(at, move_share) for at in self._arrivals(seconds, rate)]

    def _ticks(self, seconds: float, period: float) -> list:
        """Ticks on a fixed period, half a period out of phase with the cycle."""
        if period <= 0:
            return []
        count = int(seconds / period + 1e-9)
        return [Op("tick", EvaluateStanding(), at=period * (k + 0.5)) for k in range(1, count)]

    def _alert_zones(self) -> list:
        """The alert zones as (epicenter, radius, cells).

        The same zones for every seed, so their latency measures the server,
        not the draw of zones (the population they are matched against still
        varies).  Radii are stratified over ``ALERT_RADIUS_M`` in a fixed
        shuffled order."""
        rng = random.Random("perfbench-probes")
        low, high = ALERT_RADIUS_M
        radii = [low + (high - low) * (i + 0.5) / ALERT_ZONES for i in range(ALERT_ZONES)]
        rng.shuffle(radii)
        zones = []
        for radius in radii:
            epicenter = _random_point(rng)
            zones.append((epicenter, radius,
                          frozenset(circular_alert_zone(self.grid, epicenter, radius).cell_ids)))
        return zones

    @staticmethod
    def _probes(zones: list, cycle: int) -> list:
        """The quiescent publishes of one cycle, as ``probe-<i>-<cycle>``:
        zone ``i`` in the cycles congruent to ``i`` modulo ``PROBE_GROUPS``."""
        return [
            Op("alert", PublishZone(alert_id=f"probe-{i}-{cycle}", epicenter=epicenter,
                                    radius=radius, standing=False, evaluate=True), zone=cells)
            for i, (epicenter, radius, cells) in enumerate(zones)
            if i % PROBE_GROUPS == cycle % PROBE_GROUPS
        ]

    def _capacity(self, count: int) -> list:
        """Per-connection request queues for one closed loop of ``count``.

        Moves cycle round-robin through the capacity users, each re-reporting
        its subscription cell, and uploads through the capacity devices, each
        at one seeded cell; every entity is pinned to one connection.
        """
        target = self._capacity_cells
        queues: list = [[], []]
        for i in range(count):
            conn, k = i % 2, i // 2
            if k % 2 == 0:
                user = self.capacity_users[(k // 2 * 2 + conn) % len(self.capacity_users)]
                op = Op("move", Move(user_id=user, location=self.grid.cell_center(target[user])),
                        entity=user, cell=target[user])
            else:
                device = self.capacity_devices[(k // 2 * 2 + conn) % len(self.capacity_devices)]
                op = self._ingest_op(device, target[device])
            op.conn = conn
            queues[conn].append(op)
        return queues


def _random_point(rng: random.Random) -> Point:
    extent = SCENARIO["extent_meters"]
    return Point(rng.uniform(0.0, extent), rng.uniform(0.0, extent))


def _split(ops: list, seconds: float) -> list:
    """Cut a schedule into CYCLES consecutive segments, each timed from 0."""
    length = seconds / CYCLES
    segments: list = [[] for _ in range(CYCLES)]
    for op in sorted(ops, key=lambda op: op.at):
        k = min(int(op.at / length), CYCLES - 1)
        op.at -= k * length
        segments[k].append(op)
    return segments
