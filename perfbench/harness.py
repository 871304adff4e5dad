"""Server lifecycle and load generation for one benchmark session.

A session spawns a real ``repro serve`` (write-ahead journal on, default
inline evaluation), sets it up the way a deployment starts -- subscribe the
population, publish the standing zones, answer the first (cold) tick -- and
then drives it from this single process over at most two TCP connections:

* **main phase** (open loop, one connection): the workload's schedule fires
  at its arrival times whether or not earlier requests finished; latency is
  measured from the scheduled arrival.  One connection keeps the wire order,
  and so the server's execution order, equal to the request-id order, which
  lets every match pass be checked exactly against the locations the server
  had acknowledged when it ran;
* **capacity phase** (closed loop, two connections): a fixed number of
  device requests with a fixed number outstanding, each entity pinned to
  one connection; the capacity is the requests completed per second
  between the loop filling and it draining;
* **probe phase** (quiescent, sequential), closing each cycle: one standing
  tick and one publish of each of the cycle's probe zones, each checked
  against every user's last acknowledged location.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import pathlib
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.net.client import (
    AlertServiceClient,
    ClientError,
    RemoteRequestError,
    RequestTimeout,
    ServerBusy,
)
from repro.service.requests import EvaluateStanding, IngestReceipt, MatchReport

from workloads import CAPACITY_OUTSTANDING, PRIME_BITS, SCENARIO, SERVICE_SEED, Op

ROOT = pathlib.Path(__file__).resolve().parents[1]
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
SUBSCRIBE_WINDOW = 64

_REQUEST_ID = contextvars.ContextVar("perfbench_request_id", default=0)


class BenchClient(AlertServiceClient):
    """Client that exposes the id of the request the current task just sent.

    ``request()`` allocates its id synchronously before its first send, in
    the caller's task context, so the id is readable after the await returns.
    """

    def allocate_request_id(self) -> int:
        request_id = super().allocate_request_id()
        _REQUEST_ID.set(request_id)
        return request_id


def serve_argv(journal: pathlib.Path) -> list:
    """``repro serve`` flags: the scenario, 64-bit primes, journal on."""
    s = SCENARIO
    return [
        "serve",
        "--rows", str(s["rows"]), "--cols", str(s["cols"]),
        "--sigmoid-a", str(s["sigmoid_a"]), "--sigmoid-b", str(s["sigmoid_b"]),
        "--seed", str(s["seed"]), "--extent-meters", str(s["extent_meters"]),
        "--host", "127.0.0.1", "--port", "0",
        "--prime-bits", str(PRIME_BITS), "--service-seed", str(SERVICE_SEED),
        "--journal", str(journal),
    ]


class ServerProcess:
    """One spawned server; ``launcher`` args route it through traced_serve.py."""

    def __init__(self, workdir: pathlib.Path, launcher: Optional[list] = None):
        self.journal = workdir / "journal.log"
        if launcher is None:
            argv = [sys.executable, "-m", "repro", *serve_argv(self.journal)]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "traced_serve.py"), *launcher,
                    "--", *serve_argv(self.journal)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.spawned = time.monotonic()
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
        )
        self.port = self._await_ready()
        self.ready = time.monotonic()

    def _await_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            readable, _, _ = select.select([stdout], [], [], deadline - time.monotonic())
            if not readable:
                break
            line = stdout.readline()
            if not line:
                break
            if line.startswith("listening on "):
                return int(line.rsplit(":", 1)[1])
        self.kill()
        raise RuntimeError("server never printed its readiness line")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, read from outside it."""
        for line in pathlib.Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """Graceful stop: the server drains, and a traced one writes its spans."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            output, _ = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop within 60 s")
        if self.process.returncode != 0:
            raise RuntimeError(f"server exited {self.process.returncode}: {output[-2000:]}")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


@dataclass
class Outcome:
    """What happened to one request, as the load generator saw it."""

    op: object
    phase: str
    scheduled: float  # monotonic seconds the request was due
    done: float = 0.0
    conn: int = 0
    request_id: int = 0
    response: object = None
    error: Optional[str] = None  # busy | timeout | error | connection

    @property
    def latency_ms(self) -> float:
        return (self.done - self.scheduled) * 1000.0


@dataclass
class Tally:
    attempted: int = 0
    busy: int = 0
    timeouts: int = 0
    errors: int = 0
    connection_errors: int = 0
    check_failures: int = 0
    messages: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.busy + self.timeouts + self.errors + self.connection_errors + self.check_failures

    def fail(self, message: str) -> None:
        self.check_failures += 1
        if len(self.messages) < 10:
            self.messages.append(message)


class Population:
    """The locations the server has acknowledged, per user and device."""

    def __init__(self):
        self.cells: dict = {}
        self._seq: dict = {}

    def apply(self, outcome: Outcome) -> None:
        op, response = outcome.op, outcome.response
        if outcome.error is not None:
            return
        if op.kind in ("move", "subscribe") and isinstance(response, IngestReceipt):
            if response.stored and response.sequence_number >= self._seq.get(op.entity, -1):
                self._seq[op.entity] = response.sequence_number
                self.cells[op.entity] = op.cell
        elif op.kind == "ingest" and op.seq > self._seq.get(op.entity, -1):
            self._seq[op.entity] = op.seq
            self.cells[op.entity] = op.cell

    def inside(self, cells: frozenset) -> set:
        return {entity for entity, cell in self.cells.items() if cell in cells}


def check_pass(tally: Tally, population: Population, outcome: Outcome, zones: dict) -> None:
    """One match pass's notifications against plaintext zone containment."""
    report = outcome.response
    if outcome.error is not None or not isinstance(report, MatchReport):
        return
    for alert_id, cells in zones.items():
        got = {n.user_id for n in report.notifications if n.alert_id == alert_id}
        want = population.inside(cells)
        if got != want:
            tally.fail(
                f"{alert_id}: {len(got ^ want)} notifications differ "
                f"(missing {sorted(want - got)[:3]}, extra {sorted(got - want)[:3]})"
            )


async def send(client: BenchClient, outcome: Outcome, tally: Tally) -> None:
    tally.attempted += 1
    try:
        outcome.response = await client.request(outcome.op.request, timeout=REQUEST_TIMEOUT_S)
    except ServerBusy:
        outcome.error = "busy"
        tally.busy += 1
    except RequestTimeout:
        outcome.error = "timeout"
        tally.timeouts += 1
    except RemoteRequestError as exc:
        outcome.error = "error"
        tally.errors += 1
        if len(tally.messages) < 10:
            tally.messages.append(str(exc))
    except ClientError:
        outcome.error = "connection"
        tally.connection_errors += 1
    outcome.done = time.monotonic()
    outcome.request_id = _REQUEST_ID.get()


class Session:
    """One server and the load generator's view of it."""

    def __init__(self, inputs, workdir: pathlib.Path, launcher: Optional[list] = None):
        self.inputs = inputs
        self.workdir = workdir
        self.launcher = launcher
        self.server: Optional[ServerProcess] = None
        self.tally = Tally()
        self.population = Population()
        self.standing_zones = {alert_id: cells for alert_id, _, cells in inputs.standing}
        self.outcomes: list = []
        self.lags_ms: list = []
        self.capacity_rps = 0.0
        self._capacity = [0, 0.0]  # requests, seconds
        self.windows: dict = {}
        self.timings: dict = {}
        self.rss_mb = 0.0
        self.clients: list = []

    # -- set-up ---------------------------------------------------------------
    def setup(self) -> None:
        """Spawn the server and bring the session to its measured state.

        ``timings['setup_s']`` runs from the spawn until the first cold tick
        is answered.
        """
        self.server = ServerProcess(self.workdir, self.launcher)
        asyncio.run(self._setup_async())
        spawned = self.server.spawned
        self.timings["ready_s"] = self.server.ready - spawned
        self.timings["setup_s"] = self.timings["first_tick_done"] - spawned

    async def _connect(self) -> None:
        self.clients = [
            BenchClient("127.0.0.1", self.server.port, timeout=REQUEST_TIMEOUT_S,
                        client_id=f"perfbench-{os.getpid()}-{i}")
            for i in range(2)
        ]
        for client in self.clients:
            await client.connect()

    async def _close(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []

    async def _setup_async(self) -> None:
        await self._connect()
        try:
            tally = Tally()  # set-up traffic is not part of the measured run
            window = asyncio.Semaphore(SUBSCRIBE_WINDOW)

            async def subscribe(op) -> Outcome:
                async with window:
                    outcome = Outcome(op, "setup", time.monotonic(), conn=op.conn)
                    await send(self.clients[op.conn], outcome, tally)
                    return outcome

            for outcome in await asyncio.gather(*(subscribe(op) for op in self.inputs.subscribes)):
                self.population.apply(outcome)
            for _, request, _ in self.inputs.standing:
                await self.clients[0].request(request)
            self.timings["populate_s"] = time.monotonic() - self.server.ready
            tick_started = time.monotonic()
            first = Outcome(_tick_op(), "setup", tick_started)
            await send(self.clients[0], first, tally)
            self.timings["first_tick_done"] = time.monotonic()
            self.timings["first_tick_s"] = self.timings["first_tick_done"] - tick_started
            check_pass(tally, self.population, first, self.standing_zones)
            if tally.failed:
                raise RuntimeError(f"set-up failed: {tally.messages or tally}")
        finally:
            await self._close()

    # -- measured phases ------------------------------------------------------
    def run(self) -> None:
        asyncio.run(self._run_async())

    async def _run_async(self) -> None:
        inputs = self.inputs
        await self._connect()
        try:
            self.windows["open_loop"] = []
            for cycle in inputs.cycles:
                started = time.monotonic()
                await self._open_loop(cycle.main, cycle.main_seconds)
                self.windows["open_loop"].append((started, time.monotonic()))
                await self._closed_loop(cycle.capacity)
                await self._probe(cycle.probes)
            self.windows["end"] = time.monotonic()
            self.capacity_rps = self._capacity[0] / self._capacity[1]
        finally:
            await self._close()
        self.rss_mb = self.server.peak_rss_mb()

    async def _open_loop(self, ops: list, seconds: float) -> None:
        """Fire ``ops`` at their arrival offsets on connection 0."""
        client = self.clients[0]
        loop_start = time.monotonic()
        outcomes = [Outcome(op, "main", loop_start + op.at) for op in ops]
        tasks = []
        for outcome in outcomes:
            delay = outcome.scheduled - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lags_ms.append((time.monotonic() - outcome.scheduled) * 1000.0)
            tasks.append(asyncio.create_task(send(client, outcome, self.tally)))
        remaining = loop_start + seconds - time.monotonic()
        if remaining > 0:
            await asyncio.sleep(remaining)
        await asyncio.gather(*tasks)
        self.outcomes.extend(outcomes)
        # One connection: request-id order is the server's execution order,
        # so replaying in that order gives the state each pass ran against.
        for outcome in sorted(outcomes, key=lambda o: o.request_id):
            if outcome.op.kind == "tick":
                check_pass(self.tally, self.population, outcome, self.standing_zones)
            else:
                self.population.apply(outcome)

    async def _closed_loop(self, queues: list) -> None:
        """Send every request of ``queues`` (one per connection), keeping
        ``CAPACITY_OUTSTANDING`` in flight until they run out."""
        per_conn = CAPACITY_OUTSTANDING // len(queues)
        done: list = []

        async def worker(conn: int, cursor) -> None:
            for op in cursor:
                outcome = Outcome(op, "capacity", time.monotonic(), conn=conn)
                await send(self.clients[conn], outcome, self.tally)
                self.population.apply(outcome)
                self.outcomes.append(outcome)
                if outcome.error is None:
                    done.append(outcome.done)

        cursors = [iter(queue) for queue in queues]
        await asyncio.gather(*(worker(conn, cursors[conn])
                               for conn in range(len(queues)) for _ in range(per_conn)))
        # Steady state only: from the completion that fills the loop to the
        # one where it starts to drain.
        if len(done) <= 2 * CAPACITY_OUTSTANDING:
            raise RuntimeError("capacity phase completed too few requests")
        done.sort()
        first, last = done[CAPACITY_OUTSTANDING - 1], done[-CAPACITY_OUTSTANDING - 1]
        self._capacity[0] += len(done) - 2 * CAPACITY_OUTSTANDING
        self._capacity[1] += last - first

    async def _probe(self, probes: list) -> None:
        """Quiescent checks: one standing tick, then each of ``probes``."""
        client = self.clients[0]
        tick = Outcome(_tick_op(), "probe", time.monotonic())
        await send(client, tick, self.tally)
        check_pass(self.tally, self.population, tick, self.standing_zones)
        self.outcomes.append(tick)
        for op in probes:
            outcome = Outcome(op, "probe", time.monotonic())
            await send(client, outcome, self.tally)
            check_pass(self.tally, self.population, outcome, {op.request.alert_id: op.zone})
            self.outcomes.append(outcome)

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()

    def kill(self) -> None:
        if self.server is not None:
            self.server.kill()


def _tick_op() -> Op:
    return Op("tick", EvaluateStanding())
