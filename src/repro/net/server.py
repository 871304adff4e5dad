"""Asyncio front for :class:`~repro.service.service.AlertService`.

The service object is single-threaded by design (its matching engine owns
resident packed worklists, its store a write-ahead journal); the server's job is to put
thousands of concurrent TCP conversations in front of it without ever letting
two requests race into the session.  The shape is one serial loop:

- One **reader coroutine per connection** parses frames
  (:mod:`repro.net.wire`), performs admission control, and enqueues typed
  requests.  Large frame bodies are CRC-checked and decoded on a small
  **codec pool** instead of the event loop.
- One **dispatch loop** takes each tick through five steps, one tick at a
  time: *collect* drains the queue in arrival order into a tick of up to
  ``batch_max`` requests; *plan* coalesces consecutive :class:`IngestBatch`
  requests into one store pass (every member receives that tick's
  :class:`MatchReport` -- the documented batching semantic); *journal*
  appends the whole tick under **one** group-committed fsync when the session
  journals (the write-ahead contract, paid once per tick instead of once per
  request); *execute* runs the tick's requests in order; *deliver* encodes the
  responses (zero-copy ``(header, body)`` parts through ``writelines``) and
  writes them.  Journal and execute run back to back on a single service
  thread, so the event loop keeps reading and admitting while a tick runs.
- **Backpressure** is explicit: ``inflight`` counts queued + executing
  requests; a request arriving at ``max_inflight`` is answered with a
  structured BUSY :class:`ErrorResponse` and the connection's reader pauses
  until inflight falls to ``low_water``.  A per-connection quota
  (``max_inflight_per_conn``) additionally makes a flooding client hit its
  *own* BUSY ceiling -- and pause only its own reader -- before it can
  occupy the whole global window and starve polite connections.
- **Graceful shutdown** stops accepting, drains every inflight request
  through the loop, answers it, then (when the session journals)
  checkpoints durability state via :meth:`AlertService.snapshot` before
  closing connections.

Exactly-once admission: a client that opens with a ``hello`` handshake binds
its connection to a stable ``(client_id, epoch)`` identity, and its reader
then consults the session's :class:`~repro.service.admission.AdmissionLedger`
before queueing work -- a retry of an already-executed request id is answered
from the idempotency cache, a retry of an in-flight id parks as a waiter on
the single execution, and journal entries carry their origin pairs so replay
rebuilds the cache after a crash.  A peer that never sends a hello is served
on the baseline envelope, with no dedup tracking.

Handler exceptions never kill a connection: anything :meth:`AlertService.handle`
raises -- including :class:`UnknownRequestError` with its list of recognised
request types -- comes back as an ``error`` frame and the conversation
continues.

Chaos hooks: when the service carries a :class:`FaultInjector` whose plan
enables ``conn_drop`` / ``frame_corrupt`` / ``slow_client``, the injector's
``net`` stream decides the fate of each frame exchange in the read and write
paths (see :mod:`repro.net.chaos` for the parity soak built on top).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import functools
import pathlib
import time
from dataclasses import dataclass, field
from typing import Optional, Set

from repro.net.wire import (
    BASELINE_WIRE_VERSION,
    WIRE_VERSION,
    FrameCorrupt,
    FrameTooLarge,
    WireVersionError,
    decode_body_checked,
    encode_frame_parts,
    read_frame_raw,
    resolve_wire_format,
)
from repro.service.config import NetOptions
from repro.service.requests import (
    ClientHello,
    ErrorResponse,
    HelloAck,
    IngestBatch,
    request_from_wire,
    response_to_wire,
)

__all__ = [
    "AlertServiceServer",
    "ServerStats",
    "BUSY_ERROR",
    "SHUTTING_DOWN_ERROR",
    "STALE_REQUEST_ERROR",
]

#: ``ErrorResponse.error`` tag for a request rejected at the high-water mark.
BUSY_ERROR = "ServerBusy"
#: ``ErrorResponse.error`` tag for a request arriving during drain.
SHUTTING_DOWN_ERROR = "ServerShuttingDown"
#: ``ErrorResponse.error`` tag for a request id at or below the client's own
#: acked watermark with no cached answer (a protocol violation by the client).
STALE_REQUEST_ERROR = "StaleRequest"

_SENTINEL = object()


@dataclass
class ServerStats:
    """Counters the server accumulates; exposed for tests, CLI, and loadgen."""

    connections_accepted: int = 0
    connections_dropped: int = 0
    requests_received: int = 0
    responses_sent: int = 0
    errors_returned: int = 0
    busy_rejections: int = 0
    per_conn_busy_rejections: int = 0
    shutdown_rejections: int = 0
    batches_executed: int = 0
    requests_coalesced: int = 0
    reader_pauses: int = 0
    faults_injected: int = 0
    #: Ticks journaled and executed by the dispatch loop.
    ticks_executed: int = 0
    #: Journal group-commit totals, mirrored from the session's journal.
    group_commits: int = 0
    fsyncs_saved: int = 0
    #: Frame decodes/encodes run on the codec pool instead of the event loop.
    codec_offloads: int = 0
    #: Exactly-once admission: hellos answered, retries answered straight from
    #: the idempotency cache, duplicates parked on an in-flight execution, and
    #: requests rejected below the client's own acked watermark.
    handshakes: int = 0
    dedup_hits: int = 0
    dup_waiters: int = 0
    stale_rejections: int = 0
    #: Cumulative per-stage wall time (milliseconds).
    stage_journal_ms: float = 0.0
    stage_execute_ms: float = 0.0
    stage_encode_ms: float = 0.0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


@dataclass(eq=False)  # identity hashing: connections live in a set
class _Connection:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    closed: bool = False
    #: Requests this connection has admitted but not yet been answered.
    inflight: int = 0
    #: Per-connection resume gate for the ``max_inflight_per_conn`` quota.
    resume: asyncio.Event = field(default_factory=asyncio.Event)
    #: Exactly-once identity, bound by the hello handshake (None = a peer
    #: that never sent one: baseline envelope, no dedup tracking).
    client_id: Optional[str] = None
    epoch: int = 0
    #: Envelope version negotiated at hello; replies are encoded with it.
    wire_version: int = BASELINE_WIRE_VERSION

    def __post_init__(self) -> None:
        self.resume.set()


@dataclass
class _Pending:
    conn: _Connection
    req_id: int
    request: object
    #: ``(client_id, epoch, request_id)`` for identified clients, else None.
    origin: Optional[tuple] = None


class AlertServiceServer:
    """Serve one :class:`AlertService` session over TCP.

    Parameters
    ----------
    service:
        The session to front.  The server serializes every ``handle`` call
        onto a private single-worker thread; nothing else may drive the
        session while the server runs.
    options:
        :class:`~repro.service.config.NetOptions`; defaults to
        ``service.config.net`` and falls back to ``NetOptions()``.
    snapshot_path:
        When set, a graceful :meth:`stop` writes a session snapshot here --
        which also checkpoints the write-ahead journal -- so a restarted
        server resumes from drained, durable state.
    """

    def __init__(
        self,
        service,
        options: Optional[NetOptions] = None,
        *,
        snapshot_path: Optional[str | pathlib.Path] = None,
    ):
        if options is None:
            options = getattr(service.config, "net", None) or NetOptions()
        self.service = service
        self.options = options
        self.snapshot_path = pathlib.Path(snapshot_path) if snapshot_path is not None else None
        self.stats = ServerStats()
        self.wire_format = resolve_wire_format(options.wire_format)
        self._group = service.system.authority.group
        self._server: Optional[asyncio.base_events.Server] = None
        self._queue: asyncio.Queue = asyncio.Queue()
        self._inflight = 0
        self._draining = False
        self._stopping = False
        self._resume = asyncio.Event()
        self._resume.set()
        # Retries of a request that is still executing park here; the single
        # execution's answer fans out to every parked connection.
        self._dup_waiters: dict = {}
        self._connections: Set[_Connection] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="alert-service"
        )
        self._codec: Optional[concurrent.futures.ThreadPoolExecutor] = None
        if options.codec_threads > 0:
            self._codec = concurrent.futures.ThreadPoolExecutor(
                max_workers=options.codec_threads, thread_name_prefix="alert-codec"
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's pick)."""
        if self._server is None or not self._server.sockets:
            return self.options.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.options.host, port=self.options.port
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self, graceful: bool = True) -> None:
        """Stop the server; graceful stops drain and answer every inflight request."""
        self._draining = True
        self._resume.set()  # paused readers must wake to observe the drain
        for conn in list(self._connections):
            conn.resume.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        dispatcher = self._dispatcher
        if dispatcher is not None:
            await self._queue.put(_SENTINEL)
            if graceful:
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(dispatcher, timeout=self.options.drain_timeout_seconds)
            if not dispatcher.done():
                dispatcher.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await dispatcher
        if graceful and self.snapshot_path is not None:
            # Snapshotting also checkpoints the write-ahead journal, so the
            # drained state is durable before the last connection closes.
            self.service.snapshot(self.snapshot_path)
        for conn in list(self._connections):
            await self._close_connection(conn)
        self._executor.shutdown(wait=True)
        if self._codec is not None:
            self._codec.shutdown(wait=True)

    async def __aenter__(self) -> "AlertServiceServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    async def serve_until(self, stop_event: asyncio.Event) -> None:
        """Run until ``stop_event`` fires, then stop gracefully (CLI entry)."""
        await self.start()
        try:
            await stop_event.wait()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Per-connection reader
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader=reader, writer=writer)
        self._connections.add(conn)
        self.stats.connections_accepted += 1
        try:
            await self._read_loop(conn)
        except (FrameCorrupt, FrameTooLarge, WireVersionError):
            self.stats.connections_dropped += 1
        except (ConnectionError, OSError, asyncio.CancelledError):
            self.stats.connections_dropped += 1
        finally:
            await self._close_connection(conn)

    async def _read_loop(self, conn: _Connection) -> None:
        injector = getattr(self.service, "fault_injector", None)
        quota = self.options.max_inflight_per_conn  # None = per-conn gate off
        offload_at = self.options.codec_offload_bytes
        while not conn.closed:
            raw = await read_frame_raw(conn.reader, self.options.max_frame_bytes)
            if raw is None:
                return
            flags, crc, body = raw
            if injector is not None:
                fate = injector.net_frame("read")
                if fate is not None:
                    self.stats.faults_injected += 1
                    if fate[0] == "conn_drop":
                        self.stats.connections_dropped += 1
                        return
                    if fate[0] == "slow_client":
                        await asyncio.sleep(fate[1])
            # CRC + parse of a large body runs on the codec pool; small
            # frames decode inline (the handoff would cost more than the
            # parse, which shows up as uncongested-latency regression).
            offload = self._codec is not None and len(body) >= offload_at
            if offload:
                self.stats.codec_offloads += 1
                frame = await self._loop.run_in_executor(
                    self._codec, decode_body_checked, body, flags, crc
                )
            else:
                frame = decode_body_checked(body, flags, crc)
            if frame.get("kind") == "hello":
                # Session handshake: not a request (never journaled, never
                # counted in requests_received), answered even while draining
                # so a reconnecting client can learn its resumed watermark.
                await self._handle_hello(conn, frame)
                continue
            self.stats.requests_received += 1
            req_id = frame.get("id")
            if not isinstance(req_id, int) or frame.get("kind") != "request":
                await self._send_error(
                    conn,
                    req_id if isinstance(req_id, int) else -1,
                    ErrorResponse(
                        error="BadEnvelope",
                        message="frames must carry an integer 'id' and kind='request'",
                    ),
                )
                continue
            if conn.client_id is not None:
                # Exactly-once admission for identified clients: apply the
                # piggybacked acked watermark, then answer retries from the
                # idempotency cache (or park them on the in-flight original)
                # before any backpressure or drain check -- a cached answer
                # is always safe to serve and costs no inflight slot.
                acked = frame.get("acked")
                if isinstance(acked, int) and acked > 0:
                    self.service.admission.advance(conn.client_id, acked)
                decision = self.service.admission.classify(conn.client_id, req_id)
                if decision.cached:
                    self.stats.dedup_hits += 1
                    await self._send(
                        conn, {"id": req_id, "kind": "response", "payload": decision.response}
                    )
                    continue
                if decision.duplicate:
                    self.stats.dup_waiters += 1
                    key = (conn.client_id, req_id)
                    self._dup_waiters.setdefault(key, []).append(conn)
                    continue
                if decision.stale:
                    self.stats.stale_rejections += 1
                    await self._send_error(
                        conn,
                        req_id,
                        ErrorResponse(
                            error=STALE_REQUEST_ERROR,
                            message=(
                                f"request id {req_id} is at or below this client's "
                                "acked watermark and has no cached answer"
                            ),
                        ),
                    )
                    continue
            if self._draining:
                self.stats.shutdown_rejections += 1
                await self._send_error(
                    conn,
                    req_id,
                    ErrorResponse(error=SHUTTING_DOWN_ERROR, message="server is draining"),
                )
                continue
            if quota is not None and conn.inflight >= quota:
                # This connection is over its own share of the admission
                # window: reject and pause only *its* reader.  The global
                # gate below stays untouched for everyone else.
                self.stats.busy_rejections += 1
                self.stats.per_conn_busy_rejections += 1
                await self._send_error(
                    conn,
                    req_id,
                    ErrorResponse(
                        error=BUSY_ERROR,
                        message=(
                            f"per-connection inflight quota {quota} reached; "
                            "retry after a backoff"
                        ),
                    ),
                )
                self.stats.reader_pauses += 1
                conn.resume.clear()
                # Lost-wakeup guard: a completion may have landed while the
                # BUSY frame was being sent (the await above yields).
                self._check_conn_resume(conn)
                await conn.resume.wait()
                continue
            if self._inflight >= self.options.max_inflight:
                # Past high-water: reject this request and pause the reader
                # until the dispatcher drains back below low-water.
                self.stats.busy_rejections += 1
                await self._send_error(
                    conn,
                    req_id,
                    ErrorResponse(
                        error=BUSY_ERROR,
                        message=(
                            f"inflight limit {self.options.max_inflight} reached; "
                            "retry after a backoff"
                        ),
                    ),
                )
                self.stats.reader_pauses += 1
                self._resume.clear()
                # Lost-wakeup guard: the drain below low-water may have
                # happened during the awaited BUSY send above, in which case
                # the set() we would wait for has already fired.
                self._check_resume()
                await self._resume.wait()
                continue
            try:
                payload = frame.get("payload") or {}
                if offload:
                    request = await self._loop.run_in_executor(
                        self._codec,
                        functools.partial(request_from_wire, payload, group=self._group),
                    )
                else:
                    request = request_from_wire(payload, group=self._group)
            except Exception as exc:
                await self._send_error(conn, req_id, ErrorResponse.from_exception(exc))
                continue
            origin = None
            if conn.client_id is not None:
                # Only now -- past every rejection path -- does the pair count
                # as executing; a BUSY-rejected id must stay retryable.
                self.service.admission.begin(conn.client_id, req_id)
                origin = (conn.client_id, conn.epoch, req_id)
            self._inflight += 1
            conn.inflight += 1
            await self._queue.put(
                _Pending(conn=conn, req_id=req_id, request=request, origin=origin)
            )

    async def _handle_hello(self, conn: _Connection, frame: dict) -> None:
        """Bind a connection to its client identity and negotiate the envelope."""
        req_id = frame.get("id")
        req_id = req_id if isinstance(req_id, int) else 0
        try:
            hello = ClientHello.from_wire(frame.get("payload") or {})
        except Exception as exc:  # noqa: BLE001 - mapped to a structured frame
            await self._send_error(conn, req_id, ErrorResponse.from_exception(exc))
            return
        resumed, acked = self.service.admission.register(hello.client_id, hello.epoch)
        conn.client_id = hello.client_id
        conn.epoch = hello.epoch
        conn.wire_version = max(BASELINE_WIRE_VERSION, min(hello.wire_version, WIRE_VERSION))
        if hello.acked > 0:
            self.service.admission.advance(hello.client_id, hello.acked)
        self.stats.handshakes += 1
        ack = HelloAck(wire_version=conn.wire_version, resumed=resumed, acked=acked)
        await self._send(conn, {"id": req_id, "kind": "response", "payload": ack.to_wire()})

    # ------------------------------------------------------------------
    # The dispatch loop: collect -> plan -> journal -> execute -> deliver
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        while True:
            tick = await self._collect_tick()
            if tick is None:
                break
            plan = self._plan_tick(tick)
            results = await self._loop.run_in_executor(self._executor, self._run_tick, plan)
            for members, payload, is_error in results:
                await self._deliver(members, payload, is_error)
            if self._stopping:
                break

    async def _collect_tick(self) -> Optional[list]:
        """One tick: the queue's head plus everything already waiting.

        An uncongested request forms a singleton tick with zero added
        latency; under load the tick grows toward ``batch_max`` and the
        per-tick costs (journal fsync, worker-thread round-trip) amortize
        across it.  An ingest-led tick waits one ``batch_window_ms`` beat
        when the queue is empty, so an open-loop pulse arriving "together"
        shares a single store pass (the PR 8 coalescing semantic).
        """
        item = await self._queue.get()
        if item is _SENTINEL:
            return None
        # Re-check the resume gate on dequeue as well as on completion: a
        # reader pausing concurrently with this dequeue must not miss the
        # level it is waiting on.
        self._check_resume()
        tick = [item]
        if (
            isinstance(item.request, IngestBatch)
            and self.options.batch_max > 1
            and self.options.batch_window_ms > 0
            and self._queue.empty()
        ):
            await asyncio.sleep(self.options.batch_window_ms / 1000.0)
        while len(tick) < self.options.batch_max:
            try:
                nxt = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if nxt is _SENTINEL:
                self._stopping = True
                break
            tick.append(nxt)
        return tick

    def _plan_tick(self, tick: list) -> list:
        """Group a tick into executable units: ``[(members, request), ...]``.

        Consecutive ``IngestBatch`` requests merge into one store pass whose
        shared report every member receives; everything else executes as
        itself, in arrival order.
        """
        plan: list = []
        i = 0
        while i < len(tick):
            member = tick[i]
            if isinstance(member.request, IngestBatch):
                run = [member]
                while i + 1 < len(tick) and isinstance(tick[i + 1].request, IngestBatch):
                    i += 1
                    run.append(tick[i])
                if len(run) == 1:
                    plan.append((run, member.request))
                else:
                    self.stats.requests_coalesced += len(run) - 1
                    merged = IngestBatch(
                        updates=tuple(u for m in run for u in m.request.updates),
                        evaluate=any(m.request.evaluate for m in run),
                        at=run[-1].request.at,
                    )
                    plan.append((run, merged))
            else:
                plan.append(([member], member.request))
            i += 1
        return plan

    def _run_tick(self, plan: list) -> list:
        """Journal, then execute, a tick's units on the service thread.

        Returns ``[(members, payload, is_error), ...]`` in plan order.  The
        write-ahead rule forbids executing anything that did not make it to
        the journal, so a failed append answers every unit with the failure
        and executes none of them.  ``response_to_wire`` runs here too,
        keeping serialization off the event loop.  The tick counters are
        written only on this thread.
        """
        try:
            self._journal_tick(plan)
        except Exception as exc:  # noqa: BLE001 - durability failure, not a crash
            payload = ErrorResponse.from_exception(exc).to_wire()
            return [(members, payload, True) for members, _ in plan]
        self.stats.ticks_executed += 1
        self.stats.batches_executed += len(plan)
        started = time.perf_counter()
        results = []
        for members, request in plan:
            try:
                payload = response_to_wire(self.service.handle(request))
                is_error = False
            except Exception as exc:  # noqa: BLE001 - mapped to a structured frame
                payload = ErrorResponse.from_exception(exc).to_wire()
                is_error = True
            results.append((members, payload, is_error))
        self.stats.stage_execute_ms += (time.perf_counter() - started) * 1000.0
        return results

    def _journal_tick(self, plan: list) -> None:
        """Group-commit the tick: every request durable under one fsync."""
        service = self.service
        if getattr(service, "journal", None) is None:
            return
        requests = [request for _, request in plan]
        # Each journaled entry carries the (client_id, epoch, request_id)
        # origins it answers -- a coalesced ingest run lists every member --
        # so post-crash replay can rebuild the idempotency cache.
        origins = [
            [m.origin for m in members if m.origin is not None] or None
            for members, _ in plan
        ]
        started = time.perf_counter()
        service.journal_requests(requests, origins)
        self.stats.stage_journal_ms += (time.perf_counter() - started) * 1000.0
        self.stats.group_commits = service.journal.group_commits
        self.stats.fsyncs_saved = service.journal.fsyncs_saved

    async def _deliver(self, members: list, payload: dict, is_error: bool) -> None:
        # Record each identified execution's outcome (successes become
        # cached answers for retries) and collect any retries that parked
        # while it ran -- they receive this same payload.
        waiters: list = []
        for member in members:
            if member.origin is None:
                continue
            client_id, epoch, rid = member.origin
            self.service.admission.complete(client_id, epoch, rid, payload, is_error)
            for waiter_conn in self._dup_waiters.pop((client_id, rid), ()):
                waiters.append((waiter_conn, rid))
        envelopes = [
            (
                {"id": member.req_id, "kind": "response", "payload": payload},
                member.conn.wire_version,
            )
            for member in members
        ]
        envelopes.extend(
            ({"id": rid, "kind": "response", "payload": payload}, waiter_conn.wire_version)
            for waiter_conn, rid in waiters
        )
        started = time.perf_counter()
        if self._codec is not None and len(envelopes) > 1:
            self.stats.codec_offloads += 1
            frames = await self._loop.run_in_executor(
                self._codec, self._encode_envelopes, envelopes
            )
        else:
            frames = self._encode_envelopes(envelopes)
        self.stats.stage_encode_ms += (time.perf_counter() - started) * 1000.0
        per_conn: dict = {}
        for member, parts in zip(members, frames):
            self._inflight -= 1
            member.conn.inflight -= 1
            if is_error:
                self.stats.errors_returned += 1
            per_conn.setdefault(member.conn, []).append(parts)
        # Parked duplicates hold no inflight slot; they only get the frame.
        for (waiter_conn, _), parts in zip(waiters, frames[len(members) :]):
            per_conn.setdefault(waiter_conn, []).append(parts)
        for conn, conn_frames in per_conn.items():
            await self._write_frames(conn, conn_frames)
            self._check_conn_resume(conn)
        self._check_resume()

    def _encode_envelopes(self, envelopes: list) -> list:
        return [
            encode_frame_parts(envelope, self.wire_format, version)
            for envelope, version in envelopes
        ]

    def _check_resume(self) -> None:
        if self._draining or self._inflight <= self.options.resolved_low_water:
            self._resume.set()

    def _check_conn_resume(self, conn: _Connection) -> None:
        quota = self.options.max_inflight_per_conn
        if self._draining or conn.closed or quota is None or conn.inflight < quota:
            conn.resume.set()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    async def _send_error(self, conn: _Connection, req_id: int, error: ErrorResponse) -> None:
        self.stats.errors_returned += 1
        await self._send(conn, {"id": req_id, "kind": "response", "payload": error.to_wire()})

    async def _send(self, conn: _Connection, envelope: dict) -> None:
        await self._write_frames(
            conn, [encode_frame_parts(envelope, self.wire_format, conn.wire_version)]
        )

    async def _write_frames(self, conn: _Connection, frames: list) -> None:
        """Send pre-encoded ``(header, body)`` frames on one connection.

        The fault-free path batches every frame into a single ``writelines``
        + drain (zero-copy: the parts are never concatenated).  With an
        injector armed, frames go one at a time so each gets its own fate
        decision.
        """
        if conn.closed:
            return
        injector = getattr(self.service, "fault_injector", None)
        try:
            async with conn.write_lock:
                if injector is None:
                    buffers: list = []
                    for header, body in frames:
                        buffers.append(header)
                        buffers.append(body)
                    conn.writer.writelines(buffers)
                    await conn.writer.drain()
                    self.stats.responses_sent += len(frames)
                    return
                for header, body in frames:
                    if conn.closed:
                        return
                    data = header + body
                    fate = injector.net_frame("write")
                    if fate is not None:
                        self.stats.faults_injected += 1
                        if fate[0] == "conn_drop":
                            await self._close_connection(conn)
                            self.stats.connections_dropped += 1
                            return
                        if fate[0] == "frame_corrupt":
                            # Flip a byte run in the body; the client's CRC
                            # check rejects the frame and treats the
                            # connection as lost.
                            at = len(data) // 2
                            data = (
                                data[:at]
                                + bytes(b ^ 0xA5 for b in data[at : at + 4])
                                + data[at + 4 :]
                            )
                        elif fate[0] == "slow_client":
                            await asyncio.sleep(fate[1])
                    conn.writer.write(data)
                    await conn.writer.drain()
                    self.stats.responses_sent += 1
        except (ConnectionError, OSError):
            await self._close_connection(conn)

    async def _close_connection(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        conn.resume.set()  # a reader parked on its quota must wake to exit
        self._connections.discard(conn)
        with contextlib.suppress(ConnectionError, OSError):
            conn.writer.close()
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(conn.writer.wait_closed(), timeout=1.0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        return self._inflight

    def describe(self) -> dict:
        """One JSON-compatible status blob (CLI banner, tests)."""
        return {
            "host": self.options.host,
            "port": self.port,
            "wire_format": self.wire_format,
            "max_inflight": self.options.max_inflight,
            "low_water": self.options.resolved_low_water,
            "per_conn_quota": self.options.resolved_per_conn_quota,
            "batch_max": self.options.batch_max,
            "codec_threads": self.options.codec_threads,
            "stats": self.stats.snapshot(),
            "time": time.time(),
        }
