"""Exactly-once request admission: the retry contract, end to end.

Pinned here:

* **the pre-PR duplicate is fixed**: a request whose response is lost to a
  client-side timeout used to execute twice when retried -- fatally for
  non-idempotent requests (re-registering a Subscribe errors, a duplicated
  IngestBatch burns sequence numbers).  With the hello handshake and the
  server's idempotency table, the retry re-sends the *same* request id and
  the server answers from the in-flight execution or its cached response:
  exactly one execution, a clean answer;
* **the hello is the server's option, the client's duty**: a peer that
  speaks raw request frames without a hello is still served, at least once
  and without dedup tracking, while the client refuses (with a
  :class:`ClientError`) a server that answers its hello with anything but a
  ``HelloAck``;
* **connect() is bounded**: a listener that accepts and then stalls raises
  :class:`ConnectTimeout` instead of hanging the caller;
* **retry backoff jitter is seeded per client**: same ``(client_id, epoch)``
  replays the same schedule, different clients de-synchronize;
* **a journal write failure is a structured error, not a crash**: the
  ``journal_write_fail`` fault site makes the append raise
  :class:`JournalWriteError`, the requester gets an error frame, and the
  server keeps serving (non-journaled requests still succeed).
"""

from __future__ import annotations

import asyncio
import dataclasses
import time

import pytest

from repro.datasets.synthetic import make_synthetic_scenario
from repro.net import (
    BASELINE_WIRE_VERSION,
    AlertServiceClient,
    AlertServiceServer,
    ShadowEncryptor,
)
from repro.net.client import ClientError, ConnectionLost, ConnectTimeout, RemoteRequestError
from repro.net.wire import HEADER, decode_body_checked, read_frame, write_frame
from repro.service import (
    AlertService,
    ErrorResponse,
    EvaluateStanding,
    IngestBatch,
    IngestReceipt,
    MatchReport,
    Move,
    NetOptions,
    ServiceConfig,
    Subscribe,
    request_to_wire,
    response_from_wire,
)


@pytest.fixture(scope="module")
def scenario():
    return make_synthetic_scenario(
        rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=20, seed=31, extent_meters=600.0
    )


def make_service(scenario, **overrides) -> AlertService:
    config = ServiceConfig(prime_bits=32, seed=19, **overrides)
    return AlertService(scenario.grid, scenario.probabilities, config=config)


def count_executions(service, kind, delay_first: float = 0.0) -> dict:
    """Wrap ``service.handle`` counting executions of ``kind`` (slow first)."""
    original = service.handle
    counts = {"n": 0}

    def wrapped(request):
        if isinstance(request, kind):
            counts["n"] += 1
            if counts["n"] == 1 and delay_first:
                time.sleep(delay_first)
        return original(request)

    service.handle = wrapped  # instance attribute shadows the method
    return counts


# ----------------------------------------------------------------------
# The duplicate-execution regression, pinned fixed
# ----------------------------------------------------------------------
def test_timed_out_subscribe_retry_executes_exactly_once(scenario):
    """Timeout -> retry -> ONE execution; the duplicate would have errored.

    Before this PR a Subscribe retried after a response timeout re-executed,
    and re-registering the pseudonym raised -- the chaos soak had to do
    subscriptions during a fault-free warmup.  Now the retry re-sends the
    same request id: the server parks it on the in-flight execution (or
    serves the cached receipt) and the client gets the single execution's
    answer.
    """

    async def drive():
        with make_service(scenario) as service:
            counts = count_executions(service, Subscribe, delay_first=0.6)
            options = NetOptions(port=0, max_inflight=16, batch_max=1)
            async with AlertServiceServer(service, options) as server:
                async with AlertServiceClient("127.0.0.1", server.port) as client:
                    assert client.session_active
                    response = await client.request_with_retry(
                        Subscribe(user_id="alice", location=scenario.grid.cell_center(5)),
                        attempts=8,
                        timeout=0.15,
                    )
                stats = server.stats
        return counts["n"], response, stats

    executions, response, stats = asyncio.run(drive())
    assert executions == 1
    assert isinstance(response, IngestReceipt) and response.user_id == "alice"
    # The retry was recognised: parked on the in-flight original and/or
    # answered from the idempotency cache -- never re-admitted as new work.
    assert stats.dup_waiters + stats.dedup_hits >= 1


def test_timed_out_ingest_retry_executes_exactly_once(scenario):
    """Same contract for ciphertext ingests: one store pass, one report."""

    async def drive():
        encryptor = ShadowEncryptor(scenario, prime_bits=32, seed=19, devices=2)
        try:
            batch = IngestBatch(updates=(encryptor.mint(),), evaluate=False)
        finally:
            encryptor.close()
        with make_service(scenario) as service:
            counts = count_executions(service, IngestBatch, delay_first=0.6)
            options = NetOptions(port=0, max_inflight=16, batch_max=1)
            async with AlertServiceServer(service, options) as server:
                async with AlertServiceClient("127.0.0.1", server.port) as client:
                    response = await client.request_with_retry(
                        batch, attempts=8, timeout=0.15
                    )
                stats = server.stats
        return counts["n"], response, stats

    executions, response, stats = asyncio.run(drive())
    assert executions == 1
    assert isinstance(response, MatchReport)
    assert stats.dup_waiters + stats.dedup_hits >= 1


def test_completed_request_retried_is_served_from_cache(scenario):
    """A bare resend of an answered id must hit the cache, not re-execute."""

    async def drive():
        with make_service(scenario) as service:
            counts = count_executions(service, Subscribe)
            options = NetOptions(port=0, max_inflight=16, batch_max=1)
            async with AlertServiceServer(service, options) as server:
                async with AlertServiceClient("127.0.0.1", server.port) as client:
                    req_id = client.allocate_request_id()
                    request = Subscribe(user_id="bob", location=scenario.grid.cell_center(7))
                    first = await client.request(request, req_id=req_id)
                    second = await client.request(request, req_id=req_id)
                stats = server.stats
        return counts["n"], first, second, stats

    executions, first, second, stats = asyncio.run(drive())
    assert executions == 1
    assert first == second
    assert stats.dedup_hits == 1


def test_request_ids_survive_reconnect_and_watermark_advances(scenario):
    async def drive():
        with make_service(scenario) as service:
            options = NetOptions(port=0, max_inflight=16)
            async with AlertServiceServer(service, options) as server:
                client = AlertServiceClient("127.0.0.1", server.port, client_id="c1", epoch=3)
                await client.request(
                    Subscribe(user_id="alice", location=scenario.grid.cell_center(5))
                )
                await client.request(Move(user_id="alice", location=scenario.grid.cell_center(6)))
                assert client.acked_watermark == 2
                first_resumed = client.last_hello_resumed
                # Drop the connection; the next request reconnects, resumes
                # the same epoch, and keeps counting ids from where it was.
                await client.close()
                await client.request(Move(user_id="alice", location=scenario.grid.cell_center(7)))
                resumed = client.last_hello_resumed
                next_id = client.allocate_request_id()
                await client.close()
        return first_resumed, resumed, next_id

    first_resumed, resumed, next_id = asyncio.run(drive())
    assert first_resumed is False  # fresh epoch on first contact
    assert resumed is True  # the server recognised (client_id, epoch)
    assert next_id == 4  # ids are monotonic per client object, not per conn


# ----------------------------------------------------------------------
# The hello: optional for a raw peer, required by the client
# ----------------------------------------------------------------------
def test_handshakeless_client_gets_legacy_behaviour_against_new_server(scenario):
    """A peer that sends request frames without a hello is served on the
    baseline envelope, untracked by the admission ledger."""

    async def drive():
        with make_service(scenario) as service:
            options = NetOptions(port=0, max_inflight=16)
            async with AlertServiceServer(service, options) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                try:
                    request = Subscribe(user_id="alice", location=scenario.grid.cell_center(5))
                    await write_frame(
                        writer, {"id": 1, "kind": "request", "payload": request_to_wire(request)}
                    )
                    _, version, flags, length, crc = HEADER.unpack(
                        await reader.readexactly(HEADER.size)
                    )
                    frame = decode_body_checked(await reader.readexactly(length), flags, crc)
                finally:
                    writer.close()
                    await writer.wait_closed()
                stats = server.stats
        return version, frame, stats

    version, frame, stats = asyncio.run(drive())
    assert version == BASELINE_WIRE_VERSION
    assert frame["id"] == 1 and frame["kind"] == "response"
    response = response_from_wire(frame["payload"])
    assert isinstance(response, IngestReceipt)
    assert stats.handshakes == 0  # no hello, no admission tracking


def test_client_rejects_a_bad_envelope_hello_reply():
    """A server that answers the hello with BadEnvelope fails the connect."""

    async def hello_refusing_server(reader, writer):
        # Anything that is not kind="request" is rejected with a structured
        # BadEnvelope -- including the client's hello.
        while True:
            frame = await read_frame(reader, 1 << 20)
            if frame is None:
                break
            req_id = frame.get("id")
            req_id = req_id if isinstance(req_id, int) else -1
            payload = ErrorResponse(
                error="BadEnvelope",
                message="frames must carry an integer 'id' and kind='request'",
            ).to_wire()
            await write_frame(writer, {"id": req_id, "kind": "response", "payload": payload})

    async def drive():
        server = await asyncio.start_server(hello_refusing_server, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            client = AlertServiceClient("127.0.0.1", port, client_id="c1", epoch=1)
            with pytest.raises(ClientError, match="unexpected handshake reply") as excinfo:
                await client.connect()
            assert not client.connected
            return excinfo.value
        finally:
            server.close()
            await server.wait_closed()

    error = asyncio.run(drive())
    assert not isinstance(error, ConnectionLost)  # not retryable: a protocol refusal


# ----------------------------------------------------------------------
# Bounded connect
# ----------------------------------------------------------------------
def test_connect_times_out_against_a_stalling_listener():
    """A listener that accepts but never answers the hello must not hang."""

    async def stall(reader, writer):
        await asyncio.sleep(30)

    async def drive():
        server = await asyncio.start_server(stall, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            client = AlertServiceClient("127.0.0.1", port, connect_timeout=0.2)
            started = time.monotonic()
            with pytest.raises(ConnectTimeout):
                await client.connect()
            elapsed = time.monotonic() - started
            assert elapsed < 5.0  # bounded by connect_timeout, not the stall
            assert not client.connected  # no half-open socket left behind
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(drive())


def test_connect_timeout_is_retryable_as_connection_lost():
    # request_with_retry catches ConnectionLost; the subclass relation is the
    # contract that makes a stalled listener retryable.
    assert issubclass(ConnectTimeout, ConnectionLost)


# ----------------------------------------------------------------------
# Seeded retry jitter
# ----------------------------------------------------------------------
def test_retry_jitter_is_reproducible_per_client_identity():
    a1 = AlertServiceClient(client_id="alpha", epoch=7)
    a2 = AlertServiceClient(client_id="alpha", epoch=7)
    b = AlertServiceClient(client_id="beta", epoch=7)
    seq_a1 = [a1._backoff(1.0) for _ in range(6)]
    seq_a2 = [a2._backoff(1.0) for _ in range(6)]
    seq_b = [b._backoff(1.0) for _ in range(6)]
    assert seq_a1 == seq_a2  # same (client_id, epoch) -> same schedule
    assert seq_a1 != seq_b  # different clients de-synchronize
    assert all(0.5 <= s <= 1.0 for s in seq_a1)  # 50-100% of the base delay


# ----------------------------------------------------------------------
# Journal write failure: structured error, server keeps serving
# ----------------------------------------------------------------------
def test_journal_write_failure_is_structured_and_server_keeps_serving(scenario, tmp_path):
    async def drive():
        with make_service(
            scenario,
            journal_path=str(tmp_path / "wal.log"),
            faults="journal_write_fail=1.0",
            fault_seed=3,
        ) as service:
            options = NetOptions(port=0, max_inflight=16, batch_max=1)
            async with AlertServiceServer(service, options) as server:
                async with AlertServiceClient("127.0.0.1", server.port) as client:
                    # Journaled request: the append fails by injection and the
                    # answer is a typed error frame, not a dead connection.
                    with pytest.raises(RemoteRequestError) as excinfo:
                        await client.request(
                            Move(user_id="alice", location=scenario.grid.cell_center(5))
                        )
                    failed_seq = service.journal.last_seq
                    # The volume recovers: the next request on the same
                    # connection is journaled and served.
                    injector = service.fault_injector
                    injector.plan = dataclasses.replace(injector.plan, journal_write_fail=0.0)
                    report = await client.request(EvaluateStanding())
            counts = dict(injector.counts)
            seq = service.journal.last_seq
        return excinfo.value.error, report, counts, failed_seq, seq

    error, report, counts, failed_seq, seq = asyncio.run(drive())
    assert error == "JournalWriteError"
    assert isinstance(report, MatchReport)
    assert counts.get("journal_write_fail", 0) == 1
    assert failed_seq == 0  # the failed append never consumed a sequence number
    assert seq == 1  # the served request was journaled after it
