"""Backpressure, graceful shutdown, and restart/reconnect.

Pinned here:

* **high-water BUSY**: a concurrent flood against ``max_inflight=4`` gets
  structured :class:`ServerBusy` rejections (never silent drops, never a
  ballooning queue) while every admitted request completes, and the reader
  actually pauses past high-water;
* **graceful shutdown**: ``stop()`` drains and answers every inflight
  request, then snapshots -- which checkpoints the write-ahead journal -- so
  nothing durable is lost mid-flight;
* **reconnect after restart**: a client rides over a full server restart
  (PR 6's snapshot + journal restore) with ``request_with_retry`` and
  observes the restored session's state, not an empty one.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.datasets.synthetic import make_synthetic_scenario
from repro.grid.alert_zone import AlertZone
from repro.net import AlertServiceClient, AlertServiceServer
from repro.net.client import ServerBusy
from repro.service import (
    AlertService,
    EvaluateStanding,
    Move,
    NetOptions,
    PublishZone,
    ServiceConfig,
    Subscribe,
)
from repro.service.journal import RequestJournal


@pytest.fixture(scope="module")
def scenario():
    return make_synthetic_scenario(
        rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=20, seed=31, extent_meters=600.0
    )


def slow_handle(service, seconds: float):
    """Wrap ``service.handle`` so every request occupies the executor briefly."""
    original = service.handle

    def wrapped(request):
        time.sleep(seconds)
        return original(request)

    service.handle = wrapped  # instance attribute shadows the method


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_concurrent_flood_hits_busy_and_pauses_reader(scenario):
    async def drive():
        config = ServiceConfig(prime_bits=32, seed=19)
        with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(5)))
            slow_handle(service, 0.03)
            options = NetOptions(port=0, max_inflight=4, batch_max=1)
            async with AlertServiceServer(service, options) as server:
                async with AlertServiceClient("127.0.0.1", server.port, timeout=30.0) as client:
                    flood = [
                        client.request(
                            Move(user_id="alice", location=scenario.grid.cell_center(i % 36))
                        )
                        for i in range(30)
                    ]
                    results = await asyncio.gather(*flood, return_exceptions=True)
                stats = server.stats
        busy = [r for r in results if isinstance(r, ServerBusy)]
        completed = [r for r in results if not isinstance(r, Exception)]
        unexpected = [r for r in results if isinstance(r, Exception) and not isinstance(r, ServerBusy)]
        assert not unexpected, unexpected
        # The flood must overshoot the high-water mark -- and nothing may be
        # silently dropped: every request is either answered or BUSY-rejected.
        assert busy and stats.busy_rejections == len(busy)
        assert len(busy) + len(completed) == 30
        assert stats.reader_pauses > 0
        # Admitted requests never exceeded the inflight bound.
        assert stats.requests_received == 30

    asyncio.run(drive())


def test_graceful_stop_drains_inflight_and_checkpoints_journal(scenario, tmp_path):
    journal_path = tmp_path / "wire.journal"
    snapshot_path = tmp_path / "session.json"

    async def drive():
        config = ServiceConfig(prime_bits=32, seed=19, journal_path=str(journal_path))
        with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(5)))
            slow_handle(service, 0.05)
            options = NetOptions(port=0, max_inflight=16, batch_max=1)
            server = AlertServiceServer(service, options, snapshot_path=snapshot_path)
            await server.start()
            client = AlertServiceClient("127.0.0.1", server.port, timeout=30.0)
            pending = [
                asyncio.create_task(
                    client.request(Move(user_id="alice", location=scenario.grid.cell_center(i)))
                )
                for i in range(6)
            ]
            # Let the requests reach the server's queue, then pull the plug.
            while server.stats.requests_received < 6:
                await asyncio.sleep(0.01)
            await server.stop()
            results = await asyncio.gather(*pending, return_exceptions=True)
            await client.close()
            return results, server.stats.snapshot()

    results, stats = asyncio.run(drive())
    failures = [r for r in results if isinstance(r, Exception)]
    assert not failures, failures  # every inflight request was answered
    assert stats["responses_sent"] >= 6
    # The drain snapshot landed and checkpointed the journal: every durable
    # entry is covered by the snapshot's sequence number.
    snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
    journal = RequestJournal(journal_path)
    try:
        assert journal.replay_after(snapshot["journal_seq"]) == []
    finally:
        journal.close()


def test_client_reconnects_after_restart_and_sees_restored_session(scenario, tmp_path):
    journal_path = tmp_path / "wire.journal"
    snapshot_path = tmp_path / "session.json"
    port = free_port()

    def config() -> ServiceConfig:
        return ServiceConfig(prime_bits=32, seed=19, journal_path=str(journal_path))

    async def drive():
        options = NetOptions(port=port, max_inflight=16)
        client = AlertServiceClient("127.0.0.1", port, timeout=30.0)

        # --- First server lifetime: build up durable state, stop gracefully.
        with AlertService(scenario.grid, scenario.probabilities, config=config()) as service:
            server = AlertServiceServer(service, options, snapshot_path=snapshot_path)
            await server.start()
            await client.request(Subscribe(user_id="alice", location=scenario.grid.cell_center(5)))
            await client.request(
                PublishZone(alert_id="zone-a", zone=AlertZone(cell_ids=(5, 6)), evaluate=False)
            )
            await client.request(Move(user_id="alice", location=scenario.grid.cell_center(6)))
            before = await client.request(EvaluateStanding())
            assert before.notified_users == ("alice",)
            await server.stop()

        # --- Second lifetime: restore from snapshot + journal, same port.
        with AlertService(scenario.grid, scenario.probabilities, config=config()) as service:
            service.restore(snapshot_path)
            server = AlertServiceServer(service, options, snapshot_path=snapshot_path)
            await server.start()
            # The old connection is dead; request_with_retry reconnects.
            after = await client.request_with_retry(EvaluateStanding(), attempts=8)
            await client.close()
            await server.stop()
            return before.notified_users, after.notified_users

    before_users, after_users = asyncio.run(drive())
    # The restored session still knows alice's ciphertext and the standing
    # zone: the tick over TCP after restart notifies exactly the same user.
    assert after_users == before_users == ("alice",)

    asyncio.run(asyncio.sleep(0))  # flush any lingering event-loop callbacks


def test_per_connection_quota_isolates_a_flooding_client(scenario):
    """A flooder hits its *own* BUSY ceiling; a polite peer is never rejected."""

    async def drive():
        config = ServiceConfig(prime_bits=32, seed=19)
        with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(5)))
            service.subscribe(Subscribe(user_id="bob", location=scenario.grid.cell_center(7)))
            slow_handle(service, 0.02)
            options = NetOptions(port=0, max_inflight=8, max_inflight_per_conn=2, batch_max=1)
            async with AlertServiceServer(service, options) as server:
                async with AlertServiceClient(
                    "127.0.0.1", server.port, timeout=30.0
                ) as flooder, AlertServiceClient(
                    "127.0.0.1", server.port, timeout=30.0
                ) as polite:
                    flood = [
                        asyncio.create_task(
                            flooder.request(
                                Move(user_id="alice", location=scenario.grid.cell_center(i % 36))
                            )
                        )
                        for i in range(12)
                    ]
                    # The polite client works sequentially while the flood
                    # rages: one request inflight at a time, well under both
                    # its own quota and the global window.
                    polite_results = []
                    for i in range(5):
                        polite_results.append(
                            await polite.request(
                                Move(user_id="bob", location=scenario.grid.cell_center(i))
                            )
                        )
                    flood_results = await asyncio.gather(*flood, return_exceptions=True)
                stats = server.stats
        busy = [r for r in flood_results if isinstance(r, ServerBusy)]
        completed = [r for r in flood_results if not isinstance(r, Exception)]
        unexpected = [
            r for r in flood_results if isinstance(r, Exception) and not isinstance(r, ServerBusy)
        ]
        assert not unexpected, unexpected
        # The flooder overran its quota of 2 and was rejected -- before the
        # global window (8) was ever threatened, so every rejection is the
        # per-connection kind.
        assert busy
        assert len(busy) + len(completed) == 12
        assert stats.per_conn_busy_rejections == len(busy)
        assert stats.busy_rejections == len(busy)
        # The polite client rode through the whole flood without one BUSY.
        assert len(polite_results) == 5

    asyncio.run(drive())


def test_low_water_resume_rechecked_after_busy_send(scenario):
    """Regression: the resume level must be re-checked after the BUSY send.

    ``_read_loop`` awaits the BUSY error frame *before* clearing the resume
    event.  If the backlog drains below ``low_water`` during that await, the
    wake-up lands before the reader starts waiting -- and was then lost,
    parking the reader forever even though the server is idle.  The hold
    below pins the reader inside that yield window until the admitted
    request has completed, making the lost wake-up deterministic.
    """

    async def drive():
        config = ServiceConfig(prime_bits=32, seed=19)
        with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(5)))
            slow_handle(service, 0.03)
            options = NetOptions(port=0, max_inflight=1, low_water=0, batch_max=1)
            async with AlertServiceServer(service, options) as server:
                first_done = asyncio.Event()
                original_send_error = server._send_error

                async def held_send_error(conn, req_id, error):
                    await original_send_error(conn, req_id, error)
                    await asyncio.wait_for(first_done.wait(), timeout=15.0)

                server._send_error = held_send_error
                async with AlertServiceClient("127.0.0.1", server.port, timeout=2.0) as client:
                    first = asyncio.create_task(
                        client.request(Move(user_id="alice", location=scenario.grid.cell_center(1)))
                    )
                    await asyncio.sleep(0.005)  # let the first frame be admitted
                    second = asyncio.create_task(
                        client.request_with_retry(
                            Move(user_id="alice", location=scenario.grid.cell_center(2)),
                            attempts=6,
                        )
                    )
                    await asyncio.wait_for(first, timeout=10.0)
                    first_done.set()  # release the reader into clear+wait
                    # Without the re-check the reader is now parked forever
                    # and the retried request can never be admitted.
                    await asyncio.wait_for(second, timeout=15.0)
                assert server.stats.reader_pauses >= 1

    asyncio.run(drive())
