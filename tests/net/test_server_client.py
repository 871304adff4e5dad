"""The TCP service tier end to end: parity, error mapping, batching.

The load-bearing test is **transport parity** (the PR's acceptance bar): a
scripted session driven over TCP must produce bit-exact notifications AND
identical pairing totals to the same script run against an in-process
:class:`AlertService`.  Both sessions share the scenario and the crypto seed,
so key material is identical and the only difference is the wire.

Also pinned:

* a handler exception comes back as a structured :class:`ErrorResponse`
  frame (typed :class:`RemoteRequestError` client-side) and the connection
  survives to serve the next request;
* an unknown wire tag yields the :class:`UnknownRequestError` mapping with
  the server's list of recognised request types;
* consecutive queued ingest requests are coalesced into one store pass and
  every member receives that tick's report.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.datasets.synthetic import make_synthetic_scenario
from repro.grid.alert_zone import AlertZone
from repro.net import AlertServiceClient, AlertServiceServer
from repro.net.client import RemoteRequestError
from repro.net.wire import write_frame
from repro.service import (
    AlertService,
    EvaluateStanding,
    IngestBatch,
    Move,
    NetOptions,
    PublishZone,
    ServiceConfig,
    Subscribe,
)

USERS = 6


@pytest.fixture(scope="module")
def scenario():
    return make_synthetic_scenario(
        rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=20, seed=31, extent_meters=600.0
    )


def make_config() -> ServiceConfig:
    return ServiceConfig(prime_bits=32, seed=19)


def scripted_requests(scenario, steps: int = 12):
    """The deterministic request sequence both transports replay."""
    grid = scenario.grid
    rng = random.Random(1009)
    requests = []
    for i in range(USERS):
        cell = rng.randrange(grid.n_cells)
        requests.append(Subscribe(user_id=f"user-{i:03d}", location=grid.cell_center(cell)))
    requests.append(
        PublishZone(alert_id="zone-a", zone=AlertZone(cell_ids=(5, 6, 7, 11)), evaluate=False)
    )
    for _ in range(steps):
        cell = rng.randrange(grid.n_cells)
        requests.append(Move(user_id=f"user-{cell % USERS:03d}", location=grid.cell_center(cell)))
        requests.append(EvaluateStanding())
    return requests


def run_in_process(scenario, requests):
    outcomes = []
    with AlertService(scenario.grid, scenario.probabilities, config=make_config()) as service:
        for request in requests:
            response = service.handle(request)
            if isinstance(request, EvaluateStanding):
                outcomes.append((tuple(n.to_wire()["user_id"] for n in response.notifications),
                                 response.notified_users))
        pairings = service.pairing_count
    return outcomes, pairings


def run_over_tcp(scenario, requests):
    async def drive():
        with AlertService(scenario.grid, scenario.probabilities, config=make_config()) as service:
            async with AlertServiceServer(service, NetOptions(port=0)) as server:
                outcomes = []
                async with AlertServiceClient("127.0.0.1", server.port) as client:
                    for request in requests:
                        response = await client.request(request)
                        if isinstance(request, EvaluateStanding):
                            outcomes.append(
                                (tuple(n.to_wire()["user_id"] for n in response.notifications),
                                 response.notified_users)
                            )
            return outcomes, service.pairing_count

    return asyncio.run(drive())


def test_tcp_session_matches_in_process_bit_exactly(scenario):
    """Acceptance: same script, same notifications, same pairing totals."""
    requests = scripted_requests(scenario)
    local_outcomes, local_pairings = run_in_process(scenario, requests)
    remote_outcomes, remote_pairings = run_over_tcp(scenario, requests)
    assert remote_outcomes == local_outcomes
    assert remote_pairings == local_pairings
    assert any(users for _, users in local_outcomes), "script never notified anyone -- vacuous"


def test_handler_exception_maps_to_error_frame_and_connection_survives(scenario):
    async def drive():
        with AlertService(scenario.grid, scenario.probabilities, config=make_config()) as service:
            async with AlertServiceServer(service, NetOptions(port=0)) as server:
                async with AlertServiceClient("127.0.0.1", server.port) as client:
                    with pytest.raises(RemoteRequestError) as excinfo:
                        await client.request(
                            Move(user_id="nobody", location=scenario.grid.cell_center(0))
                        )
                    assert excinfo.value.error == "KeyError"
                    # Same connection keeps serving.
                    receipt = await client.request(
                        Subscribe(user_id="alice", location=scenario.grid.cell_center(5))
                    )
                    assert receipt.stored
                    assert server.stats.connections_dropped == 0

    asyncio.run(drive())


def test_unknown_wire_tag_returns_expected_request_types(scenario):
    async def drive():
        with AlertService(scenario.grid, scenario.probabilities, config=make_config()) as service:
            async with AlertServiceServer(service, NetOptions(port=0)) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                try:
                    await write_frame(
                        writer, {"id": 1, "kind": "request", "payload": {"type": "drop_tables"}}
                    )
                    from repro.net.wire import read_frame

                    frame = await read_frame(reader)
                    payload = frame["payload"]
                    assert payload["type"] == "error"
                    assert payload["error"] == "UnknownRequestError"
                    assert "subscribe" in payload["expected"]
                    # Malformed envelope is also answered, not dropped.
                    await write_frame(writer, {"kind": "request"})
                    frame = await read_frame(reader)
                    assert frame["payload"]["error"] == "BadEnvelope"
                finally:
                    writer.close()
                    await writer.wait_closed()

    asyncio.run(drive())


def test_consecutive_ingest_requests_coalesce_into_one_pass(scenario):
    async def drive():
        config = make_config()
        with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
            # Mint valid ciphertexts from a twin session (same seed = same keys).
            from repro.net.loadgen import ShadowEncryptor

            encryptor = ShadowEncryptor(scenario, prime_bits=32, seed=19, devices=4)
            updates = [encryptor.mint() for _ in range(8)]
            encryptor.close()
            options = NetOptions(port=0, batch_max=8, batch_window_ms=25.0)
            async with AlertServiceServer(service, options) as server:
                async with AlertServiceClient("127.0.0.1", server.port) as client:
                    results = await asyncio.gather(
                        *(
                            client.request(IngestBatch(updates=(u,), evaluate=False))
                            for u in updates
                        )
                    )
                    assert all(r.to_wire()["type"] == "match_report" for r in results)
                    stats = server.stats
            # 8 concurrent single-update ingests must not cost 8 passes.
            assert stats.requests_coalesced > 0
            assert stats.batches_executed < 8

    asyncio.run(drive())


def test_sweep_warmup_burst_runs_before_measured_points(scenario):
    """run_sweep fires an unmeasured warmup burst before the first point.

    Without it, server cold-start cost lands entirely on the lowest-rate
    point -- exactly the one the perf gate tracks -- and the sweep shows the
    nonsensical signature of p99 improving as offered load quadruples.
    """
    from repro.net.loadgen import run_sweep

    async def drive():
        with AlertService(scenario.grid, scenario.probabilities, config=make_config()) as service:
            async with AlertServiceServer(service, NetOptions(port=0)) as server:
                sweep = await run_sweep(
                    "127.0.0.1",
                    server.port,
                    scenario,
                    rates=(25.0,),
                    duration=0.4,
                    seed=7,
                    users=4,
                    connections=2,
                    prime_bits=32,
                    service_seed=19,
                    warmup_seconds=0.4,
                    settle_seconds=0.0,
                )
                received = server.stats.requests_received
            return sweep, received

    sweep, received = asyncio.run(drive())
    [point] = sweep.points
    assert point.dropped == 0
    # The server saw the 4 subscribes plus the measured schedule plus a
    # strictly positive number of unmeasured warmup requests.
    assert received > 4 + point.offered
