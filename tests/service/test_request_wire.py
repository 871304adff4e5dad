"""Wire forms of every typed request/response: exhaustive round-trip property tests.

The ``to_wire``/``from_wire`` pair on each dataclass is the substrate of the
network codec, the write-ahead journal, and snapshots -- so the contract
pinned here is strict: for every request and response type, ``from_wire``
of ``to_wire`` rebuilds an **equal** object, and the payload survives a
genuine JSON encode/decode (the wire is stdlib JSON by default).  Ciphertext
round-trips (:class:`IngestBatch`) use real HVE encryptions over the shared
small group.  The dispatch layer is pinned too: unknown tags raise
:class:`UnknownRequestError` carrying the full list of recognised types.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.hve import HVE
from repro.grid.alert_zone import AlertZone
from repro.grid.geometry import Point
from repro.protocol.messages import LocationUpdate, Notification
from repro.service.requests import (
    REQUEST_WIRE_TYPES,
    RESPONSE_WIRE_TYPES,
    ClientHello,
    ErrorResponse,
    HelloAck,
    EvaluateStanding,
    IngestBatch,
    IngestReceipt,
    MatchReport,
    Move,
    PublishZone,
    RequestMetrics,
    RetractReceipt,
    RetractZone,
    Subscribe,
    UnknownRequestError,
    request_from_wire,
    request_to_wire,
    response_from_wire,
    response_to_wire,
)

RELAXED = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def json_round_trip(payload: dict) -> dict:
    """The exact transformation the JSON wire applies to a payload."""
    return json.loads(json.dumps(payload, separators=(",", ":")))


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
ids = st.text(
    alphabet=st.characters(whitelist_categories=("L", "N"), whitelist_characters="-_"),
    min_size=1,
    max_size=12,
)
coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)
clocks = st.one_of(st.none(), st.floats(min_value=0, max_value=1e9, allow_nan=False))
cell_tuples = st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=8).map(tuple)
zones = st.builds(lambda cells: AlertZone(cell_ids=cells), cell_tuples)
notifications = st.builds(Notification, user_id=ids, alert_id=ids, description=st.text(max_size=20))

subscribes = st.builds(Subscribe, user_id=ids, location=points, at=clocks)
moves = st.builds(Move, user_id=ids, location=points, at=clocks)
cell_publishes = st.builds(
    PublishZone,
    alert_id=ids,
    zone=zones,
    description=st.text(max_size=20),
    standing=st.booleans(),
    evaluate=st.booleans(),
    at=clocks,
)
circular_publishes = st.builds(
    PublishZone,
    alert_id=ids,
    epicenter=points,
    radius=st.floats(min_value=0.1, max_value=1e5, allow_nan=False),
    description=st.text(max_size=20),
    standing=st.booleans(),
    evaluate=st.booleans(),
    at=clocks,
)
retracts = st.builds(RetractZone, alert_id=ids, at=clocks)
evaluates = st.builds(EvaluateStanding, at=clocks)

ingest_receipts = st.builds(
    IngestReceipt, user_id=ids, sequence_number=st.integers(0, 2**31), stored=st.booleans()
)
retract_receipts = st.builds(RetractReceipt, alert_id=ids, existed=st.booleans())
counters = st.integers(min_value=0, max_value=2**31)
match_reports = st.builds(
    MatchReport,
    notifications=st.lists(notifications, max_size=4).map(tuple),
    alerts_evaluated=st.lists(ids, max_size=4).map(tuple),
    candidates=counters,
    tokens_evaluated=counters,
    pairings_spent=counters,
    plan_reused=st.booleans(),
    zones_evaluated=counters,
    fused_evals=counters,
)
request_metrics = st.builds(
    RequestMetrics,
    request=ids,
    pairings_spent=counters,
    plan_reused=st.booleans(),
    notifications=counters,
    candidates=counters,
    zones_evaluated=counters,
    precomp_hits=counters,
)
error_responses = st.builds(
    ErrorResponse,
    error=ids,
    message=st.text(max_size=40),
    expected=st.lists(ids, max_size=4).map(tuple),
)

plain_requests = st.one_of(subscribes, moves, cell_publishes, circular_publishes, retracts, evaluates)
plain_responses = st.one_of(
    ingest_receipts, retract_receipts, match_reports, request_metrics, error_responses
)


# ----------------------------------------------------------------------
# Round trips: every type, through genuine JSON
# ----------------------------------------------------------------------
@RELAXED
@given(request=plain_requests)
def test_every_plain_request_round_trips_through_json(request):
    payload = request_to_wire(request)
    assert payload["type"] in REQUEST_WIRE_TYPES
    rebuilt = request_from_wire(json_round_trip(payload))
    assert rebuilt == request
    assert type(rebuilt) is type(request)


@RELAXED
@given(response=plain_responses)
def test_every_response_round_trips_through_json(response):
    payload = response_to_wire(response)
    assert payload["type"] in RESPONSE_WIRE_TYPES
    rebuilt = response_from_wire(json_round_trip(payload))
    assert rebuilt == response
    assert type(rebuilt) is type(response)


@RELAXED
@given(request=plain_requests)
def test_dispatch_tags_are_stable(request):
    # The tag must match the registry's key for that class -- journal files
    # written by earlier sessions depend on these exact strings.
    payload = request_to_wire(request)
    assert REQUEST_WIRE_TYPES[payload["type"]] is type(request)


# ----------------------------------------------------------------------
# Session handshake payloads (the exactly-once hello/ack exchange)
# ----------------------------------------------------------------------
hellos = st.builds(
    ClientHello,
    client_id=ids,
    epoch=st.integers(min_value=0, max_value=2**48),
    wire_version=st.integers(min_value=1, max_value=255),
    acked=st.integers(min_value=0, max_value=2**31),
)
hello_acks = st.builds(
    HelloAck,
    wire_version=st.integers(min_value=1, max_value=255),
    resumed=st.booleans(),
    acked=st.integers(min_value=0, max_value=2**31),
)


@RELAXED
@given(hello=hellos)
def test_client_hello_round_trips_through_json(hello):
    payload = hello.to_wire()
    assert payload["type"] == "client_hello"
    rebuilt = ClientHello.from_wire(json_round_trip(payload))
    assert rebuilt == hello


@RELAXED
@given(ack=hello_acks)
def test_hello_ack_round_trips_through_json(ack):
    payload = ack.to_wire()
    assert payload["type"] == "hello_ack"
    rebuilt = HelloAck.from_wire(json_round_trip(payload))
    assert rebuilt == ack


def test_handshake_payloads_are_not_requests_or_responses():
    # Session control must never be journaled or dispatched into handle():
    # deliberately absent from both wire registries.
    assert "client_hello" not in REQUEST_WIRE_TYPES
    assert "hello_ack" not in RESPONSE_WIRE_TYPES


def test_client_hello_rejects_empty_client_id():
    with pytest.raises(ValueError, match="client_id"):
        ClientHello(client_id="", epoch=1)


# ----------------------------------------------------------------------
# Ciphertext-bearing round trip (real HVE encryptions)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def minted_updates(small_group):
    hve = HVE(width=4, group=small_group, rng=random.Random(41))
    keys = hve.setup()
    rng = random.Random(17)
    updates = []
    for i in range(4):
        index = "".join(str(rng.randrange(2)) for _ in range(4))
        updates.append(
            LocationUpdate(
                user_id=f"dev-{i}", ciphertext=hve.encrypt(keys.public, index), sequence_number=i
            )
        )
    return updates


def test_ingest_batch_round_trips_with_real_ciphertexts(minted_updates, small_group):
    batch = IngestBatch(updates=tuple(minted_updates), evaluate=False, at=12.5)
    payload = json_round_trip(request_to_wire(batch))
    rebuilt = request_from_wire(payload, group=small_group)
    assert isinstance(rebuilt, IngestBatch)
    assert rebuilt.evaluate is False and rebuilt.at == 12.5
    assert [u.user_id for u in rebuilt.updates] == [u.user_id for u in minted_updates]
    assert [u.sequence_number for u in rebuilt.updates] == [0, 1, 2, 3]
    for original, copy in zip(minted_updates, rebuilt.updates):
        assert copy.ciphertext == original.ciphertext


def test_ingest_batch_without_group_is_rejected(minted_updates):
    payload = request_to_wire(IngestBatch(updates=tuple(minted_updates)))
    with pytest.raises(ValueError, match="group"):
        request_from_wire(payload)


# ----------------------------------------------------------------------
# Dispatch failure modes
# ----------------------------------------------------------------------
def test_unknown_request_tag_raises_typed_error_with_expected_list():
    with pytest.raises(UnknownRequestError) as excinfo:
        request_from_wire({"type": "drop_tables"})
    assert excinfo.value.expected == tuple(REQUEST_WIRE_TYPES)
    assert "drop_tables" in str(excinfo.value)
    # Dual ancestry: both historical catch sites keep working.
    assert isinstance(excinfo.value, TypeError)
    assert isinstance(excinfo.value, ValueError)


def test_unknown_python_request_object_is_rejected():
    with pytest.raises(UnknownRequestError):
        request_to_wire(object())


def test_unknown_response_tag_is_rejected():
    with pytest.raises(ValueError, match="unknown response type"):
        response_from_wire({"type": "mystery"})


def test_error_response_from_exception_carries_expected_types():
    exc = UnknownRequestError("Bogus", ("Subscribe", "Move"))
    error = ErrorResponse.from_exception(exc)
    assert error.error == "UnknownRequestError"
    assert error.expected == ("Subscribe", "Move")
    rebuilt = response_from_wire(json_round_trip(error.to_wire()))
    assert rebuilt == error


# ----------------------------------------------------------------------
# Journal compatibility: the journal's payloads ARE the wire forms
# ----------------------------------------------------------------------
def test_journal_payloads_are_the_wire_forms():
    from repro.service.journal import request_from_payload, request_to_payload

    request = Move(user_id="alice", location=Point(10.0, 20.0), at=3.0)
    assert request_to_payload(request) == request_to_wire(request)
    assert request_from_payload(json_round_trip(request_to_payload(request)), None) == request
