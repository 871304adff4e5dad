"""Scripted sessions over the ciphertext store on the one inline matching path.

Each script ingests, moves, re-delivers and expires reports in a
:class:`~repro.protocol.store.CiphertextStore` and ticks two standing alerts
through a :class:`~repro.protocol.matching.MatchingEngine`.  The contract
pinned here, for every evaluation mode (packed worklist, plain fused call,
scalar planned evaluator, naive):

* every tick notifies exactly the users a plaintext oracle puts inside each
  zone, among the reports still fresh at the tick, and exactly what an
  engine without remembered outcomes notifies;
* fused and packed evaluation charge bit-exactly the pairings of the scalar
  evaluator;
* a tick that sees the same fresh (user, sequence) population as the
  previous one costs zero pairings, and a move costs exactly the mover's own
  evaluation;
* the store's payload, together with the engine's remembered outcomes, can
  stop a session midway and resume it with identical outcomes.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.group import BilinearGroup
from repro.crypto.hve import HVE
from repro.encoding.huffman import HuffmanEncodingScheme
from repro.protocol.matching import MatchCandidate, MatchingEngine, MatchingOptions
from repro.protocol.messages import LocationUpdate, TokenBatch
from repro.protocol.store import CiphertextStore

N_CELLS = 10
ZONES = {"alert-a": (0, 1, 2), "alert-b": (4, 5)}

#: The evaluation modes of the inline path.  ``packed`` forces the resident
#: packed worklist even on tiny populations; ``fused`` stays below the
#: packing threshold, so it exercises the plain fused backend call.
MODES = {
    "packed": dict(fused=True, fused_pack_min_jobs=1),
    "fused": dict(fused=True),
    "scalar": dict(fused=False),
    "naive": dict(strategy="naive", order="declared"),
}


@pytest.fixture(scope="module")
def world():
    rng = random.Random(508)
    probabilities = [rng.uniform(0.05, 0.95) for _ in range(N_CELLS)]
    encoding = HuffmanEncodingScheme().build(probabilities)
    group = BilinearGroup(prime_bits=32, rng=random.Random(509))
    hve = HVE(width=encoding.reference_length, group=group, rng=random.Random(510))
    keys = hve.setup()
    batches = [_batch((encoding, hve, keys), alert_id, cells) for alert_id, cells in ZONES.items()]
    return encoding, hve, keys, batches


def _update(world, user_id, cell, sequence=0):
    encoding, hve, keys = world[:3]
    ciphertext = hve.encrypt(keys.public, encoding.index_of(cell))
    return LocationUpdate(user_id=user_id, ciphertext=ciphertext, sequence_number=sequence)


def _batch(world, alert_id, cells):
    encoding, hve, keys = world[:3]
    tokens = tuple(hve.generate_tokens(keys.secret, encoding.token_patterns(sorted(cells))))
    return TokenBatch(alert_id=alert_id, tokens=tokens)


def _options(mode):
    return MatchingOptions(**MODES[mode])


def _keys(notifications):
    return [(n.user_id, n.alert_id) for n in notifications]


# ----------------------------------------------------------------------
# Scripts: ("ingest", user, cell, sequence, received_at) | ("tick", now)
#          | ("purge", now).  Each script comes with the store's max age.
# ----------------------------------------------------------------------
def _population(n=8, at=0.0):
    return [("ingest", f"user-{i:02d}", i % N_CELLS, 0, at) for i in range(n)]


SCRIPTS = {
    "warm": (None, _population() + [("tick", 0.0), ("tick", 1.0), ("tick", 2.0)]),
    "movers": (
        None,
        _population()
        + [
            ("tick", 0.0),
            ("tick", 1.0),
            ("ingest", "user-03", 1, 1, 2.0),
            ("tick", 2.0),
            ("tick", 3.0),
            ("ingest", "user-06", 4, 1, 4.0),
            ("ingest", "user-00", 9, 1, 4.0),
            ("tick", 4.0),
            ("tick", 5.0),
        ],
    ),
    "churn": (
        None,
        _population()
        + [("tick", 0.0)]
        + [("ingest", f"user-{i:02d}", (i + 4) % N_CELLS, 1, 1.0) for i in range(8)]
        + [("tick", 1.0)]
        + [("ingest", f"user-{i:02d}", (3 * i) % N_CELLS, 2, 2.0) for i in range(8)]
        + [("tick", 2.0), ("tick", 3.0)],
    ),
    "redelivery": (
        None,
        _population()
        + [
            ("ingest", "user-05", 0, 3, 1.0),
            ("tick", 1.0),
            # Late, older revisions never replace the newer report.
            ("ingest", "user-05", 5, 2, 2.0),
            ("ingest", "user-05", 9, 0, 2.0),
            ("tick", 2.0),
            # A re-delivery of the current revision is idempotent.
            ("ingest", "user-05", 0, 3, 3.0),
            ("tick", 3.0),
            ("ingest", "user-05", 4, 4, 4.0),
            ("tick", 4.0),
        ],
    ),
    "expiry": (
        10.0,
        _population(4, at=0.0)
        + _population(8, at=5.0)[4:]
        + [
            ("tick", 6.0),
            ("tick", 12.0),  # the first four reports have aged out
            ("tick", 13.0),
            ("purge", 13.0),
            ("tick", 13.0),
            ("ingest", "user-01", 1, 1, 14.0),  # one user reports again
            ("tick", 14.0),
            ("tick", 40.0),  # everybody expired
        ],
    ),
    "growth": (
        None,
        _population(2)
        + [("tick", 0.0)]
        + [("ingest", f"user-{i:02d}", i % N_CELLS, 0, 1.0) for i in range(2, 5)]
        + [("tick", 1.0), ("tick", 2.0)]
        + [("ingest", f"user-{i:02d}", i % N_CELLS, 0, 3.0) for i in range(5, 10)]
        + [("tick", 3.0), ("tick", 4.0)],
    ),
}


def _oracle(max_age, script):
    """Per-tick expected notifications and fresh (user -> sequence) maps."""
    reports: dict[str, tuple[int, int, float]] = {}
    ticks = []
    for event in script:
        if event[0] == "ingest":
            _, user, cell, sequence, at = event
            if user not in reports or sequence >= reports[user][1]:
                reports[user] = (cell, sequence, at)
        elif event[0] == "purge":
            now = event[1]
            reports = {
                user: report
                for user, report in reports.items()
                if max_age is None or now - report[2] <= max_age
            }
        else:
            now = event[1]
            fresh = {
                user: report
                for user, report in reports.items()
                if max_age is None or now - report[2] <= max_age
            }
            expected = [
                (user, alert_id)
                for user in sorted(fresh)
                for alert_id, cells in ZONES.items()
                if fresh[user][0] in cells
            ]
            ticks.append((expected, {user: report[1] for user, report in fresh.items()}))
    return ticks


def _run(world, options, max_age, script, engine=None, store=None, reset=False):
    """Play ``script``; returns per-tick notification keys and pairings.

    ``reset`` drops the engine's remembered outcomes before every tick, so
    each tick evaluates the whole fresh population.
    """
    hve, batches = world[1], world[3]
    engine = engine if engine is not None else MatchingEngine(hve, options)
    store = store if store is not None else CiphertextStore(max_age_seconds=max_age)
    counter = hve.group.counter
    passes, costs = [], []
    for event in script:
        if event[0] == "ingest":
            _, user, cell, sequence, at = event
            store.ingest(_update(world, user, cell, sequence), received_at=at)
        elif event[0] == "purge":
            engine.forget_users(store.purge_stale(event[1]))
        else:
            if reset:
                engine.reset_state()
            before = counter.total
            passes.append(_keys(engine.match_store(batches, store, event[1])))
            costs.append(counter.total - before)
    return passes, costs


#: The outcome axis: "kept" ticks answer unchanged (user, sequence) entries
#: from remembered outcomes; "dropped" ticks reset the engine first and
#: evaluate the whole fresh population.
OUTCOMES = {"kept": False, "dropped": True}


class TestScriptedParity:
    @pytest.mark.parametrize("script", sorted(SCRIPTS))
    @pytest.mark.parametrize("outcomes", sorted(OUTCOMES))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_ticks_match_the_oracle_and_the_scalar_pairings(self, world, mode, outcomes, script):
        max_age, events = SCRIPTS[script]
        reset = OUTCOMES[outcomes]
        passes, costs = _run(world, _options(mode), max_age, events, reset=reset)
        expected = _oracle(max_age, events)
        assert passes == [notified for notified, _ in expected]
        assert any(passes), "the script must notify someone"

        if mode != "naive":
            _, scalar_costs = _run(world, _options("scalar"), max_age, events, reset=reset)
            assert costs == scalar_costs
        if reset:
            assert all(cost > 0 for cost, (_, fresh) in zip(costs, expected) if fresh)
            return
        full, full_costs = _run(world, _options(mode), max_age, events, reset=True)
        assert full == passes
        assert sum(costs) <= sum(full_costs)
        previous = None
        for cost, (_, fresh) in zip(costs, expected):
            if fresh == previous:
                assert cost == 0, "a warm tick must be answered from remembered outcomes"
            previous = fresh


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_property_random_sessions_match_the_oracle(world_module, data):
    """Random populations, moves, re-deliveries and ages: every mode notifies
    exactly the oracle's users, and fused evaluation charges scalar pairings."""
    world = world_module
    mode = data.draw(st.sampled_from(sorted(MODES)), label="mode")
    max_age = data.draw(st.sampled_from([None, 3.0]), label="max_age")
    n_users = data.draw(st.integers(min_value=1, max_value=9), label="users")
    # One cell per (user, revision): a re-delivered revision carries the
    # same location, as it does from a real device.
    cells = [
        data.draw(st.lists(st.integers(0, N_CELLS - 1), min_size=5, max_size=5), label=f"cells{i}")
        for i in range(n_users)
    ]
    events = [("ingest", f"u{i}", cells[i][0], 0, 0.0) for i in range(n_users)]
    now = 0.0
    events.append(("tick", now))
    steps = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n_users - 1),
                st.integers(0, 4),
                st.booleans(),
            ),
            max_size=6,
        ),
        label="steps",
    )
    for who, sequence, tick in steps:
        now += 1.0
        events.append(("ingest", f"u{who}", cells[who][sequence], sequence, now))
        if tick:
            events.append(("tick", now))
    events.append(("tick", now + 1.0))

    passes, costs = _run(world, _options(mode), max_age, events)
    assert passes == [notified for notified, _ in _oracle(max_age, events)]
    if mode != "naive":
        assert costs == _run(world, _options("scalar"), max_age, events)[1]


@pytest.fixture(scope="module")
def world_module(world):
    return world


@pytest.mark.parametrize("mode", sorted(MODES))
class TestRememberedOutcomes:
    def _seed_store(self, world, store, n=6):
        for i in range(n):
            store.ingest(_update(world, f"user-{i:02d}", i), received_at=0.0)

    def test_warm_tick_costs_no_pairings(self, world, mode):
        hve, batches = world[1], world[3]
        store = CiphertextStore()
        engine = MatchingEngine(hve, _options(mode))
        self._seed_store(world, store)
        first = engine.match_store(batches, store, 0.0)
        assert engine.last_pass.zones_evaluated == 2

        before = hve.group.counter.total
        second = engine.match_store(batches, store, 1.0)
        assert hve.group.counter.total == before
        assert engine.last_pass.fused_evals == 0
        assert second == first

    def test_move_costs_exactly_the_movers_evaluation(self, world, mode):
        hve, batches = world[1], world[3]
        store = CiphertextStore()
        engine = MatchingEngine(hve, _options(mode))
        self._seed_store(world, store)
        engine.match_store(batches, store, 0.0)

        moved = _update(world, "user-02", 4, sequence=1)
        store.ingest(moved, received_at=1.0)
        before = hve.group.counter.total
        notified = _keys(engine.match_store(batches, store, 1.0))
        moved_cost = hve.group.counter.total - before
        assert ("user-02", "alert-b") in notified
        assert ("user-02", "alert-a") not in notified

        alone = MatchingEngine(hve, _options(mode))
        before = hve.group.counter.total
        alone.match(batches, [MatchCandidate("user-02", moved.ciphertext, 1)])
        assert moved_cost == hve.group.counter.total - before > 0

        before = hve.group.counter.total
        engine.match_store(batches, store, 2.0)
        assert hve.group.counter.total == before  # caught up again

    def test_expiry_drops_notifications_and_purge_empties_the_store(self, world, mode):
        hve, batches = world[1], world[3]
        store = CiphertextStore(max_age_seconds=10.0)
        engine = MatchingEngine(hve, _options(mode))
        store.ingest(_update(world, "inside", 0), received_at=0.0)
        store.ingest(_update(world, "other", 5), received_at=0.0)
        first = _keys(engine.match_store(batches, store, 1.0))
        assert first == [("inside", "alert-a"), ("other", "alert-b")]

        # Both reports expire: remembered outcomes must not resurrect them.
        assert engine.match_store(batches, store, 100.0) == []
        assert engine.last_pass.candidates == 0
        engine.forget_users(store.purge_stale(100.0))
        assert len(store) == 0
        assert all(not entry["outcomes"] for entry in engine.export_state()["alerts"].values())
        assert engine.match_store(batches, store, 100.0) == []
        # The pseudonym reports again from sequence 0, now outside both
        # zones: it is evaluated afresh, not answered from its old outcome.
        store.ingest(_update(world, "inside", 8), received_at=101.0)
        assert engine.match_store(batches, store, 101.0) == []

    def test_forget_alert_forces_re_evaluation(self, world, mode):
        hve, batches = world[1], world[3]
        store = CiphertextStore()
        engine = MatchingEngine(hve, _options(mode))
        self._seed_store(world, store)
        first = engine.match_store(batches, store, 0.0)
        engine.forget_alert("alert-a")
        assert engine.standing_alerts() == ["alert-b"]

        before = hve.group.counter.total
        again = engine.match_store(batches, store, 0.0)
        assert hve.group.counter.total > before  # no stale answer for alert-a
        assert again == first
        assert engine.standing_alerts() == ["alert-a", "alert-b"]

    def test_redeclared_zone_with_new_tokens_is_re_evaluated(self, world, mode):
        hve = world[1]
        store = CiphertextStore()
        engine = MatchingEngine(hve, _options(mode))
        store.ingest(_update(world, "user-00", 4), received_at=0.0)
        assert engine.match_store([_batch(world, "A", [0])], store, 0.0) == []

        before = hve.group.counter.total
        moved = engine.match_store([_batch(world, "A", [4])], store, 0.0)
        assert hve.group.counter.total > before
        assert _keys(moved) == [("user-00", "A")]


class TestStoreRevisions:
    def test_redelivered_revision_replaces_the_report(self, world):
        store = CiphertextStore()
        assert store.ingest(_update(world, "alice", 2, sequence=3), received_at=1.0)
        assert store.ingest(_update(world, "alice", 2, sequence=3), received_at=5.0)
        assert store.report_for("alice").reported_at == 5.0

    def test_rejected_stale_revision_keeps_the_next_tick_warm(self, world):
        hve, batches = world[1], world[3]
        store = CiphertextStore()
        engine = MatchingEngine(hve)
        store.ingest(_update(world, "alice", 0, sequence=2), received_at=0.0)
        first = engine.match_store(batches, store, 0.0)
        assert not store.ingest(_update(world, "alice", 4, sequence=1), received_at=1.0)

        before = hve.group.counter.total
        assert engine.match_store(batches, store, 1.0) == first
        assert hve.group.counter.total == before

    def test_fresh_candidates_carry_the_stored_revision(self, world):
        store = CiphertextStore(max_age_seconds=5.0)
        store.ingest(_update(world, "bob", 1, sequence=7), received_at=0.0)
        store.ingest(_update(world, "alice", 2, sequence=4), received_at=3.0)
        assert [(c.user_id, c.sequence_number) for c in store.fresh_candidates(4.0)] == [
            ("alice", 4),
            ("bob", 7),
        ]
        assert [c.user_id for c in store.fresh_candidates(6.0)] == ["alice"]


class TestPersistence:
    def test_payload_is_json_and_sorted_by_user(self, world):
        store = CiphertextStore(max_age_seconds=30.0)
        for user in ("carol", "alice", "bob"):
            store.ingest(_update(world, user, 3), received_at=1.0)
        payload = json.loads(json.dumps(store.to_payload()))
        assert [entry["user_id"] for entry in payload["reports"]] == ["alice", "bob", "carol"]
        assert payload["max_age_seconds"] == 30.0
        assert "matching_state" not in payload

    def test_from_payload_keeps_revisions_timestamps_and_outcomes(self, world):
        hve, batches = world[1], world[3]
        store = CiphertextStore(max_age_seconds=30.0)
        store.ingest(_update(world, "alice", 0, sequence=4), received_at=2.5)
        store.ingest(_update(world, "bob", 5, sequence=1), received_at=7.0)
        restored = CiphertextStore.from_payload(store.to_payload(), hve.group)
        assert restored.max_age_seconds == 30.0
        for user in ("alice", "bob"):
            assert restored.report_for(user).sequence_number == store.report_for(user).sequence_number
            assert restored.report_for(user).reported_at == store.report_for(user).reported_at
        engine = MatchingEngine(hve)
        assert engine.match_store(batches, restored, 8.0) == engine.match_store(batches, store, 8.0)

    def test_from_payload_rejects_foreign_matching_state(self, world):
        hve = world[1]
        payload = CiphertextStore().to_payload()
        payload["matching_state"] = {"kind": "something_else"}
        with pytest.raises(ValueError, match="matching-engine state"):
            CiphertextStore.from_payload(
                payload, hve.group, engine=MatchingEngine(hve)
            )

    @pytest.mark.parametrize("outcomes", sorted(OUTCOMES))
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_restore_midway_changes_nothing(self, world, mode, outcomes):
        """Stop the "movers" script after its first move, round-trip store and
        engine state through JSON, and resume in a fresh engine: outcomes and
        pairings match the uninterrupted run."""
        hve = world[1]
        max_age, events = SCRIPTS["movers"]
        split = events.index(("tick", 2.0)) + 1
        options = _options(mode)
        reset = OUTCOMES[outcomes]
        whole, whole_costs = _run(world, options, max_age, events, reset=reset)

        engine = MatchingEngine(hve, options)
        store = CiphertextStore(max_age_seconds=max_age)
        head, head_costs = _run(
            world, options, max_age, events[:split], engine=engine, store=store, reset=reset
        )
        payload = json.loads(json.dumps(store.to_payload(engine)))
        resumed_engine = MatchingEngine(hve, options)
        resumed_store = CiphertextStore.from_payload(payload, hve.group, engine=resumed_engine)
        tail, tail_costs = _run(
            world,
            options,
            max_age,
            events[split:],
            engine=resumed_engine,
            store=resumed_store,
            reset=reset,
        )
        assert head + tail == whole
        assert head_costs + tail_costs == whole_costs
        assert resumed_engine.standing_alerts() == sorted(ZONES)
        if reset:
            assert tail_costs[0] == head_costs[-1] > 0  # the same population, in full again
        else:
            assert tail_costs[0] == 0  # the tick after the restore is warm
