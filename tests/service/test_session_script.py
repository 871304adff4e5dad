"""Scripted AlertService sessions against plaintext ground truth.

One script -- subscriptions, standing zones, ticks, moves, a one-shot zone, a
retraction and report expiry -- is driven through a session for every
encoding scheme and both matching strategies.  Every match report must notify
exactly the fresh users the plaintext registry places inside the evaluated
zones, and a tick over an unchanged population must cost no pairings.
Stopping the session midway and restoring its snapshot into a new session
must change neither notifications nor pairing totals.  A hypothesis property
drives random subscribe / move / tick / expire sessions and checks every
warm tick against an engine without remembered outcomes.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import make_synthetic_scenario
from repro.encoding import SCHEME_NAMES
from repro.grid.alert_zone import AlertZone
from repro.protocol.matching import MatchingEngine
from repro.service import (
    AlertService,
    EvaluateStanding,
    IngestBatch,
    Move,
    PublishZone,
    RetractZone,
    ServiceConfig,
    Subscribe,
)

MAX_AGE = 50.0

#: "kept" ticks answer unchanged (user, sequence) entries from remembered
#: outcomes; "dropped" ticks reset the engine first and evaluate everyone.
OUTCOMES = ("kept", "dropped")


@pytest.fixture(scope="module")
def scenario():
    return make_synthetic_scenario(rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=20, seed=17, extent_meters=600.0)


def _script(grid):
    """Deterministic steps: (kind, payload, at)."""
    rng = random.Random(2024)
    cells = lambda: grid.cell_center(rng.randrange(grid.n_cells))  # noqa: E731
    steps = [("subscribe", (f"user-{i:02d}", cells()), float(i)) for i in range(8)]
    # Two users inside the first zone for certain, so it always notifies.
    steps += [("subscribe", ("inside-a", grid.cell_center(8)), 8.0)]
    steps += [("subscribe", ("inside-b", grid.cell_center(21)), 8.0)]
    steps += [
        ("standing", ("zone-a", (7, 8, 9, 13, 14, 15)), 10.0),
        ("standing", ("zone-b", (20, 21, 26, 27)), 10.0),
        ("tick", None, 11.0),
        ("tick", None, 12.0),  # warm
        ("move", ("user-01", grid.cell_center(14)), 13.0),
        ("move", ("inside-b", grid.cell_center(0)), 13.0),
        ("tick", None, 14.0),
        ("one_shot", ("flash", (0, 1, 6)), 15.0),
        ("tick", None, 16.0),  # warm again: the one-shot zone left no state
        ("retract", "zone-b", 17.0),
        ("move", ("user-05", grid.cell_center(9)), 18.0),
        ("tick", None, 19.0),
        ("tick", None, 55.0),  # the first subscribers' reports have expired
        ("subscribe", ("user-02", grid.cell_center(13)), 56.0),  # back after expiry
        ("tick", None, 57.0),
    ]
    return steps


def _fresh_users(service, last_report_at, now):
    return {user for user, at in last_report_at.items() if now - at <= MAX_AGE}


def _drive(service, scenario, steps, check=True, state=None, outcomes="kept"):
    """Run ``steps``; returns per-report notification keys and candidate counts.

    With ``outcomes="dropped"`` the engine forgets its remembered outcomes
    before every standing tick, so each tick pays a full evaluation.
    """
    state = state if state is not None else {"zones": {}, "reported": {}, "last_fresh": None}
    zones, reported = state["zones"], state["reported"]
    outcomes, candidates = [], []
    for kind, payload, at in steps:
        report = None
        if kind == "subscribe":
            service.subscribe(Subscribe(user_id=payload[0], location=payload[1], at=at))
            reported[payload[0]] = at
        elif kind == "move":
            service.move(Move(user_id=payload[0], location=payload[1], at=at))
            reported[payload[0]] = at
        elif kind == "standing":
            zones[payload[0]] = AlertZone(cell_ids=payload[1])
            service.publish_zone(PublishZone(alert_id=payload[0], zone=zones[payload[0]], evaluate=False, at=at))
        elif kind == "retract":
            assert service.retract_zone(RetractZone(alert_id=payload, at=at)).existed
            del zones[payload]
        elif kind == "one_shot":
            zone = AlertZone(cell_ids=payload[1])
            report = service.publish_zone(PublishZone(alert_id=payload[0], zone=zone, standing=False, at=at))
            evaluated = {payload[0]: zone}
        else:
            if outcomes == "dropped":
                service.engine.reset_state()
            report = service.evaluate_standing(EvaluateStanding(at=at))
            evaluated = dict(zones)
        if report is None:
            continue
        fresh = _fresh_users(service, reported, at)
        if check:
            expected = sorted(
                (user, alert_id)
                for alert_id, zone in evaluated.items()
                for user in service.users_actually_in_zone(zone)
                if user in fresh
            )
            assert sorted((n.user_id, n.alert_id) for n in report.notifications) == expected
            assert report.candidates == len(fresh)
            if kind == "one_shot":
                assert payload[0] not in service.engine.standing_alerts()
            if kind == "tick":
                snapshot = ({u: reported[u] for u in fresh}, tuple(zones))
                if outcomes == "dropped":
                    assert (report.pairings_spent > 0) == bool(fresh and zones)
                elif snapshot == state["last_fresh"]:
                    assert report.pairings_spent == 0
                    assert report.fused_evals == 0
                state["last_fresh"] = snapshot
        outcomes.append([(n.user_id, n.alert_id) for n in report.notifications])
        candidates.append(report.candidates)
    return outcomes, candidates


def _config(scheme, strategy):
    return ServiceConfig(
        scheme=scheme,
        prime_bits=32,
        seed=5,
        matching_strategy=strategy,
        max_age_seconds=MAX_AGE,
    )


@pytest.mark.parametrize("outcomes", OUTCOMES)
@pytest.mark.parametrize("strategy", ["planned", "naive"])
@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_session_matches_plaintext_ground_truth(scenario, scheme, strategy, outcomes):
    config = _config(scheme, strategy)
    with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
        notified, candidates = _drive(service, scenario, _script(scenario.grid), outcomes=outcomes)
    assert any(notified), "the script must notify someone"
    # The tick at t=55 sees only the reports younger than MAX_AGE.
    assert candidates[-2] < candidates[-3] == 10


@pytest.mark.parametrize("outcomes", OUTCOMES)
@pytest.mark.parametrize("strategy", ["planned", "naive"])
def test_snapshot_restore_midway_changes_nothing(scenario, strategy, outcomes):
    steps = _script(scenario.grid)
    split = steps.index(("one_shot", ("flash", (0, 1, 6)), 15.0))
    config = _config("huffman", strategy)

    with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
        base = service.pairing_count
        whole, _ = _drive(service, scenario, steps, check=False, outcomes=outcomes)
        whole_pairings = service.pairing_count - base

    with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
        base = service.pairing_count
        state = {"zones": {}, "reported": {}, "last_fresh": None}
        head, _ = _drive(service, scenario, steps[:split], state=state, outcomes=outcomes)
        payload = json.loads(json.dumps(service.snapshot()))
        head_pairings = service.pairing_count - base
    with AlertService(scenario.grid, scenario.probabilities, config=config) as restored:
        restored.restore(payload)
        base = restored.pairing_count
        # The restored session holds no plaintext registry to check against;
        # the uninterrupted run is the reference.
        tail, _ = _drive(
            restored, scenario, steps[split:], check=False, state=state, outcomes=outcomes
        )
        tail_pairings = restored.pairing_count - base

    assert head + tail == whole
    assert head_pairings + tail_pairings == whole_pairings


#: Random session steps: a user reports from a cell (Move when the session
#: hosts the pseudonym, Subscribe when it is new or was purged), a hosted
#: device restarts and re-uploads its stored sequence number from a cell, a
#: standing tick, or the clock jumps ahead so that older reports expire.
#: Half the cells lie inside a zone, so a report often flips an outcome.
CELLS = [8, 14, 21, 0, 3, 30]
STEP = st.one_of(
    st.tuples(st.just("report"), st.integers(0, 3), st.sampled_from(CELLS)),
    st.tuples(st.just("restart"), st.integers(0, 3), st.sampled_from(CELLS)),
    st.tuples(st.just("tick")),
    st.tuples(st.just("wait"), st.floats(1.0, 2 * MAX_AGE)),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=st.lists(STEP, max_size=16), strategy=st.sampled_from(["planned", "naive"]))
# A pseudonym purged on expiry subscribes again from sequence 0 at a cell
# outside the zone it matched before.
@example(
    steps=[("report", 0, 8), ("tick",), ("wait", 60.0), ("tick",), ("report", 0, 0)],
    strategy="planned",
)
# A device re-uploads its stored sequence number from a cell inside a zone.
@example(steps=[("report", 0, 0), ("tick",), ("restart", 0, 8)], strategy="planned")
def test_property_warm_ticks_equal_a_fresh_engine(scenario, steps, strategy):
    """Over random subscribe / move / restart / tick / expire sessions with a
    fixed standing set, every tick notifies what the plaintext oracle and an
    engine without remembered outcomes notify, and is charged exactly what a
    fresh engine charges for the candidates whose (user, sequence) changed,
    or whose ciphertext was replaced, since the previous tick."""
    grid = scenario.grid
    zones = {"zone-a": AlertZone(cell_ids=(7, 8, 9, 13, 14, 15)), "zone-b": AlertZone(cell_ids=(20, 21, 27))}
    with AlertService(grid, scenario.probabilities, config=_config("huffman", strategy)) as service:
        for alert_id, zone in zones.items():
            service.publish_zone(PublishZone(alert_id=alert_id, zone=zone, evaluate=False, at=0.0))
        batches = [service.standing_zone(alert_id).batch for alert_id in zones]
        counter = service.system.authority.group.counter
        reported, previous, restarted, now = {}, set(), set(), 0.0
        for step in steps + [("tick",)]:
            now += 1.0
            if step[0] == "restart" and f"user-{step[1]}" in service.system.users:
                user_id = f"user-{step[1]}"
                user = service.system.users[user_id]
                user.move_to(grid.cell_center(step[2]))
                authority = service.system.authority
                update = user.report_location(
                    grid, authority.public_encoding(), authority.hve, authority.public_key
                )
                stored = service.store.report_for(user_id).sequence_number
                update = dataclasses.replace(update, sequence_number=stored)
                service.ingest_batch(IngestBatch(updates=(update,), evaluate=False, at=now))
                reported[user_id] = now
                restarted.add(user_id)
                continue
            if step[0] in ("report", "restart"):
                user_id, location = f"user-{step[1]}", grid.cell_center(step[2])
                if user_id in service.system.users:
                    service.move(Move(user_id=user_id, location=location, at=now))
                else:
                    service.subscribe(Subscribe(user_id=user_id, location=location, at=now))
                reported[user_id] = now
                continue
            if step[0] == "wait":
                now += step[1]
                continue
            report = service.evaluate_standing(EvaluateStanding(at=now))
            candidates = service.store.fresh_candidates(now)
            fresh = _fresh_users(service, reported, now)
            assert {c.user_id for c in candidates} == fresh
            assert len(service.store) == len(fresh)  # the tick purged the expired
            expected = sorted(
                (user, alert_id)
                for alert_id, zone in zones.items()
                for user in service.users_actually_in_zone(zone)
                if user in fresh
            )
            notified = [(n.user_id, n.alert_id) for n in report.notifications]
            assert sorted(notified) == expected
            reference = MatchingEngine(service.engine.hve, service.engine.options)
            assert [(n.user_id, n.alert_id) for n in reference.match(batches, candidates)] == notified
            changed = [
                c
                for c in candidates
                if (c.user_id, c.sequence_number) not in previous or c.user_id in restarted
            ]
            before = counter.total
            MatchingEngine(service.engine.hve, service.engine.options).match(batches, changed)
            assert report.pairings_spent == counter.total - before
            previous = {(c.user_id, c.sequence_number) for c in candidates}
            restarted = set()
