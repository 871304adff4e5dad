"""Scripted AlertService sessions against plaintext ground truth.

One script -- subscriptions, standing zones, ticks, moves, a one-shot zone, a
retraction and report expiry -- is driven through a session for every
encoding scheme, both matching strategies and with and without incremental
re-evaluation.  Every match report must notify exactly the fresh users the
plaintext registry places inside the evaluated zones, and in incremental mode
a tick over an unchanged population must cost no pairings.  Stopping the
session midway and restoring its snapshot into a new session must change
neither notifications nor pairing totals.
"""

import json
import random

import pytest

from repro.datasets.synthetic import make_synthetic_scenario
from repro.encoding import SCHEME_NAMES
from repro.grid.alert_zone import AlertZone
from repro.service import (
    AlertService,
    EvaluateStanding,
    Move,
    PublishZone,
    RetractZone,
    ServiceConfig,
    Subscribe,
)

MAX_AGE = 50.0


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
        ("move", ("user-02", grid.cell_center(13)), 56.0),
        ("tick", None, 57.0),
    ]
    return steps


def _fresh_users(service, last_report_at, now):
    return {user for user, at in last_report_at.items() if now - at <= MAX_AGE}


def _drive(service, scenario, steps, check=True, state=None):
    """Run ``steps``; returns per-report notification keys and candidate counts."""
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
            if kind == "tick" and service.config.incremental:
                snapshot = ({u: reported[u] for u in fresh}, tuple(zones))
                if snapshot == state["last_fresh"]:
                    assert report.pairings_spent == 0
                    assert report.fused_evals == 0
                state["last_fresh"] = snapshot
        outcomes.append([(n.user_id, n.alert_id) for n in report.notifications])
        candidates.append(report.candidates)
    return outcomes, candidates


def _config(scheme, strategy, incremental):
    return ServiceConfig(
        scheme=scheme,
        prime_bits=32,
        seed=5,
        matching_strategy=strategy,
        incremental=incremental,
        max_age_seconds=MAX_AGE,
    )


@pytest.mark.parametrize("incremental", [False, True])
@pytest.mark.parametrize("strategy", ["planned", "naive"])
@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_session_matches_plaintext_ground_truth(scenario, scheme, strategy, incremental):
    config = _config(scheme, strategy, incremental)
    with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
        outcomes, candidates = _drive(service, scenario, _script(scenario.grid))
    assert any(outcomes), "the script must notify someone"
    # The tick at t=55 sees only the reports younger than MAX_AGE.
    assert candidates[-2] < candidates[-3] == 10


@pytest.mark.parametrize("incremental", [False, True])
@pytest.mark.parametrize("strategy", ["planned", "naive"])
def test_snapshot_restore_midway_changes_nothing(scenario, strategy, incremental):
    steps = _script(scenario.grid)
    split = steps.index(("one_shot", ("flash", (0, 1, 6)), 15.0))
    config = _config("huffman", strategy, incremental)

    with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
        base = service.pairing_count
        whole, _ = _drive(service, scenario, steps, check=False)
        whole_pairings = service.pairing_count - base

    with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
        base = service.pairing_count
        state = {"zones": {}, "reported": {}, "last_fresh": None}
        head, _ = _drive(service, scenario, steps[:split], state=state)
        payload = json.loads(json.dumps(service.snapshot()))
        head_pairings = service.pairing_count - base
    with AlertService(scenario.grid, scenario.probabilities, config=config) as restored:
        restored.restore(payload)
        base = restored.pairing_count
        # The restored session holds no plaintext registry to check against;
        # the uninterrupted run is the reference.
        tail, _ = _drive(restored, scenario, steps[split:], check=False, state=state)
        tail_pairings = restored.pairing_count - base

    assert head + tail == whole
    assert head_pairings + tail_pairings == whole_pairings
