"""API parity: a bare ``SecureAlertSystem`` vs. the ``AlertService`` session.

Driving the same operation sequence through (a) a bare ``SecureAlertSystem``
and (b) an ``AlertService`` session produces *identical notifications* and
*bit-exact PairingCounter totals*, under both matching strategies (the
``naive`` one is the element-wise reference path), including after
``snapshot()``/``restore()``.
"""

import random

import pytest

from repro.datasets.synthetic import make_synthetic_scenario
from repro.encoding import scheme_by_name
from repro.grid.alert_zone import AlertZone, circular_alert_zone
from repro.grid.geometry import Point
from repro.protocol.alert_system import SecureAlertSystem
from repro.protocol.matching import MatchingOptions
from repro.service import AlertService, Move, PublishZone, ServiceConfig, Subscribe

SEED = 7
PRIME_BITS = 32


@pytest.fixture(scope="module")
def scenario():
    return make_synthetic_scenario(rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=20, seed=23, extent_meters=600.0)


def _script(grid):
    """A deterministic operation script: subscriptions, moves, alerts."""
    rng = random.Random(99)
    users = [(f"user-{i:02d}", grid.cell_center(rng.randrange(grid.n_cells))) for i in range(8)]
    moves = [(users[i][0], grid.cell_center(rng.randrange(grid.n_cells))) for i in (0, 3, 5)]
    zones = [
        ("alert-a", AlertZone(cell_ids=(7, 8, 13))),
        ("alert-b", AlertZone(cell_ids=(8, 14))),  # overlaps alert-a
        ("alert-c", AlertZone(cell_ids=(30, 31))),
    ]
    return users, moves, zones


def _run_system(scenario, strategy):
    """The direct path: a bare system driven through its provider."""
    users, moves, zones = _script(scenario.grid)
    system = SecureAlertSystem(
        scenario.grid,
        scenario.probabilities,
        scheme=scheme_by_name("huffman"),
        prime_bits=PRIME_BITS,
        rng=random.Random(SEED),
        matching=MatchingOptions(strategy=strategy),
    )
    # Compare pairings spent *operating* the deployment; key setup itself
    # costs one pairing per constructed system, which would skew the
    # restart-midway comparison.
    base = system.pairing_count
    notified = []
    for user_id, location in users:
        system.register_user(user_id, location)
    for alert_id, zone in zones[:2]:
        notified.append((alert_id, tuple(sorted(n.user_id for n in system.declare_alert(zone, alert_id)))))
    for user_id, location in moves:
        system.move_user(user_id, location)
    for alert_id, zone in zones[2:] + zones[:1]:
        fresh_id = f"{alert_id}-again" if alert_id == "alert-a" else alert_id
        notified.append((fresh_id, tuple(sorted(n.user_id for n in system.declare_alert(zone, fresh_id)))))
    return notified, system.pairing_count - base


def _run_service(scenario, strategy, snapshot_midway=False):
    """The session path; optionally snapshot+restore into a fresh session midway."""
    users, moves, zones = _script(scenario.grid)
    config = ServiceConfig(prime_bits=PRIME_BITS, seed=SEED, matching_strategy=strategy)
    service = AlertService(scenario.grid, scenario.probabilities, config=config)
    base = service.pairing_count
    notified = []

    def one_shot(service, alert_id, zone):
        report = service.publish_zone(
            PublishZone(alert_id=alert_id, zone=zone, standing=False)
        )
        return tuple(sorted(n.user_id for n in report.notifications))

    try:
        for user_id, location in users:
            service.subscribe(Subscribe(user_id=user_id, location=location))
        for alert_id, zone in zones[:2]:
            notified.append((alert_id, one_shot(service, alert_id, zone)))

        if snapshot_midway:
            payload = service.snapshot()
            offset = service.pairing_count - base
            service.close()
            service = AlertService(scenario.grid, scenario.probabilities, config=config)
            service.restore(payload)
            # The restarted session's counter restarts (minus its own setup
            # cost); carry the pre-restart total so the final figure is
            # comparable with an uninterrupted run.
            base = service.pairing_count
        else:
            offset = 0

        for user_id, location in moves:
            service.move(Move(user_id=user_id, location=location))
        for alert_id, zone in zones[2:] + zones[:1]:
            fresh_id = f"{alert_id}-again" if alert_id == "alert-a" else alert_id
            notified.append((fresh_id, one_shot(service, fresh_id, zone)))
        return notified, offset + service.pairing_count - base
    finally:
        service.close()


class TestParity:
    @pytest.mark.parametrize("strategy", ["planned", "naive"])
    def test_system_and_service_agree(self, scenario, strategy):
        system = _run_system(scenario, strategy)
        service = _run_service(scenario, strategy)
        assert service == system  # notifications AND bit-exact pairing totals

    def test_planned_and_naive_notify_the_same_users(self, scenario):
        assert _run_service(scenario, "planned")[0] == _run_service(scenario, "naive")[0]

    @pytest.mark.parametrize("strategy", ["planned", "naive"])
    def test_snapshot_restore_midway_changes_nothing(self, scenario, strategy):
        uninterrupted = _run_service(scenario, strategy)
        restarted = _run_service(scenario, strategy, snapshot_midway=True)
        assert restarted == uninterrupted

    def test_one_shot_circular_alert_matches_ground_truth(self):
        """The quickstart's gas-leak alert, raised as a one-shot circular zone."""
        scenario = make_synthetic_scenario(
            rows=16, cols=16, sigmoid_a=0.95, sigmoid_b=50, seed=7, extent_meters=1600.0
        )
        config = ServiceConfig(scheme="huffman", prime_bits=64, seed=11)
        with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
            service.subscribe(Subscribe(user_id="alice", location=Point(220.0, 180.0)))
            service.subscribe(Subscribe(user_id="bob", location=Point(240.0, 210.0)))
            service.subscribe(Subscribe(user_id="carol", location=Point(1400.0, 1500.0)))
            zone = circular_alert_zone(scenario.grid, Point(230.0, 200.0), 120.0, label="gas-leak-42")
            report = service.publish_zone(PublishZone(alert_id="gas-leak-42", zone=zone, standing=False))
            assert report.notified_users == ("alice", "bob")
            assert list(report.notified_users) == service.users_actually_in_zone(zone)
