"""Tests for the end-to-end SecureAlertSystem."""

import random

import pytest

from repro.encoding.balanced import BalancedTreeEncodingScheme
from repro.grid.alert_zone import AlertZone, circular_alert_zone
from repro.grid.geometry import Point
from repro.protocol.alert_system import SecureAlertSystem


@pytest.fixture(scope="module")
def system(request):
    from repro.datasets.synthetic import make_synthetic_scenario

    scenario = make_synthetic_scenario(rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=20, seed=21, extent_meters=600.0)
    system = SecureAlertSystem(
        scenario.grid,
        scenario.probabilities,
        prime_bits=32,
        rng=random.Random(3),
    )
    return system, scenario


class TestLifecycle:
    def test_registration_and_duplicate_rejection(self, system):
        alert_system, scenario = system
        alert_system.register_user("alice", scenario.grid.cell_center(7))
        with pytest.raises(ValueError):
            alert_system.register_user("alice", scenario.grid.cell_center(8))
        assert alert_system.provider.subscriber_count >= 1

    def test_unknown_user_movement_rejected(self, system):
        alert_system, scenario = system
        with pytest.raises(KeyError):
            alert_system.move_user("ghost", Point(0, 0))

    def test_alert_notifies_exactly_ground_truth(self, system):
        alert_system, scenario = system
        alert_system.register_user("bob", scenario.grid.cell_center(14))
        alert_system.register_user("carol", scenario.grid.cell_center(30))
        zone = AlertZone(cell_ids=(14, 15, 20))
        notifications = alert_system.declare_alert(zone, alert_id="incident-1")
        notified = sorted(n.user_id for n in notifications)
        assert notified == alert_system.users_in_zone(zone)
        assert "bob" in notified and "carol" not in notified

    def test_movement_changes_alert_outcome(self, system):
        alert_system, scenario = system
        alert_system.register_user("dave", scenario.grid.cell_center(0))
        zone = AlertZone(cell_ids=(35,))
        assert "dave" not in [n.user_id for n in alert_system.declare_alert(zone, alert_id="pre-move")]
        alert_system.move_user("dave", scenario.grid.cell_center(35))
        assert "dave" in [n.user_id for n in alert_system.declare_alert(zone, alert_id="post-move")]

    def test_pairing_count_increases_with_alerts(self, system):
        alert_system, scenario = system
        before = alert_system.pairing_count
        alert_system.declare_alert(AlertZone(cell_ids=(1, 2)), alert_id="count-check")
        assert alert_system.pairing_count > before

    def test_one_shot_alerts_leave_no_engine_state(self, system):
        """Repeating an alert pays its pairings again: nothing is remembered."""
        alert_system, scenario = system
        alert_system.register_user("erin", scenario.grid.cell_center(9))
        zone = AlertZone(cell_ids=(9, 10))
        before = alert_system.pairing_count
        first = alert_system.declare_alert(zone, alert_id="repeat")
        spent = alert_system.pairing_count - before
        assert alert_system.provider.engine.standing_alerts() == []
        assert alert_system.declare_alert(zone, alert_id="repeat") == first
        assert alert_system.pairing_count - before == 2 * spent
        assert alert_system.provider.engine.standing_alerts() == []

    def test_issue_token_batch_without_matching(self, system):
        alert_system, scenario = system
        batch = alert_system.issue_token_batch(AlertZone(cell_ids=(3,)), alert_id="tokens-only")
        assert batch.alert_id == "tokens-only"
        assert len(batch.tokens) >= 1


class TestInitStats:
    def test_init_stats_populated(self, system):
        alert_system, scenario = system
        stats = alert_system.init_stats
        assert stats.n_cells == scenario.grid.n_cells
        assert stats.reference_length >= 1
        assert stats.encoding_seconds >= 0.0
        assert stats.key_setup_seconds >= 0.0
        assert stats.total_seconds == pytest.approx(stats.encoding_seconds + stats.key_setup_seconds)


class TestAlternativeSchemes:
    def test_balanced_scheme_end_to_end(self):
        from repro.datasets.synthetic import make_synthetic_scenario

        scenario = make_synthetic_scenario(rows=4, cols=4, seed=9, extent_meters=400.0)
        system = SecureAlertSystem(
            scenario.grid,
            scenario.probabilities,
            scheme=BalancedTreeEncodingScheme(),
            prime_bits=32,
            rng=random.Random(10),
        )
        system.register_user("erin", scenario.grid.cell_center(5))
        zone = circular_alert_zone(scenario.grid, scenario.grid.cell_center(5), radius=50.0)
        notified = [n.user_id for n in system.declare_alert(zone, alert_id="balanced")]
        assert notified == ["erin"]
