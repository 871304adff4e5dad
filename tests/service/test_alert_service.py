"""Behavioural tests for the session-oriented AlertService."""

import json

import pytest

from repro.datasets.synthetic import make_synthetic_scenario
from repro.protocol.messages import LocationUpdate
from repro.service import (
    AlertService,
    EvaluateStanding,
    IngestBatch,
    IngestReceipt,
    MatchReport,
    Move,
    PublishZone,
    RetractZone,
    ServiceConfig,
    Subscribe,
)
from repro.grid.alert_zone import AlertZone, circular_alert_zone


@pytest.fixture(scope="module")
def scenario():
    return make_synthetic_scenario(rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=20, seed=41, extent_meters=600.0)


def make_service(scenario, **config_kwargs):
    config_kwargs.setdefault("prime_bits", 32)
    config_kwargs.setdefault("seed", 7)
    return AlertService(scenario.grid, scenario.probabilities, config=ServiceConfig(**config_kwargs))


class TestRequests:
    def test_subscribe_and_move_receipts(self, scenario):
        with make_service(scenario) as service:
            receipt = service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(7)))
            assert receipt == IngestReceipt(user_id="alice", sequence_number=0, stored=True)
            receipt = service.move(Move(user_id="alice", location=scenario.grid.cell_center(8)))
            assert receipt.sequence_number == 1
            assert service.subscriber_count == 1

    def test_duplicate_subscribe_rejected(self, scenario):
        with make_service(scenario) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(7)))
            with pytest.raises(ValueError):
                service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(8)))

    def test_move_of_unknown_user_rejected(self, scenario):
        with make_service(scenario) as service:
            with pytest.raises(KeyError):
                service.move(Move(user_id="ghost", location=scenario.grid.cell_center(3)))

    def test_publish_standing_zone_and_tick(self, scenario):
        with make_service(scenario) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(7)))
            service.subscribe(Subscribe(user_id="bob", location=scenario.grid.cell_center(28)))
            report = service.publish_zone(PublishZone(alert_id="z", zone=AlertZone(cell_ids=(7, 8))))
            assert isinstance(report, MatchReport)
            assert report.notified_users == ("alice",)
            assert report.plan_reused is False
            assert service.standing_zones() == ("z",)

            # Bob walks into the zone: the warm tick reuses the cached plan.
            service.move(Move(user_id="bob", location=scenario.grid.cell_center(8)))
            tick = service.evaluate_standing()
            assert tick.notified_users == ("alice", "bob")
            assert tick.plan_reused is True

    def test_one_shot_zone_is_not_standing(self, scenario):
        with make_service(scenario) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(7)))
            report = service.publish_zone(
                PublishZone(alert_id="once", zone=AlertZone(cell_ids=(7,)), standing=False)
            )
            assert report.notified_users == ("alice",)
            assert service.standing_zones() == ()

    def test_interleaved_one_shot_does_not_evict_the_standing_plan(self, scenario):
        """Regression: a one-shot alert between warm ticks must not force the
        standing set's plan to be rebuilt (the engine keeps a small LRU, not a
        single cache slot)."""
        with make_service(scenario) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(7)))
            service.publish_zone(PublishZone(alert_id="standing", zone=AlertZone(cell_ids=(7, 8))))
            service.evaluate_standing()
            builds_before = service.engine.plan_builds
            service.publish_zone(
                PublishZone(alert_id="once", zone=AlertZone(cell_ids=(30,)), standing=False)
            )
            tick = service.evaluate_standing()
            assert tick.plan_reused is True
            # Exactly one new plan (the one-shot's); the standing plan survived.
            assert service.engine.plan_builds == builds_before + 1

    def test_retract_zone(self, scenario):
        with make_service(scenario) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(7)))
            service.publish_zone(PublishZone(alert_id="z", zone=AlertZone(cell_ids=(7,)), evaluate=False))
            receipt = service.retract_zone(RetractZone(alert_id="z"))
            assert receipt.existed is True
            assert service.standing_zones() == ()
            assert service.retract_zone(RetractZone(alert_id="z")).existed is False
            assert service.evaluate_standing().alerts_evaluated == ()

    def test_ingest_batch_evaluates_standing_zones(self, scenario):
        with make_service(scenario) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(0)))
            service.publish_zone(PublishZone(alert_id="z", zone=AlertZone(cell_ids=(7,)), evaluate=False))
            # Raw provider-side ingress: ship alice's fresh ciphertext from a
            # hosted user object, as an external queue would.
            user = service.system.users["alice"]
            user.move_to(scenario.grid.cell_center(7))
            update = user.report_location(
                grid=service.grid,
                encoding=service.system.authority.public_encoding(),
                hve=service.system.authority.hve,
                public_key=service.system.authority.public_key,
            )
            report = service.ingest_batch(IngestBatch(updates=(update,)))
            assert report.notified_users == ("alice",)

    def test_handle_dispatches_every_request_type(self, scenario):
        with make_service(scenario) as service:
            assert isinstance(
                service.handle(Subscribe(user_id="u", location=scenario.grid.cell_center(2))),
                IngestReceipt,
            )
            assert isinstance(
                service.handle(PublishZone(alert_id="z", zone=AlertZone(cell_ids=(2,)))), MatchReport
            )
            assert isinstance(service.handle(EvaluateStanding()), MatchReport)
            assert isinstance(service.handle(IngestBatch(updates=())), MatchReport)
            assert service.handle(RetractZone(alert_id="z")).existed is True
            with pytest.raises(TypeError, match="unsupported request"):
                service.handle("subscribe")

    def test_publish_zone_validates_shape(self, scenario):
        with pytest.raises(ValueError, match="exactly one"):
            PublishZone(alert_id="z")
        with pytest.raises(ValueError, match="exactly one"):
            PublishZone(alert_id="z", zone=AlertZone(cell_ids=(1,)), radius=5.0)
        with pytest.raises(ValueError, match="both"):
            PublishZone(alert_id="z", radius=5.0)


class TestFreshness:
    def test_expired_reports_are_not_matched(self, scenario):
        grid = scenario.grid
        with AlertService(
            grid,
            scenario.probabilities,
            config=ServiceConfig(prime_bits=32, seed=7, max_age_seconds=10.0),
        ) as service:
            service.subscribe(Subscribe(user_id="alice", location=grid.cell_center(7), at=0.0))
            service.subscribe(Subscribe(user_id="bob", location=grid.cell_center(7), at=8.0))
            report = service.publish_zone(
                PublishZone(alert_id="z", zone=AlertZone(cell_ids=(7,)), at=15.0)
            )
            # Alice's report (age 15) expired; bob's (age 7) is still fresh.
            assert report.notified_users == ("bob",)
            assert report.candidates == 1
            # A standing zone that matched alice while she was fresh must
            # drop her once her report ages out, remembered outcome or not.
            service.publish_zone(
                PublishZone(alert_id="s", zone=AlertZone(cell_ids=(7,)), evaluate=False)
            )
            service.subscribe(Subscribe(user_id="carol", location=grid.cell_center(7), at=16.0))
            assert service.evaluate_standing(EvaluateStanding(at=16.0)).notified_users == (
                "bob",
                "carol",
            )
            assert service.evaluate_standing(EvaluateStanding(at=20.0)).notified_users == ("carol",)

            # Fifty users subscribe and expire: the tick at t=100 purges
            # their reports and the engine's outcomes for them.
            crowd = [f"crowd-{i:02d}" for i in range(50)]
            for i, user_id in enumerate(crowd):
                cell = i % grid.n_cells
                service.subscribe(Subscribe(user_id=user_id, location=grid.cell_center(cell), at=30.0))
            tick = service.evaluate_standing(EvaluateStanding(at=31.0))
            assert tick.candidates == 50
            assert tick.notified_users == ("crowd-07", "crowd-43")
            assert service.evaluate_standing(EvaluateStanding(at=100.0)).candidates == 0
            assert len(service.store) == 0
            assert service.engine.export_state()["alerts"]["s"]["outcomes"] == {}

            # A purged pseudonym re-subscribes and matches at its new cell.
            receipt = service.subscribe(
                Subscribe(user_id="crowd-03", location=grid.cell_center(7), at=101.0)
            )
            assert receipt.stored is True
            tick = service.evaluate_standing(EvaluateStanding(at=101.0))
            assert tick.notified_users == ("crowd-03",)

    def test_purged_device_restarting_at_sequence_zero_is_evaluated_afresh(self, scenario):
        """A device whose report expired uploads sequence 0 again from a new
        cell: the standing zone must see the new ciphertext, not the outcome
        remembered for the old sequence-0 report."""
        grid = scenario.grid
        with AlertService(
            grid,
            scenario.probabilities,
            config=ServiceConfig(prime_bits=32, seed=7, max_age_seconds=10.0),
        ) as service:
            authority = service.system.authority

            def upload(cell, at):
                ciphertext = authority.hve.encrypt(
                    authority.public_key, authority.public_encoding().index_of(cell)
                )
                update = LocationUpdate(user_id="device", ciphertext=ciphertext, sequence_number=0)
                return service.ingest_batch(IngestBatch(updates=(update,), at=at))

            service.publish_zone(
                PublishZone(alert_id="s", zone=AlertZone(cell_ids=(7,)), evaluate=False)
            )
            assert upload(7, at=0.0).notified_users == ("device",)
            assert service.evaluate_standing(EvaluateStanding(at=50.0)).candidates == 0
            assert "device" not in service.store
            assert upload(3, at=51.0).notified_users == ()
            warm = service.evaluate_standing(EvaluateStanding(at=52.0))
            assert (warm.notified_users, warm.pairings_spent) == ((), 0)

    def test_same_sequence_upload_from_a_new_cell_is_matched_there(self, scenario):
        """Without expiry a restarted device's sequence-0 upload replaces its
        stored sequence-0 report: the standing zone must answer from the new
        ciphertext, not the outcome remembered for the old one."""
        with make_service(scenario) as service:
            authority = service.system.authority

            def upload(cell):
                ciphertext = authority.hve.encrypt(
                    authority.public_key, authority.public_encoding().index_of(cell)
                )
                update = LocationUpdate(user_id="device", ciphertext=ciphertext, sequence_number=0)
                return service.ingest_batch(IngestBatch(updates=(update,)))

            service.publish_zone(
                PublishZone(alert_id="s", zone=AlertZone(cell_ids=(7,)), evaluate=False)
            )
            assert upload(3).notified_users == ()
            moved = upload(7)
            assert moved.notified_users == ("device",)
            assert moved.pairings_spent > 0
            # Re-delivering the stored ciphertext changes nothing and costs nothing.
            stored = service.store.report_for("device")
            redelivered = service.ingest_batch(
                IngestBatch(updates=(LocationUpdate("device", stored.ciphertext, 0),))
            )
            assert (redelivered.notified_users, redelivered.pairings_spent) == (("device",), 0)


class TestObserverMetrics:
    def test_every_request_emits_metrics(self, scenario):
        with make_service(scenario) as service:
            seen = []
            service.add_observer(seen.append)
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(7)))
            service.publish_zone(PublishZone(alert_id="z", zone=AlertZone(cell_ids=(7,))))
            service.evaluate_standing()
            assert [m.request for m in seen] == ["subscribe", "publish_zone", "evaluate_standing"]
            assert seen[1].pairings_spent > 0
            assert seen[1].plan_reused is False
            assert seen[2].plan_reused is True
            service.remove_observer(seen.append)

    def test_session_stats_aggregate(self, scenario):
        with make_service(scenario) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(7)))
            service.publish_zone(PublishZone(alert_id="z", zone=AlertZone(cell_ids=(7,))))
            service.evaluate_standing()
            service.evaluate_standing()
            stats = service.session_stats()
            assert stats.requests_handled == 4
            assert stats.plan_builds == 1
            assert stats.plan_reuses == 2
            assert stats.pairings_spent == service.pairing_count > 0


class TestSnapshotRestore:
    def test_round_trip_preserves_store_zones_and_state(self, scenario, tmp_path):
        path = tmp_path / "session.json"
        with make_service(scenario) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(7)))
            service.subscribe(Subscribe(user_id="bob", location=scenario.grid.cell_center(28)))
            service.publish_zone(
                PublishZone(alert_id="z", zone=AlertZone(cell_ids=(7, 8)), description="danger")
            )
            first = service.evaluate_standing()
            service.snapshot(path)

            with make_service(scenario) as restored:
                restored.restore(path)
                assert restored.subscriber_count == 2
                assert restored.standing_zones() == ("z",)
                assert restored.standing_zone("z").description == "danger"
                assert restored.clock == service.clock
                # Remembered outcomes answer the warm tick without pairings.
                before = restored.pairing_count
                tick = restored.evaluate_standing()
                assert tick.notifications == first.notifications
                assert restored.pairing_count == before

    def test_restored_user_can_move_again(self, scenario, tmp_path):
        path = tmp_path / "session.json"
        with make_service(scenario) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(0)))
            service.publish_zone(PublishZone(alert_id="z", zone=AlertZone(cell_ids=(7,)), evaluate=False))
            service.snapshot(path)

            with make_service(scenario) as restored:
                restored.restore(path)
                # Alice is in the store but not in the fresh in-memory registry;
                # Move re-attaches her with the next sequence number.
                receipt = restored.move(Move(user_id="alice", location=scenario.grid.cell_center(7)))
                assert receipt.sequence_number == 1
                assert restored.evaluate_standing().notified_users == ("alice",)

    def test_restore_reconciles_a_live_user_registry(self, scenario):
        """Regression: restoring over a session whose in-memory users lag the
        snapshot's sequence numbers must not make later moves upload stale
        (silently dropped) updates."""
        with make_service(scenario) as donor:
            donor.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(6)))
            for _ in range(3):  # alice's stored sequence advances to 3
                donor.move(Move(user_id="alice", location=scenario.grid.cell_center(6)))
            payload = donor.snapshot()

        with make_service(scenario) as service:
            # This session hosts alice at sequence 0 and a user the snapshot
            # does not know at all.
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(1)))
            service.subscribe(Subscribe(user_id="stranger", location=scenario.grid.cell_center(2)))
            service.restore(payload)
            assert "stranger" not in service.system.users
            receipt = service.move(Move(user_id="alice", location=scenario.grid.cell_center(2)))
            assert receipt.stored is True
            assert receipt.sequence_number == 4
            service.publish_zone(PublishZone(alert_id="z", zone=AlertZone(cell_ids=(2,)), evaluate=False))
            assert service.evaluate_standing().notified_users == ("alice",)

    def test_stale_ingest_reports_stored_false(self, scenario):
        """Regression: a dropped (stale-sequence) upload must not claim stored=True."""
        with make_service(scenario) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(6)))
            stale = service.store.report_for("alice")
            donor = service.system.users["alice"]
            fresh_update = donor.report_location(
                grid=service.grid,
                encoding=service.system.authority.public_encoding(),
                hve=service.system.authority.hve,
                public_key=service.system.authority.public_key,
            )
            service.ingest_batch(IngestBatch(updates=(fresh_update,), evaluate=False))
            # Re-delivering the original sequence-0 update is dropped...
            original = LocationUpdate(
                user_id="alice", ciphertext=stale.ciphertext, sequence_number=0
            )
            service.ingest_batch(IngestBatch(updates=(original,), evaluate=False))
            assert service.store.report_for("alice").sequence_number == 1
            # ...and a receipt built right after the drop says so.
            assert service._receipt_for("alice").stored is False

    def test_resubscribe_after_restore_resumes_the_sequence(self, scenario):
        """Regression: a client reconnecting via Subscribe after a restore
        must supersede the restored report, not restart at sequence 0 (which
        the store would silently drop forever after)."""
        with make_service(scenario) as donor:
            donor.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(6)))
            donor.publish_zone(PublishZone(alert_id="z", zone=AlertZone(cell_ids=(2,)), evaluate=False))
            for _ in range(3):
                donor.move(Move(user_id="alice", location=scenario.grid.cell_center(6)))
                assert donor.evaluate_standing().notified_users == ()
            payload = donor.snapshot()

        with make_service(scenario) as service:
            service.restore(payload)
            receipt = service.subscribe(
                Subscribe(user_id="alice", location=scenario.grid.cell_center(2))
            )
            assert receipt.stored is True
            assert receipt.sequence_number == 4
            assert service.evaluate_standing().notified_users == ("alice",)

    def test_snapshot_is_json_and_restore_rejects_foreign_payload(self, scenario):
        with make_service(scenario) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(7)))
            payload = json.loads(json.dumps(service.snapshot()))
            assert payload["kind"] == "alert_service_state"
            with pytest.raises(ValueError, match="alert-service"):
                service.restore({"kind": "other"})
            service.restore(payload)
            assert service.subscriber_count == 1


def one_shot(service, alert_id, zone):
    """Raise a one-shot alert: evaluated once, never kept standing."""
    return service.publish_zone(PublishZone(alert_id=alert_id, zone=zone, standing=False))


@pytest.fixture(scope="module")
def one_shot_service(scenario):
    with make_service(scenario) as service:
        service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(7)))
        service.subscribe(Subscribe(user_id="bob", location=scenario.grid.cell_center(28)))
        yield service


class TestOneShotAlerts:
    def test_properties(self, one_shot_service, scenario):
        service = one_shot_service
        assert service.grid is scenario.grid
        assert service.subscriber_count == 2
        assert service.encoding_name() == "huffman"
        assert service.init_stats.n_cells == 36

    def test_alert_by_zone(self, one_shot_service):
        report = one_shot(one_shot_service, "zone-alert", AlertZone(cell_ids=(7, 8)))
        assert report.notified_users == ("alice",)
        assert report.tokens_evaluated >= 1
        assert report.pairings_spent > 0

    def test_alert_by_epicenter(self, one_shot_service, scenario):
        zone = circular_alert_zone(scenario.grid, scenario.grid.cell_center(28), 30.0, label="epicenter")
        report = one_shot(one_shot_service, "epicenter", zone)
        assert "bob" in report.notified_users

    def test_notifications_match_ground_truth(self, one_shot_service):
        zone = AlertZone(cell_ids=(7, 28))
        report = one_shot(one_shot_service, "both", zone)
        assert list(report.notified_users) == one_shot_service.users_actually_in_zone(zone)

    def test_location_report_changes_outcome(self, scenario):
        with make_service(scenario, seed=9) as service:
            service.subscribe(Subscribe(user_id="carol", location=scenario.grid.cell_center(0)))
            service.move(Move(user_id="carol", location=scenario.grid.cell_center(35)))
            report = one_shot(service, "moved", AlertZone(cell_ids=(35,)))
            assert report.notified_users == ("carol",)

    def test_pairing_counter_accumulates(self, one_shot_service):
        before = one_shot_service.pairing_count
        one_shot(one_shot_service, "counter", AlertZone(cell_ids=(1,)))
        assert one_shot_service.pairing_count > before

    def test_one_shot_alerts_leave_no_engine_state(self, scenario):
        """Repeating a one-shot alert pays its pairings again."""
        with make_service(scenario) as service:
            service.subscribe(Subscribe(user_id="alice", location=scenario.grid.cell_center(7)))
            zone = AlertZone(cell_ids=(7, 8))
            first = one_shot(service, "flash", zone)
            assert first.notified_users == ("alice",)
            assert service.engine.standing_alerts() == []
            again = one_shot(service, "flash", zone)
            assert again.pairings_spent == first.pairings_spent > 0
            assert service.engine.standing_alerts() == []


class TestOneShotAlertsPerScheme:
    @pytest.mark.parametrize("scheme", ["fixed", "sgo", "balanced", "bary"])
    def test_end_to_end_per_scheme(self, scenario, scheme):
        with make_service(scenario, scheme=scheme, alphabet_size=3, seed=13) as service:
            service.subscribe(Subscribe(user_id="user-in", location=scenario.grid.cell_center(14)))
            service.subscribe(Subscribe(user_id="user-out", location=scenario.grid.cell_center(30)))
            report = one_shot(service, f"{scheme}-alert", AlertZone(cell_ids=(14, 15)))
            assert report.notified_users == ("user-in",)


class TestLegacyAdoption:
    def test_adopting_a_live_system_backfills_the_store(self, scenario):
        from repro.protocol.alert_system import SecureAlertSystem

        system = SecureAlertSystem(scenario.grid, scenario.probabilities, prime_bits=32)
        system.register_user("alice", scenario.grid.cell_center(7))
        service = AlertService(config=ServiceConfig(prime_bits=32), system=system)
        assert service.subscriber_count == 1
        report = service.publish_zone(PublishZone(alert_id="z", zone=AlertZone(cell_ids=(7,))))
        assert report.notified_users == ("alice",)
        # Later uploads flow into the session store through the sink.
        system.move_user("alice", scenario.grid.cell_center(28))
        assert service.store.report_for("alice").sequence_number == 1
        service.close()
        # A closed session stops ingesting the adopted system's uploads.
        system.move_user("alice", scenario.grid.cell_center(7))
        assert service.store.report_for("alice").sequence_number == 1
        assert system.update_sinks == []


class TestPlanCache:
    def test_plan_rebuilt_only_on_plan_change(self, scenario):
        """Across a warm session the token plan is built once and rebuilt
        exactly when the standing set (hence the plan) changes."""
        metrics = []
        with make_service(scenario) as service:
            service.add_observer(metrics.append)
            for i in range(4):
                service.subscribe(Subscribe(user_id=f"u{i}", location=scenario.grid.cell_center(i)))
            service.publish_zone(
                PublishZone(alert_id="z1", zone=AlertZone(cell_ids=(1, 2)), evaluate=False)
            )
            for step in range(3):
                service.move(Move(user_id="u0", location=scenario.grid.cell_center(step)))
                service.evaluate_standing()
            service.publish_zone(
                PublishZone(alert_id="z2", zone=AlertZone(cell_ids=(8, 9)), evaluate=False)
            )
            service.evaluate_standing()
            service.evaluate_standing()
            stats = service.session_stats()

        ticks = [m for m in metrics if m.request == "evaluate_standing"]
        assert [m.plan_reused for m in ticks] == [False, True, True, False, True]
        assert stats.plan_builds == 2
        assert stats.plan_reuses == 3


class TestClosedSession:
    def test_close_is_idempotent_and_closes_the_journal(self, scenario, tmp_path):
        service = make_service(scenario, journal_path=str(tmp_path / "wal.log"))
        service.subscribe(Subscribe(user_id="a", location=scenario.grid.cell_center(1)))
        service.publish_zone(PublishZone(alert_id="z", zone=AlertZone(cell_ids=(1, 2))))
        service.close()
        service.close()
        assert service.journal._file is None or service.journal._file.closed
