"""The fault-injection harness and the seeded chaos soak.

What is pinned here:

* :meth:`FaultPlan.parse` accepts the compact spec grammar (aliases included)
  and rejects unknown faults, bad values and out-of-range probabilities;
* a :class:`FaultInjector` is deterministic -- the same plan + seed replays
  the identical fault sequence -- and its per-site streams are independent
  (drawing journal faults never perturbs when network faults fire);
* the torn-snapshot budget does what the chaos soak relies on: crash
  *before* the atomic rename while the budget lasts;
* the CLI exposes the soak as ``repro chaos``;
* the acceptance criterion: a 50-step seeded chaos soak -- one torn
  snapshot, delayed journal fsyncs -- completes with notifications and
  pairing totals bit-exact against the fault-free run and every snapshot
  readable.
"""

import pathlib

import pytest

from repro.cli import build_parser
from repro.service.faults import (
    DEFAULT_CHAOS_SPEC,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    run_chaos_soak,
)


class TestFaultPlanParse:
    def test_spec_round_trip(self):
        plan = FaultPlan.parse("conn_drop=0.05,fsync_delay=0.1,torn_snapshot=2", seed=9)
        assert plan.conn_drop == pytest.approx(0.05)
        assert plan.fsync_delay == pytest.approx(0.1)
        assert plan.torn_snapshots == 2
        assert plan.seed == 9
        assert plan.any_active

    def test_empty_spec_is_the_null_plan(self):
        plan = FaultPlan.parse("", seed=3)
        assert not plan.any_active

    def test_duration_clause(self):
        plan = FaultPlan.parse("fsync_delay=1.0,fsync_delay_seconds=0.5")
        assert plan.fsync_delay_seconds == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "spec",
        [
            "explode=0.5",
            "conn_drop",
            "conn_drop=maybe",
            "conn_drop=1.5",
            "fsync_delay=-0.1",
            "slow_client_seconds=-1",
            "seed=4",
            # The lane, ack and spool sites went with the worker tiers: a
            # spec naming one must fail loudly, not inject nothing.
            "kill",
            "kill=maybe",
            "kill=1.5",
            "drop_ack=-0.1",
            "hang=0.1",
            "hang_seconds=1",
            "delay=0.5",
            "delay_seconds=0.1",
            "corrupt_ack=0.1",
            "corrupt_spool=1",
            "truncate_spool=1",
        ],
    )
    def test_bad_specs_are_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_with_seed_changes_only_the_seed(self):
        plan = FaultPlan.parse("conn_drop=0.1", seed=1)
        reseeded = plan.with_seed(42)
        assert reseeded.seed == 42
        assert reseeded.conn_drop == plan.conn_drop

    def test_default_chaos_spec_exercises_every_outcome_neutral_site(self):
        plan = FaultPlan.parse(DEFAULT_CHAOS_SPEC, seed=7)
        assert plan.torn_snapshots >= 1
        assert plan.fsync_delay > 0
        assert plan.journal_write_fail == 0  # not outcome-neutral


class TestInjectorDeterminism:
    PLAN = FaultPlan.parse(
        "conn_drop=0.2,frame_corrupt=0.1,slow_client=0.1,fsync_delay=0.5,fsync_delay_seconds=0",
        seed=11,
    )

    def test_same_plan_replays_the_identical_fault_sequence(self):
        a = FaultInjector(self.PLAN)
        b = FaultInjector(self.PLAN)
        assert [a.net_frame("write") for _ in range(300)] == [
            b.net_frame("write") for _ in range(300)
        ]
        for _ in range(300):
            a.journal_fsync()
            b.journal_fsync()
        assert a.counts == b.counts

    def test_different_seeds_diverge(self):
        a = FaultInjector(self.PLAN)
        b = FaultInjector(self.PLAN.with_seed(12))
        assert [a.net_frame("write") for _ in range(300)] != [
            b.net_frame("write") for _ in range(300)
        ]

    def test_fault_sites_draw_from_independent_streams(self):
        # Interleaving journal draws must not perturb when network faults fire.
        pure = FaultInjector(self.PLAN)
        interleaved = FaultInjector(self.PLAN)
        net_only = [pure.net_frame("read") for _ in range(200)]
        net_mixed = []
        for _ in range(200):
            interleaved.journal_fsync()
            net_mixed.append(interleaved.net_frame("read"))
        assert net_mixed == net_only
        assert interleaved.counts["fsync_delay"] > 0


class TestSnapshotFaults:
    def test_torn_snapshot_budget_crashes_before_the_rename(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_bytes(b'{"previous": true}')
        injector = FaultInjector(FaultPlan.parse("torn_snapshot=1", seed=5))
        with pytest.raises(InjectedFault):
            injector.maybe_tear_snapshot(target, b'{"next": true}')
        # The crash happened *before* the atomic rename: the target is the
        # previous snapshot, the torn half landed in a side file.
        assert target.read_bytes() == b'{"previous": true}'
        assert pathlib.Path(str(target) + ".torn").exists()
        # Budget spent: later snapshots succeed.
        assert injector.maybe_tear_snapshot(target, b'{"next": true}') is None


class TestChaosCli:
    def test_chaos_subcommand_is_wired(self):
        parser = build_parser()
        args = parser.parse_args(["chaos", "--steps", "5", "--seed", "3"])
        assert args.steps == 5 and args.seed == 3
        assert callable(args.handler)


class TestChaosSoak:
    def test_fifty_step_soak_is_bit_exact(self):
        """The acceptance bar of the fault-injection harness, end to end."""
        outcome = run_chaos_soak(steps=50, seed=7)
        assert outcome.matched, (
            "chaos run diverged from the fault-free run:\n" + outcome.summary()
        )
        assert outcome.snapshots_intact
        assert outcome.faulted_pairings == outcome.baseline_pairings > 0
        # The plan actually exercised both sites on this seed.
        assert outcome.fault_counts.get("torn_snapshot", 0) == 1
        assert outcome.fault_counts.get("fsync_delay", 0) > 0
        assert "BIT-EXACT" in outcome.summary()
