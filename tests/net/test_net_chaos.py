"""Network fault grammar + the TCP chaos soak.

Pinned here:

* the fault grammar accepts the network sites (``conn_drop``,
  ``frame_corrupt``, ``slow_client``) with the same spec syntax, probability
  validation, and seeded per-site determinism as the other sites -- drawing
  from one site's stream never perturbs when another site's faults fire;
* the injector's ``net`` stream is deterministic and direction-aware
  (``frame_corrupt`` only fires on writes: a corrupt inbound frame would be
  indistinguishable from line noise, the interesting failure is the client
  rejecting a damaged response);
* the soak itself: a scripted session over TCP under all three faults
  notifies exactly the same users as the in-process fault-free run.
"""

from __future__ import annotations

import pytest

from repro.net.chaos import DEFAULT_NET_CHAOS_SPEC, run_net_chaos_soak
from repro.service.faults import FaultInjector, FaultPlan


def test_fault_plan_parses_network_sites():
    plan = FaultPlan.parse("conn_drop=0.1,frame_corrupt=0.2,slow_client=0.3", seed=5)
    assert (plan.conn_drop, plan.frame_corrupt, plan.slow_client) == (0.1, 0.2, 0.3)
    assert plan.seed == 5
    assert plan.any_active


def test_fault_plan_rejects_out_of_range_network_probabilities():
    with pytest.raises(ValueError, match="conn_drop"):
        FaultPlan(conn_drop=1.5)
    with pytest.raises(ValueError, match="slow_client_seconds"):
        FaultPlan(slow_client_seconds=-1.0)
    with pytest.raises(ValueError, match="unknown fault"):
        FaultPlan.parse("packet_loss=0.1")


def test_net_stream_is_deterministic_and_independent():
    plan = FaultPlan.parse(DEFAULT_NET_CHAOS_SPEC, seed=13)
    first = FaultInjector(plan)
    second = FaultInjector(plan)
    fates_a = [first.net_frame("write") for _ in range(300)]
    fates_b = [second.net_frame("write") for _ in range(300)]
    assert fates_a == fates_b  # same plan + seed -> same fates at same frames
    assert first.counts == second.counts
    assert set(first.counts) == {"conn_drop", "frame_corrupt", "slow_client"}
    # Draining the *journal* stream must not change what the net stream does:
    # per-site independence is what keeps chaos runs replayable as sites are
    # added.
    third = FaultInjector(plan.with_seed(13))
    for _ in range(50):
        third.journal_fsync()
    fates_c = [third.net_frame("write") for _ in range(300)]
    assert fates_c == fates_a


def test_frame_corrupt_never_fires_on_reads():
    plan = FaultPlan(frame_corrupt=1.0, seed=3)
    injector = FaultInjector(plan)
    assert all(injector.net_frame("read") is None for _ in range(50))
    assert injector.counts["frame_corrupt"] == 0
    assert injector.net_frame("write") == ("frame_corrupt",)


def test_slow_client_carries_configured_delay():
    plan = FaultPlan(slow_client=1.0, slow_client_seconds=0.123, seed=3)
    injector = FaultInjector(plan)
    assert injector.net_frame("read") == ("slow_client", 0.123)


def test_net_chaos_soak_is_bit_exact_under_all_network_faults():
    outcome = run_net_chaos_soak(steps=18, seed=7)
    assert outcome.matched, (
        f"TCP session diverged from in-process truth:\n{outcome.summary()}"
    )
    # The soak is only meaningful if chaos actually fired.
    assert sum(outcome.fault_counts.values()) > 0
    # One outcome per scripted request: each step appends its action plus an
    # EvaluateStanding pass, on top of the initial subscribe + publish.
    assert len(outcome.baseline_passes) >= 2 * 18
    # The full mix rides under retry now -- including the non-idempotent
    # subscriptions the old soak had to do during a fault-free warmup.
    kinds = {o[0] for o in outcome.baseline_passes}
    assert {"receipt", "report"} <= kinds
