#!/usr/bin/env python
"""Quickstart: a secure location-alert *session* in ~50 lines.

The scenario: a 16x16 grid city district, a handful of subscribed users, a
standing gas-leak watch zone and a stream of movement.  Users upload only HVE
ciphertexts; the service provider learns nothing beyond "this ciphertext
matches the alert zone"; the trusted authority's tokens are minimized with the
Huffman coding tree so matching stays cheap.

This is the session-oriented API: one `AlertService` built from one
`ServiceConfig`, typed requests in, typed reports out.  Standing zones keep
their token plan (and its packed worklist) warm across evaluations -- note the
`plan_reused` flag on every tick after the first.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import AlertService, Move, Point, PublishZone, ServiceConfig, Subscribe
from repro.datasets.synthetic import make_synthetic_scenario


def main() -> None:
    # 1. Build the spatial domain and the per-cell alert likelihoods.  In a
    #    real deployment the likelihoods come from public knowledge (site
    #    popularity, land use, historical incidents); here we use the paper's
    #    synthetic sigmoid model.
    scenario = make_synthetic_scenario(rows=16, cols=16, sigmoid_a=0.95, sigmoid_b=50, seed=7, extent_meters=1600.0)

    # 2. Open the session: Huffman encoding (the paper's proposal), HVE keys,
    #    trusted authority, provider-side store and matching engine, all
    #    behind one service configured by one object.
    config = ServiceConfig(scheme="huffman", prime_bits=64, seed=11)
    with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
        print(f"Deployed {service.encoding_name()} encoding over {scenario.grid.n_cells} cells")
        print(f"HVE width (reference length): {service.init_stats.reference_length} bits")
        print(f"One-time initialization: {service.init_stats.total_seconds * 1000:.1f} ms")

        # 3. Users subscribe and upload encrypted locations.
        service.subscribe(Subscribe(user_id="alice", location=Point(220.0, 180.0)))
        service.subscribe(Subscribe(user_id="bob", location=Point(240.0, 210.0)))
        service.subscribe(Subscribe(user_id="carol", location=Point(1400.0, 1500.0)))
        print(f"Subscribers: {service.subscriber_count}")

        # 4. An event occurs: a gas leak with a 120 m danger radius.  The zone
        #    stays *standing*: it will be re-evaluated as people move.
        report = service.publish_zone(
            PublishZone(
                alert_id="gas-leak-42",
                epicenter=Point(230.0, 200.0),
                radius=120.0,
                description="Gas leak near the market square",
            )
        )
        print(f"Alert gas-leak-42: {report.tokens_evaluated} tokens, {report.pairings_spent} pairings")
        print(f"Notified users: {', '.join(report.notified_users)}")
        assert report.notified_users == ("alice", "bob")

        # 5. Carol walks into the danger zone; the next tick notifies her with
        #    the token plan served straight from the session cache.
        service.move(Move(user_id="carol", location=Point(250.0, 190.0)))
        tick = service.evaluate_standing()
        print(f"After movement: notified {', '.join(tick.notified_users)} (plan reused: {tick.plan_reused})")
        assert "carol" in tick.notified_users
        assert tick.plan_reused

        zone = service.standing_zone("gas-leak-42").zone
        assert sorted(tick.notified_users) == service.users_actually_in_zone(zone)
        print("Encrypted matching agrees with the plaintext ground truth.")


if __name__ == "__main__":
    main()
