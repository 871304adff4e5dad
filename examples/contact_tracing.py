#!/usr/bin/env python
"""Contact tracing: the paper's motivating scenario.

A health authority learns the sites visited by an infected patient over the
last days.  Each site becomes a compact alert zone (a few meters to one room /
store); their union is the exposure zone.  Subscribed users are notified if
their encrypted location matches the zone -- the service provider never learns
who was where, only who needs a notification.

The example also shows *why* the paper's variable-length encoding matters for
this workload: it compares the token cost of the Huffman scheme against the
fixed-length baseline for exactly this kind of compact, sparse zone.

Run with::

    python examples/contact_tracing.py
"""

from __future__ import annotations

import random

from repro import AlertService, PublishZone, ServiceConfig, Subscribe
from repro.analysis.metrics import improvement_percentage
from repro.crypto.counting import pairing_cost_of_tokens
from repro.datasets.synthetic import make_synthetic_scenario
from repro.encoding.fixed_length import FixedLengthEncodingScheme
from repro.encoding.huffman import HuffmanEncodingScheme
from repro.grid.alert_zone import circular_alert_zone, union_zone


def main() -> None:
    # A 32x32 grid over a ~3.2 km x 3.2 km district; popular places (shops,
    # transit hubs) have much higher alert likelihood than residential cells.
    scenario = make_synthetic_scenario(rows=32, cols=32, sigmoid_a=0.97, sigmoid_b=80, seed=23)
    grid = scenario.grid

    # ------------------------------------------------------------------
    # 1. The patient's trajectory: visits to four popular sites.
    # ------------------------------------------------------------------
    rng = random.Random(5)
    popular_cells = sorted(range(grid.n_cells), key=lambda c: -scenario.probabilities[c])[:40]
    visited_cells = rng.sample(popular_cells, 4)
    sites = [
        circular_alert_zone(grid, grid.cell_center(cell), radius=25.0, label=f"site-{i}")
        for i, cell in enumerate(visited_cells)
    ]
    exposure_zone = union_zone(sites, label="patient-0 exposure")
    print(f"Patient visited {len(sites)} sites -> exposure zone of {exposure_zone.size} cells")

    # ------------------------------------------------------------------
    # 2. Deploy the system and subscribe users (some exposed, some not).
    # ------------------------------------------------------------------
    config = ServiceConfig(scheme="huffman", prime_bits=64, seed=29)
    with AlertService(grid, scenario.probabilities, config=config) as service:
        exposed_users = []
        for i, cell in enumerate(visited_cells[:2]):
            user_id = f"exposed-{i}"
            service.subscribe(Subscribe(user_id=user_id, location=grid.cell_center(cell)))
            exposed_users.append(user_id)
        for i in range(6):
            cell = rng.randrange(grid.n_cells)
            while cell in exposure_zone:
                cell = rng.randrange(grid.n_cells)
            service.subscribe(Subscribe(user_id=f"unexposed-{i}", location=grid.cell_center(cell)))

        # --------------------------------------------------------------
        # 3. Declare the exposure alert (one-shot: evaluated once, not kept
        #    standing) and notify.
        # --------------------------------------------------------------
        report = service.publish_zone(
            PublishZone(
                alert_id="contact-trace-patient-0",
                zone=exposure_zone,
                description="Possible COVID-19 exposure in the last 7 days",
                standing=False,
            )
        )
    print(f"Tokens issued: {report.tokens_evaluated}; pairings spent: {report.pairings_spent}")
    print(f"Notified: {', '.join(report.notified_users)}")
    assert set(report.notified_users) == set(exposed_users)

    # ------------------------------------------------------------------
    # 4. Why Huffman?  Cost comparison against the fixed-length baseline.
    # ------------------------------------------------------------------
    huffman = HuffmanEncodingScheme().build(scenario.probabilities)
    fixed = FixedLengthEncodingScheme().build(scenario.probabilities)
    cells = list(exposure_zone.cell_ids)
    huffman_cost = pairing_cost_of_tokens(huffman.token_patterns(cells))
    fixed_cost = pairing_cost_of_tokens(fixed.token_patterns(cells))
    gain = improvement_percentage(fixed_cost, huffman_cost)
    print(
        f"Matching cost per stored ciphertext: fixed-length {fixed_cost} pairings, "
        f"Huffman {huffman_cost} pairings ({gain:.1f}% improvement)"
    )


if __name__ == "__main__":
    main()
