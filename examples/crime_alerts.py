#!/usr/bin/env python
"""Public-safety alerts driven by a crime-likelihood model (the Section 7.1 workflow).

The workflow mirrors the paper's real-data evaluation end to end:

1. generate a year of (synthetic) Chicago-style crime incidents;
2. overlay a 32x32 grid and train a logistic-regression model on the first
   eleven months, producing per-cell alert likelihoods;
3. deploy the secure alert system with the Huffman encoding built from those
   likelihoods;
4. simulate December incidents triggering alerts and measure how much cheaper
   the Huffman tokens are compared to the fixed-length baseline.

Run with::

    python examples/crime_alerts.py
"""

from __future__ import annotations

import random

from repro import AlertService, PublishZone, ServiceConfig, Subscribe
from repro.analysis.metrics import improvement_percentage
from repro.crypto.counting import pairing_cost_of_tokens
from repro.datasets.chicago import CHICAGO_BOUNDING_BOX, generate_chicago_crime_dataset
from repro.encoding.fixed_length import FixedLengthEncodingScheme
from repro.encoding.huffman import HuffmanEncodingScheme
from repro.grid.alert_zone import circular_alert_zone
from repro.grid.geometry import haversine_distance
from repro.grid.grid import Grid
from repro.probability.crime_model import CellLikelihoodModel


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Data and likelihood model.
    # ------------------------------------------------------------------
    dataset = generate_chicago_crime_dataset(seed=2015)
    print(f"Crime dataset: {len(dataset)} incidents")
    for category, count in dataset.category_counts().items():
        print(f"  {category:<26} {count}")

    grid = Grid(rows=32, cols=32, bounding_box=CHICAGO_BOUNDING_BOX, distance=haversine_distance)
    model = CellLikelihoodModel(rows=32, cols=32).fit(dataset.cell_month_matrix(grid))
    probabilities = model.cell_probabilities()
    print(f"Logistic-regression likelihood model accuracy: {model.accuracy_:.3f}")

    # ------------------------------------------------------------------
    # 2. Deploy the secure alert system.
    # ------------------------------------------------------------------
    config = ServiceConfig(scheme="huffman", prime_bits=64, seed=41)
    with AlertService(grid, probabilities, config=config) as service:
        print(f"HVE width: {service.init_stats.reference_length} bits over {grid.n_cells} cells")

        # --------------------------------------------------------------
        # 3. December incidents trigger alerts (600 m radius around each
        #    site: roughly the incident's cell, sometimes a neighbour).
        # --------------------------------------------------------------
        december = [incident for incident in dataset.incidents if incident.month == 12][:5]

        # Subscribers concentrate where people (and incidents) are: most are
        # placed proportionally to the model's likelihoods, and a few live
        # right at the upcoming incident sites (they are the ones who must be
        # notified).
        rng = random.Random(43)
        weights = [p**3 + 1e-4 for p in probabilities]
        for i in range(40):
            cell = rng.choices(range(grid.n_cells), weights=weights, k=1)[0]
            service.subscribe(Subscribe(user_id=f"user-{i:02d}", location=grid.cell_center(cell)))
        for i, incident in enumerate(december[:3]):
            service.subscribe(Subscribe(user_id=f"local-{i}", location=incident.location))

        total_notified = 0
        for i, incident in enumerate(december):
            zone = circular_alert_zone(grid, incident.location, radius=600.0, label=incident.category)
            report = service.publish_zone(
                PublishZone(
                    alert_id=f"crime-{i}", zone=zone, description=incident.category, standing=False
                )
            )
            total_notified += len(report.notified_users)
            print(
                f"Alert {i} ({incident.category}): zone of {zone.size} cells, "
                f"{report.tokens_evaluated} tokens, notified {len(report.notified_users)} users"
            )
    print(f"Total users notified across the demonstrated alerts: {total_notified}")

    # ------------------------------------------------------------------
    # 4. Cost summary over the full December test month.
    #    (Token cost only -- no need to run the crypto for every incident.)
    # ------------------------------------------------------------------
    huffman = HuffmanEncodingScheme().build(probabilities)
    fixed = FixedLengthEncodingScheme().build(probabilities)
    all_december = [incident for incident in dataset.incidents if incident.month == 12]
    total_fixed_cost = 0
    total_huffman_cost = 0
    for incident in all_december:
        zone = circular_alert_zone(grid, incident.location, radius=600.0, label=incident.category)
        cells = list(zone.cell_ids)
        total_fixed_cost += pairing_cost_of_tokens(fixed.token_patterns(cells))
        total_huffman_cost += pairing_cost_of_tokens(huffman.token_patterns(cells))
    gain = improvement_percentage(total_fixed_cost, total_huffman_cost)
    print(
        f"Token cost per ciphertext over all {len(all_december)} December incidents: "
        f"fixed {total_fixed_cost} pairings, Huffman {total_huffman_cost} pairings "
        f"({gain:.1f}% improvement)"
    )


if __name__ == "__main__":
    main()
