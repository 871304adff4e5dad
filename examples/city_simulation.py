#!/usr/bin/env python
"""City-scale service simulation: moving users, streaming alerts, evolving hazards.

This example strings together the extension modules of the library on top of
the core protocol:

* a spatially correlated likelihood field (popular blocks of the city);
* a population of users moving between popular places and re-encrypting their
  location periodically;
* routine alerts arriving as a Poisson stream (handled by the simulator);
* one evolving hazard (a gas leak spreading with the wind) for which the
  trusted authority issues *delta* tokens step by step.

Run with::

    python examples/city_simulation.py
"""

from __future__ import annotations

import random

from repro.crypto.counting import pairing_cost_of_tokens
from repro.encoding.huffman import HuffmanEncodingScheme
from repro.grid.geometry import BoundingBox
from repro.grid.grid import Grid
from repro.grid.spread import SpreadEvent, delta_cells, spread_zone_sequence
from repro.probability.markov import spatially_correlated_probabilities
from repro.protocol.simulation import AlertServiceSimulation, SimulationConfig
from repro.service import ServiceConfig


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The city: a 20x20 grid with smooth popularity hot spots.
    # ------------------------------------------------------------------
    grid = Grid(rows=20, cols=20, bounding_box=BoundingBox(0.0, 0.0, 2000.0, 2000.0))
    probabilities = spatially_correlated_probabilities(grid, correlation_cells=2.0, skew=4.0, seed=13)
    print(f"City grid: {grid.rows}x{grid.cols} cells of {grid.cell_width:.0f} m")

    # ------------------------------------------------------------------
    # 2. Routine operation: moving users + Poisson alert stream.
    # ------------------------------------------------------------------
    config = SimulationConfig(
        num_users=30,
        move_probability=0.4,
        alert_rate_per_step=1.0,
        alert_radius=120.0,
        seed=17,
    )
    service_config = ServiceConfig(prime_bits=48, seed=17)
    with AlertServiceSimulation(
        grid, probabilities, config=config, service_config=service_config
    ) as simulation:
        result = simulation.run(steps=8)
    print(
        f"Routine operation over {len(result.steps)} steps: "
        f"{result.total_reports} encrypted reports, {result.total_alerts} alerts, "
        f"{result.total_notifications} notifications, {result.total_pairings} pairings"
    )

    # ------------------------------------------------------------------
    # 3. An evolving hazard: a gas leak spreading eastward.
    # ------------------------------------------------------------------
    encoding = HuffmanEncodingScheme().build(probabilities)
    leak_origin = max(range(grid.n_cells), key=probabilities.__getitem__)
    event = SpreadEvent(grid, seed_cell=leak_origin, spread_probability=0.7, decay=0.85,
                        wind="east", rng=random.Random(19))
    zones = spread_zone_sequence(event, steps=5, label="gas-leak")
    deltas = delta_cells(zones)

    full_cost = sum(pairing_cost_of_tokens(encoding.token_patterns(list(zone.cell_ids))) for zone in zones)
    delta_cost = sum(
        pairing_cost_of_tokens(encoding.token_patterns(list(cells))) if cells else 0 for cells in deltas
    )
    print(f"Gas leak evolving over {len(zones)} steps (final zone: {zones[-1].size} cells)")
    for step, (zone, delta) in enumerate(zip(zones, deltas)):
        print(f"  t={step}: zone {zone.size:>3} cells, newly alerted {len(delta):>3}")
    saving = 100.0 * (full_cost - delta_cost) / full_cost if full_cost else 0.0
    print(
        f"Token cost per ciphertext: re-issuing the full zone every step {full_cost} pairings, "
        f"issuing only the newly alerted cells {delta_cost} pairings ({saving:.1f}% saved)"
    )


if __name__ == "__main__":
    main()
