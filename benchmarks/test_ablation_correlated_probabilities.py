"""Ablation: correlated (smooth / Markov) likelihood fields vs the i.i.d. sigmoid.

Section 3.2 notes that for grids with highly correlated cell probabilities a
stationary-distribution model yields a more accurate probabilistic model, and
the conclusions list correlated models as future work.  This ablation runs the
standard radius sweep on three likelihood sources over the same grid:

* the paper's i.i.d. sigmoid field (a = 0.95, b = 100);
* a spatially smoothed (Gaussian) random field with matched skew;
* the stationary distribution of an attractiveness-biased random walk
  (:class:`GridMarkovModel`).

The measured effect (recorded in DESIGN.md): the Huffman advantage tracks
the *skew* of the likelihood distribution, not its spatial correlation.  The
i.i.d. sigmoid field is extremely skewed (most cells essentially never alert)
and shows the paper's large gains; the smoother fields have many cells of
moderate likelihood, whose Huffman codes are no shorter than the fixed-length
ones, so the gains shrink towards zero (and can go negative once moderate
cells dominate the alerted sets).  This quantifies the paper's remark that the
technique is aimed at skewed likelihood landscapes.
"""

import random

from benchmarks.conftest import publish_table
from repro.analysis.experiments import radius_sweep_comparison
from repro.grid.geometry import BoundingBox
from repro.grid.grid import Grid
from repro.probability.markov import GridMarkovModel, spatially_correlated_probabilities
from repro.probability.sigmoid import SigmoidProbabilityModel

RADII = (20.0, 100.0, 300.0)
NUM_ZONES = 10
GRID_SIZE = 24


def _likelihood_sources(grid: Grid) -> dict[str, list[float]]:
    sigmoid = SigmoidProbabilityModel(a=0.95, b=100.0, seed=2060).cell_probabilities(grid.n_cells)
    smooth = spatially_correlated_probabilities(grid, correlation_cells=2.0, skew=4.0, seed=2061)
    attractiveness = spatially_correlated_probabilities(grid, correlation_cells=1.5, skew=2.0, seed=2062)
    markov = GridMarkovModel(grid, attractiveness=attractiveness, laziness=0.2).cell_probabilities()
    return {"iid-sigmoid": sigmoid, "smooth-field": smooth, "markov-stationary": markov}


def test_ablation_correlated_probabilities(benchmark):
    grid = Grid(
        rows=GRID_SIZE, cols=GRID_SIZE, bounding_box=BoundingBox(0.0, 0.0, GRID_SIZE * 100.0, GRID_SIZE * 100.0)
    )
    sources = _likelihood_sources(grid)

    def run():
        sweeps = {}
        for name, probabilities in sources.items():
            sweeps[name] = radius_sweep_comparison(
                grid, probabilities, radii=RADII, num_zones=NUM_ZONES, seed=2063
            )
        return sweeps

    sweeps = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, sweep in sweeps.items():
        for radius, comparison in zip(sweep.radii, sweep.comparisons):
            rows.append(
                {
                    "likelihood_source": name,
                    "radius_m": int(radius),
                    "fixed_pairings": comparison.cost_of("fixed").pairings,
                    "huffman_improvement_pct": round(comparison.improvement_of("huffman"), 1),
                    "sgo_improvement_pct": round(comparison.improvement_of("sgo"), 1),
                }
            )
    publish_table(
        "ablation_correlated_probabilities",
        "Ablation - i.i.d. sigmoid vs spatially correlated likelihood fields",
        rows,
    )

    # The skewed i.i.d. sigmoid source shows the paper's gains at every radius;
    # the milder correlated sources must at least not break correctness (their
    # gains may legitimately approach zero -- that is the finding).
    assert all(value > 0.0 for value in sweeps["iid-sigmoid"].improvement_series("huffman"))
    skew_order = ["smooth-field", "iid-sigmoid"]
    compact_gains = [sweeps[name].improvement_series("huffman")[0] for name in skew_order]
    assert compact_gains[0] <= compact_gains[1]
