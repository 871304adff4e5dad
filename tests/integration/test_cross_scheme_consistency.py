"""Cross-scheme consistency: every encoding yields identical alert outcomes.

The encoding scheme is a performance knob, not a semantics knob: whichever
encoding the trusted authority deploys, the set of notified users for a given
alert zone must be exactly the users located in that zone.  These tests run
the same population and the same zones through every scheme and check the
outcomes (and the cost accounting invariants that relate them).
"""

import random

import pytest

from repro.analysis.experiments import build_encodings, default_scheme_suite
from repro.datasets.synthetic import make_synthetic_scenario
from repro.encoding.canonical import CanonicalHuffmanEncodingScheme
from repro.encoding.quadtree import QuadtreeEncodingScheme
from repro.grid.alert_zone import AlertZone
from repro.service import AlertService, PublishZone, ServiceConfig, Subscribe

SCHEMES = ["huffman", "huffman-canonical", "fixed", "sgo", "balanced", "bary"]


@pytest.fixture(scope="module")
def scenario():
    return make_synthetic_scenario(rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=40, seed=501, extent_meters=600.0)


@pytest.fixture(scope="module")
def population(scenario):
    rng = random.Random(502)
    return {f"user-{i}": rng.randrange(scenario.grid.n_cells) for i in range(10)}


@pytest.fixture(scope="module")
def zones(scenario):
    rng = random.Random(503)
    zones = []
    for _ in range(4):
        size = rng.randint(1, 5)
        cells = tuple(sorted(rng.sample(range(scenario.grid.n_cells), size)))
        zones.append(AlertZone(cell_ids=cells))
    return zones


class TestIdenticalOutcomesAcrossSchemes:
    def test_every_scheme_notifies_the_same_users(self, scenario, population, zones):
        outcomes_by_scheme = {}
        for scheme in SCHEMES:
            config = ServiceConfig(scheme=scheme, alphabet_size=3, prime_bits=32, seed=504)
            with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
                for user_id, cell in population.items():
                    service.subscribe(Subscribe(user_id=user_id, location=scenario.grid.cell_center(cell)))
                outcomes = []
                for index, zone in enumerate(zones):
                    request = PublishZone(alert_id=f"zone-{index}", zone=zone, standing=False)
                    outcomes.append(service.publish_zone(request).notified_users)
            outcomes_by_scheme[scheme] = outcomes

        reference = outcomes_by_scheme[SCHEMES[0]]
        for scheme, outcomes in outcomes_by_scheme.items():
            assert outcomes == reference, f"{scheme} produced different notifications"

        # And the reference agrees with the plaintext ground truth.
        expected = [
            tuple(sorted(u for u, cell in population.items() if cell in zone)) for zone in zones
        ]
        assert list(reference) == expected


class TestTokenCoverConsistencyAcrossSuite:
    def test_all_schemes_cover_the_same_cells(self, scenario):
        rng = random.Random(505)
        encodings = build_encodings(scenario.probabilities, default_scheme_suite())
        encodings["huffman-canonical"] = CanonicalHuffmanEncodingScheme().build(scenario.probabilities)
        encodings["quadtree"] = QuadtreeEncodingScheme(scenario.grid.rows, scenario.grid.cols).build(
            scenario.probabilities
        )
        for _ in range(10):
            size = rng.randint(1, 8)
            alert_cells = sorted(rng.sample(range(scenario.n_cells), size))
            for name, encoding in encodings.items():
                patterns = encoding.token_patterns(alert_cells)
                encoding.audit_tokens(alert_cells, patterns)

    def test_pairing_cost_is_positive_and_finite_for_every_scheme(self, scenario):
        encodings = build_encodings(scenario.probabilities, default_scheme_suite())
        for name, encoding in encodings.items():
            cost = encoding.pairing_cost([0, 1, 2])
            assert 0 < cost < 10_000, name
