"""Integration tests: full protocol runs across layers and schemes."""

import random

import pytest

from repro.datasets.chicago import CHICAGO_BOUNDING_BOX, generate_chicago_crime_dataset
from repro.datasets.synthetic import make_synthetic_scenario
from repro.encoding.huffman import HuffmanEncodingScheme
from repro.grid.alert_zone import circular_alert_zone, union_zone
from repro.grid.geometry import haversine_distance
from repro.grid.grid import Grid
from repro.probability.crime_model import CellLikelihoodModel
from repro.protocol.alert_system import SecureAlertSystem
from repro.service import AlertService, PublishZone, ServiceConfig, Subscribe


def _one_shot(service, alert_id, zone):
    return service.publish_zone(PublishZone(alert_id=alert_id, zone=zone, standing=False))


class TestEncryptedMatchingAgreesWithPlaintext:
    """The encrypted path must notify exactly the users a plaintext system would."""

    @pytest.mark.parametrize("scheme", ["huffman", "fixed", "sgo", "balanced"])
    def test_many_users_many_zones(self, scheme):
        scenario = make_synthetic_scenario(rows=6, cols=6, sigmoid_a=0.9, sigmoid_b=50, seed=61, extent_meters=600.0)
        config = ServiceConfig(scheme=scheme, prime_bits=32, seed=62)
        with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
            rng = random.Random(63)
            for i in range(12):
                cell = rng.randrange(scenario.grid.n_cells)
                service.subscribe(Subscribe(user_id=f"user-{i}", location=scenario.grid.cell_center(cell)))

            for alert_index in range(4):
                zone = scenario.workloads.triggered_radius_workload(150.0, 1).zones[0]
                report = _one_shot(service, f"alert-{alert_index}", zone)
                assert list(report.notified_users) == service.users_actually_in_zone(zone)


class TestAnalyticCostsMatchRealPairings:
    """The analytic pairing counts used in experiments equal the crypto layer's counter."""

    def test_pairing_counter_agrees_with_token_cost(self):
        scenario = make_synthetic_scenario(rows=5, cols=5, sigmoid_a=0.9, sigmoid_b=30, seed=71, extent_meters=500.0)
        system = SecureAlertSystem(
            scenario.grid,
            scenario.probabilities,
            scheme=HuffmanEncodingScheme(),
            prime_bits=32,
            rng=random.Random(72),
        )
        # One subscriber whose ciphertext does NOT match the zone: the provider
        # must evaluate every token fully, so the analytic cost is exact.
        outside_cell = 0
        zone = circular_alert_zone(scenario.grid, scenario.grid.cell_center(24), radius=120.0)
        assert outside_cell not in zone
        system.register_user("outsider", scenario.grid.cell_center(outside_cell))

        batch = system.issue_token_batch(zone, alert_id="cost-check")
        counter = system.authority.group.counter
        before = counter.total
        system.provider.process_alert(batch)
        measured = counter.total - before

        expected = sum(token.pairing_cost for token in batch.tokens)
        assert measured == expected

        # And the experiment-level helper computes the same quantity from patterns.
        encoding = system.authority.encoding
        patterns = encoding.token_patterns(list(zone.cell_ids))
        assert sum(1 + 2 * sum(1 for s in p if s != "*") for p in patterns) == expected


class TestContactTracingScenario:
    """The motivating use case: several compact sites visited by one patient."""

    def test_union_zone_notifies_exposed_users_only(self):
        scenario = make_synthetic_scenario(rows=8, cols=8, sigmoid_a=0.9, sigmoid_b=50, seed=81, extent_meters=800.0)
        visited_cells = [9, 27, 54]
        sites = [
            circular_alert_zone(scenario.grid, scenario.grid.cell_center(cell), radius=40.0)
            for cell in visited_cells
        ]
        exposure_zone = union_zone(sites, label="patient-123")

        config = ServiceConfig(scheme="huffman", prime_bits=32, seed=82)
        with AlertService(scenario.grid, scenario.probabilities, config=config) as service:
            service.subscribe(Subscribe(user_id="exposed-1", location=scenario.grid.cell_center(9)))
            service.subscribe(Subscribe(user_id="exposed-2", location=scenario.grid.cell_center(54)))
            service.subscribe(Subscribe(user_id="safe", location=scenario.grid.cell_center(63)))

            report = _one_shot(service, "contact-trace", exposure_zone)
            assert report.notified_users == ("exposed-1", "exposed-2")


class TestChicagoWorkflow:
    """Real-data style workflow: crime model likelihoods -> encoding -> alerts."""

    def test_crime_likelihoods_drive_the_encoding(self):
        dataset = generate_chicago_crime_dataset(seed=2015, volume_scale=0.3)
        grid = Grid(rows=8, cols=8, bounding_box=CHICAGO_BOUNDING_BOX, distance=haversine_distance)
        model = CellLikelihoodModel(rows=8, cols=8).fit(dataset.cell_month_matrix(grid))
        probabilities = model.cell_probabilities()

        encoding = HuffmanEncodingScheme().build(probabilities)
        # The most likely cell must not have the longest code.
        hottest = max(range(len(probabilities)), key=probabilities.__getitem__)
        coldest = min(range(len(probabilities)), key=probabilities.__getitem__)
        hot_code = encoding.artifacts.prefix_code_by_cell[hottest]
        cold_code = encoding.artifacts.prefix_code_by_cell[coldest]
        assert len(hot_code) <= len(cold_code)

        config = ServiceConfig(scheme="huffman", prime_bits=32, seed=91)
        with AlertService(grid, probabilities, config=config) as service:
            service.subscribe(Subscribe(user_id="resident", location=grid.cell_center(hottest)))
            zone = circular_alert_zone(grid, grid.cell_center(hottest), 400.0, label="incident")
            report = _one_shot(service, "incident", zone)
            assert "resident" in report.notified_users
