"""Integration tests for the extension modules working through the full stack.

These tests wire the future-work / deployment extensions into the same
end-to-end path as the core protocol: trajectory-derived exposure zones,
canonical Huffman encodings, the persistent ciphertext store with batch
matching, spread-model delta tokens and the correlated likelihood models.
"""

import random

import pytest

from repro.crypto.group import BilinearGroup
from repro.crypto.hve import HVE
from repro.encoding import scheme_by_name
from repro.encoding.canonical import CanonicalHuffmanEncodingScheme
from repro.encoding.huffman import HuffmanEncodingScheme
from repro.grid.alert_zone import AlertZone, circular_alert_zone
from repro.grid.geometry import BoundingBox
from repro.grid.grid import Grid
from repro.grid.spread import SpreadEvent, delta_cells, spread_zone_sequence
from repro.grid.trajectories import TrajectoryGenerator, exposure_zone_from_trajectory
from repro.probability.markov import spatially_correlated_probabilities
from repro.protocol.matching import MatchingEngine
from repro.protocol.messages import LocationUpdate, TokenBatch
from repro.protocol.store import CiphertextStore
from repro.service import AlertService, PublishZone, ServiceConfig, Subscribe


def _one_shot(service, alert_id, zone):
    return service.publish_zone(PublishZone(alert_id=alert_id, zone=zone, standing=False))


@pytest.fixture(scope="module")
def city():
    grid = Grid(rows=10, cols=10, bounding_box=BoundingBox(0.0, 0.0, 1000.0, 1000.0))
    probabilities = spatially_correlated_probabilities(grid, correlation_cells=1.5, skew=4.0, seed=301)
    return grid, probabilities


class TestTrajectoryDrivenContactTracing:
    def test_exposed_users_are_notified(self, city):
        grid, probabilities = city
        generator = TrajectoryGenerator(grid, probabilities, mean_dwell=900.0, rng=random.Random(303))
        patient = generator.generate("patient-0", num_visits=5)
        exposure = exposure_zone_from_trajectory(grid, patient, radius=40.0, min_dwell=300.0)

        visited = patient.visited_cells(grid)
        config = ServiceConfig(scheme="huffman", prime_bits=32, seed=302)
        with AlertService(grid, probabilities, config=config) as service:
            service.subscribe(Subscribe(user_id="co-visitor", location=grid.cell_center(visited[0])))
            # Place a non-exposed user in a cell outside the exposure zone.
            outside = next(cell for cell in range(grid.n_cells) if cell not in exposure)
            service.subscribe(Subscribe(user_id="bystander", location=grid.cell_center(outside)))

            report = _one_shot(service, "trace-patient-0", exposure)
            assert set(report.notified_users) == set(service.users_actually_in_zone(exposure))
            assert "bystander" not in report.notified_users


class TestCanonicalSchemeThroughService:
    def test_scheme_by_name_and_matching(self, city):
        grid, probabilities = city
        scheme = scheme_by_name("huffman-canonical")
        assert isinstance(scheme, CanonicalHuffmanEncodingScheme)
        config = ServiceConfig(scheme="huffman-canonical", prime_bits=32, seed=304)
        with AlertService(grid, probabilities, config=config) as service:
            service.subscribe(Subscribe(user_id="alice", location=grid.cell_center(44)))
            zone = circular_alert_zone(grid, grid.cell_center(44), 40.0, label="canonical-alert")
            report = _one_shot(service, "canonical-alert", zone)
            assert report.notified_users == ("alice",)
            assert service.encoding_name() == "huffman-canonical"


class TestStoreBackedProvider:
    def test_persisted_store_matches_after_reload(self, city, tmp_path):
        grid, probabilities = city
        encoding = HuffmanEncodingScheme().build(probabilities)
        group = BilinearGroup(prime_bits=32, rng=random.Random(305))
        hve = HVE(width=encoding.reference_length, group=group, rng=random.Random(306))
        keys = hve.setup()

        store = CiphertextStore(max_age_seconds=3600.0)
        placements = {"inside": 33, "outside": 77}
        for user_id, cell in placements.items():
            ciphertext = hve.encrypt(keys.public, encoding.index_of(cell))
            store.ingest(LocationUpdate(user_id=user_id, ciphertext=ciphertext), received_at=0.0)
        store.save(tmp_path / "sp-store.json")

        # Simulate a provider restart: reload the store and match a batch of
        # two alerts in one pass.
        restored = CiphertextStore.load(tmp_path / "sp-store.json", group)
        batches = [
            TokenBatch(alert_id="zone-a", tokens=tuple(hve.generate_tokens(keys.secret, encoding.token_patterns([33, 34])))),
            TokenBatch(alert_id="zone-b", tokens=tuple(hve.generate_tokens(keys.secret, encoding.token_patterns([50])))),
        ]
        notifications = MatchingEngine(hve).match_store(batches, restored, now=10.0)
        assert {(n.user_id, n.alert_id) for n in notifications} == {("inside", "zone-a")}


class TestSpreadDeltaTokensEndToEnd:
    def test_delta_tokens_notify_newly_exposed_users_only(self, city):
        grid, probabilities = city
        event = SpreadEvent(grid, seed_cell=44, spread_probability=0.9, decay=1.0, rng=random.Random(308))
        zones = spread_zone_sequence(event, steps=3, label="leak")
        deltas = delta_cells(zones)
        # Pick a user who becomes exposed only at the second step.
        second_step_cells = [c for c in deltas[1] if c not in deltas[0]]
        if not second_step_cells:
            pytest.skip("spread did not grow in this simulation (improbable with these parameters)")
        newly_exposed_cell = second_step_cells[0]
        config = ServiceConfig(scheme="huffman", prime_bits=32, seed=307)
        with AlertService(grid, probabilities, config=config) as service:
            service.subscribe(Subscribe(user_id="late-exposed", location=grid.cell_center(newly_exposed_cell)))
            service.subscribe(Subscribe(user_id="never-exposed", location=grid.cell_center(99)))

            # Step 0: only the seed cell is alerted -> nobody is notified.
            step0 = _one_shot(service, "leak-t0", AlertZone(cell_ids=deltas[0]))
            assert "late-exposed" not in step0.notified_users
            # Step 1: the delta tokens cover the newly affected cells only.
            step1 = _one_shot(service, "leak-t1", AlertZone(cell_ids=deltas[1]))
            assert "late-exposed" in step1.notified_users
            assert "never-exposed" not in step1.notified_users
