"""Tests for the population-scale alert-service simulation."""

import dataclasses
import json

import pytest

from repro.crypto.serialization import serialize_ciphertext
from repro.datasets.synthetic import make_synthetic_scenario
from repro.protocol.simulation import AlertServiceSimulation, SimulationConfig, SimulationResult
from repro.service import ServiceConfig

SERVICE_CONFIG = ServiceConfig(prime_bits=32)


def _simulation(scenario, config):
    return AlertServiceSimulation(
        scenario.grid, scenario.probabilities, config=config, service_config=SERVICE_CONFIG
    )


@pytest.fixture(scope="module")
def scenario():
    return make_synthetic_scenario(rows=6, cols=6, sigmoid_a=0.85, sigmoid_b=20, seed=101, extent_meters=600.0)


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_users=0)
        with pytest.raises(ValueError):
            SimulationConfig(move_probability=1.5)
        with pytest.raises(ValueError):
            SimulationConfig(report_every_steps=0)
        with pytest.raises(ValueError):
            SimulationConfig(alert_rate_per_step=-1)
        with pytest.raises(ValueError):
            SimulationConfig(alert_radius=-5)

    def test_crypto_settings_are_not_workload(self):
        """Primes, backend and strategy live only in the ServiceConfig."""
        for field in ("prime_bits", "crypto_backend", "matching_strategy"):
            with pytest.raises(TypeError):
                SimulationConfig(**{field: None})


class TestAlertServiceSimulation:
    def test_population_is_registered(self, scenario):
        config = SimulationConfig(num_users=8, seed=1)
        simulation = _simulation(scenario, config)
        assert simulation.system.provider.subscriber_count == 8

    def test_run_produces_per_step_stats(self, scenario):
        config = SimulationConfig(num_users=6, alert_rate_per_step=1.0, alert_radius=80.0, seed=2)
        simulation = _simulation(scenario, config)
        result = simulation.run(steps=4)
        assert isinstance(result, SimulationResult)
        assert len(result.steps) == 4
        assert [s.step for s in result.steps] == [0, 1, 2, 3]
        rows = result.as_rows()
        assert len(rows) == 4
        assert set(rows[0]) == {"step", "reports", "alerts", "tokens", "notifications", "pairings"}

    def test_alerts_consume_pairings(self, scenario):
        config = SimulationConfig(num_users=6, alert_rate_per_step=2.0, alert_radius=80.0, seed=3)
        simulation = _simulation(scenario, config)
        result = simulation.run(steps=5)
        # With rate 2 per step over 5 steps, at least one alert fires with
        # overwhelming probability for this seed; pairings follow.
        assert result.total_alerts > 0
        assert result.total_pairings > 0
        assert result.total_pairings == sum(s.pairings_spent for s in result.steps)

    def test_zero_alert_rate_never_spends_pairings(self, scenario):
        config = SimulationConfig(num_users=5, alert_rate_per_step=0.0, seed=4)
        simulation = _simulation(scenario, config)
        result = simulation.run(steps=3)
        assert result.total_alerts == 0
        assert result.total_pairings == 0
        assert result.total_notifications == 0

    def test_reproducibility(self, scenario):
        config = SimulationConfig(num_users=5, alert_rate_per_step=1.0, seed=5)
        first = _simulation(scenario, config).run(3)
        second = _simulation(scenario, config).run(3)
        assert first.as_rows() == second.as_rows()

    def test_service_config_drives_the_session(self, scenario):
        """Both matching strategies, chosen in the ServiceConfig, give the
        same per-step rows: notifications and pairing totals."""
        config = SimulationConfig(num_users=6, alert_rate_per_step=2.0, alert_radius=80.0, seed=3)
        rows = {}
        for strategy in ("planned", "naive"):
            service_config = ServiceConfig(prime_bits=32, matching_strategy=strategy)
            with AlertServiceSimulation(
                scenario.grid, scenario.probabilities, config=config, service_config=service_config
            ) as simulation:
                # No service seed: the key material falls back to the workload's.
                assert simulation.service.config == dataclasses.replace(
                    service_config, seed=config.seed + 1
                )
                rows[strategy] = simulation.run(3).as_rows()
        assert rows["planned"] == rows["naive"]

    def test_service_seed_drives_the_key_material(self, scenario):
        """Two service seeds: different ciphertext bytes, equal totals."""
        config = SimulationConfig(num_users=6, alert_rate_per_step=2.0, alert_radius=80.0, seed=3)
        ciphertexts, rows = [], []
        for seed in (1, 2):
            service_config = ServiceConfig(prime_bits=32, seed=seed)
            with AlertServiceSimulation(
                scenario.grid, scenario.probabilities, config=config, service_config=service_config
            ) as simulation:
                assert simulation.service.config is service_config
                rows.append(simulation.run(3).as_rows())
                report = simulation.service.store.report_for("sim-user-0000")
                ciphertexts.append(json.dumps(serialize_ciphertext(report.ciphertext)))
        assert ciphertexts[0] != ciphertexts[1]
        assert rows[0] == rows[1]

    def test_invalid_steps(self, scenario):
        config = SimulationConfig(num_users=3, seed=6)
        simulation = _simulation(scenario, config)
        with pytest.raises(ValueError):
            simulation.run(0)
