"""Population-scale simulation of the alert service over time.

The paper evaluates per-alert matching cost; a deployed service additionally
faces a *stream* of location updates and alerts.  This module provides a small
discrete-time simulator used by ``repro simulate`` and the examples:

* a population of users moving over the grid with a lazy random-waypoint model
  biased towards popular cells (people spend more time at popular places);
* periodic encrypted location reports;
* alert events arriving as a Poisson process, each producing a
  probability-triggered zone of a configurable radius;
* per-step statistics: updates uploaded, tokens issued, pairings spent,
  notifications delivered.

The simulator runs entirely on the real protocol stack (HVE included), so its
numbers are end-to-end measurements, not estimates.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.encoding.base import EncodingScheme
from repro.grid.geometry import Point
from repro.grid.workloads import WorkloadGenerator
from repro.probability.poisson import poisson_sample
from repro.service.config import ServiceConfig
from repro.service.requests import PublishZone
from repro.service.service import AlertService

__all__ = ["SimulationConfig", "StepStats", "SimulationResult", "AlertServiceSimulation"]


@dataclass(frozen=True)
class SimulationConfig:
    """The workload of a simulation run: population, movement and alert stream.

    Crypto and matching settings are not workload: they come from the
    session's :class:`~repro.service.config.ServiceConfig`.
    """

    num_users: int = 50
    move_probability: float = 0.3
    report_every_steps: int = 1
    alert_rate_per_step: float = 0.5
    alert_radius: float = 100.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ValueError("num_users must be at least 1")
        if not 0.0 <= self.move_probability <= 1.0:
            raise ValueError("move_probability must be in [0, 1]")
        if self.report_every_steps < 1:
            raise ValueError("report_every_steps must be at least 1")
        if self.alert_rate_per_step < 0:
            raise ValueError("alert_rate_per_step must be non-negative")
        if self.alert_radius < 0:
            raise ValueError("alert_radius must be non-negative")


@dataclass(frozen=True)
class StepStats:
    """What happened during one simulated time step."""

    step: int
    location_reports: int
    alerts: int
    tokens_issued: int
    notifications: int
    pairings_spent: int


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated outcome of a simulation run."""

    steps: tuple[StepStats, ...]

    @property
    def total_notifications(self) -> int:
        """Notifications delivered over the whole run."""
        return sum(s.notifications for s in self.steps)

    @property
    def total_alerts(self) -> int:
        """Alert events over the whole run."""
        return sum(s.alerts for s in self.steps)

    @property
    def total_pairings(self) -> int:
        """Bilinear pairings evaluated over the whole run."""
        return sum(s.pairings_spent for s in self.steps)

    @property
    def total_reports(self) -> int:
        """Encrypted location reports uploaded over the whole run."""
        return sum(s.location_reports for s in self.steps)

    def as_rows(self) -> list[dict[str, object]]:
        """Per-step rows for report printing."""
        return [
            {
                "step": s.step,
                "reports": s.location_reports,
                "alerts": s.alerts,
                "tokens": s.tokens_issued,
                "notifications": s.notifications,
                "pairings": s.pairings_spent,
            }
            for s in self.steps
        ]


class AlertServiceSimulation:
    """Drives an :class:`~repro.service.service.AlertService` session with
    moving users and random alerts.

    Every simulated alert is a one-shot ``PublishZone`` request.  ``config``
    sets the workload; ``service_config`` sets everything the session itself
    needs (scheme, primes, backend, matching strategy); its ``seed`` seeds the
    key material, which falls back to ``config.seed + 1`` when it is ``None``.
    ``system`` exposes the underlying
    :class:`~repro.protocol.alert_system.SecureAlertSystem`.
    """

    def __init__(
        self,
        grid,
        probabilities: Sequence[float],
        scheme: Optional[EncodingScheme] = None,
        config: Optional[SimulationConfig] = None,
        service_config: Optional[ServiceConfig] = None,
    ):
        self.config = config or SimulationConfig()
        self.rng = random.Random(self.config.seed)
        service_config = service_config or ServiceConfig()
        if service_config.seed is None:
            service_config = dataclasses.replace(service_config, seed=self.config.seed + 1)
        self.service = AlertService(grid, probabilities, config=service_config, scheme=scheme)
        self.system = self.service.system
        self.grid = grid
        self.probabilities = list(probabilities)
        self._zone_generator = WorkloadGenerator(grid, probabilities, rng=random.Random(self.config.seed + 2))
        self._alert_counter = 0
        self._populate_users()

    # ------------------------------------------------------------------
    # Population handling
    # ------------------------------------------------------------------
    def _popular_cell(self) -> int:
        weights = [p + 1e-6 for p in self.probabilities]
        return self.rng.choices(range(self.grid.n_cells), weights=weights, k=1)[0]

    def _random_point_in_cell(self, cell_id: int) -> Point:
        cell = self.grid.cell(cell_id)
        return Point(
            self.rng.uniform(cell.box.min_x, cell.box.max_x),
            self.rng.uniform(cell.box.min_y, cell.box.max_y),
        )

    def _populate_users(self) -> None:
        for i in range(self.config.num_users):
            cell = self._popular_cell()
            self.system.register_user(f"sim-user-{i:04d}", self._random_point_in_cell(cell))

    def _move_users(self) -> int:
        """Move a fraction of users; returns the number of fresh reports uploaded."""
        moved = 0
        for user_id in list(self.system.users):
            if self.rng.random() < self.config.move_probability:
                destination = self._popular_cell()
                self.system.move_user(user_id, self._random_point_in_cell(destination))
                moved += 1
        return moved

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def run(self, steps: int) -> SimulationResult:
        """Run the simulation for ``steps`` time steps."""
        if steps < 1:
            raise ValueError("steps must be at least 1")
        collected: list[StepStats] = []
        for step in range(steps):
            reports = self._move_users() if step % self.config.report_every_steps == 0 else 0

            alerts = poisson_sample(self.config.alert_rate_per_step, self.rng)
            tokens_issued = 0
            notifications = 0
            pairings_before = self.system.pairing_count
            for _ in range(alerts):
                zone = self._zone_generator.triggered_radius_workload(self.config.alert_radius, 1).zones[0]
                self._alert_counter += 1
                report = self.service.publish_zone(
                    PublishZone(
                        alert_id=f"sim-alert-{self._alert_counter}",
                        zone=zone,
                        standing=False,
                    )
                )
                tokens_issued += report.tokens_evaluated
                notifications += len(report.notifications)
            collected.append(
                StepStats(
                    step=step,
                    location_reports=reports,
                    alerts=alerts,
                    tokens_issued=tokens_issued,
                    notifications=notifications,
                    pairings_spent=self.system.pairing_count - pairings_before,
                )
            )
        return SimulationResult(steps=tuple(collected))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """End the underlying session (closes its journal, if any)."""
        self.service.close()

    def __enter__(self) -> "AlertServiceSimulation":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
