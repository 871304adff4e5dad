"""repro: secure location-based alerts with searchable encryption and Huffman codes.

A production-quality reproduction of *"An Efficient and Secure Location-based
Alert Protocol using Searchable Encryption and Huffman Codes"* (Shaham,
Ghinita, Shahabi -- EDBT 2021).

The library is organised bottom-up:

* :mod:`repro.crypto` -- composite-order bilinear group and Hidden Vector
  Encryption (the searchable-encryption substrate).
* :mod:`repro.grid` -- spatial grid, alert zones and workload generators.
* :mod:`repro.probability` -- per-cell alert-likelihood models (sigmoid,
  Poisson, logistic regression on crime data).
* :mod:`repro.datasets` -- synthetic Chicago-crime-like data and bundled
  synthetic scenarios.
* :mod:`repro.encoding` -- fixed-length baselines and the proposed
  variable-length (Huffman / B-ary Huffman) encodings.
* :mod:`repro.minimization` -- token minimization (Algorithm 3 and
  Quine-McCluskey).
* :mod:`repro.protocol` -- mobile users, trusted authority, service provider
  and the end-to-end alert system.
* :mod:`repro.analysis` -- bounds, metrics and the Section 7 experiment
  drivers.
* :mod:`repro.service` -- :class:`~repro.service.service.AlertService`, the
  library's front door: one long-lived session per deployment, built from one
  :class:`~repro.service.config.ServiceConfig`, with typed requests/responses,
  warm token plans and snapshot/restore.
* :mod:`repro.net` -- the asyncio TCP server and client in front of a session.
"""

from repro.encoding import scheme_by_name
from repro.grid.alert_zone import AlertZone, circular_alert_zone
from repro.grid.geometry import BoundingBox, Point
from repro.grid.grid import Grid
from repro.service import (
    AlertService,
    EvaluateStanding,
    IngestBatch,
    MatchReport,
    Move,
    PublishZone,
    RetractZone,
    ServiceConfig,
    Subscribe,
)

__version__ = "1.1.0"

__all__ = [
    "scheme_by_name",
    "AlertService",
    "ServiceConfig",
    "Subscribe",
    "Move",
    "PublishZone",
    "RetractZone",
    "IngestBatch",
    "EvaluateStanding",
    "MatchReport",
    "AlertZone",
    "circular_alert_zone",
    "BoundingBox",
    "Point",
    "Grid",
    "__version__",
]
