"""repro.net: the network service tier.

Puts one :class:`~repro.service.service.AlertService` session behind an
asyncio TCP front -- :mod:`~repro.net.wire` frames the typed request/response
payloads of :mod:`repro.service.requests`, :mod:`~repro.net.server` serves
them with request batching and explicit backpressure,
:mod:`~repro.net.client` keeps many requests in flight and reconnects, and
:mod:`~repro.net.loadgen` measures the whole stack open-loop.
:mod:`~repro.net.chaos` proves the tier fault-transparent: injected
connection drops, corrupt frames and slow clients must not change a single
notification.

Everything speaks stdlib JSON on the wire by default; msgpack is used only
when the optional package is importable (``NetOptions.wire_format="auto"``).
"""

from repro.net.chaos import (
    DEFAULT_NET_CHAOS_SPEC,
    CrashRestartOutcome,
    NetChaosOutcome,
    build_soak_script,
    run_crash_restart_soak,
    run_net_chaos_soak,
)
from repro.net.client import (
    AlertServiceClient,
    ClientError,
    ConnectionLost,
    ConnectTimeout,
    RemoteRequestError,
    RequestTimeout,
    ServerBusy,
)
from repro.net.loadgen import (
    LoadMix,
    PointResult,
    ShadowEncryptor,
    SweepResult,
    build_schedule,
    publish_sweep,
    render_table,
    run_point,
    run_sweep,
)
from repro.net.server import AlertServiceServer, ServerStats
from repro.net.wire import (
    BASELINE_WIRE_VERSION,
    WIRE_VERSION,
    FrameCorrupt,
    FrameTooLarge,
    WireError,
    WireVersionError,
    decode_body_checked,
    decode_frame,
    encode_frame,
    encode_frame_parts,
    msgpack_available,
    read_frame,
    read_frame_raw,
    write_frame,
)
from repro.service.config import NetOptions

__all__ = [
    "AlertServiceClient",
    "AlertServiceServer",
    "ServerStats",
    "NetOptions",
    "ClientError",
    "ConnectionLost",
    "ConnectTimeout",
    "RemoteRequestError",
    "RequestTimeout",
    "ServerBusy",
    "WireError",
    "WIRE_VERSION",
    "BASELINE_WIRE_VERSION",
    "FrameCorrupt",
    "FrameTooLarge",
    "WireVersionError",
    "encode_frame",
    "encode_frame_parts",
    "decode_frame",
    "decode_body_checked",
    "read_frame",
    "read_frame_raw",
    "write_frame",
    "msgpack_available",
    "LoadMix",
    "PointResult",
    "SweepResult",
    "ShadowEncryptor",
    "build_schedule",
    "run_point",
    "run_sweep",
    "publish_sweep",
    "render_table",
    "DEFAULT_NET_CHAOS_SPEC",
    "NetChaosOutcome",
    "run_net_chaos_soak",
    "CrashRestartOutcome",
    "run_crash_restart_soak",
    "build_soak_script",
]
