"""Asyncio client for the alert-service wire protocol.

One :class:`AlertServiceClient` owns one TCP connection and keeps many
requests in flight over it: every request carries an integer id, responses
are matched back to their futures by id, so many requests can be outstanding
at once without head-of-line blocking on the client side (the server still
executes them in arrival order -- that is the service's consistency model).

Exactly-once identity
---------------------
The client carries a stable ``client_id`` and a per-instance ``epoch``, and
opens every connection with a hello handshake (:class:`ClientHello` /
:class:`HelloAck` of :mod:`repro.service.requests`).  Request ids are
monotonic **per client object**, not per connection -- a reconnect keeps
counting -- and :meth:`request_with_retry` re-sends the *same* id on every
attempt, so the server's per-client idempotency table can recognise a resend
of a request it already executed and answer from cache instead of executing
twice.  Every request piggybacks the client's answered low-watermark
(``acked``), bounding that table.  Any hello reply other than a
:class:`HelloAck` fails the connect with a :class:`ClientError`.

Failure handling mirrors the server's contract:

- an ``error`` frame becomes a typed exception -- :class:`ServerBusy` for the
  backpressure rejection, :class:`RemoteRequestError` (carrying the remote
  exception name and, for unknown requests, the server's list of recognised
  types) for everything else;
- a lost/corrupt connection fails every pending request with
  :class:`ConnectionLost`; :meth:`request_with_retry` transparently
  reconnects and retries with seeded-jitter exponential backoff, which is
  also how a client rides out a server restart (supervised or not: the
  restore path brings the session back, the client simply reconnects and
  continues);
- :meth:`connect` is bounded: a dial or handshake that stalls past
  ``connect_timeout`` raises :class:`ConnectTimeout` (a
  :class:`ConnectionLost`, so the retry path absorbs it);
- :class:`RequestTimeout` bounds how long a caller waits for any one
  response.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import zlib
from typing import Dict, Optional, Set

from repro.net.wire import (
    BASELINE_WIRE_VERSION,
    WIRE_VERSION,
    WireError,
    read_frame,
    resolve_wire_format,
    write_frame,
)
from repro.service.config import NetOptions
from repro.service.requests import (
    ClientHello,
    ErrorResponse,
    HelloAck,
    Request,
    request_to_wire,
    response_from_wire,
)

__all__ = [
    "AlertServiceClient",
    "ClientError",
    "ConnectionLost",
    "ConnectTimeout",
    "RemoteRequestError",
    "RequestTimeout",
    "ServerBusy",
]


class ClientError(Exception):
    """Base class for client-side failures."""


class ConnectionLost(ClientError):
    """The connection died (EOF, reset, or a corrupt frame) mid-conversation."""


class ConnectTimeout(ConnectionLost):
    """Dial or handshake exceeded ``connect_timeout``.

    Subclasses :class:`ConnectionLost` so :meth:`request_with_retry` treats a
    stalled listener exactly like a dead one: back off and try again.
    """


class RequestTimeout(ClientError):
    """No response arrived within the caller's timeout."""


class RemoteRequestError(ClientError):
    """The server answered with an ``error`` frame.

    Carries the remote exception's name (``error``), message, and -- when the
    failure was an unrecognised request -- the ``expected`` tuple of request
    type names the service does handle.
    """

    def __init__(self, response: ErrorResponse):
        self.error = response.error
        self.expected = response.expected
        detail = f" (expected one of {sorted(response.expected)})" if response.expected else ""
        super().__init__(f"{response.error}: {response.message}{detail}")


class ServerBusy(RemoteRequestError):
    """The backpressure rejection: retry after a backoff."""


class AlertServiceClient:
    """Wire-protocol client with many requests in flight; safe for many
    concurrent awaiters.

    Parameters
    ----------
    host, port:
        The server endpoint.
    options:
        Optional :class:`NetOptions` supplying ``max_frame_bytes`` and the
        preferred ``wire_format`` (both default sensibly).
    timeout:
        Default per-request response timeout in seconds.
    client_id:
        Stable client identity for the exactly-once handshake.  Defaults to a
        random id (fresh identity per client object); pin it to survive
        process restarts or to make chaos scripts deterministic.
    epoch:
        Identifies this client *instance*.  Reconnects keep the epoch (the
        server resumes the idempotency state); a new instance reusing a
        ``client_id`` should start a new epoch (the default random one does),
        which resets the server-side state for that id.
    connect_timeout:
        Bound on one dial + handshake; exceeding it raises
        :class:`ConnectTimeout`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7425,
        *,
        options: Optional[NetOptions] = None,
        timeout: float = 30.0,
        client_id: Optional[str] = None,
        epoch: Optional[int] = None,
        connect_timeout: float = 10.0,
    ):
        self.host = host
        self.port = port
        self.options = options if options is not None else NetOptions(host=host, port=port)
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.client_id = client_id if client_id else f"c-{os.urandom(6).hex()}"
        self.epoch = epoch if epoch is not None else int.from_bytes(os.urandom(6), "big")
        self.wire_format = resolve_wire_format(self.options.wire_format)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._receiver: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0  # monotonic per client *object*: survives reconnects
        self._send_lock = asyncio.Lock()
        self._connect_lock = asyncio.Lock()
        self._wire_version = BASELINE_WIRE_VERSION
        self._acked = 0  # every request id <= this has been answered
        self._answered: Set[int] = set()
        # Seeded per-client jitter stream: many clients restarting together
        # de-synchronize their retries, yet the same (client_id, epoch)
        # replays the same backoff schedule -- chaos soaks stay reproducible.
        self._retry_rng = random.Random(
            (zlib.crc32(self.client_id.encode("utf-8")) << 32) ^ (self.epoch & 0xFFFFFFFF)
        )
        self.reconnects = 0
        self.requests_sent = 0
        self.last_hello_resumed = False

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    @property
    def session_active(self) -> bool:
        """True when connected: every connection negotiates the exactly-once session."""
        return self.connected

    @property
    def negotiated_wire_version(self) -> int:
        return self._wire_version

    @property
    def acked_watermark(self) -> int:
        return self._acked

    async def connect(self) -> None:
        async with self._connect_lock:  # concurrent callers share one dial
            if self.connected:
                return
            try:
                reader, writer = await asyncio.wait_for(self._dial(), self.connect_timeout)
            except asyncio.TimeoutError as exc:
                raise ConnectTimeout(
                    f"connect to {self.host}:{self.port} exceeded {self.connect_timeout}s"
                ) from exc
            self._reader, self._writer = reader, writer
            self._receiver = asyncio.create_task(self._receive_loop(reader))

    async def _dial(self):
        """Open the socket and run the hello handshake; maps failures to
        :class:`ConnectionLost` so the retry path absorbs restart windows."""
        try:
            reader, writer = await asyncio.open_connection(self.host, self.port)
        except (ConnectionError, OSError) as exc:
            raise ConnectionLost(f"connect to {self.host}:{self.port} failed: {exc}") from exc
        try:
            await self._handshake(reader, writer)
        except (WireError, ConnectionError, OSError) as exc:
            writer.close()
            raise ConnectionLost(f"handshake failed: {exc}") from exc
        except BaseException:
            # Includes the CancelledError injected by connect()'s wait_for on
            # timeout: never leak a half-open socket.
            writer.close()
            raise
        return reader, writer

    async def _handshake(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """One hello/ack exchange, run before the receive loop starts.

        The hello itself is a **baseline-version** frame; only after a
        :class:`HelloAck` do both sides stamp the negotiated version.
        """
        hello = ClientHello(
            client_id=self.client_id,
            epoch=self.epoch,
            wire_version=WIRE_VERSION,
            acked=self._acked,
        )
        envelope = {"id": 0, "kind": "hello", "payload": hello.to_wire()}
        await write_frame(writer, envelope, self.wire_format)
        frame = await read_frame(reader, self.options.max_frame_bytes)
        if frame is None:
            raise ConnectionLost("server closed the connection during the handshake")
        payload = frame.get("payload") or {}
        kind = payload.get("type")
        if kind != "hello_ack":
            raise ClientError(f"unexpected handshake reply {kind!r}")
        ack = HelloAck.from_wire(payload)
        self._wire_version = max(BASELINE_WIRE_VERSION, min(int(ack.wire_version), WIRE_VERSION))
        self.last_hello_resumed = ack.resumed

    async def close(self) -> None:
        await self._teardown(ConnectionLost("client closed"))

    async def __aenter__(self) -> "AlertServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def _teardown(self, error: Exception) -> None:
        receiver, self._receiver = self._receiver, None
        writer, self._writer = self._writer, None
        self._reader = None
        if writer is not None:
            with contextlib.suppress(ConnectionError, OSError):
                writer.close()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(writer.wait_closed(), timeout=1.0)
        if receiver is not None and receiver is not asyncio.current_task():
            receiver.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await receiver
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    # ------------------------------------------------------------------
    # Receive loop: route responses to their futures by id
    # ------------------------------------------------------------------
    def _mark_answered(self, req_id: int) -> None:
        """Advance the answered low-watermark: largest N with all ids <= N
        *finished* -- answered or permanently abandoned.

        The watermark is a promise that the client will never re-send an id
        at or below it, so an id may only be marked once its caller is done
        with it (result delivered, non-retryable error, or retries
        exhausted).  Marking on mere response *arrival* would be wrong: a
        BUSY or late response to an id the retry loop is about to re-send
        would advance the watermark past it, and the server would prune the
        cached answer and reject the retry as stale.
        """
        if req_id <= self._acked:
            return
        self._answered.add(req_id)
        while self._acked + 1 in self._answered:
            self._answered.discard(self._acked + 1)
            self._acked += 1

    async def _receive_loop(self, reader: asyncio.StreamReader) -> None:
        # The reader is bound at connect time: a reconnect starts a fresh
        # loop on the fresh reader, and a stale loop can never steal from it.
        error: Exception = ConnectionLost("server closed the connection")
        try:
            while True:
                frame = await read_frame(reader, self.options.max_frame_bytes)
                if frame is None:
                    break
                future = self._pending.pop(frame.get("id"), None)
                if future is None or future.done():
                    continue  # late response to a timed-out/abandoned request
                try:
                    response = response_from_wire(frame.get("payload") or {})
                except Exception as exc:  # undecodable payload: fail just this call
                    future.set_exception(ClientError(f"bad response payload: {exc}"))
                    continue
                if isinstance(response, ErrorResponse):
                    exc_cls = ServerBusy if response.error == "ServerBusy" else RemoteRequestError
                    future.set_exception(exc_cls(response))
                else:
                    future.set_result(response)
        except (WireError, ConnectionError, OSError) as exc:
            error = ConnectionLost(str(exc))
        except asyncio.CancelledError:
            raise
        # EOF or a fatal wire error: every pending request fails over to retry.
        self._receiver = None
        await self._teardown(error)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def allocate_request_id(self) -> int:
        """Mint the next monotonic request id (ids survive reconnects)."""
        self._next_id += 1
        return self._next_id

    async def request(
        self,
        request: Request,
        timeout: Optional[float] = None,
        *,
        req_id: Optional[int] = None,
    ) -> object:
        """Send one request and await its typed response (pipelining-safe).

        ``req_id`` lets a retry loop re-send under the id of a previous
        attempt -- the cornerstone of the exactly-once contract; plain calls
        leave it unset and get a fresh id.
        """
        if not self.connected:
            await self.connect()
        # An explicitly passed id belongs to a retry loop, which owns its
        # watermark bookkeeping; an auto-allocated id is single-shot, so this
        # call is its whole lifetime and marks it finished on every exit.
        auto_id = req_id is None
        if req_id is None:
            req_id = self.allocate_request_id()
        try:
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            self._pending[req_id] = future
            envelope = {
                "id": req_id,
                "kind": "request",
                "payload": request_to_wire(request),
                "acked": self._acked,
            }
            try:
                async with self._send_lock:
                    if self._writer is None:
                        raise ConnectionLost("connection lost before send")
                    await write_frame(self._writer, envelope, self.wire_format, self._wire_version)
                self.requests_sent += 1
            except ConnectionLost:
                self._pending.pop(req_id, None)
                raise
            except (ConnectionError, OSError) as exc:
                self._pending.pop(req_id, None)
                await self._teardown(ConnectionLost(str(exc)))
                raise ConnectionLost(str(exc)) from exc
            try:
                return await asyncio.wait_for(
                    future, timeout if timeout is not None else self.timeout
                )
            except asyncio.TimeoutError as exc:
                self._pending.pop(req_id, None)
                raise RequestTimeout(f"no response to request {req_id} in time") from exc
        finally:
            if auto_id:
                self._mark_answered(req_id)

    def _backoff(self, delay: float) -> float:
        """Jittered sleep for one retry: 50-100% of ``delay``, from the
        per-client seeded stream (no synchronized retry storms, yet
        reproducible per client)."""
        return delay * (0.5 + 0.5 * self._retry_rng.random())

    async def request_with_retry(
        self,
        request: Request,
        *,
        attempts: int = 6,
        base_delay: float = 0.05,
        timeout: Optional[float] = None,
    ) -> object:
        """:meth:`request` that rides out BUSY rejections, reconnects and
        restarts -- safe for **all** request types against a handshaken server.

        Every attempt re-sends under the same request id, so a
        :class:`RequestTimeout` whose original attempt the server *did*
        execute is answered from the server's idempotency cache instead of
        executing twice.
        Retries on :class:`ServerBusy`, :class:`ConnectionLost` (including
        :class:`ConnectTimeout`) and :class:`RequestTimeout`; remote request
        errors are the caller's bug and propagate immediately.
        """
        delay = base_delay
        last: Exception = ClientError("no attempts made")
        req_id = self.allocate_request_id()
        try:
            for _ in range(attempts):
                try:
                    return await self.request(request, timeout=timeout, req_id=req_id)
                except ServerBusy as exc:
                    last = exc
                except (ConnectionLost, RequestTimeout) as exc:
                    last = exc
                    self.reconnects += 1
                await asyncio.sleep(self._backoff(delay))
                delay = min(delay * 2, 2.0)
            raise last
        finally:
            # Finished with this id on every exit -- success, a non-retryable
            # remote error, or exhausted attempts -- never mid-retry.
            self._mark_answered(req_id)
