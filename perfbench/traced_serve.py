"""Start ``repro serve`` with benchmark-owned wrappers around public functions.

Usage::

    python3 perfbench/traced_serve.py [--spans FILE] [--delay NAME=MS ...] -- serve ARGS...

The launcher imports :mod:`repro`, replaces each function listed in
:data:`TRACED` *where the server looks it up* (a module attribute or a class
attribute) with a wrapper, then calls the CLI entry point with ``ARGS``.
Nothing inside ``src/`` changes.

``--spans FILE``
    Record one span per wrapped call: name, start, end (``time.monotonic_ns``,
    the system-wide ``CLOCK_MONOTONIC`` on Linux, so the load generator's
    timestamps line up), the enclosing span on the same thread, the request
    ids it served and a few counters read at the call boundary.  Spans stay
    in memory and are written as JSON when the server stops gracefully.

``--delay NAME=MS``
    Busy-wait ``MS`` milliseconds at the start of every call to ``NAME`` (a
    key of :data:`TRACED`, e.g. ``FusedWorklist.evaluate``).  The wait holds
    the GIL the way the function's own Python work does, so it also slows a
    function that runs on a thread of its own, as the journal stage does.
    Used only by the benchmark's sensitivity self-check; works with or
    without ``--spans``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import pathlib
import sys
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import cli  # noqa: E402
from repro.crypto import serialization  # noqa: E402
from repro.crypto.backends.base import FusedWorklist  # noqa: E402
from repro.crypto.hve import HVE  # noqa: E402
from repro.net import server as net_server  # noqa: E402
from repro.protocol.alert_system import SecureAlertSystem  # noqa: E402
from repro.protocol.matching import MatchingEngine  # noqa: E402
from repro.protocol.store import CiphertextStore  # noqa: E402
from repro.service.journal import RequestJournal  # noqa: E402
from repro.service.requests import IngestBatch  # noqa: E402
from repro.service.service import AlertService  # noqa: E402

#: Wrapped name -> (owner, attribute, span name).  The owner is where the
#: server looks the function up; the span name's first component is the layer
#: (a ``repro`` sub-package) its self time is charged to.
TRACED = {
    "decode_body_checked": (net_server, "decode_body_checked", "net.decode"),
    "request_from_wire": (net_server, "request_from_wire", "net.request_from_wire"),
    "encode_frame_parts": (net_server, "encode_frame_parts", "net.encode"),
    "response_to_wire": (net_server, "response_to_wire", "net.response_to_wire"),
    "AlertService.handle": (AlertService, "handle", "service.handle"),
    "AlertService.journal_requests": (AlertService, "journal_requests", "service.journal_requests"),
    "RequestJournal.append_batch": (RequestJournal, "append_batch", "service.journal_append"),
    "RequestJournal.append": (RequestJournal, "append", "service.journal_append"),
    "MatchingEngine.match_store": (MatchingEngine, "match_store", "protocol.match_store"),
    "CiphertextStore.ingest": (CiphertextStore, "ingest", "protocol.store_ingest"),
    "FusedWorklist.evaluate": (FusedWorklist, "evaluate", "crypto.worklist_eval"),
    "HVE.encrypt": (HVE, "encrypt", "crypto.encrypt"),
    "HVE.generate_token": (HVE, "generate_token", "crypto.token"),
    "deserialize_ciphertext": (serialization, "deserialize_ciphertext", "crypto.deserialize"),
    "SecureAlertSystem.issue_token_batch": (
        SecureAlertSystem, "issue_token_batch", "encoding.zone_tokens",
    ),
}


class Tracer:
    """In-memory span recorder plus the request links the metrics need.

    Links are resolved online, while the objects are alive, so an ``id()`` is
    never compared after its object could have been freed:

    * a request built by ``request_from_wire`` (for ``IngestBatch``, each of
      its updates, because the server merges consecutive batches into a new
      request) -> when decoding finished, so ``handle`` can record how long
      the request queued before it started;
    * a planned request -> the ``client_id:request_id`` origins the
      ``journal_requests`` group commit received, which gives ``handle``
      spans the request ids the load generator recorded.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._decoded: dict = {}  # id(request or update) -> (object, decoded_ns)
        self._origins: dict = {}  # id(planned request) -> (request, [rid, ...])

    def wrap(self, span_name: str, original, pre=None, post=None):
        """``original`` recording one span per call.

        ``pre(args, kwargs, attrs)`` runs before the call and returns a state
        handed to ``post(args, kwargs, result, attrs, state)`` after it.
        """
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = next(ids)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            attrs: dict = {}
            state = pre(args, kwargs, attrs) if pre is not None else None
            stack.append(span_id)
            start = time.monotonic_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                stack.pop()
            if post is not None:
                post(args, kwargs, result, attrs, state)
            spans.append((span_id, span_name, start, end, parent, threading.get_ident(), attrs))
            return result

        return traced

    # -- hooks: counters read at the call boundary ------------------------
    @staticmethod
    def after_decode(args, kwargs, result, attrs, state):
        attrs["bytes"] = len(args[0])

    @staticmethod
    def after_encode(args, kwargs, result, attrs, state):
        attrs["bytes"] = len(result[1])  # (header, body)

    def after_request(self, args, kwargs, result, attrs, state):
        now = time.monotonic_ns()
        objects = result.updates if isinstance(result, IngestBatch) else (result,)
        with self._lock:
            for obj in objects:
                self._decoded[id(obj)] = (obj, now)

    def before_journal_requests(self, args, kwargs, attrs):
        requests = args[1]
        origins = args[2] if len(args) > 2 else kwargs.get("origins")
        origins = origins if origins is not None else [None] * len(requests)
        members = 0
        with self._lock:
            for request, entry in zip(requests, origins):
                rids = [f"{cid}:{rid}" for cid, _epoch, rid in (entry or ())]
                members += max(1, len(rids))
                self._origins[id(request)] = (request, rids)
        attrs["members"] = members

    def before_handle(self, args, kwargs, attrs):
        request = args[1]
        now = time.monotonic_ns()
        objects = request.updates if isinstance(request, IngestBatch) else (request,)
        waits = []
        with self._lock:
            linked = self._origins.pop(id(request), None)
            for obj in objects:
                entry = self._decoded.pop(id(obj), None)
                if entry is not None:
                    waits.append((now - entry[1]) / 1e6)
        attrs["kind"] = type(request).__name__
        if waits:
            attrs["waits_ms"] = waits
        if linked is not None and linked[1]:
            attrs["rids"] = linked[1]

    @staticmethod
    def before_append(args, kwargs, attrs):
        path = args[0].path
        return path.stat().st_size if path.exists() else 0

    @staticmethod
    def after_append(args, kwargs, result, attrs, size_before):
        attrs["bytes"] = args[0].path.stat().st_size - size_before
        attrs["entries"] = len(result) if isinstance(result, list) else 1

    @staticmethod
    def before_match_store(args, kwargs, attrs):
        return args[0].plan_reuses

    @staticmethod
    def after_match_store(args, kwargs, result, attrs, reuses_before):
        engine = args[0]
        attrs["plan_hit"] = engine.plan_reuses - reuses_before
        attrs["candidates"] = engine.last_pass.candidates

    @staticmethod
    def before_worklist(args, kwargs, attrs):
        return args[0].column_hits

    @staticmethod
    def after_worklist(args, kwargs, result, attrs, hits_before):
        attrs["reused"] = args[0].column_hits - hits_before

    def hooks(self) -> dict:
        """Wrapped name -> (pre, post)."""
        append = (self.before_append, self.after_append)
        return {
            "decode_body_checked": (None, self.after_decode),
            "encode_frame_parts": (None, self.after_encode),
            "request_from_wire": (None, self.after_request),
            "AlertService.journal_requests": (self.before_journal_requests, None),
            "AlertService.handle": (self.before_handle, None),
            "RequestJournal.append_batch": append,
            "RequestJournal.append": append,
            "MatchingEngine.match_store": (self.before_match_store, self.after_match_store),
            "FusedWorklist.evaluate": (self.before_worklist, self.after_worklist),
        }

    def dump(self, path: pathlib.Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}), encoding="utf-8")


def _delayed(original, seconds: float):
    @functools.wraps(original)
    def delayed(*args, **kwargs):
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            pass
        return original(*args, **kwargs)

    return delayed


def install(tracer, delays: dict) -> None:
    """Replace every :data:`TRACED` function by its traced and/or delayed wrapper."""
    unknown = sorted(set(delays) - set(TRACED))
    if unknown:
        raise SystemExit(f"unknown --delay target(s) {unknown}; choose from {sorted(TRACED)}")
    hooks = tracer.hooks() if tracer is not None else {}
    for name, (owner, attribute, span_name) in TRACED.items():
        original = function = getattr(owner, attribute)
        if name in delays:
            function = _delayed(function, delays[name] / 1000.0)
        if tracer is not None:
            pre, post = hooks.get(name, (None, None))
            function = tracer.wrap(span_name, function, pre, post)
        if function is not original:
            setattr(owner, attribute, function)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run `repro serve` with benchmark wrappers.")
    parser.add_argument("--spans", default=None, help="write recorded spans here at stop")
    parser.add_argument("--delay", action="append", default=[], help="NAME=MS fixed delay")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args
    delays = {}
    for item in args.delay:
        name, _, millis = item.partition("=")
        delays[name] = float(millis)
    tracer = Tracer() if args.spans else None
    install(tracer, delays)
    code = cli.main(serve_args)
    if tracer is not None:
        tracer.dump(pathlib.Path(args.spans))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
