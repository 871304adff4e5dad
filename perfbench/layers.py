"""Per-layer metrics from the spans of a traced run.

A span's *self time* is its duration minus the time its child spans (same
thread, recorded while it was open) cover.  Each span is charged to the layer
named by its first component -- the ``repro`` sub-package whose public
function it wraps: ``net``, ``service``, ``protocol``, ``crypto`` or
``encoding``.

Metrics are computed over the open-loop phases of the run.  A metric whose
spans do not occur there (say, ``service.handle_ms.move`` on a workload whose
open-loop phase has no Moves) falls back to the whole measured run, so every
metric is a measurement on every workload.

Run as a script on a saved result (``.perfbench/results/*.json``) to print the
layers ranked by self-time share, deterministically (ties by name)::

    python3 perfbench/layers.py .perfbench/results/city_ticks-s1-t1.json
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

LAYERS = ("net", "service", "protocol", "crypto", "encoding")

#: ``AlertService.handle`` request kind -> metric suffix.
HANDLE_KINDS = {
    "Move": "move",
    "IngestBatch": "ingest_batch",
    "PublishZone": "publish_zone",
    "EvaluateStanding": "evaluate_standing",
}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class SpanSet:
    """Spans of one traced server, with self times."""

    def __init__(self, spans: list):
        children = defaultdict(int)
        for span_id, _name, start, end, parent, _thread, _attrs in spans:
            if parent >= 0:
                children[parent] += end - start
        self.spans = [
            (name, start, end - start, end - start - children.get(span_id, 0), attrs)
            for span_id, name, start, end, parent, _thread, attrs in spans
        ]

    def within(self, windows: list) -> list:
        """Spans starting inside any of the ``(low, high)`` ns windows."""
        return [span for span in self.spans
                if any(low <= span[1] <= high for low, high in windows)]


class LayerMetrics:
    """Computes the named per-layer metrics over a window, with fallback."""

    def __init__(self, spans: SpanSet, windows: list, fallback: list):
        self.primary = spans.within(windows)
        self.fallback = spans.within(fallback)
        self.metrics: dict = {}

    def _select(self, *names: str, kind: str = None) -> list:
        for pool in (self.primary, self.fallback):
            chosen = [
                s for s in pool
                if s[0] in names and (kind is None or s[4].get("kind") == kind)
            ]
            if chosen:
                return chosen
        return []

    def _put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def _mean(self, name: str, spans: list, field: int, scale: float, unit: str) -> None:
        if spans:
            self._put(name, sum(s[field] for s in spans) / len(spans) * scale, unit)

    def compute(self) -> dict:
        ms, us = 1e-6, 1e-3
        # repro.net -------------------------------------------------------
        decoded = self._select("net.request_from_wire")
        if decoded:
            frames = self._select("net.decode")
            self._put("net.decode_us", (sum(s[3] for s in frames) + sum(s[3] for s in decoded))
                      / len(decoded) * us, "us")
            self._put("net.req_bytes", sum(s[4]["bytes"] for s in frames) / len(frames), "B")
        encoded = self._select("net.encode")
        if encoded:
            payloads = self._select("net.response_to_wire")
            self._put("net.encode_us", (sum(s[3] for s in encoded) + sum(s[3] for s in payloads))
                      / len(encoded) * us, "us")
            self._put("net.resp_bytes", sum(s[4]["bytes"] for s in encoded) / len(encoded), "B")
        ticks = self._select("service.journal_requests")
        members = sum(s[4]["members"] for s in ticks)
        if ticks:
            self._put("net.reqs_per_tick", members / len(ticks), "count")
        waits = [w for s in self._select("service.handle") for w in s[4].get("waits_ms", ())]
        if waits:
            self._put("net.queue_wait_ms.p50", percentile(waits, 0.50), "ms")
            self._put("net.queue_wait_ms.p99", percentile(waits, 0.99), "ms")
        # repro.service ---------------------------------------------------
        for kind, suffix in HANDLE_KINDS.items():
            self._mean(f"service.handle_ms.{suffix}", self._select("service.handle", kind=kind),
                       3, ms, "ms")
        appends = self._select("service.journal_append")
        if appends and ticks:
            self._put("service.journal_ms_per_tick",
                      sum(s[2] for s in appends) / len(ticks) * ms, "ms")
            self._put("service.journal_bytes_per_req",
                      sum(s[4]["bytes"] for s in appends) / sum(s[4]["entries"] for s in appends),
                      "B")
            self._put("service.fsyncs_per_req", len(appends) / members, "count")
        # repro.protocol --------------------------------------------------
        passes = self._select("protocol.match_store")
        self._mean("protocol.match_store_ms", passes, 3, ms, "ms")
        if passes:
            self._put("protocol.plan_hit_ratio",
                      sum(s[4]["plan_hit"] for s in passes) / len(passes), "ratio")
            self._put("protocol.candidates_per_pass",
                      sum(s[4]["candidates"] for s in passes) / len(passes), "count")
        self._mean("protocol.store_ingest_us", self._select("protocol.store_ingest"), 2, us, "us")
        # repro.crypto ----------------------------------------------------
        worklist = self._select("crypto.worklist_eval")
        self._mean("crypto.worklist_eval_ms", worklist, 2, ms, "ms")
        if worklist:
            self._put("crypto.worklist_reuse_ratio",
                      sum(s[4]["reused"] for s in worklist) / len(worklist), "ratio")
        self._mean("crypto.encrypt_ms", self._select("crypto.encrypt"), 2, ms, "ms")
        self._mean("crypto.deserialize_us", self._select("crypto.deserialize"), 2, us, "us")
        self._mean("crypto.token_ms", self._select("crypto.token"), 2, ms, "ms")
        # repro.encoding --------------------------------------------------
        self._mean("encoding.zone_tokens_ms", self._select("encoding.zone_tokens"), 3, ms, "ms")
        # self-time share per layer, over the primary window only ----------
        for layer, share in layer_shares(self.primary).items():
            self._put(f"share.{layer}", share, "ratio")
        return self.metrics


def layer_shares(spans: list) -> dict:
    totals = {layer: 0 for layer in LAYERS}
    for name, _start, _duration, self_ns, _attrs in spans:
        totals[name.split(".", 1)[0]] += self_ns
    grand = sum(totals.values()) or 1
    return {layer: totals[layer] / grand for layer in LAYERS}


def rank_layers(metrics: dict) -> list:
    """``[(layer, share), ...]`` by descending self-time share, ties by name."""
    shares = [(layer, metrics[f"share.{layer}"]["value"]) for layer in LAYERS]
    return sorted(shares, key=lambda item: (-item[1], item[0]))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        ranked = rank_layers(result["metrics"])
        print(f"{result['provenance']['workload']} (seed {result['provenance']['seed']}): "
              f"dominant layer repro.{ranked[0][0]}")
        for layer, share in ranked:
            print(f"  repro.{layer:<9} {share * 100:6.2f}% of traced self time")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
