"""The per-layer metrics of the traced run, derived from merged spans.

Each timing is the median self time per call of one layer's span, in
milliseconds, next to its call count.  Two timings join spans of one
request across processes by trace id instead:

* ``serve.transport_ms`` — client round trip (send to reply) minus the
  server's ``ServeApp.handle`` for the same request;
* ``serve.route_ms`` — the coordinator's ``ServeCluster.handle`` minus the
  worker's ``ServeApp.handle`` for the same request.

Every workload reports every metric; a layer the workload never calls
reports zero calls and zero time.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, Iterable, List, Tuple

from spans import Span, join_by_trace, self_times

#: (metric stem, span name) of each timed layer call.
TIMED: Tuple[Tuple[str, str], ...] = (
    ("data.batch", "data.batch"),
    ("data.negatives", "data.negatives"),
    ("core.loss", "core.loss"),
    ("core.item_matrix", "core.item_matrix"),
    ("nn.backward", "nn.backward"),
    ("nn.optim", "nn.optim"),
    ("causal.h", "causal.h"),
    ("eval.score", "eval.score"),
    ("eval.rank", "eval.rank"),
    ("eval.metrics", "eval.metrics"),
    ("io.load", "io.load"),
    ("serve.build_artifacts", "serve.build_artifacts"),
    ("serve.shm_publish", "serve.shm_publish"),
    ("serve.handle_recommend", "serve.handle.recommend"),
    ("serve.handle_events", "serve.handle.events"),
    ("serve.session_append", "serve.session_append"),
    ("serve.session_view", "serve.session_view"),
    ("serve.batch_wait", "serve.batch"),
    ("serve.score", "serve.score"),
    ("serve.rank", "serve.rank"),
)
#: Counts with a name of their own; every other is ``<stem>_calls``.
_COUNT_NAMES = {"data.batch": "data.batches"}

#: (metric stem, outer span, inner span prefix) joined by trace id.
JOINED: Tuple[Tuple[str, str, str], ...] = (
    ("serve.transport", "client.request", "serve.handle."),
    ("serve.route", "serve.route", "serve.handle."),
)

#: Metrics computed elsewhere and passed in, with their units.
EXTRA: Tuple[Tuple[str, str], ...] = (
    ("serve.artifact_mb", "MB"),
    ("serve.segment_mb", "MB"),
    ("serve.build_artifacts_share", "share"),
    ("serve.batch_rows", "count"),
    ("serve.errors", "count"),
    ("serve.fallback_share", "share"),
    ("causal.expm_hit_share", "share"),
    ("client.recommend_p90_ms", "ms"),
    ("client.recommend_p99_ms", "ms"),
    ("client.recommend_samples", "count"),
    ("client.late_p50_ms", "ms"),
    ("client.late_max_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def count_name(stem: str) -> str:
    return _COUNT_NAMES.get(stem, stem + "_calls")


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units: Dict[str, str] = {}
    for stem, _ in TIMED:
        units[stem + "_ms"] = "ms"
        units[count_name(stem)] = "count"
    for stem, _, _ in JOINED:
        units[stem + "_ms"] = "ms"
        units[stem + "_samples"] = "count"
    units.update(EXTRA)
    return units


def _ms(values: List[float]) -> float:
    return 1e3 * median(values) if values else 0.0


def span_metrics(spans: Iterable[Span], values: Dict[str, List[float]]
                 ) -> Dict[str, float]:
    """Timings, counts and recorded sizes; zero for layers never called."""
    spans = list(spans)
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for stem, name in TIMED:
        out[stem + "_ms"] = _ms(selfs.get(name, []))
        out[count_name(stem)] = float(len(selfs.get(name, [])))
    for stem, outer, inner in JOINED:
        joined = join_by_trace(spans, outer, inner)
        out[stem + "_ms"] = _ms(joined)
        out[stem + "_samples"] = float(len(joined))
    for name in ("serve.artifact_mb", "serve.segment_mb", "serve.batch_rows"):
        out[name] = median(values[name]) if values.get(name) else 0.0
    out["serve.errors"] = float(len(values.get("serve.errors", [])))
    return out


def complete(metrics: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Every per-layer metric with its unit; absent ones read zero."""
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in per_layer_units().items()}
