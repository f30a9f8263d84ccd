"""Spans around the calls into each layer of the program.

:func:`install` replaces public functions and methods of ``repro``'s
layers with wrappers that record a span per call into a
:class:`~spans.Recorder`.  Only the traced run installs them; the
untraced run measures the program as shipped.  Names are patched where
callers look them up (a function imported into another module is patched
in that module).

Every process of a traced run installs the same set, so a layer that a
workload does not exercise reports zero calls rather than going missing.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from pathlib import Path
from typing import Callable, Tuple

from spans import Recorder

#: Environment variable naming the directory span files are written to.
TRACE_DIR_ENV = "REPOBENCH_TRACE_DIR"

#: (module[:class], attribute, span name) for plain timed calls.
TIMED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.causer", "sample_negatives", "data.negatives"),
    ("repro.core.causer:Causer", "training_loss", "core.loss"),
    ("repro.core.causer:Causer", "item_causal_matrix", "core.item_matrix"),
    ("repro.nn.tensor:Tensor", "backward", "nn.backward"),
    ("repro.core.causal_graph:ClusterCausalGraph", "acyclicity", "causal.h"),
    ("repro.core.causal_graph:ClusterCausalGraph", "acyclicity_value",
     "causal.h"),
    # Evaluation, entered through ``repro.eval.evaluate_model``: recommend
    # (scoring, then ranking the top z) and the per-user metric pass.
    ("repro.eval", "evaluate_model", "eval.model"),
    ("repro.models.base:Recommender", "recommend", "eval.recommend"),
    ("repro.core.causer:Causer", "score_samples", "eval.score"),
    ("repro.models.base", "rank_top_z", "eval.rank"),
    ("repro.eval.evaluator", "evaluate_rankings", "eval.metrics"),
    ("repro.io", "load_model", "io.load"),
    ("repro.serve.registry", "load_model", "io.load"),
    ("repro.serve.sessions:SessionStore", "append_event",
     "serve.session_append"),
    ("repro.serve.sessions:SessionStore", "view", "serve.session_view"),
    ("repro.serve.http", "score_views", "serve.score"),
    ("repro.serve.http", "rank_top_z", "serve.rank"),
)

#: Modules :func:`install` patches outside :data:`TIMED`.
_PATCHED_ELSEWHERE = ("repro.nn.optim", "repro.serve.batcher",
                      "repro.serve.mp")


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _timed(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        current = recorder.current()
        # A wrapped method calling its wrapped parent-class method is one
        # call into the layer, not two.
        if not recorder.enabled or (current is not None
                                    and current[0] == name):
            return fn(*args, **kwargs)
        with recorder.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _timed_batches(recorder: Recorder, fn: Callable) -> Callable:
    """Time each ``next()`` of the batch iterator: one batch assembled."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        while True:
            start = time.monotonic()
            try:
                batch = next(iterator)
            except StopIteration:
                return
            if recorder.enabled:
                recorder.add("data.batch", start, time.monotonic())
            yield batch
    return wrapper


def _sized(recorder: Recorder, name: str, value_name: str,
           size_mb: Callable, fn: Callable) -> Callable:
    timed = _timed(recorder, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = timed(*args, **kwargs)
        if recorder.enabled:
            recorder.record(value_name, size_mb(result))
        return result
    return wrapper


def _artifact_mb(artifacts) -> float:
    """Bytes held by the bundle's own numpy tables (not the model's)."""
    import numpy as np
    total = 0
    for value in vars(artifacts).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
    recurrent = getattr(artifacts, "recurrent", None)
    if recurrent is not None:
        total += recurrent.input_table.nbytes
    return total / 1e6


def _handler(recorder: Recorder, prefix: str, fn: Callable) -> Callable:
    """Wrap a ``handle(method, path, payload)``: trace id, endpoint, errors."""
    @functools.wraps(fn)
    def wrapper(self, method, path, payload=None):
        if not recorder.enabled:
            return fn(self, method, path, payload)
        previous = recorder.trace
        if isinstance(payload, dict) and "trace_id" in payload:
            recorder.trace = str(payload["trace_id"])
        try:
            name = prefix if prefix == "serve.route" else (
                prefix + "." + path.rsplit("/", 1)[-1])
            with recorder.span(name):
                status, body, ctype = fn(self, method, path, payload)
        finally:
            recorder.trace = previous
        # Counted where the app answers, so a request that fails in a
        # worker is not counted again by the coordinator.
        if status >= 400 and prefix == "serve.handle":
            recorder.record("serve.errors", 1)
        return status, body, ctype
    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every layer's calls, for the life of the process."""
    def patch(owner, attr: str, make: Callable[[Callable], Callable]):
        setattr(owner, attr, make(getattr(owner, attr)))

    # Import every patched module before patching any.  A module that
    # imports a function by name after it was patched (``repro.serve.http``
    # takes ``rank_top_z`` from ``repro.models.base``) would otherwise hold
    # one layer's wrapper and time its calls under both layers.
    for path in [path for path, _, _ in TIMED] + list(_PATCHED_ELSEWHERE):
        _owner(path)
    for path, attr, name in TIMED:
        patch(_owner(path), attr,
              lambda fn, name=name: _timed(recorder, name, fn))
    causer = _owner("repro.core.causer")
    patch(causer, "iterate_batches",
          lambda fn: _timed_batches(recorder, fn))
    optim = _owner("repro.nn.optim")
    for value in list(vars(optim).values()):
        if (isinstance(value, type) and issubclass(value, optim.Optimizer)
                and "step" in value.__dict__):
            patch(value, "step",
                  lambda fn: _timed(recorder, "nn.optim", fn))
    patch(_owner("repro.serve.registry"), "build_artifacts",
          lambda fn: _sized(recorder, "serve.build_artifacts",
                            "serve.artifact_mb", _artifact_mb, fn))
    patch(_owner("repro.serve.mp"), "publish_artifacts",
          lambda fn: _sized(recorder, "serve.shm_publish", "serve.segment_mb",
                            lambda checkpoint: checkpoint.nbytes / 1e6, fn))
    patch(_owner("repro.serve.http:ServeApp"), "handle",
          lambda fn: _handler(recorder, "serve.handle", fn))
    patch(_owner("repro.serve.mp:ServeCluster"), "handle",
          lambda fn: _handler(recorder, "serve.route", fn))
    _link_batcher(recorder, patch)


def _link_batcher(recorder: Recorder, patch) -> None:
    """Split a request's time in the micro-batcher into wait and scoring.

    Scoring runs on the batcher's thread; the submitting request thread
    blocks meanwhile.  The scoring interval is recorded again as a child
    of the request's ``serve.batch`` span, so that span's self time is
    the time the request waited for its batch to start and to be handed
    back.
    """
    scored = {}

    def make_score_many(fn):
        @functools.wraps(fn)
        def wrapper(self, payloads):
            if not recorder.enabled:
                return fn(self, payloads)
            with recorder.span("serve.score_many"):
                start = time.monotonic()
                results = fn(self, payloads)
                end = time.monotonic()
            recorder.record("serve.batch_rows", len(payloads))
            for payload in payloads:
                scored[id(payload)] = (start, end)
            return results
        return wrapper

    def make_submit(fn):
        @functools.wraps(fn)
        def wrapper(self, payload):
            if not recorder.enabled:
                return fn(self, payload)
            with recorder.span("serve.batch") as span_id:
                result = fn(self, payload)
                interval = scored.pop(id(payload), None)
                if interval is not None:
                    recorder.add("serve.batch_scoring", *interval,
                                 parent=span_id)
            return result
        return wrapper

    patch(_owner("repro.serve.http:ServeApp"), "_score_many", make_score_many)
    patch(_owner("repro.serve.batcher:MicroBatcher"), "submit", make_submit)


def span_file(trace_dir: Path) -> Path:
    return trace_dir / f"spans-{os.getpid()}.jsonl"


def traced_worker_main(spec, control) -> None:
    """``repro.serve.mp.worker_main`` with every layer wrapped.

    The coordinator of a traced run starts its workers with this function
    instead; each worker writes its own span file when it exits.
    """
    from repro.serve import mp
    worker_main = mp.worker_main
    recorder = Recorder()
    install(recorder)
    try:
        worker_main(spec, control)
    finally:
        recorder.dump(span_file(Path(os.environ[TRACE_DIR_ENV])))
