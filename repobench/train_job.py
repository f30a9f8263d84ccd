"""One training process of the ``train`` workload (run by ``train_bench``).

Usage::

    python repobench/train_job.py --eventlog DIR --seed N --seconds S
        --mode {setup,full} [--trace-dir DIR] --out FILE

It opens the event log, splits it, builds Causer (GRU) and runs Algorithm 1
through ``Causer.fit_samples``.  ``--mode setup`` stops at the first
training batch.  ``--mode full`` trains ``fixtures.TRAIN_EPOCHS`` epochs
and evaluates held-out users over the full catalog through
``repro.eval.evaluate_model``: a block after every epoch, then one full
pass with the trained model (which gives HR@10), then more until ``S``
seconds after the first batch, if any are left.

The seed reorders the training samples (and so every epoch's batches and
negatives) and the held-out users; the corpus and the model's
initialisation are fixed.  With ``--trace-dir`` every layer is wrapped in
spans, switched on for even-numbered epochs and for the final evaluation,
so odd and even epochs give the tracing overhead within one process.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from pathlib import Path
from typing import List

import numpy as np

import repro.eval
from repro.causal import expm_cache_info
from repro.data import load_eventlog_dataset
from repro.data.interactions import EvalSample, leave_one_out_split
from repro.data.interactions import training_prefixes
from repro.exp.config import BenchmarkSettings
from repro.exp.runner import build_model

from common import blas_threads, proc_status_kb
from fixtures import DATA_SEED, MODEL_SEED, TRAIN_EPOCHS, TRAIN_SCALE

EVAL_BATCH = 128
EVAL_Z = 10
#: Evaluation time after each epoch, as a share of that epoch's time.
EVAL_SHARE = 0.4


class SeededOrder:
    """A sample sequence read in a seed-drawn order.

    Batches gather through the underlying view's fast path; iteration (the
    graph-seeding statistics pass, which is order-free) reads it in
    storage order.
    """

    def __init__(self, samples, seed: int) -> None:
        self.samples = samples
        self.order = np.random.default_rng(seed).permutation(len(samples))

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index: int) -> EvalSample:
        return self.samples[int(self.order[index])]

    def __iter__(self):
        return iter(self.samples)

    def gather_batch(self, indices: np.ndarray, max_history=None):
        return self.samples.gather_batch(self.order[indices],
                                         max_history=max_history)


class _SetupDone(Exception):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eventlog", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "full"), required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_dir:
        import hooks
        from spans import Recorder
        recorder = Recorder()
        hooks.install(recorder)
        recorder.enabled = False
    import repro.core.causer as causer_module

    marks = {"first_batch": None, "epoch_ends": [], "resumes": [],
             "steps": []}
    iterate = causer_module.iterate_batches
    deadline = 0.0

    def batch_clock(*a, **k):
        """The epoch's batches; times the first one and every step.

        A step runs from the training loop asking for a batch (so batch
        assembly counts) to it asking for the next one.
        """
        nonlocal deadline
        batches = iter(iterate(*a, **k))
        while True:
            asked = time.monotonic()
            try:
                batch = next(batches)
            except StopIteration:
                return
            if marks["first_batch"] is None:
                marks["first_batch"] = time.monotonic()
                marks["resumes"].append(marks["first_batch"])
                deadline = marks["first_batch"] + args.seconds
                if args.mode == "setup":
                    raise _SetupDone
                asked = marks["first_batch"]
            yield batch
            marks["steps"].append(time.monotonic() - asked)
    causer_module.iterate_batches = batch_clock

    dataset = load_eventlog_dataset(args.eventlog)
    split = leave_one_out_split(dataset.corpus)
    settings = BenchmarkSettings(scale=TRAIN_SCALE, num_epochs=TRAIN_EPOCHS,
                                 data_seed=DATA_SEED, model_seed=MODEL_SEED)
    model = build_model("Causer (GRU)", dataset, settings)
    prefixes = training_prefixes(split.train,
                                 max_history=model.config.max_history)
    samples = SeededOrder(prefixes, args.seed)

    # Built at the first epoch's end: materialising the held-out users is
    # evaluation work, not set-up.
    evaluator = None

    # Algorithm 1 evaluates h(W) once at the end of every epoch: that call
    # is the epoch clock.  In a full run a block of evaluation follows each
    # epoch, on a copy of the model: the host's speed drifts by tens of
    # percent over tens of seconds, so both medians must sample the whole
    # run, not one end of it.  When tracing, the clock also switches
    # tracing on for even-numbered epochs and off for odd ones.
    graph = model._graph_module_for_penalties
    h_value = type(graph).acyclicity_value

    def epoch_clock():
        nonlocal evaluator
        value = h_value(graph)
        marks["epoch_ends"].append(time.monotonic())
        if evaluator is None:
            evaluator = Evaluator(split.test, args.seed)
        epoch = marks["epoch_ends"][-1] - marks["resumes"][-1]
        evaluator.block(copy.deepcopy(model), EVAL_SHARE * epoch)
        if recorder is not None:
            recorder.enabled = len(marks["epoch_ends"]) % 2 == 1
        marks["resumes"].append(time.monotonic())
        return value
    graph.acyclicity_value = epoch_clock

    expm_before = expm_cache_info()
    result = {"mode": args.mode}
    try:
        fit = model.fit_samples(samples)
    except _SetupDone:
        fit = None
    result["first_batch"] = marks["first_batch"]
    if fit is not None:
        hits, misses, _ = expm_cache_info()
        result.update(
            epochs=[end - start for start, end
                    in zip(marks["resumes"], marks["epoch_ends"])],
            steps=marks["steps"],
            losses=fit.epoch_losses,
            expm_hits=hits - expm_before[0],
            expm_misses=misses - expm_before[1])
        if recorder is not None:
            recorder.enabled = True
        result.update(evaluator.final(model, deadline))
    result["peak_rss_kb"] = proc_status_kb(os.getpid(), "VmHWM")
    result["blas_threads"] = blas_threads()
    Path(args.out).write_text(json.dumps(result))
    if recorder is not None:
        import hooks
        recorder.dump(hooks.span_file(Path(args.trace_dir)))
    return 0


class Evaluator:
    """Full-catalog evaluation of held-out users, in seed-drawn chunks.

    Each chunk goes through ``repro.eval.evaluate_model`` (score, rank the
    top 10, per-user metrics) and is timed as one call; partial chunks are
    evaluated but not timed.  Blocks between epochs continue through the
    users where the previous block stopped.
    """

    def __init__(self, test, seed: int) -> None:
        order = np.random.default_rng(seed + 1).permutation(len(test))
        users = [test[int(i)] for i in order]
        self.chunks = [users[i:i + EVAL_BATCH]
                       for i in range(0, len(users), EVAL_BATCH)]
        self.rates: List[float] = []
        self.position = 0

    def _evaluate(self, model, chunk) -> List[float]:
        """The chunk's per-user hits at ``EVAL_Z``."""
        start = time.monotonic()
        result = repro.eval.evaluate_model(model, chunk, z=EVAL_Z,
                                           batch_size=EVAL_BATCH)
        if len(chunk) == EVAL_BATCH:
            self.rates.append(len(chunk) / (time.monotonic() - start))
        return result.per_user["hit"]

    def _next(self, model) -> None:
        self._evaluate(model, self.chunks[self.position % len(self.chunks)])
        self.position += 1

    def block(self, model, seconds: float) -> None:
        """At least one chunk, then more until ``seconds`` have passed."""
        start = time.monotonic()
        self._next(model)
        while time.monotonic() - start < seconds:
            self._next(model)

    def final(self, model, deadline: float) -> dict:
        """One full pass for HR@10, then more chunks until the deadline."""
        hits: List[float] = []
        for chunk in self.chunks:
            hits.extend(self._evaluate(model, chunk))
        while time.monotonic() < deadline:
            self._next(model)
        return {"eval_rates": self.rates, "eval_chunks": len(self.rates),
                "hr_at_10": float(np.mean(hits)), "eval_users": len(hits)}


if __name__ == "__main__":
    sys.exit(main())
