"""Corpora and checkpoints the workloads run on, built once per checkout.

Fixtures are built outside every timed region and cached under
``.bench_cache/<source digest>/``.  They depend only on fixed data and
model seeds, never on a run's ``--seed``:

* ``train-eventlog`` — the Baby-profile columnar event log the ``train``
  workload trains on (:data:`TRAIN_SCALE`, data seed 1);
* ``small`` — a Causer (GRU) checkpoint on Baby 0.05 (309 items) with the
  training sequences of its users, for ``serve`` and ``serve_workers``;
* ``catalog`` — a Causer (GRU) checkpoint over the Table II Baby item
  count (6,178 items), for ``serve_catalog``.

Run ``python repobench/fixtures.py`` to build them ahead of a run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, List

from common import CACHE, SRC, log, require_program, source_digest

PROFILE = "baby"
DATA_SEED = 1
MODEL_SEED = 0
#: Scale of the ``train`` corpus: 1,690 users, 5,070 training prefixes.
TRAIN_SCALE = 0.1
#: Algorithm 1 epochs of every ``train`` run and of its HR@10 reference.
TRAIN_EPOCHS = 10
SMALL_SCALE = 0.05
SMALL_EPOCHS = 4
#: The catalog checkpoint keeps Baby's full item count but simulates only
#: this many users, so it trains in seconds; serving cost scales with
#: items, not users.
CATALOG_USERS = 1500
CATALOG_EPOCHS = 1


def _program():
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fixture_dir() -> Path:
    return CACHE / source_digest()


def _build_atomically(target: Path, build) -> Path:
    if target.exists():
        return target
    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    build(tmp)
    os.replace(tmp, target)
    return target


def _settings(scale: float, epochs: int):
    from repro.exp.config import BenchmarkSettings
    return BenchmarkSettings(scale=scale, num_epochs=epochs,
                             data_seed=DATA_SEED, model_seed=MODEL_SEED)


def _train_checkpoint(dataset, settings, out: Path) -> None:
    """Train Causer (GRU) on ``dataset`` and save it with its users."""
    from repro.data.interactions import leave_one_out_split
    from repro.exp.runner import build_model
    from repro.io import save_model
    split = leave_one_out_split(dataset.corpus)
    model = build_model("Causer (GRU)", dataset, settings)
    model.fit(split.train)
    save_model(model, out / "model.npz")
    histories: Dict[str, List[List[int]]] = {
        str(seq.user_id): [list(basket) for basket in seq.baskets]
        for seq in split.train.sequences if seq.length >= 1}
    (out / "users.json").write_text(json.dumps(
        {"num_items": dataset.num_items,
         "max_history": model.config.max_history,
         "histories": histories}))


def train_eventlog() -> Path:
    _program()

    def build(tmp: Path) -> None:
        from repro.data import dataset_config, generate_eventlog
        generate_eventlog(dataset_config(PROFILE, scale=TRAIN_SCALE,
                                         seed=DATA_SEED),
                          tmp / "log", name=PROFILE)
    return _build_atomically(fixture_dir() / "train-eventlog", build) / "log"


def small_checkpoint() -> Path:
    _program()

    def build(tmp: Path) -> None:
        from repro.data import load_dataset
        dataset = load_dataset(PROFILE, scale=SMALL_SCALE, seed=DATA_SEED)
        _train_checkpoint(dataset, _settings(SMALL_SCALE, SMALL_EPOCHS), tmp)
    return _build_atomically(fixture_dir() / "small", build)


def catalog_checkpoint() -> Path:
    _program()

    def build(tmp: Path) -> None:
        from repro.data import dataset_config
        from repro.data.synthetic import BehaviorSimulator
        config = dataclasses.replace(
            dataset_config(PROFILE, scale=1.0, seed=DATA_SEED),
            num_users=CATALOG_USERS)
        dataset = BehaviorSimulator(config, name=PROFILE).generate()
        _train_checkpoint(dataset, _settings(1.0, CATALOG_EPOCHS), tmp)
    return _build_atomically(fixture_dir() / "catalog", build)


def build_all() -> None:
    for name, build in (("train eventlog", train_eventlog),
                        ("small checkpoint", small_checkpoint),
                        ("catalog checkpoint", catalog_checkpoint)):
        log(f"fixture: {name} -> {build()}")


if __name__ == "__main__":
    build_all()
