"""Publish → spawn → attach round trips for every servable model class.

One child process (a real ``spawn`` boundary: fresh interpreter, no
inherited heap) attaches every published segment and scores a fixed
session; the parent asserts bitwise equality against the in-process
bundle.  This is the strongest possible statement that the shared-memory
manifest encodes *everything* scoring needs — any field the pool pickler
dropped or mis-offset would flip bits here.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import Causer, CauserConfig
from repro.exp import ALL_MODEL_NAMES, BenchmarkSettings, build_model
from repro.retrieval import RetrievalConfig
from repro.serve import (SessionStore, build_artifacts, publish_artifacts,
                         score_views)
from repro.serve.shm import AttachedArtifacts

SERVABLE_NAMES = [name for name in ALL_MODEL_NAMES if name != "Pop"]

HISTORY = ((2,), (5, 7), (4,), (1, 3))
USER_ID = 3


def _score_from_artifacts(artifacts):
    """Deterministic scoring probe: ephemeral session -> full catalog."""
    store = SessionStore(capacity=16)
    view = store.ephemeral_view(USER_ID, HISTORY, artifacts)
    return score_views(artifacts, [view])


def _child_verify(conn, jobs):
    """Runs in a spawned child: attach each segment, score, report back.

    Returns raw scores (and IVF search output when the bundle carries a
    retrieval stage) keyed by segment name; the parent does the
    comparisons so assertion failures surface with pytest diffs.
    """
    out = {}
    for job in jobs:
        attached = AttachedArtifacts(job["name"])
        artifacts = attached.artifacts
        scores = _score_from_artifacts(artifacts)
        entry = {"scores": scores, "generation": attached.generation}
        if artifacts.retrieval is not None:
            query = np.asarray(job["query"])
            entry["ivf_ids"] = artifacts.retrieval.index.search(
                query, k=8, nprobe=2)
        out[job["name"]] = entry
        # Views die with this process; the parent owns the unlink.
        del artifacts, entry
    conn.send(out)
    conn.close()


@pytest.fixture(scope="module")
def published(tiny_dataset, request):
    """Every servable class built, published, and scored in-process."""
    settings = BenchmarkSettings(embedding_dim=8, hidden_dim=8,
                                 max_history=8, quick=True)
    rng = np.random.default_rng(11)
    bundles = {}
    checkpoints = []

    def _unlink():
        for checkpoint in checkpoints:
            checkpoint.unlink()
            checkpoint.close()
    # Registered *before* publishing: a failure mid-loop must still
    # unlink whatever made it into /dev/shm.
    request.addfinalizer(_unlink)
    for generation, name in enumerate(SERVABLE_NAMES, start=1):
        model = build_model(name, tiny_dataset, settings)
        retrieval = (RetrievalConfig(mode="ivf", shortlist=16, nprobe=2)
                     if name in ("Causer (GRU)", "GRU4Rec") else None)
        artifacts = build_artifacts(model, generation, retrieval=retrieval)
        checkpoint = publish_artifacts(artifacts)
        checkpoints.append(checkpoint)
        job = {"name": checkpoint.name}
        if artifacts.retrieval is not None:
            dim = artifacts.retrieval.tower.vectors.shape[1]
            job["query"] = rng.standard_normal(dim)
            job["ivf_ids"] = artifacts.retrieval.index.search(
                np.asarray(job["query"]), k=8, nprobe=2)
        bundles[name] = (artifacts, job)
    return bundles


@pytest.fixture(scope="module")
def child_results(published):
    """One spawn round trip covering every published segment."""
    jobs = [job for _, job in published.values()]
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=_child_verify, args=(child_conn, jobs))
    process.start()
    child_conn.close()
    assert parent_conn.poll(120), "spawned verifier timed out"
    results = parent_conn.recv()
    process.join(timeout=30)
    assert process.exitcode == 0
    return results


@pytest.mark.parametrize("name", SERVABLE_NAMES)
def test_spawned_scores_bitwise_identical(name, published, child_results):
    artifacts, job = published[name]
    entry = child_results[job["name"]]
    expected = _score_from_artifacts(artifacts)
    assert entry["scores"].dtype == expected.dtype
    assert np.array_equal(entry["scores"], expected), \
        f"{name}: spawned-process scores differ from in-process scores"


@pytest.mark.parametrize("name", ["Causer (GRU)", "GRU4Rec"])
def test_retrieval_artifact_survives_spawn(name, published, child_results):
    """IVF index + item tower round-trip: identical search output."""
    _, job = published[name]
    entry = child_results[job["name"]]
    assert np.array_equal(entry["ivf_ids"], job["ivf_ids"])


def test_generations_survive(published, child_results):
    for name, (artifacts, job) in published.items():
        assert child_results[job["name"]]["generation"] \
            == artifacts.generation


def test_causer_segment_smaller_than_item_by_item_matrix():
    """eq. 9 ships as its factors: the pool stays below one (V+1)² array.

    A 500-item catalog, so the per-item tables are small next to
    (V+1)² float64 — the tiny fixtures' catalog is too small to tell.
    """
    num_items = 500
    rng = np.random.default_rng(0)
    model = Causer(num_users=20, num_items=num_items,
                   raw_features=rng.standard_normal((num_items + 1, 16)),
                   config=CauserConfig(embedding_dim=8, hidden_dim=8,
                                       num_clusters=4, seed=0))
    checkpoint = publish_artifacts(build_artifacts(model, generation=1))
    try:
        assert checkpoint.artifact_bytes < (num_items + 1) ** 2 * 8
    finally:
        checkpoint.unlink()
        checkpoint.close()
