"""Serve-suite fixtures: small trained models and app factories."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core import Causer, CauserConfig
from repro.models import GRU4Rec, TrainConfig
from repro.serve import InProcessClient, ServeApp


@pytest.fixture(scope="package")
def served_causer(tiny_dataset, tiny_split):
    """A trained GRU Causer in the serving-friendly shared filtering mode."""
    config = CauserConfig(embedding_dim=8, hidden_dim=8, num_epochs=2,
                          batch_size=64, num_clusters=4, epsilon=0.2,
                          eta=0.5, seed=0, max_history=8)
    model = Causer(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                   tiny_dataset.features, config)
    model.fit(tiny_split.train)
    return model


@pytest.fixture(scope="package")
def served_causer_epsilon_tie(served_causer):
    """``served_causer`` with item effects lying exactly on the ε gate.

    Saturated assignment logits make every assignment row exactly
    one-hot, so each item-level effect is a ``W^c`` entry bit for bit on
    the served and the offline path alike; ε is set to one of those
    entries, which the strict ``W > ε`` gate must drop.
    """
    model = copy.deepcopy(served_causer)
    hard = model.clusters.hard_assignments()
    logits = np.zeros_like(model.clusters.assignment_logits.data)
    logits[np.arange(hard.shape[0]), hard] = 1000.0
    model.clusters.assignment_logits.data[...] = logits
    cluster_graph = model.graph.numpy_matrix()
    positive = np.sort(cluster_graph[cluster_graph > 0])
    epsilon = float(positive[len(positive) // 2])
    model.config = dataclasses.replace(model.config, epsilon=epsilon)
    assert (model.item_causal_matrix() == epsilon).any()
    return model


@pytest.fixture(scope="package")
def served_lstm_causer(tiny_dataset, tiny_split):
    config = CauserConfig(embedding_dim=8, hidden_dim=8, num_epochs=1,
                          batch_size=64, num_clusters=4, epsilon=0.2,
                          eta=0.5, seed=1, max_history=8, cell_type="lstm")
    model = Causer(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                   tiny_dataset.features, config)
    model.fit(tiny_split.train)
    return model


@pytest.fixture(scope="package")
def served_gru4rec(tiny_dataset, tiny_split):
    config = TrainConfig(embedding_dim=8, hidden_dim=8, num_epochs=1,
                         batch_size=64, seed=0, max_history=8)
    model = GRU4Rec(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                    config)
    model.fit(tiny_split.train)
    return model


@pytest.fixture
def make_app():
    """Factory building (ServeApp, InProcessClient) pairs, closed on exit."""
    apps = []

    def _make(model=None, **kwargs):
        kwargs.setdefault("max_wait_ms", 0.5)
        app = ServeApp(**kwargs)
        if model is not None:
            app.install_model(model)
        apps.append(app)
        return app, InProcessClient(app)

    yield _make
    for app in apps:
        app.close()


def random_histories(seed, num_users, num_steps, num_items, max_basket=2):
    """Deterministic per-user histories of small baskets."""
    rng = np.random.default_rng(seed)
    histories = {}
    for user in range(num_users):
        baskets = []
        for _ in range(num_steps):
            width = int(rng.integers(1, max_basket + 1))
            baskets.append(tuple(
                int(i) for i in rng.integers(1, num_items + 1, size=width)))
        histories[user] = tuple(baskets)
    return histories
