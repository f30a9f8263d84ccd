"""Checkpoint registry: artifact precompute, dispatch, hot swap."""

import io
import pickle

import numpy as np

from repro.core import Causer, CauserConfig
from repro.io import save_model
from repro.models import NARM, TrainConfig
from repro.serve import (CausalServingArtifacts, CheckpointRegistry,
                         GRUServingArtifacts, build_artifacts)


class TestBuildArtifacts:
    def test_causer_precompute(self, served_causer):
        art = build_artifacts(served_causer, generation=1)
        assert isinstance(art, CausalServingArtifacts)
        assert art.mode == "incremental"
        assert art.recurrent.cell_type == "gru"
        assert art.recurrent.track_states
        assert art.recurrent.max_history == served_causer.config.max_history
        assert art.supports_explain

    def test_gated_factor_rows_match_item_matrix(self, served_causer):
        """Gating ``cause_weights[a] @ Āᵀ`` gives row ``a`` of the gated Ŵ."""
        art = build_artifacts(served_causer, generation=1)
        matrix = served_causer.item_causal_matrix()
        epsilon = served_causer.config.epsilon
        expected = np.where(matrix > epsilon, matrix, 0.0)
        for item in range(served_causer.num_items + 1):
            row = art.cause_weights[item] @ art.assignments_t
            gated = np.where(row > epsilon, row, 0.0)
            np.testing.assert_allclose(gated, expected[item], rtol=0,
                                       atol=1e-12)

    def test_causer_artifacts_hold_no_item_by_item_array(self,
                                                         served_causer):
        """No (V+1)×(V+1) array anywhere in the bundle, model included."""
        # Asking for Ŵ first must leave no copy of it on the model.
        served_causer.item_causal_matrix()
        art = build_artifacts(served_causer, generation=1)
        arrays = []

        class _Collect(pickle.Pickler):
            def persistent_id(self, obj):
                if isinstance(obj, np.ndarray):
                    arrays.append(obj)
                    return len(arrays)
                return None

        _Collect(io.BytesIO()).dump(art)
        catalog = served_causer.num_items + 1
        assert arrays
        assert (catalog, catalog) not in [a.shape for a in arrays]

    def test_causer_input_table_matches_model(self, served_causer):
        """The frozen input table equals encode() + free item embeddings."""
        art = build_artifacts(served_causer, generation=1)
        expected = (served_causer.clusters.encode().data
                    + served_causer.item_embedding.weight.data)
        np.testing.assert_allclose(art.recurrent.input_table, expected,
                                   atol=1e-12)

    def test_gru4rec_incremental(self, served_gru4rec):
        art = build_artifacts(served_gru4rec, generation=1)
        assert isinstance(art, GRUServingArtifacts)
        assert art.mode == "incremental"
        assert not art.recurrent.track_states
        assert not art.supports_explain

    def test_strict_causer_falls_back_to_replay(self, tiny_dataset):
        config = CauserConfig(embedding_dim=8, hidden_dim=8, num_clusters=4,
                              filtering_mode="strict", seed=0)
        model = Causer(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                       tiny_dataset.features, config)
        art = build_artifacts(model, generation=1)
        assert art.mode == "replay"
        assert art.supports_explain  # still a Causer: /v1/explain works

    def test_attention_model_replays(self, tiny_dataset):
        model = NARM(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                     TrainConfig(embedding_dim=8, hidden_dim=8, seed=0))
        art = build_artifacts(model, generation=1)
        assert art.mode == "replay"
        assert art.recurrent is None


class TestCheckpointRegistry:
    def test_install_bumps_generation(self, served_causer, served_gru4rec):
        registry = CheckpointRegistry()
        assert registry.current() is None
        first = registry.install(served_causer)
        second = registry.install(served_gru4rec)
        assert second.generation == first.generation + 1
        assert registry.current() is second
        registry.clear()
        assert registry.current() is None

    def test_load_from_file(self, served_causer, tmp_path):
        path = tmp_path / "causer.npz"
        save_model(served_causer, path)
        registry = CheckpointRegistry()
        art = registry.load(path)
        assert art.path == str(path)
        assert art.model_class == "Causer"
        np.testing.assert_allclose(art.cause_weights @ art.assignments_t,
                                   served_causer.item_causal_matrix(),
                                   atol=1e-12)

