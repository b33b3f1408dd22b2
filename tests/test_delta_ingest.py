"""The versioned delta-ingest substrate, layer by layer.

What must hold:

1. **Graph deltas** — :meth:`HIN.apply_delta` bumps the version exactly
   once, records the touched rows per node type, keeps the reverse
   relation the exact transpose, chains the content hash, and is
   invertible (apply + inverse == pristine, bit-exact).
   :meth:`deltas_since` reconstructs the chain or refuses honestly.
2. **Engine equivalence** — after arbitrary mixed add/remove deltas, a
   warm engine's patched products, similarity matrices, and top-k
   neighbor views are bit-identical to a cold engine built on a twin
   graph with the same final edge set; the patch path actually runs
   (the equivalence must not be vacuous full-invalidation).
3. **Context splicing** — :func:`patch_context_batch` equals a cold
   :func:`enumerate_contexts` on the mutated graph, field for field,
   while re-enumerating only dirty-rooted pairs.
4. **Pipeline ingest** — :meth:`Pipeline.ingest` logs ``"patched"``
   stage events and yields artifacts bit-identical to a cold
   :meth:`Pipeline.prepare` on the mutated graph under the same
   embeddings, including across chained deltas.
5. **Live serving** — :meth:`ModelHandle.refresh` bumps the generation
   and answers like a cold handle over the same weights;
   :meth:`ModelServer.ingest` survives a sanitizer-instrumented
   ingest-while-serving stress run with no races, no torn generations,
   and monotonically increasing generations.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import api
from repro.analysis.sanitizer import ThreadSanitizer, instrument
from repro.api import ConCHEstimator, ModelHandle, Pipeline
from repro.core import ConCHConfig
from repro.data import DBLPConfig, load_dataset, stratified_split
from repro.hin.context import enumerate_contexts, patch_context_batch
from repro.hin.engine import get_engine
from repro.hin.graph import EdgeDelta
from repro.hin.io import hin_content_hash
from repro.hin.neighbors import NeighborFilter
from repro.serve import ModelServer

AUTHORS, PAPERS, CONFERENCES = 200, 700, 12


def fresh_dataset():
    """A deterministic DBLP fixture; repeated loads are bit-identical."""
    return load_dataset(
        "dblp",
        config=DBLPConfig(
            num_authors=AUTHORS,
            num_papers=PAPERS,
            num_conferences=CONFERENCES,
        ),
    )


def mixed_delta(hin, rng, num_add, num_remove):
    """A mixed add/remove batch on ``writes`` (removals of live edges)."""
    current = hin.relation_matrix("writes").tocoo()
    pick = rng.choice(current.nnz, size=min(num_remove, current.nnz), replace=False)
    return EdgeDelta(
        "writes",
        add_src=rng.integers(0, AUTHORS, size=num_add),
        add_dst=rng.integers(0, PAPERS, size=num_add),
        remove_src=np.asarray(current.row, dtype=np.int64)[pick],
        remove_dst=np.asarray(current.col, dtype=np.int64)[pick],
    )


def assert_csr_equal(left, right):
    """Bit-exact CSR comparison (structure and values, not closeness)."""
    assert left.shape == right.shape
    np.testing.assert_array_equal(left.indptr, right.indptr)
    np.testing.assert_array_equal(left.indices, right.indices)
    np.testing.assert_array_equal(left.data, right.data)


@pytest.fixture(scope="module")
def tiny_config():
    return ConCHConfig(
        k=4,
        num_layers=2,
        context_dim=8,
        max_instances=8,
        embed_num_walks=2,
        embed_walk_length=8,
        embed_epochs=1,
        epochs=8,
        patience=5,
    )


@pytest.fixture(scope="module")
def embeddings(tiny_config):
    """Initial embeddings, computed once; valid for every fresh twin."""
    from repro.embedding import metapath2vec_embeddings

    dataset = fresh_dataset()
    return metapath2vec_embeddings(
        dataset.hin,
        dataset.metapaths,
        dim=tiny_config.context_dim,
        num_walks=tiny_config.embed_num_walks,
        walk_length=tiny_config.embed_walk_length,
        epochs=tiny_config.embed_epochs,
        seed=tiny_config.seed,
    )


@pytest.fixture(scope="module")
def trained(tiny_config, embeddings):
    """One estimator fitted on the pristine fixture (weights reused)."""
    dataset = fresh_dataset()
    pipeline = Pipeline(dataset, config=tiny_config)
    pipeline.prepare(embeddings=embeddings)
    split = stratified_split(dataset.labels, 0.2, seed=0)
    return ConCHEstimator(pipeline.data, tiny_config).fit(split)


# ---------------------------------------------------------------------- #
# Layer 1: graph deltas
# ---------------------------------------------------------------------- #


class TestGraphDelta:
    def test_version_touched_rows_and_ledger(self):
        hin = fresh_dataset().hin
        version = hin.version
        delta = EdgeDelta(
            "writes",
            add_src=[3, 5],
            add_dst=[11, 12],
            remove_src=[7],
            remove_dst=[2],
        )
        record = hin.apply_delta(delta)
        assert hin.version == version + 1
        assert (record.prev_version, record.version) == (version, version + 1)
        assert record.relation == "writes"
        np.testing.assert_array_equal(record.touched["A"], [3, 5, 7])
        np.testing.assert_array_equal(record.touched["P"], [2, 11, 12])
        assert record.digest == delta.digest()

    def test_apply_then_inverse_restores_pristine(self):
        pristine, mutated = fresh_dataset().hin, fresh_dataset().hin
        rng = np.random.default_rng(7)
        before = mutated.relation_matrix("writes").copy()
        delta = mixed_delta(mutated, rng, num_add=9, num_remove=6)
        mutated.apply_delta(delta)
        # Only genuinely-new additions must be removed to invert: adding
        # an existing edge is idempotent under binarized storage.
        added = np.asarray(before[delta.add_src, delta.add_dst]).ravel() == 0
        mutated.apply_delta(
            EdgeDelta(
                "writes",
                add_src=delta.remove_src,
                add_dst=delta.remove_dst,
                remove_src=delta.add_src[added],
                remove_dst=delta.add_dst[added],
            )
        )
        assert_csr_equal(
            mutated.relation_matrix("writes"),
            pristine.relation_matrix("writes"),
        )

    def test_reverse_relation_tracks_transpose(self):
        hin = fresh_dataset().hin
        hin.apply_delta(EdgeDelta.additions("writes", [0, 1], [5, 6]))
        forward = hin.relation_matrix("writes")
        assert_csr_equal(
            hin.relation_matrix("writes_rev"),
            forward.T.tocsr(),
        )

    def test_deltas_must_target_forward_relation(self):
        hin = fresh_dataset().hin
        with pytest.raises(ValueError, match="forward relation"):
            hin.apply_delta(EdgeDelta.additions("writes_rev", [0], [0]))
        with pytest.raises(KeyError):
            hin.apply_delta(EdgeDelta.additions("reads", [0], [0]))
        with pytest.raises(IndexError):
            hin.apply_delta(EdgeDelta.additions("writes", [AUTHORS], [0]))

    def test_deltas_since_chain_and_refusal(self):
        hin = fresh_dataset().hin
        base = hin.version
        first = hin.apply_delta(EdgeDelta.additions("writes", [1], [1]))
        second = hin.apply_delta(EdgeDelta.removals("writes", [1], [1]))
        assert hin.deltas_since(hin.version) == []
        chain = hin.deltas_since(base)
        assert [r.version for r in chain] == [first.version, second.version]
        assert hin.deltas_since(hin.version + 1) is None

    def test_content_hash_chains_and_matches_full_rehash(self):
        left, right = fresh_dataset().hin, fresh_dataset().hin
        base = hin_content_hash(left)
        assert base == hin_content_hash(right)
        rng = np.random.default_rng(11)
        for _ in range(3):
            delta = mixed_delta(left, rng, num_add=4, num_remove=2)
            left.apply_delta(delta)
            right.apply_delta(delta)
        assert hin_content_hash(left) != base
        # Same chain on a twin graph -> same hash, however computed.
        assert hin_content_hash(left) == hin_content_hash(right)


# ---------------------------------------------------------------------- #
# Layer 2: engine row-scoped patching
# ---------------------------------------------------------------------- #


class TestEngineDeltaEquivalence:
    @pytest.mark.parametrize("num_add,num_remove", [(1, 0), (3, 2), (9, 6), (20, 13)])
    def test_patched_state_matches_cold_rebuild(self, num_add, num_remove):
        live_ds, cold_ds = fresh_dataset(), fresh_dataset()
        engine = get_engine(live_ds.hin)
        metapaths = live_ds.metapaths
        for metapath in metapaths:  # warm every product and view
            engine.counts(metapath)
            engine.top_k(metapath, k=4, measure="pathsim")

        rng = np.random.default_rng(num_add * 31 + num_remove)
        delta = mixed_delta(live_ds.hin, rng, num_add, num_remove)
        live_ds.hin.apply_delta(delta)
        cold_ds.hin.apply_delta(delta)
        cold = get_engine(cold_ds.hin)

        for metapath in metapaths:
            assert_csr_equal(engine.counts(metapath), cold.counts(metapath))
            assert_csr_equal(
                engine.similarity(metapath, "pathsim"),
                cold.similarity(metapath, "pathsim"),
            )
            live_topk = engine.top_k(metapath, k=4, measure="pathsim")
            cold_topk = cold.top_k(metapath, k=4, measure="pathsim")
            assert len(live_topk) == len(cold_topk)
            for live_row, cold_row in zip(live_topk, cold_topk):
                np.testing.assert_array_equal(live_row, cold_row)

    def test_small_delta_patches_instead_of_recomposing(self):
        dataset = fresh_dataset()
        engine = get_engine(dataset.hin)
        for metapath in dataset.metapaths:
            engine.counts(metapath)
            engine.top_k(metapath, k=4, measure="pathsim")
        dataset.hin.apply_delta(EdgeDelta.additions("writes", [0], [0]))
        engine.counts(dataset.metapaths[0])  # first touch syncs
        stats = engine.stats()
        assert stats["patched_products"] > 0
        assert stats["patched_views"] > 0
        assert stats["patched_rows"] > 0

    def test_patch_telemetry_is_bounded_under_a_delta_stream(self):
        # A long-lived engine under a steady delta stream must hold
        # counters, not per-patch logs: the patched_* totals keep
        # accumulating while no engine container grows with the stream.
        dataset = fresh_dataset()
        engine = get_engine(dataset.hin)
        for metapath in dataset.metapaths:
            engine.counts(metapath)
            engine.top_k(metapath, k=4, measure="pathsim")

        def sizes():
            return {
                name: len(value)
                for name, value in vars(engine).items()
                if isinstance(value, (list, dict, set, tuple))
            }

        def ingest_one(index):
            dataset.hin.apply_delta(
                EdgeDelta.additions("writes", [index % AUTHORS], [index])
            )
            engine.counts(dataset.metapaths[0])  # first touch syncs
            return engine.stats()

        totals = [engine.stats()]
        warm_sizes = None
        for index in range(12):
            totals.append(ingest_one(index))
            if index == 1:
                warm_sizes = sizes()
        assert sizes() == warm_sizes
        for before, after in zip(totals, totals[1:]):
            # Every delta took the patch path and was counted exactly once.
            assert after["patched_products"] > before["patched_products"]
            assert after["patched_rows"] > before["patched_rows"]
            assert after["patched_views"] > before["patched_views"]
            assert after["composed_products"] == before["composed_products"]
        engine.invalidate()
        cleared = engine.stats()
        assert cleared["patched_products"] == 0
        assert cleared["patched_rows"] == 0
        assert cleared["patched_views"] == 0

    def test_repeated_deltas_stay_equivalent(self):
        live_ds, cold_ds = fresh_dataset(), fresh_dataset()
        engine = get_engine(live_ds.hin)
        rng = np.random.default_rng(5)
        for round_index in range(4):
            for metapath in live_ds.metapaths:
                engine.counts(metapath)
            delta = mixed_delta(live_ds.hin, rng, num_add=5, num_remove=3)
            live_ds.hin.apply_delta(delta)
            cold_ds.hin.apply_delta(delta)
        cold = get_engine(cold_ds.hin)
        for metapath in live_ds.metapaths:
            assert_csr_equal(engine.counts(metapath), cold.counts(metapath))


# ---------------------------------------------------------------------- #
# Layer 3: context splicing
# ---------------------------------------------------------------------- #


class TestContextPatch:
    def test_patched_batch_matches_cold_enumeration(self, tiny_config):
        dataset = fresh_dataset()
        hin = dataset.hin
        engine = get_engine(hin)
        neighbor_filter = NeighborFilter(k=tiny_config.k)
        rng = np.random.default_rng(13)
        for metapath in dataset.metapaths:
            old_pairs = neighbor_filter.retained_pairs(
                hin, metapath, rng=np.random.default_rng(0)
            )
            old_batch = enumerate_contexts(
                hin, metapath, old_pairs, tiny_config.max_instances
            )
            delta = mixed_delta(hin, rng, num_add=6, num_remove=4)
            record = hin.apply_delta(delta)
            dirty = engine.dirty_rows(tuple(metapath.node_types), [record])
            pairs = neighbor_filter.retained_pairs(
                hin, metapath, rng=np.random.default_rng(0)
            )
            patched, need, fresh, old_index = patch_context_batch(
                hin, metapath, old_batch, pairs, dirty,
                max_instances=tiny_config.max_instances,
            )
            cold = enumerate_contexts(
                hin, metapath, pairs, tiny_config.max_instances
            )
            np.testing.assert_array_equal(patched.pairs, cold.pairs)
            np.testing.assert_array_equal(
                patched.instance_ids, cold.instance_ids
            )
            np.testing.assert_array_equal(patched.indptr, cold.indptr)
            np.testing.assert_array_equal(
                patched.total_counts, cold.total_counts
            )
            np.testing.assert_array_equal(patched.truncated, cold.truncated)
            # The splice must not be vacuous: kept pairs exist, and the
            # fresh sub-batch covers exactly the re-enumerated ones.
            assert need.shape == (pairs.shape[0],)
            assert fresh.num_pairs == int(need.sum())
            assert np.all(old_index[~need] >= 0)

    def test_new_pairs_are_re_enumerated(self, tiny_config):
        dataset = fresh_dataset()
        hin = dataset.hin
        metapath = dataset.metapaths[0]
        engine = get_engine(hin)
        neighbor_filter = NeighborFilter(k=tiny_config.k)
        old_pairs = neighbor_filter.retained_pairs(
            hin, metapath, rng=np.random.default_rng(0)
        )
        old_batch = enumerate_contexts(
            hin, metapath, old_pairs, tiny_config.max_instances
        )
        record = hin.apply_delta(
            EdgeDelta.additions("writes", [0, 1, 2], [0, 0, 0])
        )
        dirty = engine.dirty_rows(tuple(metapath.node_types), [record])
        pairs = neighbor_filter.retained_pairs(
            hin, metapath, rng=np.random.default_rng(0)
        )
        patched, need, _, old_index = patch_context_batch(
            hin, metapath, old_batch, pairs, dirty,
            max_instances=tiny_config.max_instances,
        )
        assert np.all(need[old_index < 0])
        assert patched.num_pairs == pairs.shape[0]


# ---------------------------------------------------------------------- #
# Layer 4: pipeline ingest
# ---------------------------------------------------------------------- #


class TestPipelineIngest:
    def test_ingest_matches_cold_prepare(self, tiny_config, embeddings):
        live_ds, cold_ds = fresh_dataset(), fresh_dataset()
        live = Pipeline(live_ds, config=tiny_config)
        live.prepare(embeddings=embeddings)

        rng = np.random.default_rng(17)
        delta = mixed_delta(live_ds.hin, rng, num_add=8, num_remove=5)
        events = live.ingest(delta)
        assert [e.stage for e in events] == [
            "discover", "compose", "enumerate", "featurize",
        ]
        assert all(e.action == "patched" for e in events)

        cold_ds.hin.apply_delta(delta)
        cold = Pipeline(cold_ds, config=tiny_config)
        cold.prepare(embeddings=embeddings)

        assert live_ds.hin.version == cold_ds.hin.version
        for live_m, cold_m in zip(
            live.data.metapath_data, cold.data.metapath_data
        ):
            assert_csr_equal(live_m.incidence, cold_m.incidence)
            assert_csr_equal(live_m.neighbor_adj, cold_m.neighbor_adj)
            np.testing.assert_array_equal(
                live_m.context_features, cold_m.context_features
            )

    def test_chained_ingests_stay_equivalent(self, tiny_config, embeddings):
        live_ds, cold_ds = fresh_dataset(), fresh_dataset()
        live = Pipeline(live_ds, config=tiny_config)
        live.prepare(embeddings=embeddings)
        rng = np.random.default_rng(23)
        for _ in range(3):
            delta = mixed_delta(live_ds.hin, rng, num_add=4, num_remove=3)
            live.ingest(delta)
            cold_ds.hin.apply_delta(delta)
        cold = Pipeline(cold_ds, config=tiny_config)
        cold.prepare(embeddings=embeddings)
        for live_m, cold_m in zip(
            live.data.metapath_data, cold.data.metapath_data
        ):
            assert_csr_equal(live_m.incidence, cold_m.incidence)
            np.testing.assert_array_equal(
                live_m.context_features, cold_m.context_features
            )

    def test_ingest_requires_prepared_pipeline(self, tiny_config):
        pipeline = Pipeline(fresh_dataset(), config=tiny_config)
        with pytest.raises(RuntimeError, match="prepare"):
            pipeline.ingest(EdgeDelta.additions("writes", [0], [0]))


# ---------------------------------------------------------------------- #
# Layer 5: live serving
# ---------------------------------------------------------------------- #


class TestServingRefresh:
    def test_refresh_matches_cold_handle(self, tiny_config, embeddings, trained):
        live_ds, cold_ds = fresh_dataset(), fresh_dataset()
        live = Pipeline(live_ds, config=tiny_config)
        live.prepare(embeddings=embeddings)
        handle = ModelHandle(live.data, tiny_config, trained.trainer.model)
        generation = handle.generation

        rng = np.random.default_rng(29)
        delta = mixed_delta(live_ds.hin, rng, num_add=7, num_remove=4)
        live.ingest(delta)
        assert handle.refresh(live.data) == generation + 1

        cold_ds.hin.apply_delta(delta)
        cold = Pipeline(cold_ds, config=tiny_config)
        cold.prepare(embeddings=embeddings)
        cold_handle = ModelHandle(cold.data, tiny_config, trained.trainer.model)

        everyone = np.arange(handle.num_objects)
        np.testing.assert_array_equal(
            handle.predict_nodes(everyone), cold_handle.predict_nodes(everyone)
        )

    def test_refresh_rejects_mismatched_towers(self, tiny_config, embeddings, trained):
        pipeline = Pipeline(fresh_dataset(), config=tiny_config)
        pipeline.prepare(embeddings=embeddings)
        handle = ModelHandle(pipeline.data, tiny_config, trained.trainer.model)
        with pytest.raises(ValueError, match="towers"):
            handle.refresh(pipeline.data.metapath_data[:1])

    def test_server_ingest_reports_patch_and_generation(
        self, tiny_config, embeddings, trained
    ):
        dataset = fresh_dataset()
        pipeline = Pipeline(dataset, config=tiny_config)
        pipeline.prepare(embeddings=embeddings)
        handle = ModelHandle(pipeline.data, tiny_config, trained.trainer.model)
        version = dataset.hin.version
        with ModelServer(handle, max_wait_ms=1, pipeline=pipeline) as server:
            summary = server.ingest(
                EdgeDelta.additions("writes", [0, 1], [3, 4])
            )
            assert summary["generation"] == 1
            assert summary["graph_version"] == version + 1
            assert ("featurize", "patched") in summary["stages"]
            answered = server.predict_nodes(np.arange(8), timeout=10.0)
        np.testing.assert_array_equal(
            answered, handle.predict_nodes(np.arange(8))
        )

    def test_server_ingest_without_pipeline_raises(self, trained):
        with ModelServer(ModelHandle.from_estimator(trained)) as server:
            with pytest.raises(RuntimeError, match="pipeline"):
                server.ingest(EdgeDelta.additions("writes", [0], [0]))


class TestConcurrentIngestWhileServing:
    def test_sanitized_ingest_under_query_load(
        self, tiny_config, embeddings, trained
    ):
        dataset = fresh_dataset()
        pipeline = Pipeline(dataset, config=tiny_config)
        pipeline.prepare(embeddings=embeddings)
        handle = ModelHandle(pipeline.data, tiny_config, trained.trainer.model)
        server = ModelServer(
            handle,
            max_batch_size=8,
            max_wait_ms=1,
            num_workers=2,
            pipeline=pipeline,
        )
        sanitizer = ThreadSanitizer()
        instrument(sanitizer, server)
        instrument(sanitizer, handle)

        stop = threading.Event()
        errors: list = []
        generations: list = [[] for _ in range(3)]
        num_classes = int(dataset.labels.max()) + 1

        def reader(slot: int) -> None:
            rng = np.random.default_rng(slot)
            while not stop.is_set():
                ids = rng.integers(0, handle.num_objects, size=5)
                try:
                    labels = server.predict_nodes(ids, timeout=30.0)
                except Exception as exc:  # pragma: no cover - fail loudly
                    errors.append(exc)
                    return
                if labels.shape != (5,) or labels.min() < 0 or (
                    labels.max() >= num_classes
                ):
                    errors.append(AssertionError(f"torn answer: {labels!r}"))
                    return
                generations[slot].append(handle.generation)

        with server:
            threads = [
                threading.Thread(target=reader, args=(slot,), daemon=True)
                for slot in range(3)
            ]
            for thread in threads:
                thread.start()
            rng = np.random.default_rng(99)
            summary = None
            for _ in range(4):
                delta = mixed_delta(dataset.hin, rng, num_add=5, num_remove=2)
                summary = server.ingest(delta)
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)

        sanitizer.assert_clean()
        assert not errors
        assert summary["generation"] == 4
        assert handle.generation == 4
        for observed in generations:
            assert observed, "reader thread answered no queries"
            # Generations only ever move forward under concurrent ingest.
            assert all(a <= b for a, b in zip(observed, observed[1:]))
        assert server.stats()["ingests"] == 4
