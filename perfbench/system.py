"""The system under test: fixture, training, serving stack, references.

Everything here calls the repository's public API the way a user
would; the reference answers used by the correctness checks come from
other paths (a heap-loaded handle, a replay of the same deltas onto a
fresh pipeline with no reads in flight, and a cold rebuild of the
edited graph).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from repro.api import ConCHEstimator, ModelHandle, Pipeline
from repro.core import ConCHConfig
from repro.data import DBLPConfig, load_dataset, stratified_split
from repro.embedding.metapath2vec import metapath2vec_embeddings
from repro.hin.graph import EdgeDelta
from repro.serve import HttpServer, ModelServer


@dataclass(frozen=True)
class Scale:
    """Fixture size and training length."""

    authors: int
    papers: int
    conferences: int
    epochs: int
    ingests: int


#: The measured scale: half the paper-scale synthetic DBLP, so that a
#: whole run (train + four serving phases + checks) fits in a minute on
#: two cores.
FULL = Scale(authors=1000, papers=3500, conferences=50, epochs=30, ingests=20)
#: The self-test's scale: seconds per run, same code paths.
TINY = Scale(authors=150, papers=500, conferences=10, epochs=3, ingests=20)

LABELLED_FRACTION = 0.10
#: The fixture graph is the same in every run (like a fixed dataset);
#: the run's seed draws the labelled split, the requests and the edits.
FIXTURE_SEED = 0


def make_config(scale: Scale) -> ConCHConfig:
    # patience == epochs: early stopping can never shorten the fit.
    return ConCHConfig(
        k=5, context_dim=16, embed_num_walks=2, embed_walk_length=10,
        embed_epochs=1, max_instances=8,
        epochs=scale.epochs, patience=scale.epochs,
    )


def make_dataset(scale: Scale):
    return load_dataset(
        "dblp",
        config=DBLPConfig(
            num_authors=scale.authors,
            num_papers=scale.papers,
            num_conferences=scale.conferences,
            seed=FIXTURE_SEED,
        ),
    )


def initial_embeddings(dataset, config: ConCHConfig):
    """The metapath2vec embeddings ``Pipeline.featurize`` trains itself,
    recomputed here so references can featurize with the same ones."""
    return metapath2vec_embeddings(
        dataset.hin,
        dataset.metapaths,
        dim=config.context_dim,
        num_walks=config.embed_num_walks,
        walk_length=config.embed_walk_length,
        window=config.embed_window,
        epochs=config.embed_epochs,
        seed=config.seed,
    )


@dataclass
class Trained:
    dataset: object
    pipeline: Pipeline
    estimator: ConCHEstimator
    config: ConCHConfig
    test_micro_f1: float
    prepare_s: float
    fit_s: float

    @property
    def train_s(self) -> float:
        return self.prepare_s + self.fit_s


def train(scale: Scale, seed: int) -> Trained:
    """``Pipeline.prepare`` + ``ConCHEstimator.fit`` on a 10 % split."""
    config = make_config(scale)
    dataset = make_dataset(scale)
    split = stratified_split(
        dataset.labels, LABELLED_FRACTION, val_fraction=0.10, seed=seed
    )
    pipeline = Pipeline(dataset, config=config)
    started = time.perf_counter()
    data = pipeline.prepare()
    prepared = time.perf_counter()
    estimator = ConCHEstimator(data, config).fit(split)
    fitted = time.perf_counter()
    f1 = estimator.evaluate(split.test)["micro_f1"]
    return Trained(
        dataset, pipeline, estimator, config, float(f1),
        prepared - started, fitted - prepared,
    )


class HttpStack:
    """Bundle -> mapped handle -> ModelServer -> HttpServer."""

    def __init__(self, estimator: ConCHEstimator, bundle: Path):
        estimator.save(bundle)
        self.handle = ModelHandle.load(bundle)
        self.server = ModelServer(
            self.handle, max_batch_size=64, max_wait_ms=2, num_workers=2,
            max_queue=1024, adaptive_wait=True, hot_cache_size=512,
        ).start()
        self.http = HttpServer(self.server).start()

    @property
    def url(self) -> str:
        return self.http.url

    def close(self) -> None:
        self.http.stop()
        self.server.stop()


def set_up(scale: Scale, estimator, bundle: Path) -> HttpStack:
    """One set-up: generate the fixture and bring the HTTP stack up."""
    make_dataset(scale)
    return HttpStack(estimator, bundle)


def make_deltas(
    scale: Scale, count: int, rng: np.random.Generator
) -> List[EdgeDelta]:
    """Publication-shaped author->paper additions: ~4 authors per
    touched paper, 1-9 edges, every tenth batch 100 edges.

    The sizes follow a fixed cycle (1, 2, ..., 9, 100), so every seed
    carries the same mix of small and large edits and ``ingest.*``
    compare across seeds; the seed draws which authors and papers.
    """
    deltas = []
    for index in range(count):
        size = 100 if index % 10 == 9 else index % 10 + 1
        papers = rng.choice(scale.papers, size=max(1, size // 4), replace=False)
        deltas.append(
            EdgeDelta.additions(
                "writes",
                rng.integers(0, scale.authors, size=size),
                rng.choice(papers, size=size),
            )
        )
    return deltas


def http_reference(bundle: Path, num_objects: int) -> np.ndarray:
    """Labels of every author from a heap-loaded handle (no mmap path)."""
    handle = ModelHandle.load(bundle, mmap=False)
    return handle.predict_nodes(np.arange(num_objects))


class Replay:
    """The run's deltas, applied in order through a server of its own over
    a fresh pipeline, with no reads in flight.

    ``labels[g]`` holds the labels of every author at generation ``g``;
    ``seconds`` the duration of each uncontended ``ModelServer.ingest``.
    """

    def __init__(self, scale: Scale, trained: Trained, embeddings):
        config = trained.config
        pipeline = Pipeline(make_dataset(scale), config=config)
        data = pipeline.prepare(embeddings=embeddings)
        self.handle = ModelHandle(data, config, trained.estimator.trainer.model)
        self.server = ModelServer(self.handle, pipeline=pipeline)
        self.everyone = np.arange(scale.authors)
        self.labels: List[np.ndarray] = [self.handle.predict_nodes(self.everyone)]
        self.seconds: List[float] = []

    def apply(self, deltas: List[EdgeDelta]) -> None:
        for delta in deltas:
            started = time.perf_counter()
            self.server.ingest(delta)
            self.seconds.append(time.perf_counter() - started)
            self.labels.append(self.handle.predict_nodes(self.everyone))


def cold_reference(
    scale: Scale, trained: Trained, deltas: List[EdgeDelta], embeddings,
    probe: np.ndarray,
) -> np.ndarray:
    """Probe labels from a cold prepare of the fully edited graph."""
    config = trained.config
    dataset = make_dataset(scale)
    for delta in deltas:
        dataset.hin.apply_delta(delta)
    data = Pipeline(dataset, config=config).prepare(embeddings=embeddings)
    handle = ModelHandle(data, config, trained.estimator.trainer.model)
    return handle.predict_nodes(probe)
