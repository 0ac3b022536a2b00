"""The end-to-end path: set up, fit, evaluate, export, serve.

Each stage calls only the public API (``load_dataset``,
``SequenceRecommender.fit``, ``Trainer``, ``RankingEvaluator.evaluate``,
``export_artifact``/``load_artifact``, ``RecommendationEngine``,
``ServingCluster``) and wraps every call in a span of the run's tracer.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro import ISRec, RankingEvaluator, TrainConfig, split_leave_one_out
from repro.data import evaluation_inputs
from repro.serve import (
    ClusterConfig,
    RecommendationEngine,
    ServingCluster,
    export_artifact,
    load_artifact,
)
from repro.train import Trainer
from repro.utils import set_seed

from isrec_bench.measure import median
from isrec_bench.workloads import BATCH_SIZE, FIT_EPOCHS, MODEL

EVAL_BATCH = 128


@dataclass
class Prepared:
    """A workload's world, split and evaluator, plus what they cost."""

    dataset: object
    split: object
    evaluator: RankingEvaluator
    simulate_s: float
    negatives_s: float
    setup_s: float


def build_model(workload, dataset, seed: int) -> ISRec:
    """A freshly initialised ISRec for ``dataset``; same seed, same weights."""
    set_seed(seed)
    return ISRec.from_dataset(dataset, max_len=workload.max_len,
                              config=MODEL)


def prepare(workload, seed: int, tracer) -> Prepared:
    """Simulate, split, build the model and sample the test negatives."""
    start = time.perf_counter()
    with tracer.span("data.simulate"):
        dataset = workload.simulate()
    simulated = time.perf_counter()
    with tracer.span("data.split"):
        split = split_leave_one_out(dataset.sequences)
    with tracer.span("core.build"):
        build_model(workload, dataset, seed)
    with tracer.span("eval.negatives"):
        negatives_start = time.perf_counter()
        evaluator = RankingEvaluator(split, dataset.num_items, seed=seed)
        evaluator.negatives("test")
        end = time.perf_counter()
    return Prepared(dataset, split, evaluator,
                    simulate_s=simulated - start,
                    negatives_s=end - negatives_start, setup_s=end - start)


def prepare_repeated(workload, seed: int, tracer, repeats: int) -> Prepared:
    """Prepare ``repeats`` times; the last world, with the median costs.

    Each world is dropped before the next is built, so the run's peak
    memory holds one.
    """
    prepared, costs = None, []
    for _ in range(repeats):
        prepared = None  # free the previous world before building this one
        prepared = prepare(workload, seed, tracer)
        costs.append((prepared.simulate_s, prepared.negatives_s,
                      prepared.setup_s))
    simulate_s, negatives_s, setup_s = (median(column)
                                        for column in zip(*costs))
    return replace(prepared, simulate_s=simulate_s, negatives_s=negatives_s,
                   setup_s=setup_s)


def tokens_per_epoch(split, max_len: int) -> int:
    """Non-padding next-item targets in one epoch of ``next_item_batches``."""
    return int(sum(min(len(seq) - 1, max_len)
                   for seq in split.train_sequences() if len(seq) >= 2))


@dataclass
class Fit:
    """The fixed-budget fit and the test-stage report after it."""

    model: ISRec
    losses: list
    recoveries: int
    report: object
    fit_s: float
    eval_s: float


def fit(workload, prepared: Prepared, seed: int, tracer) -> Fit:
    """Fit for ``FIT_EPOCHS``, then evaluate the test stage.

    ``patience`` equals the budget, so early stopping never cuts the work.
    """
    config = TrainConfig(epochs=FIT_EPOCHS, seed=seed,
                         batch_size=BATCH_SIZE,
                         eval_every=FIT_EPOCHS, patience=FIT_EPOCHS)
    start = time.perf_counter()
    with tracer.span("fit"):
        model = build_model(workload, prepared.dataset, seed)
        history = model.fit(prepared.dataset, prepared.split, config)
    fitted = time.perf_counter()
    with tracer.span("evaluate"):
        report = prepared.evaluator.evaluate(model, stage="test",
                                             batch_size=EVAL_BATCH)
    end = time.perf_counter()
    return Fit(model, list(history.losses),
               len(history.divergence_recoveries), report,
               fit_s=fitted - start, eval_s=end - fitted)


@dataclass
class Round:
    """One more training epoch and the test evaluation after it."""

    train_rate: float
    eval_rate: float
    losses: list
    recoveries: int
    report: object


def train_round(workload, prepared: Prepared, model, seed: int, index: int,
                tracer) -> Round:
    """Round ``index``: one ``Trainer`` epoch (no validation), then a test pass.

    The epoch's batch order is seeded by ``seed + 1 + index``, so the same
    seed walks the model through the same states in every run.  Rates are
    non-padding targets per second and test users ranked per second.
    """
    tokens = tokens_per_epoch(prepared.split, workload.max_len)
    trainer = Trainer(model, TrainConfig(epochs=1, seed=seed + 1 + index,
                                         batch_size=BATCH_SIZE))
    gc.collect()  # the previous stage's garbage is not this epoch's cost
    start = time.perf_counter()
    with tracer.span("train.epoch", ident=index):
        history = trainer.fit()
    trained = time.perf_counter()
    gc.collect()
    evaluated = time.perf_counter()
    with tracer.span("evaluate", ident=index):
        report = prepared.evaluator.evaluate(model, stage="test",
                                             batch_size=EVAL_BATCH)
    end = time.perf_counter()
    return Round(train_rate=tokens / (trained - start),
                 eval_rate=prepared.split.num_users / (end - evaluated),
                 losses=list(history.losses),
                 recoveries=len(history.divergence_recoveries),
                 report=report)


def engine_matches_model(model, engine, prepared: Prepared, max_len: int,
                         tracer) -> bool:
    """``RecommendationEngine.score`` equals ``model.score`` bit for bit."""
    inputs, _targets = evaluation_inputs(prepared.split, "test", max_len)
    candidates = prepared.evaluator.candidates("test")
    users = np.arange(prepared.split.num_users)
    with tracer.span("serve.engine.score_parity"):
        for start in range(0, len(users), EVAL_BATCH):
            rows = slice(start, start + EVAL_BATCH)
            expected = model.score(users[rows], inputs[rows], candidates[rows])
            served = engine.score(users[rows], inputs[rows], candidates[rows])
            if not np.array_equal(expected, served):
                return False
    return True


def serving_histories(prepared: Prepared) -> dict[int, list[int]]:
    """Every user's full history: what the cluster serves from."""
    return {user: [int(item) for item in seq]
            for user, seq in enumerate(prepared.dataset.sequences)}


def start_cluster(model, histories: dict, directory: Path, seed: int,
                  tracer):
    """Export, start a cluster, seed every history; returns when seeded.

    One read per shard closes the set-up: the shard queues are FIFO, so its
    reply proves the worker has applied every history sent before it.
    """
    start = time.perf_counter()
    with tracer.span("serve.export"):
        path = export_artifact(model, directory / "model.npz")
    world = min(2, os.cpu_count() or 1)
    with tracer.span("serve.cluster.start"):
        cluster = ServingCluster(path, ClusterConfig(
            world=world, cache_size=len(histories) + 1, queue_limit=4096,
            default_deadline_s=2.0, seed=seed))
    try:
        with tracer.span("serve.cluster.seed"):
            for user, items in histories.items():
                cluster.set_history(user, items)
            for user in range(world):
                if user in histories:
                    cluster.recommend(user)
    except BaseException:
        cluster.close()
        raise
    return cluster, path, time.perf_counter() - start


def reference_engine(path: Path, histories: dict) -> RecommendationEngine:
    """An in-process engine over the artifact the cluster serves."""
    return RecommendationEngine(load_artifact(path),
                                cache_size=len(histories) + 1)
