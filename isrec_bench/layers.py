"""Per-layer measurements for the traced run.

Every number here comes from timing a public call of one layer from the
outside: the section-3 modules of ``repro.core`` on leaf inputs derived
from the workload's own first training batch, the loss of
``repro.models``, the train step and optimizer, ``repro.data``,
``repro.eval`` and the in-process ``repro.serve`` engine.  Each timing is
the median of ``REPEATS`` calls after one warm-up call; each allocation
count is the exact ``tensor_allocs`` delta of one forward and backward.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import IntentAwareEncoder, IntentDecoder, StructuredIntentTransition
from repro.data import evaluation_inputs, next_item_batches
from repro.eval import MetricReport, ranks_from_scores
from repro.optim import Adam, clip_grad_norm
from repro.serve import RecommendationEngine, export_artifact, load_artifact
from repro.tensor import Tensor, fused, graph_nodes, no_grad, tensor_allocs
from repro.utils.seeding import temp_seed

from isrec_bench.measure import median
from isrec_bench.stages import EVAL_BATCH, build_model
from isrec_bench.workloads import BATCH_SIZE, MODEL

REPEATS = 5
#: Users whose in-process engine requests are timed.
ENGINE_USERS = 64
CORE_MODULES = ("encoder", "extract", "feature_bank", "gcn", "top_lambda",
                "decoder")


def _leaf(tensor: Tensor) -> Tensor:
    return Tensor(tensor.data.copy(), requires_grad=True)


def _fwd_bwd(name: str, make_inputs, forward, zero_grad, tracer,
             upstream_seed: int):
    """Median forward and backward ms, and the allocs of one fwd+bwd."""
    forward_s, backward_s, allocs = [], [], 0
    upstream = None
    for repeat in range(REPEATS + 1):
        inputs = make_inputs()
        zero_grad()
        before = tensor_allocs()
        start = time.perf_counter()
        output = forward(*inputs)
        middle = time.perf_counter()
        if output.data.size == 1:
            output.backward()
        else:
            if upstream is None:
                upstream = np.random.default_rng(upstream_seed).standard_normal(
                    output.shape).astype(output.data.dtype)
            output.backward(upstream)
        end = time.perf_counter()
        allocs = tensor_allocs() - before
        tracer.record(f"{name}.fwd", start, middle, None, repeat)
        tracer.record(f"{name}.bwd", middle, end, None, repeat)
        if repeat:  # the first call warms caches and is not counted
            forward_s.append(middle - start)
            backward_s.append(end - middle)
    return median(forward_s) * 1e3, median(backward_s) * 1e3, allocs


def first_batch(workload, prepared, seed: int):
    """The first batch of the workload's first training epoch."""
    rng = np.random.default_rng(seed)
    return next(next_item_batches(prepared.split.train_sequences(),
                                  workload.max_len, BATCH_SIZE, rng))


def core_layers(workload, prepared, seed: int, tracer) -> dict:
    """fwd/bwd/allocs for each section-3 module, the loss, step and optimizer."""
    model = build_model(workload, prepared.dataset, seed)
    model.train()
    batch = first_batch(workload, prepared, seed)
    _users, inputs, targets, mask = batch
    concepts = model.encoder.concept_embedding
    with no_grad():
        states = model.encoder(inputs)
        intention, _scores = model.extractor(states, concepts)
        features = model.transition.intent_features(states, intention)
        upcoming = model.transition.transition(features)
        next_intention = model.transition.next_intention(upcoming)
        decoded = model.decoder(upcoming, next_intention)
        output = decoded + states if model.residual else decoded

    weight = model.item_embedding.weight

    def loss(hidden):
        # The default (fused) path of SequenceRecommender.training_loss.
        return fused.cross_entropy(hidden @ weight.T, targets, mask,
                                   suppress_index=0)

    cases = {
        "core.encoder": (lambda: (inputs,), model.encoder),
        "core.extract": (lambda: (_leaf(states),),
                         lambda s: model.extractor(s, concepts)[0]),
        "core.feature_bank": (lambda: (_leaf(states), _leaf(intention)),
                              model.transition.intent_features),
        "core.gcn": (lambda: (_leaf(features),), model.transition.transition),
        "core.top_lambda": (lambda: (_leaf(upcoming),),
                            model.transition.next_intention),
        "core.decoder": (lambda: (_leaf(upcoming), _leaf(next_intention)),
                         model.decoder),
        "models.loss": (lambda: (_leaf(output),), loss),
        "train.step": (lambda: (batch,), model.training_loss),
    }
    rows: dict[str, tuple[float, str]] = {}
    totals: dict[str, float] = {}
    for index, (name, (make_inputs, forward)) in enumerate(cases.items()):
        forward_ms, backward_ms, allocs = _fwd_bwd(
            name, make_inputs, forward, model.zero_grad, tracer, seed + index)
        rows[f"{name}.fwd_ms"] = (forward_ms, "ms")
        rows[f"{name}.bwd_ms"] = (backward_ms, "ms")
        if name != "models.loss":
            rows[f"{name}.allocs"] = (allocs, "count")
        totals[name] = forward_ms + backward_ms

    parameters = model.parameters()
    optimizer = Adam(parameters, lr=1e-3, weight_decay=1e-6)
    optimizer_s = []
    for repeat in range(REPEATS + 1):
        model.zero_grad()
        model.training_loss(batch).backward()
        start = time.perf_counter()
        clip_grad_norm(parameters, 5.0)
        optimizer.step()
        end = time.perf_counter()
        tracer.record("optim.step", start, end, None, repeat)
        if repeat:
            optimizer_s.append(end - start)
    optimizer_ms = median(optimizer_s) * 1e3
    rows["optim.step_ms"] = (optimizer_ms, "ms")
    attributed = sum(totals[f"core.{module}"] for module in CORE_MODULES)
    attributed += totals["models.loss"] + optimizer_ms
    rows["train.attributed_share"] = (
        attributed / (totals["train.step"] + optimizer_ms), "ratio")
    return rows


def _forward_ms(name: str, make_inputs, forward, tracer) -> float:
    """Median forward ms (tape recorded, as in training)."""
    seconds = []
    for repeat in range(REPEATS + 1):
        inputs = make_inputs()
        start = time.perf_counter()
        forward(*inputs)
        end = time.perf_counter()
        tracer.record(f"{name}.fwd", start, end, None, repeat)
        if repeat:
            seconds.append(end - start)
    return median(seconds) * 1e3


def _exponent(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size)."""
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def scaling(workload, prepared, seed: int, tracer) -> dict:
    """Section 3.8 check: forward time against T (encoder) and K (concept bank).

    Inputs are random at the workload's batch size, d, d' and lambda; only
    the swept dimension changes, at half, one and two times its value.
    """
    config = MODEL
    dataset = prepared.dataset
    batch, length = BATCH_SIZE, workload.max_len
    concepts = dataset.item_concepts.shape[1]
    rng = np.random.default_rng([seed, 0x38])
    rows: dict[str, tuple[float, str]] = {}

    lengths = (length // 2, length, 2 * length)
    with temp_seed(seed):
        encoder = IntentAwareEncoder(dataset.num_items, dataset.item_concepts,
                                     config.dim, 2 * length,
                                     num_layers=config.num_layers,
                                     num_heads=config.num_heads,
                                     dropout=config.dropout)
    encoder_ms = []
    for size in lengths:
        items = rng.integers(1, dataset.num_items + 1, size=(batch, size))
        encoder_ms.append(_forward_ms(f"scaling.encoder.T{size}",
                                      lambda: (items,), encoder, tracer))
    rows["complexity.encoder.t_exponent"] = (_exponent(lengths, encoder_ms),
                                             "exponent")

    counts = (concepts // 2, concepts, 2 * concepts)
    module_ms = {name: [] for name in ("feature_bank", "gcn", "top_lambda",
                                       "decoder")}
    density = float(dataset.concept_space.adjacency.mean())
    for size in counts:
        adjacency = (rng.random((size, size)) < density).astype(np.float32)
        adjacency = np.maximum(adjacency, adjacency.T)
        np.fill_diagonal(adjacency, 0.0)
        active = min(config.num_intents, size)
        with temp_seed(seed):
            transition = StructuredIntentTransition(
                adjacency, config.dim, config.intent_dim, num_intents=active,
                gcn_layers=config.gcn_layers, tau=config.tau)
            decoder = IntentDecoder(size, config.intent_dim, config.dim)
        states = rng.standard_normal((batch, length, config.dim)).astype(np.float32)
        mask = np.zeros((batch, length, size), dtype=np.float32)
        picks = np.argsort(rng.random((batch, length, size)), axis=-1)[..., :active]
        np.put_along_axis(mask, picks, 1.0, axis=-1)
        with no_grad():
            features = transition.intent_features(Tensor(states), Tensor(mask))
            upcoming = transition.transition(features)
            following = transition.next_intention(upcoming)
        cases = {
            "feature_bank": (lambda: (Tensor(states, requires_grad=True),
                                      Tensor(mask, requires_grad=True)),
                             transition.intent_features),
            "gcn": (lambda: (_leaf(features),), transition.transition),
            "top_lambda": (lambda: (_leaf(upcoming),), transition.next_intention),
            "decoder": (lambda: (_leaf(upcoming), _leaf(following)), decoder),
        }
        for name, (make_inputs, forward) in cases.items():
            module_ms[name].append(_forward_ms(f"scaling.{name}.K{size}",
                                               make_inputs, forward, tracer))
    for name, times in module_ms.items():
        rows[f"complexity.{name}.k_exponent"] = (_exponent(counts, times),
                                                 "exponent")
    return rows


def data_and_eval(workload, prepared, model, seed: int, tracer) -> dict:
    """``repro.data`` batching and ``repro.eval`` scoring/ranking times."""
    sequences = prepared.split.train_sequences()
    batches_s = []
    for repeat in range(REPEATS):
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        for _batch in next_item_batches(sequences, workload.max_len,
                                        BATCH_SIZE, rng):
            pass
        end = time.perf_counter()
        tracer.record("data.batches", start, end, None, repeat)
        batches_s.append(end - start)

    inputs, _targets = evaluation_inputs(prepared.split, "test", workload.max_len)
    candidates = prepared.evaluator.candidates("test")
    users = np.arange(prepared.split.num_users)
    rows = slice(0, EVAL_BATCH)
    score_s = []
    for repeat in range(REPEATS + 1):
        start = time.perf_counter()
        model.score(users[rows], inputs[rows], candidates[rows])
        end = time.perf_counter()
        tracer.record("eval.score", start, end, None, repeat)
        if repeat:
            score_s.append(end - start)
    scores = np.concatenate([
        model.score(users[begin:begin + EVAL_BATCH],
                    inputs[begin:begin + EVAL_BATCH],
                    candidates[begin:begin + EVAL_BATCH])
        for begin in range(0, len(users), EVAL_BATCH)])
    rank_s = []
    for repeat in range(REPEATS):
        start = time.perf_counter()
        MetricReport.from_ranks(ranks_from_scores(scores, positive_column=0))
        end = time.perf_counter()
        tracer.record("eval.rank", start, end, None, repeat)
        rank_s.append(end - start)
    return {
        "data.batches_ms": (median(batches_s) * 1e3, "ms"),
        "eval.score_ms": (median(score_s) * 1e3, "ms"),
        "eval.rank_ms": (median(rank_s) * 1e3, "ms"),
    }


def artifact_and_engine(model, histories: dict, directory, seed: int,
                        tracer) -> dict:
    """Artifact export/load and in-process engine request costs."""
    export_s, load_s = [], []
    path = None
    for repeat in range(3):
        start = time.perf_counter()
        path = export_artifact(model, directory / f"layer-{repeat}.npz")
        middle = time.perf_counter()
        loaded = load_artifact(path)
        end = time.perf_counter()
        tracer.record("serve.artifact.export", start, middle, None, repeat)
        tracer.record("serve.artifact.load", middle, end, None, repeat)
        export_s.append(middle - start)
        load_s.append(end - middle)
    engine = RecommendationEngine(loaded, cache_size=len(histories) + 1)
    rng = np.random.default_rng([seed, 0xE7])
    chosen = rng.choice(sorted(histories),
                        size=min(ENGINE_USERS, len(histories)), replace=False)
    observe_s, cold_s, warm_s = [], [], []
    nodes_before = graph_nodes()
    for index, user in enumerate(chosen.tolist()):
        engine.set_history(user, histories[user])
        engine.recommend(user)
        item = int(rng.integers(1, model.num_items + 1))
        start = time.perf_counter()
        engine.observe(user, item)
        observed = time.perf_counter()
        engine.recommend(user)
        cold = time.perf_counter()
        engine.recommend(user)
        warm = time.perf_counter()
        tracer.record("serve.engine.observe", start, observed, None, index)
        tracer.record("serve.engine.cold", observed, cold, None, index)
        tracer.record("serve.engine.warm", cold, warm, None, index)
        observe_s.append(observed - start)
        cold_s.append(cold - observed)
        warm_s.append(warm - cold)
    nodes = graph_nodes() - nodes_before
    return {
        "serve.artifact.export_ms": (median(export_s) * 1e3, "ms"),
        "serve.artifact.load_ms": (median(load_s) * 1e3, "ms"),
        "serve.artifact.bytes": (path.stat().st_size, "bytes"),
        "serve.engine.cold_ms": (median(cold_s) * 1e3, "ms"),
        "serve.engine.warm_us": (median(warm_s) * 1e6, "us"),
        "serve.engine.observe_us": (median(observe_s) * 1e6, "us"),
        "serve.engine.graph_nodes": (nodes, "count"),
    }
