"""Serving benchmark: single-request latency + a threaded load test.

Measures the serving stack end to end on an ISRec-sized workload and
writes ``BENCH_serve.json`` at the repository root (``make bench-serve``):

- ``single_request`` — one user's top-K request timed three ways:
  ``train_forward`` (the naive baseline: score through the training path
  with gradients enabled, building a full autograd tape),
  ``serve_cold`` (engine request whose cached encoder state was just
  invalidated — one :func:`~repro.tensor.inference_mode` forward), and
  ``serve_warm`` (cache hit: a GEMV over the item table plus an exact
  partial sort).  The headline ``speedup`` is warm-vs-training-path; the
  acceptance floor is 2x.
- ``load`` — ``clients`` threads hammer a :class:`~repro.serve.MicroBatcher`
  with a mixed read/write request stream while telemetry is on; reports
  p50/p99 request latency, throughput, cache hit rate, and batch fill.
- ``artifact`` — size of the frozen inference artifact on disk.

Run it directly::

    make bench-serve                 # or:
    PYTHONPATH=src python -m repro.serve.bench --out BENCH_serve.json
"""

from __future__ import annotations

import argparse
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.config import ISRecConfig
from repro.core.isrec import ISRec
from repro.data.batching import pad_left
from repro.serve.artifact import export_artifact, load_artifact
from repro.serve.batcher import MicroBatcher
from repro.serve.engine import RecommendationEngine
from repro.tensor.tensor import graph_nodes
from repro.utils.bench import environment_info, measure, write_bench
from repro.utils.seeding import temp_seed

SCHEMA = "bench_serve/v1"

#: ML-1M-scale serving workload (matches the kernel-bench default shapes).
DEFAULT_SHAPES = dict(vocab=3416, dim=64, max_len=50, num_concepts=48,
                      num_users=512, history_len=30, top_k=10,
                      clients=8, requests_per_client=100, write_fraction=0.1)
#: Miniature preset for CI smoke runs.
SMOKE_SHAPES = dict(vocab=200, dim=32, max_len=16, num_concepts=12,
                    num_users=32, history_len=10, top_k=10,
                    clients=4, requests_per_client=16, write_fraction=0.1)

PRESETS = {"default": DEFAULT_SHAPES, "smoke": SMOKE_SHAPES}


# ----------------------------------------------------------------------
# Workload construction
# ----------------------------------------------------------------------
def build_model(shapes: dict, seed: int = 0) -> ISRec:
    """ISRec sized for ``shapes`` with random concept structure."""
    rng = np.random.default_rng(seed)
    vocab, concepts = shapes["vocab"], shapes["num_concepts"]
    item_concepts = (rng.random((vocab + 1, concepts)) < 0.1).astype(np.float32)
    item_concepts[0] = 0.0
    item_concepts[item_concepts.sum(axis=1) == 0, rng.integers(0, concepts)] = 1.0
    adjacency = (rng.random((concepts, concepts)) < 0.2).astype(np.float32)
    np.fill_diagonal(adjacency, 1.0)
    config = ISRecConfig(dim=shapes["dim"])
    with temp_seed(seed):
        return ISRec(vocab, item_concepts, adjacency,
                     max_len=shapes["max_len"], config=config)


def seed_histories(engine: RecommendationEngine, shapes: dict,
                   seed: int = 1) -> np.random.Generator:
    """Give every user a plausible random history; returns the RNG used."""
    rng = np.random.default_rng(seed)
    for user in range(shapes["num_users"]):
        length = int(rng.integers(2, shapes["history_len"] + 1))
        engine.set_history(user, rng.integers(1, shapes["vocab"] + 1,
                                              size=length))
    return rng


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def bench_single_request(model: ISRec, engine: RecommendationEngine,
                         shapes: dict, repeats: int = 5,
                         warmup: int = 2) -> dict:
    """Time one top-K request: training path vs. cold vs. warm serving."""
    rng = np.random.default_rng(7)
    user, top_k, vocab = 0, shapes["top_k"], shapes["vocab"]
    history = np.asarray(engine.history(user), dtype=np.int64)
    inputs = pad_left([history], model.max_len)

    model.train()

    def train_forward() -> np.ndarray:
        # The naive baseline: push the request through the training stack —
        # gradients enabled, dropout active, a full tape built and dropped.
        logits = model.all_item_logits(model.final_state(inputs))
        row = logits.data[0]
        return np.argpartition(row, -top_k)[-top_k:]

    train_result = measure(train_forward, repeats=repeats, warmup=warmup)
    model.eval()

    def serve_cold() -> list:
        engine.observe(user, int(rng.integers(1, vocab + 1)))
        return engine.recommend(user, k=top_k)

    cold_result = measure(serve_cold, repeats=repeats, warmup=warmup)

    engine.recommend(user, k=top_k)  # prime the cache

    def serve_warm() -> list:
        return engine.recommend(user, k=top_k)

    warm_result = measure(serve_warm, repeats=repeats, warmup=warmup)

    nodes_before = graph_nodes()
    serve_cold()
    serve_warm()
    nodes_delta = graph_nodes() - nodes_before

    warm_speedup = train_result["wall_time_s"] / max(warm_result["wall_time_s"], 1e-12)
    cold_speedup = train_result["wall_time_s"] / max(cold_result["wall_time_s"], 1e-12)
    return {
        "train_forward": train_result,
        "serve_cold": cold_result,
        "serve_warm": warm_result,
        "speedup_cold": cold_speedup,
        "speedup_warm": warm_speedup,
        "speedup": warm_speedup,
        "graph_nodes_per_request": int(nodes_delta),
    }


def bench_load(engine: RecommendationEngine, shapes: dict) -> dict:
    """Threaded load test through the micro-batcher, telemetry on."""
    registry = obs.MetricsRegistry()
    previous_registry = obs.set_registry(registry)
    previous_telemetry = obs.set_telemetry(True)
    clients = shapes["clients"]
    per_client = shapes["requests_per_client"]
    errors: list[BaseException] = []
    try:
        with MicroBatcher(engine, max_batch_size=max(clients, 2),
                          max_wait_s=0.002) as batcher:
            barrier = threading.Barrier(clients)

            def client(index: int) -> None:
                rng = np.random.default_rng(100 + index)
                try:
                    barrier.wait()
                    for _ in range(per_client):
                        user = int(rng.integers(0, shapes["num_users"]))
                        if rng.random() < shapes["write_fraction"]:
                            engine.observe(
                                user, int(rng.integers(1, shapes["vocab"] + 1)))
                        batcher.recommend(user, k=shapes["top_k"])
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=client, args=(index,))
                       for index in range(clients)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            batch_stats = batcher.stats()
    finally:
        obs.set_telemetry(previous_telemetry)
        obs.set_registry(previous_registry)
    if errors:
        raise errors[0]
    total = clients * per_client
    latency = registry.histogram("serve.request_latency_s")
    hits = registry.counter("serve.cache.hits").value
    misses = registry.counter("serve.cache.misses").value
    fill = registry.histogram("serve.batch_fill")
    return {
        "clients": clients,
        "requests": total,
        "seconds": elapsed,
        "throughput_rps": total / elapsed if elapsed > 0 else None,
        "latency_p50_s": latency.quantile(0.5),
        "latency_p99_s": latency.quantile(0.99),
        "latency_mean_s": latency.mean,
        "cache_hit_rate": hits / (hits + misses) if (hits + misses) else None,
        "batches": batch_stats["batches"],
        "mean_batch_size": batch_stats["mean_batch_size"],
        "mean_batch_fill": fill.mean,
    }


# ----------------------------------------------------------------------
# Top-level runner / CLI
# ----------------------------------------------------------------------
def run_serve_bench(preset: str = "default", repeats: int = 5,
                    warmup: int = 2, shapes: dict | None = None) -> dict:
    """Run every section and return the full results document."""
    shapes = dict(shapes or PRESETS[preset])
    model = build_model(shapes)
    with tempfile.TemporaryDirectory() as tmp:
        artifact_path = export_artifact(model, Path(tmp) / "model.npz")
        artifact_bytes = artifact_path.stat().st_size
        served = load_artifact(artifact_path)
    engine = RecommendationEngine(served, cache_size=shapes["num_users"])
    seed_histories(engine, shapes)
    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "preset": preset,
        "shapes": shapes,
        "repeats": repeats,
        "environment": environment_info(),
        "model": {"class": "ISRec", "num_parameters": sum(
            int(np.asarray(value).size)
            for value in served.state_dict().values())},
        "artifact": {"bytes": int(artifact_bytes)},
        "single_request": bench_single_request(model, engine, shapes,
                                               repeats, warmup),
        "load": bench_load(engine, shapes),
    }


def format_summary(results: dict) -> str:
    """Human-readable summary of a serve-bench results document."""
    single, load = results["single_request"], results["load"]
    as_ms = lambda value: "n/a" if value is None else f"{value * 1e3:.3f} ms"
    return "\n".join([
        f"serve bench  preset={results['preset']}  "
        f"artifact={results['artifact']['bytes'] / 1024:.0f} KiB",
        f"  train-path forward {as_ms(single['train_forward']['wall_time_s'])}"
        f"   serve cold {as_ms(single['serve_cold']['wall_time_s'])}"
        f" ({single['speedup_cold']:.1f}x)"
        f"   serve warm {as_ms(single['serve_warm']['wall_time_s'])}"
        f" ({single['speedup_warm']:.1f}x)",
        f"  graph nodes / request: {single['graph_nodes_per_request']}",
        f"  load: {load['requests']} requests / {load['clients']} clients"
        f"  {load['throughput_rps']:.0f} rps"
        f"   p50 {as_ms(load['latency_p50_s'])}  p99 {as_ms(load['latency_p99_s'])}"
        f"   cache hit rate {load['cache_hit_rate']:.2f}"
        f"   mean batch {load['mean_batch_size']:.1f}",
    ])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="output JSON path (default: %(default)s)")
    parser.add_argument("--preset", default="default", choices=sorted(PRESETS),
                        help="shape preset (default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per measurement (best-of)")
    args = parser.parse_args(argv)

    results = run_serve_bench(preset=args.preset, repeats=args.repeats)
    write_bench(results, args.out)
    print(format_summary(results))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
