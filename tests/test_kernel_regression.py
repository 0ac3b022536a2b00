"""Tier-1 guard: the fused kernel path must not be slower than the composed
reference on the train-step microbench.

Runs the same harness as ``make bench-kernels`` on miniature shapes with a
generous 1.0x threshold (fused is typically 1.5-2x faster even at smoke
shapes, so best-of-5 timing keeps CI noise from ever flaking this).

The ISRec intent decoder (Eq. 11) gets its own guard: its fused
concept-bank kernel must be no slower than the composed bank and must
peak at no more than half its traced memory, which fails as soon as a
``(B, T, K, d', d)`` weight-gradient temporary comes back.

ISRec's live-row intent path (``ISRec.sequence_output``) gets a third: on
a padded batch with ~30% live rows its train step must be no slower than
the dense ``forward_detailed`` reference and must peak at no more than 80%
of its traced memory, which fails if the path falls back to dense."""

import time
import tracemalloc

import numpy as np

from repro import ISRec, ISRecConfig
from repro.core import IntentDecoder
from repro.nn.gumbel import hard_top_k
from repro.tensor import Tensor, fused
from repro.utils import bench, set_seed


def test_fused_train_step_not_slower_than_composed():
    result = bench.bench_train_step(bench.SMOKE_SHAPES, repeats=5, warmup=2)
    composed = result["composed"]["wall_time_s"]
    fused_time = result["fused"]["wall_time_s"]
    assert fused_time <= composed * 1.0, (
        f"fused train step regressed: {fused_time * 1e3:.2f} ms vs composed "
        f"{composed * 1e3:.2f} ms"
    )
    # Fusing exists to cut temporaries: the fused step must allocate fewer.
    assert result["fused"]["tensor_allocs"] < result["composed"]["tensor_allocs"]


def test_bench_results_reproducible_structure():
    result = bench.bench_train_step(bench.SMOKE_SHAPES, repeats=1, warmup=1)
    assert set(result) == {"composed", "fused", "speedup", "alloc_ratio"}
    for path in ("composed", "fused"):
        assert result[path]["wall_time_s"] > 0
        assert result[path]["tensor_allocs"] > 0


def test_fused_concept_bank_decode_faster_and_smaller():
    batch, length, concepts, intent_dim, dim, lam = 16, 12, 24, 8, 32, 5
    rng = np.random.default_rng(0)
    decoder = IntentDecoder(concepts, intent_dim, dim)
    z = rng.standard_normal((batch, length, concepts, intent_dim)).astype(np.float32)
    scores = rng.standard_normal((batch, length, concepts)).astype(np.float32)
    soft = np.exp(scores) / np.exp(scores).sum(axis=-1, keepdims=True)
    mask = soft + (hard_top_k(scores, lam) - soft)  # straight-through top-λ
    upstream = rng.standard_normal((batch, length, dim)).astype(np.float32)

    def forward_backward():
        decoder.zero_grad()
        out = decoder(Tensor(z, requires_grad=True), Tensor(mask, requires_grad=True))
        out.backward(upstream)

    best, peak = {}, {}
    for fused_on in (False, True):
        with fused.use_fused(fused_on):
            forward_backward()  # warm-up
            times = []
            for _ in range(5):
                start = time.perf_counter()
                forward_backward()
                times.append(time.perf_counter() - start)
            tracemalloc.start()
            try:
                forward_backward()
                peak[fused_on] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        best[fused_on] = min(times)
    assert best[True] <= best[False], (
        f"fused decoder regressed: {best[True] * 1e3:.2f} ms vs composed "
        f"{best[False] * 1e3:.2f} ms")
    assert peak[True] <= peak[False] / 2, (
        f"fused decoder peak {peak[True] / 1e6:.2f} MB vs composed "
        f"{peak[False] / 1e6:.2f} MB")


def _padded_isrec_batch(batch=32, length=20, live_share=0.3):
    """A miniature ISRec and a left-padded batch with ~``live_share`` live rows."""
    rng = np.random.default_rng(3)
    num_items, concepts = 200, 24
    item_concepts = (rng.random((num_items + 1, concepts)) < 0.15).astype(np.float32)
    item_concepts[0] = 0.0
    adjacency = (rng.random((concepts, concepts)) < 0.2).astype(np.float32)
    adjacency = np.triu(adjacency, 1) + np.triu(adjacency, 1).T
    set_seed(0)
    model = ISRec(num_items, item_concepts, adjacency, max_len=length,
                  config=ISRecConfig(dim=32))
    model.train()
    lengths = rng.integers(1, 2 * live_share * length, size=batch)
    inputs = np.zeros((batch, length), dtype=np.int64)
    targets = np.zeros_like(inputs)
    for row, n in enumerate(lengths):
        items = rng.integers(1, num_items + 1, size=n + 1)
        inputs[row, length - n:] = items[:-1]
        targets[row, length - n:] = items[1:]
    return model, (np.arange(batch), inputs, targets,
                   (targets > 0).astype(np.float32))


def test_live_row_isrec_step_faster_and_smaller():
    """The live-row intent path must beat the dense ``forward_detailed``
    reference on a padded batch in time and in traced peak memory; the
    memory bound fails as soon as the path silently falls back to dense."""
    model, batch = _padded_isrec_batch()
    live_share = (batch[1] != 0).mean()
    assert 0.2 < live_share < 0.4

    def dense(inputs):
        return model.forward_detailed(inputs)["output"]

    def step():
        model.zero_grad()
        model.training_loss(batch).backward()

    best, peak = {}, {}
    for path in ("reference", "live"):
        if path == "reference":
            model.sequence_output = dense
        else:
            del model.sequence_output
        step()  # warm-up
        times = []
        for _ in range(5):
            start = time.perf_counter()
            step()
            times.append(time.perf_counter() - start)
        best[path] = min(times)
        tracemalloc.start()
        try:
            step()
            peak[path] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert best["live"] <= best["reference"], (
        f"live-row step regressed: {best['live'] * 1e3:.2f} ms vs reference "
        f"{best['reference'] * 1e3:.2f} ms")
    # 0.64 measured (numpy allocations are traced deterministically); a
    # fallback to the dense path sits at 1.0.
    assert peak["live"] <= 0.8 * peak["reference"], (
        f"live-row step peak {peak['live'] / 1e6:.2f} MB vs reference "
        f"{peak['reference'] / 1e6:.2f} MB")
