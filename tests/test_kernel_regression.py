"""Tier-1 guard: the fused kernel path must not be slower than the composed
reference on the train-step microbench.

Runs the same harness as ``make bench-kernels`` on miniature shapes with a
generous 1.0x threshold (fused is typically 1.5-2x faster even at smoke
shapes, so best-of-5 timing keeps CI noise from ever flaking this).

The ISRec intent decoder (Eq. 11) gets its own guard: its fused
concept-bank kernel must be no slower than the composed bank and must
peak at no more than half its traced memory, which fails as soon as a
``(B, T, K, d', d)`` weight-gradient temporary comes back."""

import time
import tracemalloc

import numpy as np

from repro.core import IntentDecoder
from repro.nn.gumbel import hard_top_k
from repro.tensor import Tensor, fused
from repro.utils import bench


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
