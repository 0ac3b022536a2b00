"""Trainer/evaluator instrumentation and the disabled-mode overhead bound."""

import json

import numpy as np

from repro import ISRec, ISRecConfig, nn, obs
from repro.data import next_item_batches
from repro.tensor import Tensor, fused
from repro.train import TrainConfig, Trainer
from repro.utils import bench


def _isrec_and_batch(dataset, split):
    model = ISRec.from_dataset(dataset, max_len=8, config=ISRecConfig(dim=16))
    model.train()
    batch = next(next_item_batches(split.train_sequences(), 8, 16,
                                   np.random.default_rng(0)))
    return model, batch


class NoisyModel(nn.Module):
    """A tiny least-squares model exposing the trainer batch protocol with
    realistic ``(users, inputs, targets, mask)`` batches."""

    name = "noisy"

    def __init__(self, num_batches=3):
        super().__init__()
        self.weight = nn.Parameter(np.zeros(4, dtype=np.float32))
        self.num_batches = num_batches

    def training_batches(self, rng):
        for start in range(self.num_batches):
            users = np.arange(start * 8, start * 8 + 8)
            inputs = rng.integers(1, 50, size=(8, 6))
            inputs[:, :2] = 0  # left padding
            targets = rng.integers(1, 50, size=(8, 6))
            mask = (inputs > 0).astype(np.float32)
            yield users, inputs, targets, mask

    def training_loss(self, batch):
        diff = self.weight - Tensor(np.ones(4, dtype=np.float32))
        return (diff * diff).sum()


class TestTrainerTelemetry:
    def test_fit_streams_parseable_step_records(self, tmp_path):
        path = tmp_path / "fit.telemetry.jsonl"
        model = NoisyModel(num_batches=3)
        config = TrainConfig(epochs=2, lr=0.1, eval_every=10, patience=0)
        with obs.telemetry_run(path, run="fit-test"):
            Trainer(model, config).fit()

        records = obs.read_telemetry(path)
        events = [r["event"] for r in records]
        assert events[0] == "telemetry_start"
        assert "train_start" in events and "train_end" in events
        assert events.count("epoch") == 2
        steps = [r for r in records if r["event"] == "train_step"]
        assert len(steps) == 6  # 3 batches x 2 epochs
        for record in steps:
            assert isinstance(record["loss"], float)
            assert isinstance(record["grad_norm"], float)
            assert record["lr"] > 0
            assert record["step_time_s"] >= 0
            assert record["tensor_allocs"] > 0
            # Batch introspection: 8 sequences, 4 non-pad tokens each.
            assert record["sequences"] == 8
            assert record["tokens"] == 32
            assert record["seq_per_s"] > 0 and record["tok_per_s"] > 0
        assert steps[0]["epoch"] == 1 and steps[-1]["epoch"] == 2  # 1-indexed

        summary = json.loads(path.with_suffix(".summary.json").read_text())
        metrics = summary["metrics"]
        assert metrics["trainer.steps"]["value"] == 6
        assert metrics["trainer.loss"]["count"] == 6
        assert metrics["trainer.grad_norm"]["count"] == 6
        assert "train_step" in summary["profile"]
        step_children = summary["profile"]["train_step"]["children"]
        assert {"forward", "backward", "optimizer_step"} <= set(step_children)

    def test_validation_and_checkpoint_events(self, tmp_path):
        path = tmp_path / "val.telemetry.jsonl"
        model = NoisyModel(num_batches=1)
        scores = iter([1.0, 2.0, 3.0])
        config = TrainConfig(epochs=3, lr=0.1, eval_every=1, patience=3,
                             checkpoint_dir=str(tmp_path / "ckpt"))
        with obs.telemetry_run(path):
            Trainer(model, config, validate=lambda: next(scores)).fit()
        records = obs.read_telemetry(path)
        validations = [r for r in records if r["event"] == "validation"]
        assert len(validations) == 3
        assert validations[-1]["best_score"] == 3.0
        assert all(v["improved"] for v in validations)
        checkpoints = [r for r in records if r["event"] == "checkpoint"]
        assert len(checkpoints) == 3
        assert all(c["seconds"] >= 0 for c in checkpoints)

    def test_disabled_fit_writes_nothing(self, tmp_path):
        model = NoisyModel(num_batches=2)
        config = TrainConfig(epochs=1, lr=0.1, eval_every=10, patience=0)
        Trainer(model, config).fit()
        registry = obs.get_registry()
        assert registry.counter("trainer.steps").value == 0
        assert registry.histogram("trainer.loss").count == 0


class TestEvaluatorTelemetry:
    def test_evaluate_emits_batch_and_pass_records(self, tmp_path,
                                                   tiny_dataset, tiny_split):
        from repro.eval import RankingEvaluator

        class RandomModel:
            max_len = 10
            name = "random"

            def __init__(self, seed=0):
                self.rng = np.random.default_rng(seed)

            def score(self, users, inputs, candidates):
                return self.rng.normal(size=candidates.shape)

        evaluator = RankingEvaluator(tiny_split, tiny_dataset.num_items,
                                     num_negatives=20)
        path = tmp_path / "eval.telemetry.jsonl"
        with obs.telemetry_run(path):
            evaluator.evaluate(RandomModel(), stage="test", batch_size=32)
        records = obs.read_telemetry(path)
        batches = [r for r in records if r["event"] == "eval_batch"]
        assert len(batches) >= 2  # >32 users at batch_size=32
        assert all(b["candidates_per_s"] > 0 for b in batches)
        passes = [r for r in records if r["event"] == "eval"]
        assert len(passes) == 1
        assert passes[0]["stage"] == "test"
        assert passes[0]["num_users"] == tiny_split.num_users
        assert 0.0 <= passes[0]["hr10"] <= 1.0


class TestKernelDispatchTelemetry:
    def test_sasrec_train_step_dispatch_counted(self):
        """One instrumented train step must count the fused-path decisions
        of every dispatch site it crosses (loss, attention, layer norm)."""
        model, batch = bench._build_model_and_batch(bench.SMOKE_SHAPES)
        model.train()
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            with obs.use_telemetry(), fused.use_fused(True):
                model.training_loss(batch)
        finally:
            obs.set_registry(previous)
        snap = registry.snapshot()
        assert snap["kernel_dispatch.training_loss.fused"]["value"] == 1
        assert snap["kernel_dispatch.attention.fused"]["value"] >= 1
        assert snap["kernel_dispatch.layer_norm.fused"]["value"] >= 1
        assert not any(".composed" in name for name in snap)

    def test_isrec_decoder_dispatch_counted(self, tiny_dataset, tiny_split):
        """The intent decoder reports its concept-bank kernel path."""
        model, batch = _isrec_and_batch(tiny_dataset, tiny_split)
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            with obs.use_telemetry():
                with fused.use_fused(True):
                    model.training_loss(batch)
                with fused.use_fused(False):
                    model.training_loss(batch)
        finally:
            obs.set_registry(previous)
        snap = registry.snapshot()
        assert snap["kernel_dispatch.concept_bank_decode.fused"]["value"] == 1
        assert snap["kernel_dispatch.concept_bank_decode.composed"]["value"] == 1

    def test_isrec_intent_rows_dispatch_and_live_share(self, tiny_dataset,
                                                      tiny_split):
        """Each ISRec forward reports its intent-row path; a live-row
        training forward also observes its live-row share."""
        model, batch = _isrec_and_batch(tiny_dataset, tiny_split)
        inputs = batch[1]
        live = (inputs != 0)
        live[:, -1] = True
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            with obs.use_telemetry():
                with fused.use_fused(True):
                    model.training_loss(batch)
                    model.final_state(inputs)
                with fused.use_fused(False):
                    model.training_loss(batch)
                    model.final_state(inputs)
        finally:
            obs.set_registry(previous)
        snap = registry.snapshot()
        assert snap["kernel_dispatch.intent_rows.live"]["value"] == 2
        assert snap["kernel_dispatch.intent_rows.reference"]["value"] == 2
        share = snap["intent_rows.live_share"]
        assert share["count"] == 1
        assert share["last"] == live.mean()


class TestTelemetryOverhead:
    """Deterministic (counted, not timed) overhead guarantees.

    Wall-clock "under 5%" assertions flake under machine drift, so tier-1
    asserts the *structural* properties that bound the overhead instead:
    the disabled path performs zero instrumentation work, and the enabled
    path performs a fixed O(1) amount per step.  The actual wall-clock 5%
    bound is measured by ``benchmarks/test_telemetry_overhead.py``
    (``make bench-smoke``), outside the tier-1 suite.
    """

    def test_disabled_step_does_no_instrumentation_work(self):
        model, batch = bench._build_model_and_batch(bench.SMOKE_SHAPES)
        model.train()
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            assert not obs.telemetry_enabled()
            with fused.use_fused(True):
                loss = model.training_loss(batch)
                loss.backward()
        finally:
            obs.set_registry(previous)
        # No counters, gauges, or histograms were touched anywhere in the
        # fused forward/backward — the disabled path is work-free.
        assert registry.snapshot() == {}

    def test_disabled_isrec_step_does_no_instrumentation_work(self, tiny_dataset,
                                                              tiny_split):
        model, batch = _isrec_and_batch(tiny_dataset, tiny_split)
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            assert not obs.telemetry_enabled()
            with fused.use_fused(True):
                model.training_loss(batch).backward()
                model.final_state(batch[1])
            with fused.use_fused(False):
                model.training_loss(batch).backward()
        finally:
            obs.set_registry(previous)
        # Neither the intent-row dispatch counters nor the live-share
        # histogram (nor anything else) was touched.
        assert registry.snapshot() == {}

    def test_enabled_step_instrumentation_is_constant_per_step(self):
        """Instrumentation work must be O(1) per optimisation step: exactly
        one train_step record and one observation per trainer metric."""
        model = NoisyModel(num_batches=4)
        config = TrainConfig(epochs=2, lr=0.1, eval_every=10, patience=0)
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            with obs.use_telemetry():
                Trainer(model, config).fit()
        finally:
            obs.set_registry(previous)
        steps = 4 * 2
        snap = registry.snapshot()
        assert snap["trainer.steps"]["value"] == steps
        for metric in ("trainer.loss", "trainer.grad_norm",
                       "trainer.step_time_s", "trainer.step_tensor_allocs"):
            assert snap[metric]["count"] == steps
