"""Online-loop benchmark: drift absorption, fine-tune latency, gated rollout.

Drives the whole train → serve → observe loop against a live
:class:`~repro.serve.ServingCluster` on a simulated intent-drift scenario
and writes ``BENCH_online.json`` at the repository root
(``make bench-online``):

- ``absorb`` — streams a burst of drifted interactions through
  ``cluster.observe`` (authoritative store + shard replica sync + event
  ring); reports sustained events/s.
- ``fine_tune`` — :class:`~repro.online.OnlineLearner` rounds over the
  drained stream; reports per-step latency (mean/p50/p99) on the fused
  ``training_loss`` path.
- ``rollout`` — publishes the adapted artifact through the shadow gate and
  the canary-first swap while a prober hammers ``recommend``; reports the
  swap duration and the longest gap between successful responses (the
  observed "downtime", which the run asserts never becomes a dropped or
  degraded request).
- ``refusal`` — offers a deliberately regressed candidate (a re-initialised
  model) to the same gate; it must be refused with
  :class:`~repro.online.ShadowRegression`.
- ``verdict_accuracy`` — fraction of the two gate decisions the shadow
  evaluation got right (promote the adapted model, refuse the regressed
  one); 1.0 means the gate is doing its job.

Run it directly::

    make bench-online             # or:
    PYTHONPATH=src python -m repro.online.bench --out BENCH_online.json
"""

from __future__ import annotations

import argparse
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.obs import MetricsRegistry, set_registry, use_telemetry
from repro.online.learner import OnlineConfig, OnlineLearner
from repro.online.shadow import ShadowEvaluator, ShadowRegression
from repro.serve.artifact import export_artifact, load_artifact
from repro.serve.bench import build_model
from repro.serve.cluster import ClusterConfig, ServingCluster
from repro.serve.engine import RecommendationEngine
from repro.utils.bench import environment_info, write_bench

SCHEMA = "bench_online/v1"

#: Default workload: a real drift burst over a two-shard cluster.
DEFAULT_SHAPES = dict(vocab=600, dim=32, max_len=20, num_concepts=16,
                      num_users=128, history_len=12, events=1500,
                      rounds=3, steps_per_round=8, batch_size=16,
                      lr=1e-3, top_k=10, world=2, shadow_users=32,
                      drift_band=24, deadline_s=5.0)
#: Miniature preset for CI smoke runs.
SMOKE_SHAPES = dict(vocab=200, dim=16, max_len=12, num_concepts=8,
                    num_users=48, history_len=8, events=240,
                    rounds=2, steps_per_round=4, batch_size=16,
                    lr=1e-3, top_k=10, world=2, shadow_users=16,
                    drift_band=12, deadline_s=5.0)

PRESETS = {"default": DEFAULT_SHAPES, "smoke": SMOKE_SHAPES}


class _RolloutProber(threading.Thread):
    """Hammers ``recommend`` during a swap; times gaps between successes."""

    def __init__(self, cluster: ServingCluster, users: list[int],
                 top_k: int, deadline_s: float):
        super().__init__(name="online-bench-prober", daemon=True)
        self._cluster = cluster
        self._users = users
        self._top_k = top_k
        self._deadline_s = deadline_s
        self._halt = threading.Event()
        self.ok = 0
        self.degraded = 0
        self.errors: list[str] = []
        self.max_gap_s = 0.0

    def run(self) -> None:
        index = 0
        last_success = time.perf_counter()
        while not self._halt.is_set():
            user = self._users[index % len(self._users)]
            index += 1
            try:
                response = self._cluster.recommend(
                    user, k=self._top_k, deadline_s=self._deadline_s)
            except Exception as error:  # typed errors are still failures here
                self.errors.append(f"{type(error).__name__}: {error}")
            else:
                now = time.perf_counter()
                if response.degraded:
                    self.degraded += 1
                else:
                    self.ok += 1
                    self.max_gap_s = max(self.max_gap_s, now - last_success)
                    last_success = now
            time.sleep(0.001)

    def stop(self) -> dict:
        self._halt.set()
        self.join(timeout=60.0)
        return {"ok": self.ok, "degraded": self.degraded,
                "errors": len(self.errors),
                "max_request_gap_s": self.max_gap_s}


def _drift_events(shapes: dict, rng: np.random.Generator):
    """(user, item) stream for the drifted regime: a narrow hot item band
    at the top of the vocabulary that the seed histories never touched."""
    band_lo = max(1, shapes["vocab"] - shapes["drift_band"])
    for index in range(shapes["events"]):
        user = index % shapes["num_users"]
        yield user, int(rng.integers(band_lo, shapes["vocab"] + 1))


def run_online_bench(preset: str = "default",
                     shapes: dict | None = None) -> dict:
    """Run the full drift scenario and return the results document."""
    shapes = dict(shapes or PRESETS[preset])
    model = build_model(shapes)
    rng = np.random.default_rng(2)
    registry_before = set_registry(MetricsRegistry())
    try:
        with tempfile.TemporaryDirectory() as tmp, use_telemetry():
            incumbent_path = export_artifact(model, Path(tmp) / "incumbent.npz")
            config = ClusterConfig(world=shapes["world"],
                                   cache_size=shapes["num_users"],
                                   default_deadline_s=shapes["deadline_s"],
                                   heartbeat_interval_s=0.1,
                                   check_interval_s=0.02)
            cluster = ServingCluster(incumbent_path, config)
            try:
                # Seed histories drawn from the *bottom* of the vocabulary,
                # so the drift band genuinely is novel behaviour.
                histories = {}
                for user in range(shapes["num_users"]):
                    length = int(rng.integers(2, shapes["history_len"] + 1))
                    items = rng.integers(
                        1, shapes["vocab"] - shapes["drift_band"], size=length)
                    histories[user] = [int(item) for item in items]
                    cluster.set_history(user, items)

                # --- absorb + fine-tune, interleaved like production -----
                # Each round first streams its share of the drift burst
                # through the serving tier, then drains and fine-tunes; the
                # absorb clock only runs while observes are in flight.
                learner = OnlineLearner(
                    load_artifact(incumbent_path), cluster.events,
                    config=OnlineConfig(
                        batch_size=shapes["batch_size"],
                        steps_per_round=shapes["steps_per_round"],
                        lr=shapes["lr"], shadow_tolerance=1.0,
                        shadow_k=shapes["top_k"], seed=3,
                        checkpoint_dir=str(Path(tmp) / "ckpts")),
                    base_histories=histories, cluster=cluster)
                stream = list(_drift_events(shapes, rng))
                per_round = -(-len(stream) // shapes["rounds"])  # ceil
                absorb_s, round_records = 0.0, []
                for index in range(shapes["rounds"]):
                    chunk = stream[index * per_round:(index + 1) * per_round]
                    start = time.perf_counter()
                    for user, item in chunk:
                        cluster.observe(user, item)
                    absorb_s += time.perf_counter() - start
                    round_records.append(learner.fine_tune_round())
                absorbed = len(stream)
                learner.shadow = ShadowEvaluator.from_histories(
                    {user: cluster.router.history(user)
                     for user in range(shapes["shadow_users"])},
                    k=shapes["top_k"])
                steps_hist = obs.histogram("online.step_time_s")
                fine_tune = {
                    "rounds": shapes["rounds"],
                    "steps": int(steps_hist.count),
                    "mean_loss": round_records[0]["mean_loss"],
                    "step_latency_mean_s": (steps_hist.total / steps_hist.count
                                            if steps_hist.count else None),
                    "step_latency_p50_s": steps_hist.quantile(0.50),
                    "step_latency_p99_s": steps_hist.quantile(0.99),
                }

                # --- gated rollout of the adapted artifact --------------
                prober = _RolloutProber(cluster,
                                        list(range(8)), shapes["top_k"],
                                        shapes["deadline_s"])
                prober.start()
                try:
                    publish = learner.publish(Path(tmp) / "adapted.npz")
                    promoted = True
                except ShadowRegression as error:  # wrong verdict, recorded
                    publish = {"shadow": error.report.to_dict()}
                    promoted = False
                finally:
                    probe_stats = prober.stop()
                if prober.errors:
                    raise AssertionError(  # the rollout resilience invariant
                        f"{len(prober.errors)} request(s) failed during the "
                        f"rollout: {prober.errors[:3]}")
                rollout = {
                    "promoted": promoted,
                    "shadow": publish["shadow"],
                    "swap_duration_s": (publish["swap"]["duration_s"]
                                        if promoted else None),
                    **probe_stats,
                }

                # --- the gate must refuse a regressed candidate ---------
                incumbent_engine = RecommendationEngine(load_artifact(cluster.artifact_path))
                examples = []
                for user in range(shapes["shadow_users"]):
                    history = cluster.router.history(user)
                    incumbent_engine.set_history(user, history)
                    top1 = incumbent_engine.recommend(user, k=1)[0][0]
                    examples.append((user, history, int(top1)))
                regressed = build_model(shapes, seed=1234)
                regressed_path = export_artifact(
                    regressed, Path(tmp) / "regressed.npz")
                strict_gate = ShadowEvaluator(examples, k=shapes["top_k"])
                try:
                    strict_gate.gate(incumbent_engine,
                                     RecommendationEngine(load_artifact(regressed_path)),
                                     tolerance=0.05)
                    refusal = {"refused": False, "shadow": None}
                except ShadowRegression as error:
                    refusal = {"refused": True,
                               "shadow": error.report.to_dict()}
            finally:
                cluster.close()
    finally:
        set_registry(registry_before)

    correct = int(promoted) + int(refusal["refused"])
    return {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "preset": preset,
        "shapes": shapes,
        "environment": environment_info(),
        "absorb": {
            "events": absorbed,
            "seconds": absorb_s,
            "events_per_s": absorbed / absorb_s if absorb_s > 0 else None,
        },
        "fine_tune": fine_tune,
        "rollout": rollout,
        "refusal": refusal,
        "verdict_accuracy": correct / 2.0,
    }


def format_summary(results: dict) -> str:
    """Human-readable summary of an online-bench results document."""
    absorb, tune = results["absorb"], results["fine_tune"]
    rollout, refusal = results["rollout"], results["refusal"]
    as_ms = lambda value: "n/a" if value is None else f"{value * 1e3:.1f} ms"
    lines = [
        f"online bench  preset={results['preset']}  "
        f"world={results['shapes']['world']}",
        f"  absorb: {absorb['events']} events at "
        f"{absorb['events_per_s']:.0f} events/s",
        f"  fine-tune: {tune['steps']} steps over {tune['rounds']} rounds"
        f"   step p50 {as_ms(tune['step_latency_p50_s'])}"
        f"  p99 {as_ms(tune['step_latency_p99_s'])}",
        f"  rollout: promoted={rollout['promoted']}"
        f"  swap {as_ms(rollout['swap_duration_s'])}"
        f"  max request gap {as_ms(rollout['max_request_gap_s'])}"
        f"  ({rollout['ok']} ok / {rollout['degraded']} degraded / "
        f"{rollout['errors']} errors)",
        f"  refusal: regressed candidate refused={refusal['refused']}",
        f"  shadow verdict accuracy: {results['verdict_accuracy']:.2f}",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_online.json",
                        help="output JSON path (default: %(default)s)")
    parser.add_argument("--preset", default="default", choices=sorted(PRESETS),
                        help="shape preset (default: %(default)s)")
    args = parser.parse_args(argv)

    results = run_online_bench(preset=args.preset)
    write_bench(results, args.out)
    print(format_summary(results))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
