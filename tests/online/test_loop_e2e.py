"""End-to-end online loop: drift → fine-tune → shadow-gated canary swap.

Acceptance coverage for ``docs/online-learning.md``: a live cluster feeds
the event log, the learner fine-tunes on the drifted stream and promotes
through ``swap()`` with zero dropped requests, and a deliberately
regressed candidate is refused with :class:`ShadowRegression` while the
cluster keeps serving the incumbent.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import ISRecConfig
from repro.core.isrec import ISRec
from repro.online import (
    OnlineConfig,
    OnlineLearner,
    ShadowEvaluator,
    ShadowRegression,
)
from repro.serve import (
    ClusterConfig, RecommendationEngine, ServingCluster, load_artifact,
)
from repro.utils import set_seed


def fast_config(**overrides) -> ClusterConfig:
    settings = dict(world=2, default_deadline_s=10.0, max_retries=2,
                    down_gate_s=2.0, heartbeat_interval_s=0.1,
                    check_interval_s=0.02, restart_backoff_s=0.05,
                    startup_timeout_s=60.0)
    settings.update(overrides)
    return ClusterConfig(**settings)


@pytest.fixture(scope="module")
def cluster(online_artifact, base_histories):
    cluster = ServingCluster(online_artifact, config=fast_config())
    for user, items in base_histories.items():
        cluster.set_history(user, items)
    yield cluster
    cluster.close()


class Prober:
    """Hammers ``recommend`` from a thread; records every outcome."""

    def __init__(self, cluster, users):
        self.cluster = cluster
        self.users = users
        self.ok = 0
        self.degraded = 0
        self.errors: list[Exception] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        index = 0
        while not self._stop.is_set():
            user = self.users[index % len(self.users)]
            index += 1
            try:
                response = self.cluster.recommend(user, k=5)
            except Exception as error:  # noqa: BLE001 - recorded, asserted
                self.errors.append(error)
            else:
                if response.degraded:
                    self.degraded += 1
                else:
                    self.ok += 1
            time.sleep(0.002)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join(timeout=30.0)


def test_drift_fine_tune_and_gated_promotion(cluster, base_histories,
                                             tmp_path):
    """Drifted events flow in; the learner adapts and promotes cleanly."""
    users = sorted(base_histories)
    num_items = cluster.num_items
    drift_rng = np.random.default_rng(42)
    # Simulated intent drift: users suddenly interact with a narrow band
    # of items they never touched before.
    drifted_band = np.arange(max(1, num_items - 12), num_items)
    for step in range(120):
        user = users[step % len(users)]
        cluster.observe(user, int(drift_rng.choice(drifted_band)))
    assert len(cluster.events) == 120

    model = load_artifact(cluster.artifact_path)
    shadow = ShadowEvaluator.from_histories(
        {user: cluster.router.history(user) for user in users[:24]}, k=10)
    learner = OnlineLearner(
        model, cluster.events,
        config=OnlineConfig(batch_size=16, steps_per_round=4,
                            shadow_tolerance=0.5, seed=5,
                            checkpoint_dir=str(tmp_path / "ckpts")),
        base_histories=base_histories, cluster=cluster, shadow=shadow)

    incumbent = cluster.artifact_path
    swaps_before = cluster.swaps
    with Prober(cluster, users[:8]) as prober:
        outcome = learner.run(rounds=2)
    assert not prober.errors, f"requests dropped during rollout: {prober.errors[:3]}"
    assert prober.degraded == 0
    assert prober.ok > 0

    assert outcome["refusals"] == 0
    assert len(outcome["publishes"]) == 2
    assert outcome["rounds"][0]["events"] == 120
    assert outcome["rounds"][0]["steps"] > 0
    for publish in outcome["publishes"]:
        assert publish["shadow"] is not None
        assert publish["swap"]["workers"] == 2
    assert cluster.swaps == swaps_before + 2
    assert cluster.artifact_path != incumbent
    # The promoted artifact is what the workers now serve.
    response = cluster.recommend(users[0], k=5)
    assert not response.degraded and len(response.items) == 5


def test_regressed_candidate_is_refused_and_cluster_keeps_incumbent(
        cluster, base_histories, tiny_dataset, tmp_path):
    """A bad candidate never reaches the cluster: typed refusal, no swap."""
    users = sorted(base_histories)[:16]
    incumbent_engine = RecommendationEngine(load_artifact(cluster.artifact_path))
    examples = []
    for user in users:
        history = cluster.router.history(user)
        incumbent_engine.set_history(user, history)
        top1 = incumbent_engine.recommend(user, k=1, filter_seen=True)
        examples.append((user, history, top1[0][0]))
    shadow = ShadowEvaluator(examples, k=10)

    # A freshly re-initialised model: valid artifact, regressed quality.
    set_seed(777)
    regressed = ISRec.from_dataset(tiny_dataset, max_len=12,
                                   config=ISRecConfig(dim=16))
    learner = OnlineLearner(
        regressed, cluster.events,
        config=OnlineConfig(shadow_tolerance=0.05, seed=9),
        cluster=cluster, shadow=shadow)

    incumbent = cluster.artifact_path
    swaps_before = cluster.swaps
    with pytest.raises(ShadowRegression) as excinfo:
        learner.publish(tmp_path / "regressed.npz")
    report = excinfo.value.report
    assert report.incumbent_hr == 1.0  # targets are the incumbent's top-1s
    assert report.hr_delta < -0.05
    # The cluster never saw the candidate.
    assert cluster.artifact_path == incumbent
    assert cluster.swaps == swaps_before
    response = cluster.recommend(users[0], k=5)
    assert not response.degraded
