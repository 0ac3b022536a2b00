"""Observe-path consistency across every serving implementation.

The regression suite for the stale-read family of bugs: after an
``observe``, the engine over a plain or an int8 artifact, the router's
authoritative store, and the multi-process cluster must all serve the
*same* answer a freshly-built engine with the full history would —
including while a swap is in flight and after a worker respawn races an
in-flight observe.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.config import ISRecConfig
from repro.core.isrec import ISRec
from repro.online import EventLog
from repro.serve import (
    ClusterConfig,
    RecommendationEngine,
    ServingCluster,
    export_artifact,
    load_artifact,
)
from repro.utils import set_seed


def fast_config(**overrides) -> ClusterConfig:
    settings = dict(world=2, default_deadline_s=10.0, max_retries=2,
                    down_gate_s=2.0, heartbeat_interval_s=0.1,
                    check_interval_s=0.02, restart_backoff_s=0.05,
                    liveness_timeout_s=2.0, startup_timeout_s=60.0)
    settings.update(overrides)
    return ClusterConfig(**settings)


@pytest.fixture(scope="module")
def quantized_artifact(tiny_dataset, tmp_path_factory):
    set_seed(99)
    model = ISRec.from_dataset(tiny_dataset, max_len=12,
                               config=ISRecConfig(dim=16))
    return export_artifact(
        model, tmp_path_factory.mktemp("parity") / "isrec-int8.npz",
        quantize="int8")


def engine_for(path, **kwargs) -> RecommendationEngine:
    return RecommendationEngine(load_artifact(path), **kwargs)


def histories_for(tiny_split, users):
    return {user: [int(item) for item in tiny_split.test_input(user)]
            for user in users}


def topk(engine, user, k=10):
    return engine.recommend(user, k=k, filter_seen=True)


def poll_cluster_equals(cluster, user, expected, k=10, timeout=10.0):
    """Wait for the async history sync; returns the final response items.

    Replica updates ride the same FIFO shard queue as requests, so this
    converges after at most one in-flight window.
    """
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() < deadline:
        response = cluster.recommend(user, k=k)
        if not response.degraded:
            last = [(int(item), float(score))
                    for item, score in response.items]
            if last == expected:
                return last
        time.sleep(0.02)
    return last


class TestEngineStaleCacheOracle:
    """Warm engine after observe == fresh engine with the full history."""

    @pytest.mark.parametrize("kind", ["plain", "quantized"])
    def test_observe_invalidates_cached_state(self, artifact_path,
                                              quantized_artifact,
                                              tiny_split, kind):
        path = artifact_path if kind == "plain" else quantized_artifact
        warm = engine_for(path, cache_size=64)
        fresh = engine_for(path, cache_size=64)
        assert isinstance(warm, RecommendationEngine)
        for user in (0, 3, 7):
            history = list(tiny_split.test_input(user))
            warm.set_history(user, history)
            warm.recommend(user, k=10)  # populate state + seen caches
            novel = int(warm.recommend(user, k=1)[0][0])
            warm.observe(user, novel)
            fresh.set_history(user, history + [novel])
            assert topk(warm, user) == topk(fresh, user), \
                f"{kind} engine served a stale cache for user {user}"

    @pytest.mark.parametrize("kind", ["plain", "quantized"])
    def test_observed_item_is_filtered_immediately(self, artifact_path,
                                                   quantized_artifact,
                                                   tiny_split, kind):
        path = artifact_path if kind == "plain" else quantized_artifact
        engine = engine_for(path, cache_size=64)
        engine.set_history(2, tiny_split.test_input(2))
        top1 = int(engine.recommend(2, k=1)[0][0])
        engine.observe(2, top1)
        remaining = [item for item, _s in
                     engine.recommend(2, k=engine.model.num_items)]
        assert top1 not in remaining

    @pytest.mark.parametrize("kind", ["plain", "quantized"])
    def test_seen_index_follows_history_shrink(
            self, artifact_path, quantized_artifact, tiny_split, kind):
        # The inverse direction: replacing a history with a *shorter* one
        # must un-hide items the stale seen-index would keep filtering.
        path = artifact_path if kind == "plain" else quantized_artifact
        engine = engine_for(path, cache_size=64)
        history = [int(item) for item in tiny_split.test_input(4)]
        engine.set_history(4, history)
        engine.recommend(4, k=5)  # memoise the seen index
        hidden = history[-1]
        engine.set_history(4, history[:-1])
        items = [item for item, _s in
                 engine.recommend(4, k=engine.model.num_items)]
        assert hidden in items

    def test_engine_event_log_tap_preserves_order(self, artifact_path):
        events = EventLog(capacity=64)
        engine = engine_for(artifact_path, event_log=events)
        engine.set_history(0, [1, 2])
        for item in (5, 9, 3):
            engine.observe(0, item)
        recorded, dropped = events.read_since(0)
        assert dropped == 0
        assert [(event.user, event.item) for event in recorded] == \
            [(0, 5), (0, 9), (0, 3)]


class TestClusterParity:
    """Cluster answers == single-engine answers, after the same observes."""

    @pytest.mark.parametrize("kind", ["plain", "quantized"])
    def test_post_observe_topk_matches_engine(self, artifact_path,
                                              quantized_artifact,
                                              tiny_split, kind):
        path = artifact_path if kind == "plain" else quantized_artifact
        engine = engine_for(path, cache_size=64)
        users = [0, 1, 4, 9]
        rng = np.random.default_rng(11)
        with ServingCluster(path, config=fast_config()) as cluster:
            for user, items in histories_for(tiny_split, users).items():
                engine.set_history(user, items)
                cluster.set_history(user, items)
            for user in users:  # interleaved novel observes
                for item in rng.integers(1, cluster.num_items,
                                         size=3).tolist():
                    engine.observe(user, int(item))
                    cluster.observe(user, int(item))
            for user in users:
                expected = [(int(item), float(score))
                            for item, score in topk(engine, user)]
                got = poll_cluster_equals(cluster, user, expected)
                assert got == expected, \
                    f"{kind} cluster diverged from engine for user {user}"

    def test_cluster_events_match_router_history_order(self, artifact_path,
                                                       tiny_split):
        with ServingCluster(artifact_path, config=fast_config()) as cluster:
            cluster.set_history(3, tiny_split.test_input(3))
            observed = [7, 2, 9, 2]
            for item in observed:
                cluster.observe(3, item)
            events, dropped = cluster.events.read_since(0)
            assert dropped == 0
            assert [event.item for event in events] == observed
            assert cluster.router.history(3)[-len(observed):] == observed
            assert cluster.stats()["events"]["latest_seq"] == len(observed)


class TestObserveDuringSwap:
    def test_observes_racing_a_swap_land_in_the_new_artifact(
            self, artifact_path, tiny_dataset, tiny_split, tmp_path):
        set_seed(4242)
        other = ISRec.from_dataset(tiny_dataset, max_len=12,
                                   config=ISRecConfig(dim=16))
        next_artifact = export_artifact(other, tmp_path / "next.npz")
        users = [0, 1, 2, 3]
        with ServingCluster(artifact_path, config=fast_config()) as cluster:
            for user, items in histories_for(tiny_split, users).items():
                cluster.set_history(user, items)
            stop = threading.Event()
            rng = np.random.default_rng(7)

            def observer():
                index = 0
                while not stop.is_set():
                    user = users[index % len(users)]
                    index += 1
                    cluster.observe(user,
                                    int(rng.integers(1, cluster.num_items)))
                    time.sleep(0.001)

            thread = threading.Thread(target=observer, daemon=True)
            thread.start()
            try:
                summary = cluster.swap(next_artifact)
            finally:
                stop.set()
                thread.join(timeout=30.0)
            assert summary["workers"] == cluster.config.world

            reference = engine_for(next_artifact, cache_size=64)
            for user in users:
                # The authoritative history (base + every racing observe)
                # must be what the swapped-in engines score with.
                reference.set_history(user, cluster.router.history(user))
                expected = [(int(item), float(score))
                            for item, score in topk(reference, user)]
                got = poll_cluster_equals(cluster, user, expected)
                assert got == expected, \
                    f"post-swap engines lost observes for user {user}"


@pytest.mark.faults
class TestObserveDuringRespawn:
    def test_observe_inside_the_reseed_window_survives_respawn(
            self, artifact_path, tiny_split, monkeypatch):
        """Regression: an observe racing the restart snapshot used to be
        lost — synced to the dying worker, absent from the respawn seed."""
        shard = 0
        race_user = 2 * 5  # any user owned by shard 0 (user % world == 0)
        with ServingCluster(artifact_path, config=fast_config()) as cluster:
            for user in range(12):
                cluster.set_history(user, tiny_split.test_input(user))
            race_item = int(cluster.recommend(race_user, k=1).items[0][0])

            original = cluster.router.users_of_shard
            fired = threading.Event()

            def racy_snapshot(target):
                pairs = original(target)
                if target == shard and not fired.is_set():
                    # Lands between the seed snapshot and the worker
                    # install: exactly the window the dirty-user re-seed
                    # closes.
                    fired.set()
                    cluster.observe(race_user, race_item)
                return pairs

            monkeypatch.setattr(cluster.router, "users_of_shard",
                                racy_snapshot)
            os.kill(cluster.worker_pids()[shard], signal.SIGKILL)

            deadline = time.monotonic() + 30.0
            while not fired.is_set():
                assert time.monotonic() < deadline, "respawn never snapshotted"
                time.sleep(0.02)
            assert cluster.router.history(race_user)[-1] == race_item

            deadline = time.monotonic() + 30.0
            while True:
                response = cluster.recommend(race_user,
                                             k=cluster.num_items)
                if not response.degraded:
                    served = [item for item, _s in response.items]
                    # filter_seen: the raced observe must hide its item.
                    if race_item not in served:
                        break
                assert time.monotonic() < deadline, (
                    "respawned worker kept serving the pre-observe history")
                time.sleep(0.05)
