"""Top-K recommendation engine over a frozen model.

The engine owns two pieces of per-user state:

- **histories** — the source of truth: every item the user has interacted
  with, updated through :meth:`RecommendationEngine.observe` /
  :meth:`~RecommendationEngine.set_history`;
- **encoder states** — a bounded LRU cache mapping a user to the final
  hidden state of the frozen encoder over their (left-padded, clipped to
  ``max_len``) history.  A new interaction invalidates the cached state;
  the next request recomputes it lazily, and
  :meth:`~RecommendationEngine.recommend_batch` recomputes every stale
  user of a batch in **one** padded forward pass.

All model evaluation runs under :func:`repro.tensor.inference_mode`, so a
request allocates zero autograd graph nodes (asserted by the parity
tests via :func:`repro.tensor.graph_nodes`).  Top-K extraction is an
exact partial sort: ``np.argpartition`` over the full-vocabulary logits
(the same ``state @ V^T`` product as Eq. 12) followed by an ordering sort
of just the ``k`` winners, with the padding column and — optionally —
already-seen items suppressed to ``-inf``, mirroring the
``suppress_index`` convention of the fused training kernel.

For offline validation the engine also implements the
``score(users, inputs, candidates)`` protocol of
:class:`~repro.models.base.Recommender` with the *expression-identical*
arithmetic of ``SequenceRecommender.score``, so
``RankingEvaluator.evaluate(engine)`` reproduces the training-side
evaluation bit for bit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro import obs
from repro.data.batching import pad_left
from repro.models.base import SequenceRecommender
from repro.tensor.tensor import inference_mode


class RecommendationEngine:
    """Serve exact top-K recommendations from a frozen model.

    Parameters
    ----------
    model:
        A :class:`~repro.models.base.SequenceRecommender`, typically from
        :func:`repro.serve.load_artifact`.  Forced into eval mode.
    cache_size:
        Maximum number of per-user encoder states kept in the LRU cache.
    event_log:
        Optional :class:`~repro.online.EventLog` that every ``observe``
        is appended to (under the engine lock, so event order matches
        history order) — the tap the online-learning loop consumes.
    """

    def __init__(self, model: SequenceRecommender, cache_size: int = 1024,
                 event_log=None):
        if cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        model.eval()
        self.model = model
        self.cache_size = int(cache_size)
        self.event_log = event_log
        self.name = f"serve({model.name})"
        self.max_len = model.max_len
        self._histories: dict[int, list[int]] = {}
        self._states: OrderedDict[int, np.ndarray] = OrderedDict()
        # One reentrant lock serialises every history/state-cache mutation:
        # concurrent recommend()/observe() callers would otherwise race the
        # LRU (an eviction between _state_for and _topk drops the entry).
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # History management
    # ------------------------------------------------------------------
    def _invalidate_user(self, user: int) -> None:
        """Drop every cached derivative of ``user``'s history.

        Called under the engine lock by every history mutation, so a
        mutation and its cache invalidation are atomic with respect to
        concurrent requests.  Subclasses caching more per-user state
        (e.g. the quantized engine's seen-item index) extend this.
        """
        self._states.pop(user, None)

    def set_history(self, user: int, items) -> None:
        """Replace ``user``'s interaction history (invalidates the state)."""
        user = int(user)
        history = [int(item) for item in np.asarray(items).ravel()]
        with self._lock:
            self._histories[user] = history
            self._invalidate_user(user)

    def observe(self, user: int, item: int) -> None:
        """Append one new interaction (invalidates the cached state)."""
        user, item = int(user), int(item)
        with self._lock:
            self._histories.setdefault(user, []).append(item)
            self._invalidate_user(user)
            if self.event_log is not None:
                self.event_log.append(user, item)

    def history(self, user: int) -> list[int]:
        """The full recorded interaction history of ``user``."""
        with self._lock:
            return list(self._histories.get(int(user), []))

    def known_users(self) -> list[int]:
        """Every user with a recorded history (for state migration)."""
        with self._lock:
            return list(self._histories)

    # ------------------------------------------------------------------
    # State cache
    # ------------------------------------------------------------------
    def cache_info(self) -> dict:
        """Current cache occupancy (``size``/``capacity``/cached users)."""
        with self._lock:
            return {"size": len(self._states), "capacity": self.cache_size,
                    "users": list(self._states)}

    def _cache_put(self, user: int, state: np.ndarray) -> None:
        self._states[user] = state
        self._states.move_to_end(user)
        while len(self._states) > self.cache_size:
            self._states.popitem(last=False)
            if obs.telemetry_enabled():
                obs.counter("serve.cache.evictions").inc()
        if obs.telemetry_enabled():
            obs.gauge("serve.cache.size").set(len(self._states))

    def _refresh_states(self, users: list[int]) -> None:
        """Recompute encoder states for ``users`` in one padded forward."""
        histories = [np.asarray(self._histories.get(user, []), dtype=np.int64)
                     for user in users]
        inputs = pad_left(histories, self.max_len)
        with inference_mode():
            last = self.model.final_state(inputs).data
        for row, user in enumerate(users):
            # Explicit copy: ``last[row]`` is a *view* into the forward
            # buffer, which arena-pooled backends recycle after the request.
            self._cache_put(user, last[row].copy())

    def _state_for(self, user: int) -> np.ndarray:
        state = self._states.get(user)
        if state is None:
            self._refresh_states([user])
            state = self._states[user]
        else:
            self._states.move_to_end(user)
        return state

    # ------------------------------------------------------------------
    # Recommendation
    # ------------------------------------------------------------------
    def _topk(self, user: int, k: int, filter_seen: bool) -> list[tuple[int, float]]:
        """Exact top-``k`` (item, score) pairs for an already-cached user."""
        state = self._states[user]
        weights = self.model.item_embedding.weight.data  # (V + 1, dim)
        scores = (weights @ state).astype(np.float64)
        scores[0] = -np.inf  # padding id is never recommended
        if filter_seen:
            seen = self._histories.get(user)
            if seen:
                suppress = np.unique(np.asarray(seen, dtype=np.int64))
                suppress = suppress[(suppress > 0) & (suppress < len(scores))]
                scores[suppress] = -np.inf
        k = min(int(k), self.model.num_items)
        winners = np.argpartition(scores, -k)[-k:]
        # Order the k winners by descending score, ties by ascending item id.
        winners = winners[np.lexsort((winners, -scores[winners]))]
        return [(int(item), float(scores[item]))
                for item in winners if np.isfinite(scores[item])]

    def recommend(self, user: int, k: int = 10,
                  filter_seen: bool = True) -> list[tuple[int, float]]:
        """Top-``k`` ``(item, score)`` pairs for ``user``, best first."""
        with obs.timer("serve.request_latency_s"), self._lock:
            user = int(user)
            if obs.telemetry_enabled():
                obs.counter("serve.requests").inc()
                name = ("serve.cache.hits" if user in self._states
                        else "serve.cache.misses")
                obs.counter(name).inc()
            self._state_for(user)
            return self._topk(user, k, filter_seen)

    def recommend_batch(self, requests: list[tuple]) -> list[list[tuple[int, float]]]:
        """Serve many requests at once; stale states refresh in one forward.

        ``requests`` holds ``(user, k)`` or ``(user, k, filter_seen)``
        tuples; returns one top-K list per request, in order.
        """
        normalized = []
        for request in requests:
            user, k = int(request[0]), int(request[1])
            filter_seen = bool(request[2]) if len(request) > 2 else True
            normalized.append((user, k, filter_seen))
        with self._lock:
            stale, fresh_hits = [], 0
            for user, _k, _f in normalized:
                if user in self._states:
                    fresh_hits += 1
                elif user not in stale:
                    stale.append(user)
            if obs.telemetry_enabled():
                obs.counter("serve.requests").inc(len(normalized))
                obs.counter("serve.cache.hits").inc(fresh_hits)
                obs.counter("serve.cache.misses").inc(len(normalized) - fresh_hits)
            if stale:
                self._refresh_states(stale)
            results = []
            for user, k, filter_seen in normalized:
                if user in self._states:
                    self._states.move_to_end(user)
                else:
                    # A fresh-at-admission user can be evicted while the
                    # batch refreshes its stale users (cache smaller than
                    # the batch's working set); recompute rather than crash.
                    self._refresh_states([user])
                results.append(self._topk(user, k, filter_seen))
            return results

    # ------------------------------------------------------------------
    # Recommender protocol (offline parity with the evaluator)
    # ------------------------------------------------------------------
    def score(self, users: np.ndarray, inputs: np.ndarray,
              candidates: np.ndarray) -> np.ndarray:
        """Candidate scores, bit-identical to ``SequenceRecommender.score``.

        Same arithmetic expression, same batch shapes, same dtype chain —
        only the autograd context differs (:func:`inference_mode` instead
        of ``no_grad``), which does not touch the forward numerics.  This
        is what lets ``RankingEvaluator.evaluate(engine)`` reproduce the
        training-side report exactly.
        """
        with inference_mode():
            last = self.model.final_state(inputs)  # (batch, dim)
            embeddings = self.model.item_embedding(candidates)  # (batch, C, dim)
            scores = (embeddings @ last.reshape(last.shape[0], last.shape[1], 1))
        return scores.data[:, :, 0].astype(np.float64)
