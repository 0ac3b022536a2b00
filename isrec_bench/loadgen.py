"""Open-loop read/write traffic against a :class:`ServingCluster`.

One generator thread issues requests on a fixed schedule (``1/rate`` apart),
whatever the cluster's state, and hands each read to a pool of caller
threads that block in ``ServingCluster.recommend``; the callers only wait,
so the schedule, not the reply, sets the load.  Latency is timed from each
request's due time, so a stall also charges the requests queued behind it.

Users are Zipf-distributed over the seeded histories.  Every user is read
once before any measured phase, so from then on a read is labelled *cold*
when the user wrote since their last read (the engine's cached encoder
state is stale) and *warm* otherwise.  The label is given when the read is
issued.  Reads go through the caller pool while writes go straight from
the generator thread, so a read issued just before a write to the same
user can reach the shard after it: that read runs cold though labelled
warm, and the user's next read runs warm though labelled cold.  The skew
grows with the rate and with the users' write frequency; it touches only
the per-class rows and ``serve.warm_share``, never the answer checks.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.serve import DeadlineExceeded, Overloaded, ServeError

#: Rate ladder (requests/s) for the goodput: 500 * 1.12^i, from the
#: reference rate to past what one generator process can issue.
LADDER = tuple(int(round(500 * 1.12 ** i)) for i in range(20))
#: Overall p99 a ladder rate must hold to count towards the goodput.
LATENCY_LIMIT_MS = 100.0
#: Seconds of traffic per ladder rung (500+ requests).
RUNG_SECONDS = 1.0
#: Zipf exponent of user popularity, and the share of requests that write.
ZIPF_S = 1.0
WRITE_FRACTION = 0.1
TOP_K = 10
CALLERS = 16
#: Windows the traced run's reference phase is cut into for its percentiles.
WINDOWS = 5


@dataclass
class PhaseResult:
    """Outcome of one traffic phase at one rate."""

    rate: float
    latencies: dict = field(default_factory=lambda: {"warm": [], "cold": []})
    outcomes: Counter = field(default_factory=Counter)
    lags: list = field(default_factory=list)
    writes: int = 0
    achieved_rate: float = 0.0
    drain_s: float = 0.0
    checks: list = field(default_factory=list)

    @property
    def reads(self) -> int:
        return len(self.latencies["warm"]) + len(self.latencies["cold"])

    @property
    def failed(self) -> int:
        return self.reads - self.outcomes["ok"]

    def p99_ms(self) -> float:
        return float(np.percentile(
            self.latencies["warm"] + self.latencies["cold"], 99))

    def windowed(self, kind: str, q: float) -> float:
        """Median over consecutive windows of each window's ``q``-th percentile.

        One stall of the shared machine spoils one window, not the figure.
        """
        chunks = np.array_split(np.asarray(self.latencies[kind]), WINDOWS)
        return float(np.median([np.percentile(chunk, q) for chunk in chunks]))

    def holds(self, limit_ms: float) -> bool:
        """No failure, p99 within the limit, and no backlog left at the end."""
        return (self.failed == 0 and self.p99_ms() <= limit_ms
                and self.drain_s * 1e3 <= limit_ms)


class Traffic:
    """Seeded Zipf read/write traffic, each read labelled warm or cold."""

    def __init__(self, cluster, histories: dict[int, list[int]], num_items: int,
                 seed: int, tracer):
        self.cluster = cluster
        self.num_items = int(num_items)
        self.tracer = tracer
        self.rng = np.random.default_rng([seed, 0x5E12E])
        self.users = self.rng.permutation(np.asarray(sorted(histories)))
        ranks = np.arange(1, len(self.users) + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_S
        self.probabilities = weights / weights.sum()
        self.base = {user: list(items) for user, items in histories.items()}
        self.written: dict[int, list[int]] = {user: [] for user in histories}
        self.fresh: set[int] = set()

    def warm(self) -> None:
        """Read every user once, so cold reads come from writes alone.

        Otherwise the first high-rate phase meets many never-read
        users, and its result depends on which phases ran before it.
        """
        with self.tracer.span("warm"), ThreadPoolExecutor(CALLERS) as pool:
            for response in pool.map(
                    lambda user: self.cluster.recommend(int(user), k=TOP_K),
                    self.users):
                if response.degraded:
                    raise ServeError("warm-up read answered degraded")
        self.fresh.update(int(user) for user in self.users)

    def history(self, user: int, version: int) -> list[int]:
        """The user's history after their first ``version`` writes."""
        return self.base[user] + self.written[user][:version]

    def phase(self, name: str, rate: float, count: int,
              verify: int = 0) -> PhaseResult:
        """Issue ``count`` requests at ``rate``; wait for every reply."""
        rng = self.rng
        users = rng.choice(self.users, size=count, p=self.probabilities)
        is_write = rng.random(count) < WRITE_FRACTION
        items = rng.integers(1, self.num_items + 1, size=count)
        read_slots = np.flatnonzero(~is_write)
        checked = set(rng.choice(read_slots, size=min(verify, len(read_slots)),
                                 replace=False).tolist()) if verify else set()
        result = PhaseResult(rate=rate)
        futures = []
        # Garbage left by the previous stage is collected before the clock
        # starts, not charged to this phase's requests.
        gc.collect()
        with self.tracer.span(name, ident=rate) as phase_span, \
                ThreadPoolExecutor(CALLERS) as pool:
            start = time.perf_counter() + 0.005
            for index in range(count):
                due = start + index / rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                result.lags.append(time.perf_counter() - due)
                user = int(users[index])
                if is_write[index]:
                    begin = time.perf_counter()
                    self.cluster.observe(user, int(items[index]))
                    self.tracer.record("cluster.observe", begin,
                                       time.perf_counter(), phase_span, index)
                    self.written[user].append(int(items[index]))
                    self.fresh.discard(user)
                    result.writes += 1
                    continue
                kind = "warm" if user in self.fresh else "cold"
                self.fresh.add(user)
                futures.append(pool.submit(
                    self._read, due, user, kind, index,
                    len(self.written[user]), index in checked, phase_span))
            last_due = start + (count - 1) / rate
            replies = [future.result() for future in futures]
        last_end = max([end for *_rest, end in replies] + [last_due])
        for kind, latency, outcome, check, _end in replies:
            result.latencies[kind].append(latency * 1e3)
            result.outcomes[outcome] += 1
            if check is not None:
                result.checks.append(check)
        result.achieved_rate = count / (last_end - start)
        result.drain_s = max(last_end - last_due, 0.0)
        return result

    def _read(self, due: float, user: int, kind: str, index: int,
              version: int, check: bool, parent):
        answer = None
        try:
            response = self.cluster.recommend(user, k=TOP_K)
            outcome = "degraded" if response.degraded else "ok"
            answer = response.items
        except Overloaded:
            outcome = "shed"
        except DeadlineExceeded:
            outcome = "deadline"
        except ServeError:
            outcome = "error"
        end = time.perf_counter()
        self.tracer.record("cluster.recommend", due, end, parent, index)
        record = None
        if check and outcome == "ok":
            # Writes issued while this read was in flight may or may not be
            # visible to it: any version in [version, now] is a right answer.
            record = (user, version, len(self.written[user]), answer)
        return kind, end - due, outcome, record, end


def verify_answers(engine, traffic: Traffic, checks) -> int:
    """Count cluster answers that no in-process engine answer matches."""
    wrong = 0
    for user, low, high, answer in checks:
        observed = [tuple(pair) for pair in answer]
        for version in range(low, high + 1):
            engine.set_history(user, traffic.history(user, version))
            if engine.recommend(user, k=TOP_K) == observed:
                break
        else:
            wrong += 1
    return wrong


def goodput(rungs: list[PhaseResult]) -> float:
    """Completion rate at the highest ladder rung whose p99 held the limit.

    The measured rate, not the rung's nominal one, so the figure carries
    run-to-run jitter.  If even the lowest rung missed, its rate is scaled
    down by how far its p99 missed the limit.
    """
    held = [rung for rung in rungs if rung.holds(LATENCY_LIMIT_MS)]
    if held:
        return max(held, key=lambda rung: rung.rate).achieved_rate
    floor = rungs[0]
    return floor.achieved_rate * LATENCY_LIMIT_MS / max(floor.p99_ms(),
                                                        LATENCY_LIMIT_MS)
