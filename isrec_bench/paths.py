"""The untraced run (end-to-end metrics) and the traced run (per-layer metrics)."""

from __future__ import annotations

import math
import shutil
import threading
import time
from pathlib import Path

from repro import obs

from isrec_bench import layers
from isrec_bench.loadgen import (
    LADDER,
    RUNG_SECONDS,
    Traffic,
    goodput,
    verify_answers,
)
from isrec_bench.measure import median, peak_rss_mb, percentile
from isrec_bench.spans import Tracer
from isrec_bench.stages import (
    engine_matches_model,
    fit,
    prepare_repeated,
    reference_engine,
    serving_histories,
    start_cluster,
    train_round,
)
from isrec_bench.workloads import FIT_EPOCHS, QUALITY_ROUNDS, REFERENCE_RATE

SETUP_REPEATS = 5
#: Requests of the untraced run's answer check at the reference rate
#: (about 60 writes, so cold reads are among the checked ones).
VERIFY_REQUESTS = 600
#: Reads per checked phase whose answers are re-derived in process.
VERIFIED_READS = 60
#: Share of ``--seconds`` the traced run spends at the reference rate.
REFERENCE_SHARE = 0.4

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_tok_per_s": "1/s",
    "eval_users_per_s": "1/s",
    "test_hr10": "fraction",
    "test_ndcg10": "fraction",
    "peak_rss_mb": "MiB",
}


def _scratch(root: Path) -> Path:
    directory = root / ".bench_out" / f"tmp-{time.time_ns()}"
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _finite(values) -> bool:
    return all(math.isfinite(value) for value in values)


class _Run:
    """Failure, attempt and metric bookkeeping for one run."""

    def __init__(self):
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, dict] = {}
        #: Printed on the line before the result (raw samples, quality).
        self.details: dict[str, dict] = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def count_training(self, epochs: int, recoveries: int) -> None:
        """Epochs attempted, and divergence rollbacks among them."""
        self.attempted += epochs
        self.failed += recoveries

    def count_traffic(self, phases, wrong: int) -> None:
        """Checked-phase reads and writes, and wrong answers among them."""
        self.check(wrong == 0, f"{wrong} cluster answer(s) differ from the "
                               f"in-process engine")
        self.attempted += sum(phase.reads + phase.writes for phase in phases)
        self.failed += sum(phase.failed for phase in phases) + wrong

    def result(self) -> dict:
        return {"correct": not self.failures, "attempted": int(self.attempted),
                "failed": int(self.failed), "metrics": self.metrics,
                "failures": self.failures, "details": self.details}


def _traffic(cluster, histories, prepared, seed, tracer) -> Traffic:
    """Seeded traffic over a cluster whose every user has been read once."""
    traffic = Traffic(cluster, histories, prepared.dataset.num_items, seed,
                      tracer)
    traffic.warm()
    return traffic


def untraced(workload, seed: int, seconds: float, root: Path) -> dict:
    """End-to-end metrics of one untraced pass over the whole path.

    The fit is followed by rounds of one training epoch and one test
    evaluation; the test metrics are read after ``QUALITY_ROUNDS`` rounds,
    and rounds go on until ``seconds`` have passed since the fit began.
    The rates are medians over the rounds, so a slow spell of the shared
    machine shifts a few samples instead of the figure.
    """
    run, tracer = _Run(), Tracer(False)
    prepared = prepare_repeated(workload, seed, tracer, SETUP_REPEATS)
    start = time.perf_counter()
    first = fit(workload, prepared, seed, tracer)
    model = first.model
    run.count_training(FIT_EPOCHS, first.recoveries)
    losses = list(first.losses)
    rounds = []
    while (len(rounds) < QUALITY_ROUNDS
           or time.perf_counter() - start < seconds):
        round_ = train_round(workload, prepared, model, seed, len(rounds),
                             tracer)
        rounds.append(round_)
        run.count_training(1, round_.recoveries)
        losses += round_.losses
    run.check(_finite(losses), "training loss is not finite")
    quality = rounds[QUALITY_ROUNDS - 1].report
    train_rates = [round_.train_rate for round_ in rounds]
    eval_rates = [prepared.split.num_users / first.eval_s]
    eval_rates += [round_.eval_rate for round_ in rounds]

    histories = serving_histories(prepared)
    directory = _scratch(root)
    try:
        cluster, path, _setup_s = start_cluster(model, histories, directory,
                                                seed, tracer)
        try:
            traffic = _traffic(cluster, histories, prepared, seed, tracer)
            checked = traffic.phase("verify", REFERENCE_RATE,
                                    VERIFY_REQUESTS, verify=VERIFIED_READS)
        finally:
            cluster.close()
        engine = reference_engine(path, histories)
        run.check(engine_matches_model(model, engine, prepared,
                                       workload.max_len, tracer),
                  "RecommendationEngine.score differs from model.score")
        run.count_traffic([checked], verify_answers(engine, traffic,
                                                    checked.checks))
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    values = {
        "setup_s": prepared.setup_s,
        "train_tok_per_s": median(train_rates),
        "eval_users_per_s": median(eval_rates),
        "test_hr10": quality.hr10,
        "test_ndcg10": quality.ndcg10,
        "peak_rss_mb": peak_rss_mb(),
    }
    for name, unit in END_TO_END_UNITS.items():
        run.put(name, values[name], unit)
    run.details["samples"] = {
        "train_tok_per_s": train_rates, "eval_users_per_s": eval_rates,
        "test_ndcg10": [first.report.ndcg10]
                       + [round_.report.ndcg10 for round_ in rounds]}
    return run.result()


class _DepthSampler(threading.Thread):
    """Samples the cluster's total queue depth through ``stats()``."""

    def __init__(self, cluster, interval_s: float = 0.01):
        super().__init__(name="bench-depth-sampler", daemon=True)
        self.cluster = cluster
        self.interval_s = interval_s
        self.samples: list[int] = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            self.samples.append(sum(self.cluster.stats()["queue_depths"]))

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


def traced(workload, seed: int, seconds: float, root: Path) -> dict:
    """Per-layer metrics, with the fit run both untraced and traced.

    The layer timings run first and warm the process.  Then the fit and
    its test evaluation run untraced, then traced with the trainer's
    telemetry on; both must report the same test metrics, and the
    overhead ratio compares the two.  The traced path goes on for the
    quality rounds, and its test metrics after them are printed so they
    can be compared with an untraced run of the same seed.
    """
    run = _Run()
    quiet, tracer = Tracer(False), Tracer(True)
    with tracer.span("run", ident=seed):
        prepared = prepare_repeated(workload, seed, tracer, SETUP_REPEATS)
        run.put("data.simulate_s", prepared.simulate_s, "s")
        run.put("eval.negatives_ms", prepared.negatives_s * 1e3, "ms")
        for rows in (layers.core_layers(workload, prepared, seed, tracer),
                     layers.scaling(workload, prepared, seed, tracer)):
            for name, (value, unit) in rows.items():
                run.put(name, value, unit)

        plain = fit(workload, prepared, seed, quiet)
        previous = obs.set_registry(obs.MetricsRegistry())
        try:
            with obs.use_telemetry(True):
                first = fit(workload, prepared, seed, tracer)
                rounds = [train_round(workload, prepared, first.model, seed,
                                      index, tracer)
                          for index in range(QUALITY_ROUNDS)]
            steps = obs.get_registry().histogram("trainer.step_time_s")
        finally:
            obs.set_registry(previous)
        run.put("trainer.step_time_p50_ms", steps.quantile(0.5) * 1e3, "ms")
        run.put("trainer.step_time_p99_ms", steps.quantile(0.99) * 1e3, "ms")
        run.check(first.report.as_dict() == plain.report.as_dict(),
                  "test metrics differ between the untraced and traced fit")
        losses = plain.losses + first.losses
        losses += [loss for round_ in rounds for loss in round_.losses]
        run.check(_finite(losses), "training loss is not finite")
        run.count_training(2 * FIT_EPOCHS + QUALITY_ROUNDS,
                           plain.recoveries + first.recoveries
                           + sum(round_.recoveries for round_ in rounds))
        run.put("trace.overhead_ratio",
                (first.fit_s + first.eval_s) / (plain.fit_s + plain.eval_s),
                "ratio")
        quality = rounds[-1].report
        run.details["quality"] = {"test_hr10": quality.hr10,
                                  "test_ndcg10": quality.ndcg10}

        for name, (value, unit) in layers.data_and_eval(
                workload, prepared, first.model, seed, tracer).items():
            run.put(name, value, unit)
        _traced_serving(prepared, first.model, seed, seconds, root, tracer,
                        run)
    run.put("failed_ratio", run.failed / max(run.attempted, 1), "fraction")
    tracer.write(root / ".bench_out" / f"spans-{workload.name}-{seed}.jsonl")
    return run.result()


def _traced_serving(prepared, model, seed, seconds, root, tracer,
                    run: _Run) -> None:
    histories = serving_histories(prepared)
    directory = _scratch(root)
    try:
        engine_rows = layers.artifact_and_engine(model, histories, directory,
                                                 seed, tracer)
        for name, (value, unit) in engine_rows.items():
            run.put(name, value, unit)
        run.check(engine_rows["serve.engine.graph_nodes"][0] == 0,
                  "engine requests recorded autograd graph nodes")
        cluster, path, start_s = start_cluster(model, histories, directory,
                                               seed, tracer)
        run.put("serve.cluster.start_ms", start_s * 1e3, "ms")
        engine = reference_engine(path, histories)
        try:
            traffic = _traffic(cluster, histories, prepared, seed, tracer)
            reference = traffic.phase(
                "reference", REFERENCE_RATE,
                int(REFERENCE_RATE * REFERENCE_SHARE * seconds),
                verify=VERIFIED_READS)
            sampler = _DepthSampler(cluster)
            sampler.start()
            try:
                rungs = [traffic.phase(f"ladder.{rate}", rate,
                                       int(rate * RUNG_SECONDS))
                         for rate in LADDER]
            finally:
                sampler.stop()
            router = cluster.stats()["router"]
        finally:
            cluster.close()
        run.count_traffic([reference], verify_answers(engine, traffic,
                                                      reference.checks))
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    lowest = rungs[0]
    warm_engine_ms = engine_rows["serve.engine.warm_us"][0] / 1e3
    cold_engine_ms = engine_rows["serve.engine.cold_ms"][0]
    run.put("serve.cluster.ipc_ms.warm",
            percentile(lowest.latencies["warm"], 50) - warm_engine_ms, "ms")
    run.put("serve.cluster.ipc_ms.cold",
            percentile(lowest.latencies["cold"], 50) - cold_engine_ms, "ms")
    run.put("serve.cluster.queue_depth_p99",
            percentile(sampler.samples or [0], 99), "count")
    for name, key in (("retries", "retries"), ("shed", "shed"),
                      ("degraded", "degraded"), ("deadline", "deadline_exceeded")):
        run.put(f"serve.cluster.{name}", router.get(key, 0), "count")
    run.put("serve.warm_share", len(reference.latencies["warm"])
            / max(reference.reads, 1), "fraction")
    # Client latency and goodput track the shared machine's CPU steal more
    # than the program (a 9% steal spell doubled the p50s and cut the
    # goodput by a third), so they are reported here, not bounded.
    for kind in ("warm", "cold"):
        for q in (50, 99):
            run.put(f"serve.{kind}.p{q}_ms", reference.windowed(kind, q), "ms")
    run.put("serve.goodput_qps", goodput(rungs), "1/s")
    run.put("loadgen.lag_p99_ms", percentile(reference.lags, 99) * 1e3, "ms")
    for rate, rung in zip(LADDER, rungs):
        run.put(f"loadgen.{rate}.p99_ms", rung.p99_ms(), "ms")
