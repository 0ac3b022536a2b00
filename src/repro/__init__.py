"""ISRec reproduction: intention-aware sequential recommendation.

Public API tour
---------------
- :mod:`repro.data` — synthetic intent-driven datasets (profiles mirroring
  the paper's Beauty/Steam/Epinions/ML-1m/ML-20m) with concept annotations,
  plus graph-bearing variants carrying an item knowledge graph and a user
  social graph (``beauty-kg``, ...).
- :mod:`repro.core` — the ISRec model, its four modules, ablation variants,
  and the intent-trace explainability API.
- :mod:`repro.models` — the ten baselines of Table 2, plus the
  structure-aware baselines (KTUP, FM) for the graph workloads.
- :mod:`repro.eval` — HR/NDCG/MRR and the leave-one-out ranking protocol.
- :mod:`repro.train` — the shared training loop.
- :mod:`repro.serve` — inference artifacts, the top-K engine, the sharded
  serving cluster (consumes :mod:`repro.train` checkpoints and
  :mod:`repro.models` exports).
- :mod:`repro.online` — the train → serve → observe loop: event log,
  incremental fine-tuning, shadow-gated artifact rollout (depends on
  :mod:`repro.serve` and :mod:`repro.train`).
- :mod:`repro.parallel` — data-parallel training, prefetch, parallel sweeps.
- :mod:`repro.experiments` — one runner per paper table/figure.
- :mod:`repro.obs` — opt-in telemetry every layer may emit into.
- :mod:`repro.tensor` / :mod:`repro.nn` / :mod:`repro.optim` — the
  from-scratch numpy deep-learning substrate everything is built on.

Quickstart
----------
>>> from repro import quick_isrec
>>> model, report = quick_isrec("beauty", epochs=2)  # doctest: +SKIP
>>> report.hr10  # doctest: +SKIP
"""

from repro.core import ISRec, ISRecConfig, IntentTracer
from repro.data import load_dataset, split_leave_one_out
from repro.eval import MetricReport, RankingEvaluator, evaluate_model
from repro.train import TrainConfig

__version__ = "1.10.0"

__all__ = [
    "ISRec",
    "ISRecConfig",
    "IntentTracer",
    "load_dataset",
    "split_leave_one_out",
    "MetricReport",
    "RankingEvaluator",
    "evaluate_model",
    "TrainConfig",
    "quick_isrec",
    "__version__",
]


def quick_isrec(profile: str = "beauty", epochs: int = 10, max_len: int | None = None,
                config: ISRecConfig | None = None, seed: int = 0):
    """Train ISRec on a named profile and return ``(model, test_report)``.

    A convenience entry point used by the quickstart example; for full
    control assemble the pieces from :mod:`repro.data`, :mod:`repro.core`,
    and :mod:`repro.train` directly.
    """
    from repro.data import default_max_len
    from repro.utils import set_seed

    set_seed(seed)
    dataset = load_dataset(profile)
    split = split_leave_one_out(dataset.sequences)
    length = max_len or default_max_len(profile)
    model = ISRec.from_dataset(dataset, max_len=length, config=config)
    model.fit(dataset, split, TrainConfig(epochs=epochs, seed=seed))
    evaluator = RankingEvaluator(split, dataset.num_items, seed=seed)
    report = evaluator.evaluate(model, stage="test")
    return model, report
