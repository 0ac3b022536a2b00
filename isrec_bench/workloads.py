"""The workloads: which world is simulated, how ISRec is sized, what traffic it serves.

Every workload runs the same path (simulate -> fit -> evaluate -> export ->
cluster traffic), so every metric exists on every workload; the workloads
differ in the input properties the layers are sensitive to:

- ``pipeline-sparse``: many concepts, short histories.  The concept bank
  (feature bank, GCN, top-lambda, decoder) carries most of a train step.
- ``pipeline-dense``: fewer concepts, long and barely padded histories.
  The encoder's n^2 d attention takes a larger share, so a concept-bank
  change should gain less here and an attention change more.

Both serve a Zipf read/write mix (a short checked burst in the untraced
run, a reference phase and a rate ladder in the traced run): a read after the user's write is cold
and runs the full forward through every section-3 module; any other read
is warm and only scores the catalog, so the concept bank does no work on
it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import ISRecConfig, load_dataset
from repro.data import InteractionDataset, default_max_len


#: Settings every workload shares.
MODEL = ISRecConfig()
#: Epochs of ``SequenceRecommender.fit`` (no early stopping).
FIT_EPOCHS = 3
#: ``Trainer`` epochs after the fit, each followed by a test pass.  The
#: quality metrics are read after this many, 10 epochs in all: after the
#: 3-epoch fit alone the test NDCG@10 spread across seeds (IQR/median) by
#: 0.07-0.12, after 10 epochs by 0.02-0.04.
QUALITY_ROUNDS = 7
BATCH_SIZE = 64
#: User and item multiplier of every profile (``load_dataset``).  At 1x,
#: the 540 and 300 test users left the test NDCG@10 spread across seeds
#: (IQR/median) at 0.23.
SCALE = 2.0
#: Read+write rate of the traced run's reference traffic (requests/s).
REFERENCE_RATE = 500.0


@dataclass(frozen=True)
class Workload:
    """A named dataset profile and why the benchmark runs it.

    The world is fixed, like a real dataset; ``--seed`` draws the model
    initialisation, batch order, evaluation negatives and traffic.
    """

    name: str
    why: str
    profile: str

    @property
    def max_len(self) -> int:
        return default_max_len(self.profile)

    def simulate(self) -> InteractionDataset:
        return load_dataset(self.profile, scale=SCALE, cache=False)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="pipeline-sparse",
            why=("beauty profile at 2x users (K=56, T=20, ~9 items per history): "
                 "the concept bank carries most of a train step, attention little"),
            profile="beauty",
        ),
        Workload(
            name="pipeline-dense",
            why=("ml-1m profile at 2x users (K=30, T=40, ~35 items per "
                 "history): long unpadded histories give the encoder's n^2 d "
                 "attention a larger share"),
            profile="ml-1m",
        ),
    )
}
