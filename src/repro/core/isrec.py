"""ISRec: the full Intention-aware Sequential Recommendation model (§3).

Pipeline per position ``t`` (Fig. 1):

1. :class:`~repro.core.encoder.IntentAwareEncoder` — ``X = encode(S_u)``
2. :class:`~repro.core.intent_extraction.IntentExtractor` — ``m_t ~ Gumbel(cos(x_t, C))``
3. :class:`~repro.core.intent_transition.StructuredIntentTransition` —
   ``Z_t = m_t * MLP(x_t)``; ``Z_{t+1} = GCN(Z_t, A)``; ``m_{t+1} = top-lambda(|Z_{t+1}|)``
4. :class:`~repro.core.intent_decoder.IntentDecoder` —
   ``x_{t+1} = sum_k m_{t+1,k} MLP'_k(z_{t+1,k})``

and finally ``p(v_{t+1}) = softmax(x_{t+1} V^T)`` (Eq. 12), trained with the
sequence NLL of Eq. (13)-(14) through the shared
:class:`~repro.models.base.SequenceRecommender` machinery.

Implementation note: a residual connection ``x_{t+1} <- x_{t+1} + x_t`` is
enabled by default (``ISRecConfig``-independent constructor flag).  The
paper trains at 40k-280k-user scale where the decode path alone has enough
signal; at our 1/100 scale the residual stabilises optimisation without
changing the model class — with the intent path zeroed it degenerates to
exactly the "w/o GNN&Intent" transformer variant, as §3.9 describes.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import obs
from repro.core.config import ISRecConfig
from repro.core.encoder import IntentAwareEncoder
from repro.core.intent_decoder import IntentDecoder
from repro.core.intent_extraction import IntentExtractor
from repro.core.intent_transition import StructuredIntentTransition
from repro.data.dataset import InteractionDataset
from repro.models.base import SequenceRecommender
from repro.tensor import fused
from repro.tensor.tensor import RowSubset, Tensor, gather_rows, merge_rows, row_subset


class ISRec(SequenceRecommender):
    """Intention-aware sequential recommender with structured intent transition."""

    name = "ISRec"

    def __init__(self, num_items: int, item_concepts: np.ndarray,
                 concept_adjacency: np.ndarray, max_len: int = 20,
                 config: ISRecConfig | None = None, residual: bool = True):
        config = config or ISRecConfig()
        super().__init__(num_items, config.dim, max_len)
        item_concepts = np.asarray(item_concepts, dtype=np.float32)
        concept_adjacency = np.asarray(concept_adjacency, dtype=np.float32)
        if item_concepts.shape[1] != concept_adjacency.shape[0]:
            raise ValueError(
                f"item_concepts has {item_concepts.shape[1]} concepts but the "
                f"adjacency is {concept_adjacency.shape[0]}x{concept_adjacency.shape[1]}"
            )
        self.config = config
        self.residual = residual
        self.num_concepts = item_concepts.shape[1]
        self.item_concepts = item_concepts
        self.concept_adjacency = concept_adjacency
        self.encoder = IntentAwareEncoder(
            num_items, item_concepts, config.dim, max_len,
            num_layers=config.num_layers, num_heads=config.num_heads,
            dropout=config.dropout,
        )
        if config.use_intent:
            self.extractor = IntentExtractor(
                num_intents=min(config.num_intents, self.num_concepts),
                tau=config.tau, similarity=config.similarity,
                gumbel_noise=config.gumbel_noise,
            )
            self.transition = StructuredIntentTransition(
                concept_adjacency, config.dim, config.intent_dim,
                num_intents=min(config.num_intents, self.num_concepts),
                gcn_layers=config.gcn_layers, use_gnn=config.use_gnn,
                mlp_hidden=config.mlp_hidden, tau=config.tau,
                shared_mlp=config.shared_mlp, graph_mode=config.graph_mode,
            )
            self.decoder = IntentDecoder(self.num_concepts, config.intent_dim,
                                         config.dim, mlp_hidden=config.mlp_hidden,
                                         shared_mlp=config.shared_mlp)
        else:
            self.extractor = None
            self.transition = None
            self.decoder = None

    @classmethod
    def from_dataset(cls, dataset: InteractionDataset, max_len: int = 20,
                     config: ISRecConfig | None = None, **kwargs) -> "ISRec":
        """Build an ISRec sized for ``dataset`` (concept matrix + graph)."""
        return cls(dataset.num_items, dataset.item_concepts,
                   dataset.concept_space.adjacency, max_len=max_len,
                   config=config, **kwargs)

    # ------------------------------------------------------------------
    # Serving export protocol (repro.serve)
    # ------------------------------------------------------------------
    def export_config(self) -> tuple[dict, dict[str, np.ndarray]]:
        """``ISRecConfig`` fields + constructor flags, plus the concept data."""
        config = {
            "num_items": self.num_items,
            "max_len": self.max_len,
            "residual": self.residual,
            "config": dataclasses.asdict(self.config),
        }
        constants = {
            "item_concepts": self.item_concepts,
            "concept_adjacency": self.concept_adjacency,
        }
        return config, constants

    @classmethod
    def from_export_config(cls, config: dict,
                           constants: dict[str, np.ndarray]) -> "ISRec":
        """Rebuild an untrained instance from :meth:`export_config` output."""
        return cls(config["num_items"], constants["item_concepts"],
                   constants["concept_adjacency"], max_len=config["max_len"],
                   config=ISRecConfig(**config["config"]),
                   residual=config["residual"])

    # ------------------------------------------------------------------
    # Shared-table access for the SequenceRecommender machinery
    # ------------------------------------------------------------------
    @property
    def item_embedding(self):
        """Item table ``V`` shared between Eq. (1) and Eq. (12)."""
        return self.encoder.item_embedding

    # ------------------------------------------------------------------
    # Training hooks
    # ------------------------------------------------------------------
    def on_epoch_end(self, epoch: int) -> None:
        """Anneal the Gumbel temperature (when ``tau_anneal < 1``)."""
        if self.extractor is None or self.config.tau_anneal >= 1.0:
            return
        new_tau = max(self.config.tau_min,
                      self.extractor.tau * self.config.tau_anneal)
        self.extractor.tau = new_tau
        self.transition.tau = new_tau

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward_detailed(self, inputs: np.ndarray) -> dict[str, Tensor]:
        """Run the full pipeline and keep every intermediate (for Fig. 2).

        Returns a dict with keys ``states`` (``X``), and — when the intent
        modules are enabled — ``similarities``, ``intention`` (``m_t``),
        ``next_features`` (``Z_{t+1}``), ``next_intention`` (``m_{t+1}``),
        and ``output`` (``x_{t+1}``).
        """
        states = self.encoder(inputs)
        if self.extractor is None:
            return {"states": states, "output": states}
        intention, similarities = self.extractor(states, self.encoder.concept_embedding)
        next_features, next_intention = self.transition(states, intention)
        decoded = self.decoder(next_features, next_intention)
        output = decoded + states if self.residual else decoded
        return {
            "states": states,
            "similarities": similarities,
            "intention": intention,
            "next_features": next_features,
            "next_intention": next_intention,
            "output": output,
        }

    def sequence_output(self, inputs: np.ndarray) -> Tensor:
        """``x_{t+1}`` at every position (the state that scores items).

        Eq. 5-11 run only on the rows that can be read: the non-padding
        positions plus the last column.  A padded position passes its
        encoder state through (its loss is masked out).  Every row that
        is computed is bit-identical to :meth:`forward_detailed`, which
        ``use_fused(False)`` selects as the reference.
        """
        if not self._live_rows():
            return self.forward_detailed(inputs)["output"]
        inputs = np.asarray(inputs)
        live = inputs != 0
        live[:, -1] = True
        states = self.encoder(inputs)
        subset = RowSubset(np.flatnonzero(live), live.shape)
        if obs.telemetry_enabled():
            obs.histogram("intent_rows.live_share").observe(subset.size / subset.total)
        return merge_rows(states, self._intent_rows(states, subset), subset)

    def final_state(self, inputs: np.ndarray) -> Tensor:
        """``x_{t+1}`` at the last position only, ``(batch, dim)``.

        Eq. 5-11 run on the last column alone, bit-identical to the last
        row of :meth:`forward_detailed` (the ``use_fused(False)`` path).
        """
        if not self._live_rows():
            return self.forward_detailed(inputs)["output"][:, -1, :]
        inputs = np.asarray(inputs)
        batch, length = inputs.shape
        subset = RowSubset(np.arange(1, batch + 1) * length - 1, inputs.shape)
        return self._intent_rows(self.encoder(inputs), subset)

    def _live_rows(self) -> bool:
        """Whether the intent path runs on a row subset (and telemetry)."""
        if self.extractor is None:
            return False
        live = fused.fused_enabled()
        if obs.telemetry_enabled():
            path = "live" if live else "reference"
            obs.counter(f"kernel_dispatch.intent_rows.{path}").inc()
        return live

    def _intent_rows(self, states: Tensor, subset: RowSubset) -> Tensor:
        """Eq. 5-11 (and the residual) on the ``subset`` rows of ``states``."""
        rows = gather_rows(states, subset)
        with row_subset(subset):
            intention, _ = self.extractor(rows, self.encoder.concept_embedding)
            next_features, next_intention = self.transition(rows, intention)
            decoded = self.decoder(next_features, next_intention)
        return decoded + rows if self.residual else decoded
