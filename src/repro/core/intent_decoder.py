"""Intent decoder (§3.6): Eq. (11)-(12).

The reverse of the feature construction: each concept's own MLP maps its
intent feature back to the sequence space; active concepts are summed into
the next sequence representation ``x_{t+1}``, which scores items through
the item embedding.
"""

from __future__ import annotations

from repro.nn.mlp import ConceptMLPBank
from repro.nn.module import Module
from repro.obs.registry import record_kernel_dispatch
from repro.tensor import fused
from repro.tensor.tensor import Tensor


class IntentDecoder(Module):
    """``x_{t+1} = sum_k m_{t+1,k} MLP'_k(z_{t+1,k})`` (Eq. 11).

    With the default single-layer per-concept bank the forward runs through
    the fused kernel :func:`repro.tensor.fused.concept_bank_decode`, which
    decodes only the active concepts and is bit-identical to the composed
    reference (:meth:`forward_composed`, selectable via
    ``fused.use_fused(False)``).  Hidden-layer and shared banks always take
    the composed path.
    """

    def __init__(self, num_concepts: int, intent_dim: int, dim: int,
                 mlp_hidden: int | None = None, shared_mlp: bool = False):
        super().__init__()
        # `shared_mlp` mirrors the ablation in the transition module: a
        # single reverse MLP broadcast over concepts instead of MLP'_k.
        self.decoder_bank = ConceptMLPBank(1 if shared_mlp else num_concepts,
                                           intent_dim, dim, hidden=mlp_hidden)
        self.fusable = mlp_hidden is None and not shared_mlp

    def forward(self, next_features: Tensor, next_intention: Tensor) -> Tensor:
        """Map ``(B, T, K, d')`` features + ``(B, T, K)`` mask to ``(B, T, d)``."""
        use_fused = self.fusable and fused.fused_enabled()
        record_kernel_dispatch("concept_bank_decode", use_fused)
        if use_fused:
            bank = self.decoder_bank.first
            return fused.concept_bank_decode(next_features, next_intention,
                                             bank.weight, bank.bias)
        return self.forward_composed(next_features, next_intention)

    def forward_composed(self, next_features: Tensor, next_intention: Tensor) -> Tensor:
        """Reference implementation built from tape primitives."""
        decoded = self.decoder_bank.forward_per_bank(next_features)  # (B, T, K, d)
        weighted = decoded * next_intention.reshape(*next_intention.shape, 1)
        return weighted.sum(axis=-2)
