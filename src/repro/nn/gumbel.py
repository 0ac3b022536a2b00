"""Gumbel-Softmax estimators for the discrete intention vector (Eq. 5).

The paper samples the multi-hot intention vector ``m_t`` from a categorical
distribution over concepts and trains through the discrete sample with the
Gumbel-Softmax estimator (Jang et al. 2016).  We implement the straight-
through variant generalised to ``lambda`` simultaneous activations: the
forward pass emits a hard multi-hot vector with exactly ``lambda`` ones; the
backward pass flows through the underlying softmax relaxation.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, active_row_subset
from repro.utils.seeding import get_rng


def sample_gumbel(shape: tuple[int, ...], eps: float = 1e-10) -> np.ndarray:
    """Draw standard Gumbel(0, 1) noise.

    Under a :func:`~repro.tensor.row_subset` whose rows lead ``shape``,
    the uniforms are drawn for the subset's full layout and then gathered,
    so the RNG stream advances exactly as it does for the dense batch.
    """
    shape = tuple(shape)
    subset = active_row_subset()
    if subset is not None and shape and shape[0] == subset.size:
        uniform = subset.gather(get_rng().random((subset.total,) + shape[1:]))
    else:
        uniform = get_rng().random(shape)
    return -np.log(-np.log(uniform + eps) + eps)


def hard_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Multi-hot indicator of the ``k`` largest entries along the last axis.

    Mirrors the paper's operator ``g`` (§3.5): entry ``j`` is 1 iff
    ``scores[..., j]`` is at least the ``k``-th largest value in its row.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    k = min(k, scores.shape[-1])
    # argpartition picks exactly k indices, breaking ties arbitrarily but
    # deterministically, so each row always has exactly k ones.
    top_indices = np.argpartition(-scores, k - 1, axis=-1)[..., :k]
    hard = np.zeros_like(scores, dtype=np.float32)
    np.put_along_axis(hard, top_indices, 1.0, axis=-1)
    return hard


def gumbel_softmax(logits: Tensor, tau: float = 1.0, noise: bool = True) -> Tensor:
    """Relaxed one-hot sample: ``softmax((logits + Gumbel noise) / tau)``.

    The softmax runs through the fused kernel dispatched by ``F.softmax``
    (a single tape node; see :mod:`repro.tensor.fused`).
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    perturbed = logits
    if noise:
        perturbed = perturbed + Tensor(sample_gumbel(logits.shape).astype(logits.data.dtype))
    return F.softmax(perturbed * (1.0 / tau), axis=-1)


def gumbel_top_k(logits: Tensor, k: int, tau: float = 1.0, noise: bool = True) -> Tensor:
    """Straight-through multi-hot sample with exactly ``k`` active entries.

    Forward value is the hard multi-hot vector of the ``k`` largest perturbed
    logits; the gradient is that of the Gumbel-Softmax relaxation (the hard
    component is treated as a constant offset).

    Parameters
    ----------
    logits:
        ``(..., K)`` similarity scores (cosine similarities in ISRec).
    k:
        Number of simultaneously active concepts (the paper's ``lambda``).
    tau:
        Softmax temperature of the relaxation.
    noise:
        Disable to obtain a deterministic top-``k`` (used at evaluation time).
    """
    soft = gumbel_softmax(logits, tau=tau, noise=noise)
    hard = hard_top_k(soft.data, k)
    # out = hard + soft - stop_gradient(soft): forward == hard, grad == soft.
    return soft + Tensor(hard - soft.data)
