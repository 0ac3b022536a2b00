"""Fused single-tape-node kernels for the training/inference hot path.

Every ISRec training step pays for a full-vocabulary softmax cross-entropy at
every sequence position (Eq. 13) and ``L`` causal attention layers (Eq. 3).
The composed implementations in :mod:`repro.tensor.functional` build these
from 6–10 tiny tape operations each, so a single ``(B, T, V)`` loss
materialises half a dozen full-size temporaries plus backward closures, and
attention allocates a full ``(B, h, T, T)`` fill tensor per layer just to
mask.

This module provides the same operations as *one* tape node each, with a
hand-derived vector-Jacobian product:

- :func:`softmax` / :func:`log_softmax` — one shifted exp forward, the
  classic ``y * (g - <g, y>)`` / ``g - softmax * sum(g)`` backward.
- :func:`cross_entropy` — one logsumexp forward; the backward is the
  textbook ``softmax - one_hot`` scatter, never materialising the log-prob
  graph.
- :func:`attention` — masked scaled-dot-product attention: mask + softmax +
  weighted sum as a single op with a custom VJP (optionally applying an
  inverted-dropout mask to the attention weights inside the kernel).
- :func:`layer_norm` — normalisation + affine as one node with the standard
  three-term backward.
- :func:`concept_bank_decode` — the intent decoder's per-concept affine bank
  and intention-weighted sum (Eq. 11), evaluated only on the active
  concepts, bit-identical to the composed reference.

The composed implementations stay in the tree as the reference; every fused
kernel is gradcheck-verified against them (``tests/tensor/test_fused.py``).
The module-level :func:`use_fused` switch lets callers (and the benchmark
harness, ``repro.utils.bench``) select either path at runtime.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.tensor.backend import active_backend
from repro.tensor.tensor import Tensor, is_grad_enabled

_NEG_INF = -1e9

_FUSED_ENABLED = True


def fused_enabled() -> bool:
    """Return whether consumers should dispatch to the fused kernels."""
    return _FUSED_ENABLED


@contextlib.contextmanager
def use_fused(enabled: bool = True):
    """Context manager selecting the fused (default) or composed path.

    ``with use_fused(False):`` routes :mod:`repro.tensor.functional`
    dispatchers and the nn-layer consumers (attention, layer norm) through
    the original composed implementations — the benchmark harness uses this
    to time both paths on identical inputs.
    """
    global _FUSED_ENABLED
    previous = _FUSED_ENABLED
    _FUSED_ENABLED = bool(enabled)
    try:
        yield
    finally:
        _FUSED_ENABLED = previous


def _node(data: np.ndarray, parents: tuple[Tensor, ...], op: str, backward) -> Tensor:
    """Record ``data`` as a single tape node with a custom VJP closure."""
    out = parents[0]._make(np.asarray(data), parents, op)
    if out.requires_grad:
        out._backward = backward
    return out


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` as one tape node."""
    backend = active_backend()
    y = backend.binary(np.subtract, x.data,
                       x.data.max(axis=axis, keepdims=True))
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        # dL/dx = y * (g - <g, y>): the softmax Jacobian applied in O(n).
        inner = (grad * y).sum(axis=axis, keepdims=True)
        x._accumulate(y * (grad - inner))

    return _node(y, (x,), "fused_softmax", backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis`` as one tape node."""
    shifted = active_backend().binary(np.subtract, x.data,
                                      x.data.max(axis=axis, keepdims=True))
    np.subtract(
        shifted,
        np.log(np.exp(shifted).sum(axis=axis, keepdims=True)),
        out=shifted,
    )

    def backward(grad: np.ndarray) -> None:
        # dL/dx = g - softmax * sum(g); softmax is recovered as exp(out).
        x._accumulate(grad - np.exp(shifted) * grad.sum(axis=axis, keepdims=True))

    return _node(shifted, (x,), "fused_log_softmax", backward)


# ----------------------------------------------------------------------
# Cross-entropy (Eq. 13)
# ----------------------------------------------------------------------
def cross_entropy(logits: Tensor, targets: np.ndarray,
                  mask: np.ndarray | None = None,
                  suppress_index: int | None = None) -> Tensor:
    """Mean NLL of integer ``targets`` under ``logits`` as one tape node.

    Forward is a single logsumexp; backward is ``softmax - one_hot`` scaled
    by each position's weight, written straight into one ``(N, V)`` buffer —
    the log-prob graph of the composed reference is never materialised.
    Semantics (padding ``mask``, all-masked :class:`ValueError`) match
    :func:`repro.tensor.functional.cross_entropy_composed`.

    ``suppress_index`` treats one vocabulary column as ``-inf`` inside the
    kernel (zero probability, zero gradient).  This replaces the
    ``logits + suppress`` constant-add that ``all_item_logits`` needs to
    ban the padding item, avoiding one full ``(B, T, V)`` temporary and
    tape node per training step.
    """
    targets = np.asarray(targets)
    data = logits.data
    vocabulary = data.shape[-1]
    flat = data.reshape(-1, vocabulary)
    count = flat.shape[0]
    index = targets.reshape(-1)
    rows = np.arange(count)

    # peak may include the suppressed column; any value >= the true maximum
    # keeps the exp shift stable, so no masked max pass is needed.
    peak = flat.max(axis=-1, keepdims=True)
    shifted = active_backend().binary(np.subtract, flat, peak)
    np.exp(shifted, out=shifted)
    if suppress_index is not None:
        shifted[:, suppress_index] = 0.0
    denominator = shifted.sum(axis=-1)
    # nll_i = logsumexp(x_i) - x_i[target_i]
    nll = np.log(denominator) + peak[:, 0] - flat[rows, index]

    if mask is None:
        weights = np.full(count, 1.0 / count, dtype=data.dtype)
    else:
        mask_flat = np.asarray(mask, dtype=data.dtype).reshape(-1)
        total = float(mask_flat.sum())
        if total <= 0:
            raise ValueError("cross_entropy mask excludes every position")
        weights = mask_flat * (1.0 / total)
    value = np.asarray(nll @ weights, dtype=data.dtype)

    def backward(grad: np.ndarray) -> None:
        # Reuse the exp buffer: probs = shifted / denom, then the scatter.
        # The suppressed column already holds probability zero, and masked
        # positions (weight 0) contribute nothing after the final scale.
        probs = shifted
        probs /= denominator[:, None]
        probs[rows, index] -= 1.0
        if suppress_index is not None:
            probs[:, suppress_index] = 0.0
        probs *= (weights * float(grad))[:, None]
        # In-place shape assignment: `probs` owns its buffer, so this avoids
        # the defensive copy _accumulate makes for reshape views.
        probs.shape = data.shape
        logits._accumulate(probs)

    return _node(value, (logits,), "fused_cross_entropy", backward)


# ----------------------------------------------------------------------
# Intent-contrastive InfoNCE (ICSRec-style auxiliary objective)
# ----------------------------------------------------------------------
def info_nce(anchors: Tensor, positives: Tensor,
             temperature: float = 0.2, eps: float = 1e-8) -> Tensor:
    """Symmetric InfoNCE over two views of a batch as one tape node.

    ``anchors`` and ``positives`` are ``(N, D)`` intent representations of
    two augmented views of the same ``N`` sequences.  Both are L2-normalised
    (same ``sqrt(sum + eps)`` form as
    :func:`repro.tensor.functional.l2_normalize`), every pairwise cosine
    similarity is divided by ``temperature``, and the loss is the mean of
    the row-wise and column-wise cross-entropies with the diagonal as the
    positive class — in-batch negatives in both directions.

    The composed reference (:func:`repro.tensor.functional.info_nce_composed`)
    builds the same value from ~20 tape primitives; here forward is one
    normalised matmul plus two logsumexps and backward is a single
    hand-derived VJP: with ``G = grad/(2N) · (P_row + P_col) - grad/N · I``
    scaled by ``1/temperature``, ``dA_hat = G @ P_hat`` and
    ``dP_hat = Gᵀ @ A_hat``, each pulled back through the normalisation via
    ``dX = inv_norm · (dX_hat - <dX_hat, X_hat> X_hat)``.
    """
    a = anchors.data
    p = positives.data
    if a.ndim != 2 or a.shape != p.shape:
        raise ValueError(
            f"info_nce expects matching (N, D) views, got {a.shape} and {p.shape}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")

    backend = active_backend()
    inv_a = 1.0 / np.sqrt((a * a).sum(axis=-1, keepdims=True) + eps)
    inv_p = 1.0 / np.sqrt((p * p).sum(axis=-1, keepdims=True) + eps)
    a_hat = a * inv_a
    p_hat = p * inv_p
    logits = backend.matmul(a_hat, p_hat.T)
    logits *= 1.0 / temperature
    count = logits.shape[0]
    rows = np.arange(count)
    diagonal = logits[rows, rows].copy()
    peak_row = logits.max(axis=1)
    lse_row = np.log(np.exp(logits - peak_row[:, None]).sum(axis=1)) + peak_row
    peak_col = logits.max(axis=0)
    lse_col = np.log(np.exp(logits - peak_col[None, :]).sum(axis=0)) + peak_col
    value = np.asarray(
        0.5 * ((lse_row - diagonal).mean() + (lse_col - diagonal).mean()),
        dtype=a.dtype)

    def backward(grad: np.ndarray) -> None:
        # Row/column softmaxes recovered stably from the cached logsumexps.
        score = np.exp(logits - lse_row[:, None])
        score += np.exp(logits - lse_col[None, :])
        score *= 0.5 / count
        score[rows, rows] -= 1.0 / count
        score *= float(grad) / temperature
        if anchors.requires_grad:
            d_hat = backend.matmul(score, p_hat)
            anchors._accumulate(inv_a * (
                d_hat - (d_hat * a_hat).sum(axis=-1, keepdims=True) * a_hat))
        if positives.requires_grad:
            d_hat = backend.matmul(score.T, a_hat)
            positives._accumulate(inv_p * (
                d_hat - (d_hat * p_hat).sum(axis=-1, keepdims=True) * p_hat))

    return _node(value, (anchors, positives), "fused_info_nce", backward)


# ----------------------------------------------------------------------
# Masked scaled-dot-product attention (Eq. 3)
# ----------------------------------------------------------------------
def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None,
              scale: float = 1.0, dropout_mask: np.ndarray | None = None) -> Tensor:
    """``softmax(mask(q kᵀ · scale)) @ v`` as a single tape node.

    Parameters
    ----------
    q, k, v:
        ``(..., T, head_dim)`` projections (any matching leading batch/head
        axes).
    mask:
        Optional boolean array broadcastable to the ``(..., T, T)`` score
        matrix, ``True`` where attention is forbidden.  Masking happens
        in-place on the score buffer — no full-size fill tensor is ever
        allocated.  A fully-masked row degrades to uniform weights exactly
        like the composed ``masked_fill`` + softmax reference, and its
        gradient w.r.t. ``q``/``k`` is zero (masked scores are constants).
    scale:
        Multiplier applied to the raw scores (``1/sqrt(head_dim)``).
    dropout_mask:
        Optional pre-scaled inverted-dropout multiplier applied to the
        attention weights inside the kernel (constant w.r.t. the gradient).
    """
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)

    backend = active_backend()
    scores = backend.matmul(q.data, np.swapaxes(k.data, -1, -2))
    if scale != 1.0:
        scores *= scale
    if mask is not None:
        np.copyto(scores, _NEG_INF, where=mask)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    weights = scores  # (..., T, T), the post-softmax attention weights
    applied = weights if dropout_mask is None else weights * dropout_mask
    out = backend.matmul(applied, v.data)

    def backward(grad: np.ndarray) -> None:
        if v.requires_grad:
            v._accumulate(np.swapaxes(applied, -1, -2) @ grad)
        if q.requires_grad or k.requires_grad:
            dw = grad @ np.swapaxes(v.data, -1, -2)
            if dropout_mask is not None:
                dw *= dropout_mask
            ds = weights * (dw - (dw * weights).sum(axis=-1, keepdims=True))
            if mask is not None:
                # Masked scores are constants: no gradient may leak through,
                # matching the composed masked_fill reference (this only
                # matters for fully-masked rows, where weights are nonzero).
                np.copyto(ds, 0.0, where=mask)
            if scale != 1.0:
                ds *= scale
            if q.requires_grad:
                q._accumulate(ds @ k.data)
            if k.requires_grad:
                k._accumulate(np.swapaxes(ds, -1, -2) @ q.data)

    return _node(out, (q, k, v), "fused_attention", backward)


# ----------------------------------------------------------------------
# Layer normalisation
# ----------------------------------------------------------------------
def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Last-axis normalisation + affine as one tape node.

    Matches :class:`repro.nn.LayerNorm`'s composed forward (biased variance,
    ``eps`` inside the square root) and uses the standard three-term
    backward ``dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))``.
    """
    backend = active_backend()
    mean = x.data.mean(axis=-1, keepdims=True)
    xhat = backend.binary(np.subtract, x.data, mean)
    variance = np.mean(xhat * xhat, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(variance + eps)
    xhat *= inv_std
    out = backend.binary(np.multiply, xhat, gamma.data)
    np.add(out, beta.data, out=out)

    def backward(grad: np.ndarray) -> None:
        reduce_axes = tuple(range(grad.ndim - 1))
        if gamma.requires_grad:
            gamma._accumulate((grad * xhat).sum(axis=reduce_axes))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=reduce_axes))
        if x.requires_grad:
            dxhat = grad * gamma.data
            x._accumulate(inv_std * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            ))

    return _node(out, (x, gamma, beta), "fused_layer_norm", backward)


# ----------------------------------------------------------------------
# Concept-bank decode (Eq. 11)
# ----------------------------------------------------------------------
def concept_bank_decode(z: Tensor, m: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """``x = Σ_k m_k (z_k W_k + b_k)`` over ``(..., K, d')`` features as one tape node.

    ``m`` is the ``(..., K)`` intention mask, ``weight`` the ``(K, d', d)``
    bank and ``bias`` its ``(K, d)`` offsets.  The composed reference
    (:class:`repro.nn.LinearBank` ``forward_per_bank``, times ``m``, summed
    over ``K``) decodes every concept and its autograd reduces a
    ``(..., K, d', d)`` stack of outer products for the weight gradient.
    The intention mask of ISRec is exactly zero outside its top-λ concepts,
    so this kernel decodes, weights and back-propagates only the *active*
    ``(position, concept)`` pairs — those with ``m != 0``.

    The result is bit-identical to the composed reference, not merely
    close: the top-λ selection downstream amplifies any rounding change.
    Each active pair goes through the same per-pair BLAS gemv, and every
    sum over positions or concepts runs sequentially in ascending index
    order like numpy's outer-axis reductions do; the skipped pairs only
    ever contributed signed zeros.  The one gradient that needs every
    concept is ``∂m_k = ⟨g, z_k W_k + b_k⟩`` (the straight-through top-λ
    passes gradient to inactive concepts), so when ``m`` is tracked the
    full ``(..., K, d)`` decode is computed and reduced exactly as the
    composed path does.
    """
    num_banks, in_features = z.shape[-2:]
    out_features = weight.shape[-1]
    flat_z = z.data.reshape(-1, num_banks, in_features)
    flat_m = m.data.reshape(-1, num_banks)
    # Active pairs, grouped by concept with ascending positions per concept.
    concept, row = np.nonzero(flat_m.T)
    bounds = np.searchsorted(concept, np.arange(num_banks + 1))
    segments = [(k, slice(bounds[k], bounds[k + 1]))
                for k in np.flatnonzero(np.diff(bounds))]
    scale = flat_m[row, concept][:, None]
    z_pairs = flat_z[row, concept]

    track_m = m.requires_grad and is_grad_enabled()
    if track_m:
        full = active_backend().matmul(flat_z[:, :, None, :], weight.data)
        full = full.reshape(flat_m.shape + (out_features,))
        full += bias.data
        weighted = full[row, concept]
    else:
        weighted = np.empty((row.size, out_features),
                            dtype=np.result_type(z.data, weight.data))
        for k, pairs in segments:
            np.matmul(z_pairs[pairs, None, :], weight.data[k],
                      out=weighted[pairs, None, :])
        weighted += bias.data[concept]
    weighted *= scale
    out = np.zeros((flat_m.shape[0], out_features), dtype=weighted.dtype)
    for k, pairs in segments:
        out[row[pairs]] += weighted[pairs]

    def backward(grad: np.ndarray) -> None:
        g = grad.reshape(out.shape)
        if track_m:
            # ⟨g, z_k W_k + b_k⟩ for every concept, reduced over the last
            # axis exactly like the composed broadcast-multiply gradient.
            np.multiply(full, g[:, None, :], out=full)
            m._accumulate(full.sum(axis=-1).reshape(m.shape))
        g_pairs = g[row] * scale
        grad_z = np.zeros_like(flat_z) if z.requires_grad else None
        grad_w = np.zeros_like(weight.data) if weight.requires_grad else None
        grad_b = np.zeros_like(bias.data) if bias.requires_grad else None
        for k, pairs in segments:
            g_k = g_pairs[pairs]
            if grad_b is not None:
                grad_b[k] = g_k.sum(axis=0)
            if grad_w is not None:
                grad_w[k] = (z_pairs[pairs, :, None] * g_k[:, None, :]).sum(axis=0)
            if grad_z is not None:
                grad_z[row[pairs], k] = np.matmul(g_k[:, None, :],
                                                  weight.data[k].T)[:, 0]
        for parent, parent_grad in ((z, grad_z), (weight, grad_w), (bias, grad_b)):
            if parent_grad is not None:
                parent._accumulate(parent_grad.reshape(parent.shape))

    return _node(out.reshape(m.shape[:-1] + (out_features,)),
                 (z, m, weight, bias), "fused_concept_bank_decode", backward)
