"""A small reverse-mode automatic differentiation engine built on numpy.

This package is the substrate that replaces PyTorch in the ISRec
reproduction.  It provides:

- :class:`~repro.tensor.tensor.Tensor` — an n-dimensional array that records
  the operations applied to it and can back-propagate gradients.
- :mod:`~repro.tensor.functional` — composite differentiable operations
  (softmax, cross-entropy, cosine similarity, ...).
- :mod:`~repro.tensor.fused` — fused single-tape-node kernels for the
  training hot path (softmax, cross-entropy, masked attention, layer norm,
  InfoNCE, the Eq. 11 concept-bank decode) with hand-derived VJPs; toggled
  globally via ``fused.use_fused``.
- :class:`~repro.tensor.tensor.RowSubset` with :func:`gather_rows`,
  :func:`merge_rows` and the :func:`row_subset` scope — run a per-row
  computation on only the rows that are read while every GEMM keeps the
  dense layout, so the result is bit-identical to the dense computation.
- :mod:`~repro.tensor.gradcheck` — numerical gradient checking used by the
  test-suite to validate every analytic gradient.
- :mod:`~repro.tensor.backend` — the pluggable dense-compute seam: every
  matmul/elementwise/reduction/RNG/allocation call dispatches through the
  active :class:`~repro.tensor.backend.Backend` (default numpy float32,
  plus ``float64``, strict ``float32``, and pooled-allocation ``arena``
  backends), selected with ``use_backend`` just like ``use_fused``.

Every operation supports numpy-style broadcasting; gradients of broadcast
operands are reduced back to the operand's shape.
"""

from repro.tensor.backend import (
    ArenaBackend, Backend, active_backend, array_allocs, available_backends,
    set_backend, use_backend,
)
from repro.tensor.tensor import (
    RowSubset, Tensor, active_row_subset, gather_rows, merge_rows, row_subset,
    no_grad, inference_mode, is_grad_enabled, is_inference_mode,
    tensor, tensor_allocs, graph_nodes, zeros, ones, arange,
)
from repro.tensor import backend
from repro.tensor import functional
from repro.tensor import fused
from repro.tensor.fused import use_fused, fused_enabled
from repro.tensor.gradcheck import gradcheck, numerical_gradient

__all__ = [
    "Tensor",
    "tensor",
    "tensor_allocs",
    "graph_nodes",
    "backend",
    "Backend",
    "ArenaBackend",
    "active_backend",
    "array_allocs",
    "available_backends",
    "set_backend",
    "use_backend",
    "zeros",
    "ones",
    "arange",
    "no_grad",
    "inference_mode",
    "RowSubset",
    "row_subset",
    "active_row_subset",
    "gather_rows",
    "merge_rows",
    "is_grad_enabled",
    "is_inference_mode",
    "functional",
    "fused",
    "use_fused",
    "fused_enabled",
    "gradcheck",
    "numerical_gradient",
]
