"""Core :class:`Tensor` type with reverse-mode automatic differentiation.

The design follows the classic tape-based approach: every differentiable
operation returns a new ``Tensor`` that stores references to its parents and
a closure computing the local vector-Jacobian product.  Calling
:meth:`Tensor.backward` performs a topological sort of the recorded graph and
accumulates gradients into every leaf with ``requires_grad=True``.

All operations are vectorised with numpy and support broadcasting; the
gradient of a broadcast operand is summed back to the operand's shape by
:func:`_unbroadcast`.

Dense forward computation — matmuls, elementwise ufuncs, reductions, and
the dtype policy of :class:`Tensor` construction — routes through the
active compute backend (:mod:`repro.tensor.backend`), selected with
``use_backend``.  The default backend reproduces the pre-seam numpy
behaviour bit for bit; gradients always run in plain numpy because tape
closures may outlive any backend scope.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

from repro.tensor.backend import active_backend

#: Historical float dtype of the substrate; the *active* default now comes
#: from ``active_backend().dtype`` (float32 for the default backend).
DEFAULT_DTYPE = np.float32

_GRAD_ENABLED = True
_INFERENCE_MODE = False

# Monotone count of Tensor objects constructed since import.  The benchmark
# harness (repro.utils.bench) reads deltas of this counter to report how many
# tensor temporaries a code path materialises — the fused kernels exist
# precisely to drive this number down on the training hot path.
_TENSOR_ALLOCS = 0

# Monotone count of *tape nodes* recorded since import: tensors that joined
# the autograd graph with parents and (eventually) a backward closure.  The
# serving stack asserts a delta of zero per request — an inference forward
# must never build a tape — and the serve benchmark reports it alongside
# wall time.
_GRAPH_NODES = 0


def tensor_allocs() -> int:
    """Return the number of :class:`Tensor` objects constructed so far."""
    return _TENSOR_ALLOCS


def graph_nodes() -> int:
    """Return the number of autograd tape nodes recorded so far.

    A tape node is a tensor recorded with parents (an interior node of the
    backward graph).  Leaf tensors — parameters, inputs, no-grad results —
    are never counted, so a delta of zero across a code region proves the
    region allocated no graph at all.
    """
    return _GRAPH_NODES


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


@contextlib.contextmanager
def inference_mode():
    """No-tape context for serving forwards (like ``torch.inference_mode``).

    Strictly stronger than :func:`no_grad`: gradients are disabled *and*
    :func:`is_inference_mode` reports ``True`` so stochastic train-time
    behaviour keyed on it (dropout masks, Gumbel noise) can hard-disable
    itself even if a module was accidentally left in training mode.  The
    serve engine (:mod:`repro.serve`) wraps every forward in this context;
    ``tests/serve`` asserts a :func:`graph_nodes` delta of zero inside it.
    """
    global _GRAD_ENABLED, _INFERENCE_MODE
    previous_grad, previous_inference = _GRAD_ENABLED, _INFERENCE_MODE
    _GRAD_ENABLED = False
    _INFERENCE_MODE = True
    try:
        yield
    finally:
        _GRAD_ENABLED = previous_grad
        _INFERENCE_MODE = previous_inference


def is_inference_mode() -> bool:
    """Return whether an :func:`inference_mode` scope is active."""
    return _INFERENCE_MODE


def is_grad_enabled() -> bool:
    """Return whether operations are currently recorded onto the tape."""
    return _GRAD_ENABLED


class RowSubset:
    """Ascending positions ``index`` into the rows of a ``(*shape, ...)`` layout.

    The layout's leading ``shape`` axes (``(B, T)`` for a sequence batch)
    flatten to ``total`` rows; a subset names the rows a per-row
    computation actually needs.  :func:`gather_rows` and
    :func:`merge_rows` move tensors between the two layouts, and a
    :func:`row_subset` scope keeps row-folded GEMMs on the full one.
    """

    __slots__ = ("index", "shape", "total")

    def __init__(self, index, shape: tuple[int, ...]):
        self.index = np.asarray(index, dtype=np.intp)
        self.shape = tuple(int(s) for s in shape)
        self.total = int(np.prod(self.shape))

    @property
    def size(self) -> int:
        """Number of selected rows."""
        return int(self.index.size)

    @property
    def is_full(self) -> bool:
        """Whether the subset selects every row (in order)."""
        return self.index.size == self.total

    def scatter(self, rows: np.ndarray) -> np.ndarray:
        """``(size, ...)`` rows into a ``(total, ...)`` array, zero elsewhere."""
        if self.is_full:
            return rows
        out = np.zeros((self.total,) + rows.shape[1:], dtype=rows.dtype)
        out[self.index] = rows
        return out

    def gather(self, data: np.ndarray) -> np.ndarray:
        """The selected rows of a ``(total, ...)`` array."""
        return data if self.is_full else data[self.index]


class _RowSubsetScope(threading.local):
    subset: RowSubset | None = None


_ROW_SCOPE = _RowSubsetScope()


@contextlib.contextmanager
def row_subset(subset: RowSubset):
    """Keep row-folded GEMMs of a gathered row set on the full layout.

    Inside the scope, a product ``a @ w`` whose left operand has
    ``subset.size`` leading rows and whose right operand is a matrix runs
    its forward GEMM and both gradient GEMMs on the zero-padded
    ``subset.total``-row layout, then keeps the selected rows.  BLAS picks
    its kernel and blocking from the shapes (OpenBLAS, for one, switches to
    a small-matrix kernel with a different summation order below a size
    threshold), so only a GEMM of the dense shape reproduces the dense
    product bit for bit — and the weight gradient, a reduction over rows,
    needs the skipped rows present as zeros for the same reason.

    The subset is captured when the product is recorded, like
    :func:`no_grad`; the backward closure never reads the scope.  The scope
    is per thread, so a serving thread cannot reshape another thread's
    products.
    """
    previous = _ROW_SCOPE.subset
    _ROW_SCOPE.subset = subset
    try:
        yield
    finally:
        _ROW_SCOPE.subset = previous


def active_row_subset() -> RowSubset | None:
    """This thread's :func:`row_subset` in scope, or ``None``."""
    return _ROW_SCOPE.subset


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (gradient of a broadcast result) back to ``shape``.

    Broadcasting may (a) prepend dimensions and (b) stretch size-1 axes; the
    adjoint of both is summation over the corresponding axes.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` through the active backend (folded GEMM, optional pooling)."""
    return active_backend().matmul(a, b)


class Tensor:
    """An n-dimensional array that supports reverse-mode differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a numpy array.  Floating point data defaults
        to ``float32``; integer data keeps its integer dtype (useful for
        index tensors).
    requires_grad:
        When ``True`` and gradients are enabled, operations involving this
        tensor are recorded so :meth:`backward` can populate :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    __array_priority__ = 100  # make numpy defer to Tensor's reflected ops

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        global _TENSOR_ALLOCS
        _TENSOR_ALLOCS += 1
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        else:
            # The backend's dtype policy.  Every backend preserves explicit
            # float32 and float64 arrays (float64 so gradcheck can run in
            # full precision; float32 so a non-default backend never
            # silently promotes the training data) — except the strict
            # ``float32`` backend, which demotes float64 on entry.
            arr = active_backend().coerce(arr)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad) and arr.dtype.kind == "f"
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._op = ""

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """Numpy dtype of the underlying array."""
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        """Transpose with reversed axes (differentiable)."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        """The single element of a scalar tensor as a Python float."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        """Differentiable dtype cast (gradient cast back on the way down)."""
        out = self._make(self.data.astype(dtype), (self,), "astype")
        if out.requires_grad:
            original_dtype = self.data.dtype

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad.astype(original_dtype))

            out._backward = backward
        return out

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], op: str) -> "Tensor":
        global _GRAPH_NODES
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        # Explicit dtype: op results keep the dtype the computation produced.
        # The backend's coerce() policy applies at data *entry* (``__init__``
        # with dtype=None), not to intermediate results — otherwise a strict
        # reduced-precision backend would demote explicit float64 work.
        out = Tensor(data, requires_grad=False, dtype=data.dtype)
        out.requires_grad = requires and out.data.dtype.kind == "f"
        if out.requires_grad:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._op = op
            _GRAPH_NODES += 1
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None or grad is self.data else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of some scalar loss w.r.t. this tensor.  Defaults to
            ``1`` which requires this tensor to be a scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if node._parents:
                    # Interior nodes do not need to keep their gradient.
                    node.grad = None
                node._backward = None
                node._parents = ()

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        out = self._make(active_backend().binary(np.add, self.data, other.data),
                         (self, other), "add")
        if out.requires_grad:
            a, b = self, other

            def backward(grad: np.ndarray) -> None:
                if a.requires_grad:
                    a._accumulate(_unbroadcast(grad, a.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(grad, b.shape))

            out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._make(active_backend().unary(np.negative, self.data), (self,), "neg")
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                self._accumulate(-grad)

            out._backward = backward
        return out

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        out = self._make(active_backend().binary(np.subtract, self.data, other.data),
                         (self, other), "sub")
        if out.requires_grad:
            a, b = self, other

            def backward(grad: np.ndarray) -> None:
                if a.requires_grad:
                    a._accumulate(_unbroadcast(grad, a.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(-grad, b.shape))

            out._backward = backward
        return out

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other, dtype=self.data.dtype) - self

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        out = self._make(active_backend().binary(np.multiply, self.data, other.data),
                         (self, other), "mul")
        if out.requires_grad:
            a, b = self, other

            def backward(grad: np.ndarray) -> None:
                if a.requires_grad:
                    a._accumulate(_unbroadcast(grad * b.data, a.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(grad * a.data, b.shape))

            out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        out = self._make(active_backend().binary(np.divide, self.data, other.data),
                         (self, other), "div")
        if out.requires_grad:
            a, b = self, other

            def backward(grad: np.ndarray) -> None:
                if a.requires_grad:
                    a._accumulate(_unbroadcast(grad / b.data, a.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(-grad * a.data / (b.data * b.data), b.shape))

            out._backward = backward
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other, dtype=self.data.dtype) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log composition")
        out = self._make(self.data ** exponent, (self,), "pow")
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

            out._backward = backward
        return out

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other, dtype=self.data.dtype)
        subset = _ROW_SCOPE.subset
        if (subset is not None and other.data.ndim == 2 and self.data.ndim >= 2
                and self.data.shape[0] == subset.size):
            return self._row_subset_matmul(other, subset)
        out = self._make(_matmul(self.data, other.data), (self, other), "matmul")
        if out.requires_grad:
            a, b = self, other

            def backward(grad: np.ndarray) -> None:
                if a.requires_grad:
                    if b.data.ndim == 1:
                        ga = np.multiply.outer(grad, b.data) if grad.ndim else grad * b.data
                    else:
                        ga = _matmul(grad, np.swapaxes(b.data, -1, -2))
                    if a.data.ndim == 1 and ga.ndim > 1:
                        ga = ga.sum(axis=tuple(range(ga.ndim - 1)))
                    a._accumulate(_unbroadcast(ga, a.shape))
                if b.requires_grad:
                    if a.data.ndim == 1:
                        gb = np.multiply.outer(a.data, grad) if grad.ndim else a.data * grad
                    elif b.data.ndim == 2 and a.data.ndim > 2:
                        # Batched (..., n, k) @ (k, m): fold the batch axes
                        # into one GEMM instead of materialising a stacked
                        # (..., k, m) gradient and reducing it afterwards.
                        flat_a = a.data.reshape(-1, a.data.shape[-1])
                        flat_g = grad.reshape(-1, grad.shape[-1])
                        b._accumulate(flat_a.T @ flat_g)
                        gb = None
                    else:
                        gb = np.swapaxes(a.data, -1, -2) @ grad
                    if gb is not None:
                        if b.data.ndim == 1 and gb.ndim > 1:
                            gb = gb.sum(axis=tuple(range(gb.ndim - 1)))
                        b._accumulate(_unbroadcast(gb, b.shape))

            out._backward = backward
        return out

    def _row_subset_matmul(self, other: "Tensor", subset: RowSubset) -> "Tensor":
        """``(rows, ..., k) @ (k, m)`` evaluated on the full layout of ``subset``.

        The same three GEMMs as the dense folded product — ``A W``,
        ``G Wᵀ`` and ``Aᵀ G`` over ``subset.total * prod(...)`` rows — with
        zero rows at the positions the subset skips (see
        :func:`row_subset`).
        """
        a, b = self, other
        full_a = subset.scatter(a.data)
        out = self._make(subset.gather(_matmul(full_a, b.data)), (a, b), "matmul")
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                full_g = subset.scatter(grad)
                if a.requires_grad:
                    a._accumulate(subset.gather(
                        _matmul(full_g, np.swapaxes(b.data, -1, -2))))
                if b.requires_grad:
                    flat_a = full_a.reshape(-1, full_a.shape[-1])
                    b._accumulate(flat_a.T @ full_g.reshape(-1, full_g.shape[-1]))

            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """Differentiable reshape (accepts ints or a single tuple)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        out = self._make(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad.reshape(original))

            out._backward = backward
        return out

    def transpose(self, *axes) -> "Tensor":
        """Differentiable axis permutation (defaults to full reversal)."""
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out = self._make(self.data.transpose(axes), (self,), "transpose")
        if out.requires_grad:
            inverse = np.argsort(axes)

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad.transpose(inverse))

            out._backward = backward
        return out

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Differentiable swap of two axes."""
        out = self._make(np.swapaxes(self.data, axis1, axis2), (self,), "swapaxes")
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                self._accumulate(np.swapaxes(grad, axis1, axis2))

            out._backward = backward
        return out

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data
        elif isinstance(index, tuple):
            index = tuple(i.data if isinstance(i, Tensor) else i for i in index)
        out = self._make(self.data[index], (self,), "getitem")
        if out.requires_grad:
            shape, dtype = self.shape, self.data.dtype

            def backward(grad: np.ndarray) -> None:
                full = np.zeros(shape, dtype=dtype)
                np.add.at(full, index, grad)
                self._accumulate(full)

            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable summation over ``axis`` (or all elements)."""
        out = self._make(active_backend().sum(self.data, axis=axis, keepdims=keepdims),
                         (self,), "sum")
        if out.requires_grad:
            shape = self.shape

            def backward(grad: np.ndarray) -> None:
                g = grad
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    g = np.expand_dims(g, tuple(a % len(shape) for a in axes))
                self._accumulate(np.broadcast_to(g, shape))

            out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable mean over ``axis`` (or all elements)."""
        count = self.data.size if axis is None else np.prod(
            [self.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable maximum; tied maxima share the gradient."""
        out_data = active_backend().max(self.data, axis=axis, keepdims=keepdims)
        out = self._make(out_data, (self,), "max")
        if out.requires_grad:
            shape = self.shape

            def backward(grad: np.ndarray) -> None:
                g = grad
                o = out_data
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % len(shape) for a in axes)
                    g = np.expand_dims(g, axes)
                    o = np.expand_dims(o, axes)
                mask = (self.data == o).astype(self.data.dtype)
                # Split the gradient evenly among ties to keep it well defined.
                counts = mask.sum(
                    axis=axis if axis is not None else None, keepdims=True
                )
                self._accumulate(mask * g / counts)

            out._backward = backward
        return out

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Differentiable minimum (via ``-max(-x)``)."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = active_backend().unary(np.exp, self.data)
        out = self._make(out_data, (self,), "exp")
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * out_data)

            out._backward = backward
        return out

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out = self._make(active_backend().unary(np.log, self.data), (self,), "log")
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad / self.data)

            out._backward = backward
        return out

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        out_data = active_backend().unary(np.sqrt, self.data)
        out = self._make(out_data, (self,), "sqrt")
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * 0.5 / out_data)

            out._backward = backward
        return out

    def relu(self) -> "Tensor":
        """Elementwise ``max(x, 0)``."""
        out = self._make(active_backend().binary(np.maximum, self.data, 0), (self,), "relu")
        if out.requires_grad:
            mask = (self.data > 0).astype(self.data.dtype)

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * mask)

            out._backward = backward
        return out

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid."""
        backend = active_backend()
        out_data = backend.unary(np.exp, backend.unary(np.negative, self.data))
        np.add(out_data, 1.0, out=out_data)
        np.reciprocal(out_data, out=out_data)
        out = self._make(out_data, (self,), "sigmoid")
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * out_data * (1.0 - out_data))

            out._backward = backward
        return out

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = active_backend().unary(np.tanh, self.data)
        out = self._make(out_data, (self,), "tanh")
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * (1.0 - out_data * out_data))

            out._backward = backward
        return out

    def abs(self) -> "Tensor":
        """Elementwise absolute value (sign subgradient)."""
        out = self._make(active_backend().unary(np.abs, self.data), (self,), "abs")
        if out.requires_grad:
            sign = np.sign(self.data)

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * sign)

            out._backward = backward
        return out

    def clip(self, low: float | None = None, high: float | None = None) -> "Tensor":
        """Clamp to ``[low, high]``; gradient passes only inside the range."""
        out = self._make(np.clip(self.data, low, high), (self,), "clip")
        if out.requires_grad:
            mask = np.ones_like(self.data)
            if low is not None:
                mask = mask * (self.data >= low)
            if high is not None:
                mask = mask * (self.data <= high)

            def backward(grad: np.ndarray) -> None:
                self._accumulate(grad * mask)

            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable; return plain numpy bool arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > _as_array(other)

    def __lt__(self, other):
        return self.data < _as_array(other)

    def __ge__(self, other):
        return self.data >= _as_array(other)

    def __le__(self, other):
        return self.data <= _as_array(other)


# ----------------------------------------------------------------------
# Free functions mirroring the numpy namespace
# ----------------------------------------------------------------------
def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Create a :class:`Tensor` (convenience mirror of the constructor)."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def zeros(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    """Tensor of zeros (in the active backend's float dtype by default)."""
    dtype = active_backend().dtype if dtype is None else dtype
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    """Tensor of ones (in the active backend's float dtype by default)."""
    dtype = active_backend().dtype if dtype is None else dtype
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


def arange(*args, dtype=np.int64) -> Tensor:
    """Integer range tensor (non-differentiable by construction)."""
    return Tensor(np.arange(*args, dtype=dtype))


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    out = Tensor(data)
    out.requires_grad = requires and data.dtype.kind == "f"
    if out.requires_grad:
        global _GRAPH_NODES
        _GRAPH_NODES += 1
        out._parents = tuple(t for t in tensors if t.requires_grad)
        out._op = "concatenate"
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    t._accumulate(grad[tuple(slicer)])

        out._backward = backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    requires = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    out = Tensor(data)
    out.requires_grad = requires and data.dtype.kind == "f"
    if out.requires_grad:
        global _GRAPH_NODES
        _GRAPH_NODES += 1
        out._parents = tuple(t for t in tensors if t.requires_grad)
        out._op = "stack"

        def backward(grad: np.ndarray) -> None:
            slices = np.moveaxis(grad, axis, 0)
            for t, g in zip(tensors, slices):
                if t.requires_grad:
                    t._accumulate(g)

        out._backward = backward
    return out


def where(condition, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection: ``condition ? a : b``.

    ``condition`` is treated as a constant boolean mask.
    """
    cond = _as_array(condition).astype(bool)
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    data = np.where(cond, a.data, b.data)
    requires = _GRAD_ENABLED and (a.requires_grad or b.requires_grad)
    out = Tensor(data)
    out.requires_grad = requires and data.dtype.kind == "f"
    if out.requires_grad:
        global _GRAPH_NODES
        _GRAPH_NODES += 1
        out._parents = tuple(t for t in (a, b) if t.requires_grad)
        out._op = "where"

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                a._accumulate(_unbroadcast(np.where(cond, grad, 0.0), a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(np.where(cond, 0.0, grad), b.shape))

        out._backward = backward
    return out


def gather_rows(x: Tensor, subset: RowSubset) -> Tensor:
    """The ``(subset.size, ...)`` selected rows of ``x`` (``(*subset.shape, ...)``)."""
    trailing = x.shape[len(subset.shape):]
    out = x._make(subset.gather(x.data.reshape((subset.total,) + trailing)),
                  (x,), "gather_rows")
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            x._accumulate(subset.scatter(grad).reshape(x.shape))

        out._backward = backward
    return out


def merge_rows(base: Tensor, rows: Tensor, subset: RowSubset) -> Tensor:
    """``base`` with its ``subset`` rows replaced by ``rows`` (one tape node)."""
    trailing = base.shape[len(subset.shape):]
    data = base.data.reshape((subset.total,) + trailing).copy()
    data[subset.index] = rows.data
    out = base._make(data.reshape(base.shape), (base, rows), "merge_rows")
    if out.requires_grad:
        def backward(grad: np.ndarray) -> None:
            flat = grad.reshape((subset.total,) + trailing)
            if base.requires_grad:
                passed = flat.copy()
                passed[subset.index] = 0.0
                base._accumulate(passed.reshape(base.shape))
            if rows.requires_grad:
                rows._accumulate(flat[subset.index])

        out._backward = backward
    return out


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise maximum (gradient split evenly on ties)."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    return where(a.data >= b.data, a, b)
