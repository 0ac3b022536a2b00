"""The dtype policy of the autograd substrate.

Dense compute is plain numpy; what varies is the floating dtype that new
tensors and freshly initialised parameters take.  Two policies ship,
selected per thread with :func:`use_backend` (mirroring
``fused.use_fused``):

``float32`` (default)
    Parameters initialise in float32, and implicit floats coerce to
    float32.
``float64``
    The full-precision reference: parameters initialise in float64, and
    implicit floats coerce to float64.

Under both policies explicit float32 and float64 arrays pass through
:class:`~repro.tensor.tensor.Tensor` construction untouched (see
:meth:`Backend.coerce`)::

    with use_backend("float64"):
        model = ISRec(...)          # parameters initialise in float64
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np


class Backend:
    """One dtype policy: a registry name and the float dtype new data takes."""

    __slots__ = ("name", "dtype")

    def __init__(self, name: str, dtype):
        self.name = name
        self.dtype = dtype

    def coerce(self, arr: np.ndarray) -> np.ndarray:
        """Apply this policy to a freshly built array.

        Explicit float32 and float64 arrays always pass through untouched —
        float64 because gradcheck depends on full-precision round-trips,
        float32 because the float64 reference must not silently promote the
        (float32) training data.  Other float dtypes (float16, longdouble)
        and non-numeric data coerce to :attr:`dtype`; integer and boolean
        arrays are kept for index/mask tensors.
        """
        kind = arr.dtype.kind
        if kind == "f":
            if arr.dtype == np.float32 or arr.dtype == np.float64:
                return arr
            return arr.astype(self.dtype)
        if kind in "iub":
            return arr
        return arr.astype(self.dtype)

    def __repr__(self) -> str:
        return f"<Backend name={self.name!r}>"


#: The dtype policies by registry name.
BACKENDS = {
    "float32": Backend("float32", np.float32),
    "float64": Backend("float64", np.float64),
}

_DEFAULT = BACKENDS["float32"]


def available_backends() -> tuple[str, ...]:
    """Registry names accepted by :func:`use_backend`."""
    return tuple(sorted(BACKENDS))


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[Backend] = []


_THREAD = _ThreadState()


def active_backend() -> Backend:
    """The dtype policy in force for this thread."""
    stack = _THREAD.stack
    if stack:
        return stack[-1]
    return _DEFAULT


@contextlib.contextmanager
def use_backend(name: str = "float32"):
    """Context manager applying the ``name`` dtype policy on this thread.

    The override is scoped and restores the previous policy on exit; other
    threads are unaffected.  Yields the resolved :class:`Backend`.
    """
    try:
        resolved = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}") from None
    _THREAD.stack.append(resolved)
    try:
        yield resolved
    finally:
        _THREAD.stack.pop()
