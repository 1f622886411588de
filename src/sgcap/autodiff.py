"""Reverse-mode automatic differentiation over dense 64-bit float arrays.

A small tape engine. Forward ops run eagerly on numpy arrays; when a
:class:`Tape` is active, every primitive op appends a record referencing
its inputs and output. ``Tape.backward`` walks the records once, in
reverse execution order (which is a topological order by construction),
and accumulates gradients into the ``grad`` slot of every tensor that
requires them, leaves and intermediates alike.

Design rules, enforced here rather than assumed:

* everything is float64, row-major;
* no implicit broadcasting -- shapes must match exactly, widening is done
  with explicit ``reshape`` / ``tile_rows``;
* non-finite values are rejected at tensor creation, and after every op
  when debug mode is on (``set_debug_finite``);
* gradients accumulate across ``backward`` calls until cleared, so two
  backward passes yield exactly twice one pass.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "DimensionError",
    "Tensor",
    "Tape",
    "no_grad",
    "set_debug_finite",
    "constant",
    "parameter",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "linear",
    "transpose",
    "reshape",
    "concat",
    "slice_cols",
    "gather_rows",
    "tile_rows",
    "mean_rows",
    "row_sums",
    "sum_all",
    "sigmoid",
    "tanh",
    "relu",
    "log",
    "softmax",
    "layer_norm",
    "grad_check",
]


class DimensionError(ValueError):
    """Shape or dimensionality violation in a tensor operation."""


_TAPE_STACK: list["Tape"] = []
_DEBUG_FINITE = False


def set_debug_finite(enabled: bool) -> None:
    """Toggle finiteness asserts after every op (slow; off by default).

    Off, values are still checked at tensor creation and at the loss
    inside ``Tape.backward``.
    """
    global _DEBUG_FINITE
    _DEBUG_FINITE = bool(enabled)


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


@contextlib.contextmanager
def no_grad():
    """Record nothing inside, even under a tape: for decodes no loss needs.

    A tape entered inside the block records again until it exits.
    """
    _TAPE_STACK.append(None)  # _active_tape() then finds no tape
    try:
        yield
    finally:
        _TAPE_STACK.pop()


class Tensor:
    """Dense float64 array with an optional gradient slot.

    ``data`` is owned (public constructor copies). ``grad`` stays ``None``
    until a backward pass deposits something; repeated passes accumulate.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        _validate_new_array(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        # internal fast path: takes ownership, skips the copy
        t = cls.__new__(cls)
        t.data = arr
        t.grad = None
        t.requires_grad = requires_grad
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() on non-scalar tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g

    def __repr__(self):
        return f"Tensor(shape={tuple(self.data.shape)}, requires_grad={self.requires_grad})"


def _validate_new_array(arr: np.ndarray) -> None:
    if any(n < 1 for n in arr.shape):
        raise DimensionError(f"zero-size extent in shape {tuple(arr.shape)}")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite values in tensor data")


def constant(data) -> Tensor:
    """Tensor that never receives gradient (masks, fixed inputs)."""
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    """Trainable leaf tensor."""
    return Tensor(data, requires_grad=True)


class Tape:
    """Ordered record of executed primitive ops.

    Use as a context manager around the forward pass; ops executed while
    the tape is active (and touching at least one grad-requiring tensor)
    are recorded. Execution order is a topological order of the graph, so
    the backward pass is a single reverse sweep, each op visited once.
    """

    def __init__(self):
        self._records: list[tuple] = []  # (out, inputs, backward_fn)
        self._produced: set[int] = set()

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape stack corrupted"
        return False

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, out: Tensor, inputs: tuple, backward_fn) -> None:
        self._records.append((out, inputs, backward_fn))
        self._produced.add(id(out))

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` of every requires_grad tensor reachable from ``loss``.

        ``loss`` must be a scalar produced on this tape. Non-finite loss is
        rejected here even when debug mode is off.
        """
        if loss.data.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {tuple(loss.data.shape)}")
        if id(loss) not in self._produced:
            raise ValueError("loss was not produced on this tape")
        if not np.isfinite(loss.data).all():
            raise FloatingPointError("non-finite loss")

        flow: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        holders: dict[int, Tensor] = {id(loss): loss}
        for out, inputs, backward_fn in reversed(self._records):
            g = flow.pop(id(out), None)
            if g is None:
                continue  # not on a path from the loss
            holders.pop(id(out), None)
            if out.requires_grad:
                out._accumulate_grad(g)
            for t, gi in zip(inputs, backward_fn(g)):
                if gi is None or not t.requires_grad:
                    continue
                key = id(t)
                if key in flow:
                    flow[key] = flow[key] + gi
                else:
                    flow[key] = gi
                    holders[key] = t
        # whatever is left never appeared as an op output: the leaves
        for key, g in flow.items():
            holders[key]._accumulate_grad(g)


def _emit(data: np.ndarray, inputs: tuple, backward_fn) -> Tensor:
    """Create an op output, recording it when a tape is active."""
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    if _DEBUG_FINITE and not np.isfinite(data).all():
        raise FloatingPointError("non-finite op output")
    out = Tensor._wrap(data, track)
    if track:
        tape._record(out, inputs, backward_fn)
    return out


# ---------------------------------------------------------------------------
# primitive ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add shape mismatch: {tuple(a.data.shape)} vs {tuple(b.data.shape)}")
    return _emit(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"sub shape mismatch: {tuple(a.data.shape)} vs {tuple(b.data.shape)}")
    return _emit(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product; shapes must match exactly."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul shape mismatch: {tuple(a.data.shape)} vs {tuple(b.data.shape)}")
    ad, bd = a.data, b.data
    return _emit(ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python float constant."""
    c = float(c)
    return _emit(a.data * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(
            f"matmul expects 2-d operands, got {tuple(a.data.shape)} and {tuple(b.data.shape)}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner mismatch: {tuple(a.data.shape)} @ {tuple(b.data.shape)}")
    ad, bd = a.data, b.data
    return _emit(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x W^T, plus b on every row: (n, k) and (m, k) -> (n, m).

    W is read through a transposed view, so no weight is copied.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise DimensionError(f"linear mismatch: {tuple(xd.shape)} @ {tuple(wd.shape)}^T")
    y = xd @ wd.T
    if b is None:
        return _emit(y, (x, w), lambda g: (g @ wd, g.T @ xd))
    if b.data.shape != (wd.shape[0],):
        raise DimensionError(f"linear bias {tuple(b.data.shape)} does not match {wd.shape[0]} outputs")
    y += b.data
    return _emit(y, (x, w, b), lambda g: (g @ wd, g.T @ xd, g.sum(axis=0)))


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {tuple(a.data.shape)}")
    return _emit(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(n) for n in shape)
    if math.prod(shape) != a.data.size:
        raise DimensionError(f"reshape {tuple(a.data.shape)} -> {shape} changes element count")
    old = a.data.shape
    return _emit(a.data.reshape(shape).copy(), (a,), lambda g: (g.reshape(old),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise DimensionError("concat of an empty sequence")
    ndim = tensors[0].data.ndim
    if axis < 0:
        axis += ndim
    for t in tensors:
        if t.data.ndim != ndim:
            raise DimensionError("concat operands differ in rank")
    sizes = [t.data.shape[axis] for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    bounds = np.cumsum([0] + sizes)

    def backward_fn(g):
        return tuple(
            np.take(g, np.arange(bounds[i], bounds[i + 1]), axis=axis) for i in range(len(sizes))
        )

    return _emit(data, tensors, backward_fn)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous column block of a matrix."""
    if a.data.ndim != 2:
        raise DimensionError(f"slice_cols expects a matrix, got shape {tuple(a.data.shape)}")
    if not (0 <= start < stop <= a.data.shape[1]):
        raise DimensionError(f"slice_cols [{start}:{stop}] out of range for {tuple(a.data.shape)}")
    shape = a.data.shape

    def backward_fn(g):
        full = np.zeros(shape)
        full[:, start:stop] = g
        return (full,)

    return _emit(a.data[:, start:stop].copy(), (a,), backward_fn)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Select rows of a matrix by integer index (rows may repeat)."""
    if table.data.ndim != 2:
        raise DimensionError(f"gather_rows expects a matrix, got shape {tuple(table.data.shape)}")
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        raise DimensionError("gather_rows with no indices")
    if idx.min() < 0 or idx.max() >= table.data.shape[0]:
        raise IndexError(f"gather_rows index out of range [0, {table.data.shape[0]})")
    shape = table.data.shape

    def backward_fn(g):
        full = np.zeros(shape)
        np.add.at(full, idx, g)
        return (full,)

    return _emit(table.data[idx].copy(), (table,), backward_fn)


def tile_rows(v: Tensor, n: int) -> Tensor:
    """Stack a vector as n identical rows (explicit widening, no broadcast)."""
    if v.data.ndim != 1:
        raise DimensionError(f"tile_rows expects a vector, got shape {tuple(v.data.shape)}")
    if n < 1:
        raise DimensionError("tile_rows needs n >= 1")
    return _emit(np.tile(v.data, (n, 1)), (v,), lambda g: (g.sum(axis=0),))


def mean_rows(a: Tensor) -> Tensor:
    """Mean over rows of a matrix: (N, d) -> (d,)."""
    if a.data.ndim != 2:
        raise DimensionError(f"mean_rows expects a matrix, got shape {tuple(a.data.shape)}")
    n = a.data.shape[0]
    return _emit(a.data.mean(axis=0), (a,), lambda g: (np.tile(g / n, (n, 1)),))


def row_sums(a: Tensor) -> Tensor:
    """Per-row sum of a matrix: (N, d) -> (N,)."""
    if a.data.ndim != 2:
        raise DimensionError(f"row_sums expects a matrix, got shape {tuple(a.data.shape)}")
    d = a.data.shape[1]
    return _emit(a.data.sum(axis=1), (a,), lambda g: (np.tile(g[:, None], (1, d)),))


def sum_all(a: Tensor) -> Tensor:
    shape = a.data.shape
    return _emit(np.asarray(a.data.sum()), (a,), lambda g: (np.full(shape, float(g)),))


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return _emit(y, (a,), lambda g: (g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _emit(y, (a,), lambda g: (g * (1.0 - y * y),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _emit(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def log(a: Tensor) -> Tensor:
    if (a.data <= 0).any():
        raise ValueError("log of non-positive value")
    ad = a.data
    return _emit(np.log(ad), (a,), lambda g: (g / ad,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Exponential normalizer along ``axis``, max-subtracted for stability.

    Each slice along the axis sums to 1 within 1e-12.
    """
    x = a.data
    ax = axis if axis >= 0 else x.ndim + axis
    if x.ndim == 0 or not (0 <= ax < x.ndim):
        raise DimensionError(f"softmax axis {axis} invalid for shape {tuple(x.shape)}")
    shifted = x - x.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=ax, keepdims=True)

    def backward_fn(g):
        inner = (g * y).sum(axis=ax, keepdims=True)
        return (y * (g - inner),)

    return _emit(y, (a,), backward_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise normalization with per-feature affine.

    Uses the population (biased) variance. Constant rows collapse to the
    bias because of ``eps``; rows of width < 2 are rejected.
    """
    xd = x.data
    if xd.ndim != 2:
        raise DimensionError(f"layer_norm expects a matrix, got shape {tuple(xd.shape)}")
    n, d = xd.shape
    if d < 2:
        raise DimensionError(f"layer_norm needs row width >= 2, got {d}")
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {tuple(gain.data.shape)}/{tuple(bias.data.shape)} "
            f"do not match row width {d}"
        )
    mean = xd.mean(axis=1, keepdims=True)
    xc = xd - mean
    var = (xc * xc).mean(axis=1, keepdims=True)
    istd = 1.0 / np.sqrt(var + eps)
    xhat = xc * istd
    y = xhat * gain.data + bias.data
    gd = gain.data

    def backward_fn(g):
        dxhat = g * gd
        # population-variance layer norm backward, per row
        dx = (istd / d) * (
            d * dxhat
            - dxhat.sum(axis=1, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=1, keepdims=True)
        )
        return dx, (g * xhat).sum(axis=0), g.sum(axis=0)

    return _emit(y, (x, gain, bias), backward_fn)


# ---------------------------------------------------------------------------
# finite-difference audit


def grad_check(
    f: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    step: float = 1e-6,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` maps the given tensors to a scalar tensor. Every coordinate of
    every input is perturbed by ``+-step``; relative error is
    ``|a - n| / max(1e-8, |a| + |n|)``. Existing ``grad`` slots are left
    untouched (the check runs on private copies).
    """
    inputs = list(inputs)
    saved = [t.grad for t in inputs]
    for t in inputs:
        t.grad = None
    with Tape() as tape:
        out = f(*inputs)
    tape.backward(out)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]
    for t, g in zip(inputs, saved):
        t.grad = g

    worst = 0.0
    for t, ana in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        aflat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f(*inputs).item()
            flat[i] = orig - step
            fm = f(*inputs).item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * step)
            err = abs(aflat[i] - numeric) / max(1e-8, abs(aflat[i]) + abs(numeric))
            worst = max(worst, err)
    return worst
