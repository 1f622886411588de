"""Reverse-mode automatic differentiation over dense 64-bit float arrays.

A small tape engine. Forward ops run eagerly on numpy arrays; when a
:class:`Tape` is active, every primitive op appends a record referencing
its inputs and output. ``Tape.backward`` walks the records once, in
reverse execution order (which is a topological order by construction),
and accumulates gradients into the ``grad`` slot of every tensor that
requires them, leaves and intermediates alike.

Weight and embedding gradients are settled once per backward rather than
once per use. An op hands the tape a weight's gradient as its factors:
the pair (g, x) of ``g.T @ x`` (``linear``, ``aoa``, ``lstm_gates``), or
the pair (indices, rows) of a scatter-add into a zero table
(``gather_rows``). The tape collects the pairs of each tensor and settles
them as one ``concat(g).T @ concat(x)`` product and one ``np.add.at``:
a leaf at the end of the pass, an op output just before that op's own
backward. A weight used at every step of a caption thus costs one GEMM
over all steps instead of one outer product per step. Dense gradients
are summed in place, but only into buffers the tape allocated itself,
since an op may hand one array to several inputs.

Design rules, enforced here rather than assumed:

* everything is float64, row-major;
* no implicit broadcasting -- shapes must match exactly, widening is done
  with explicit ``reshape`` and ``linear`` against a column of ones;
* non-finite values are rejected at tensor creation, and after every op
  when debug mode is on (``set_debug_finite``);
* gradients accumulate across ``backward`` calls until cleared, so two
  backward passes yield exactly twice one pass.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, NamedTuple, Optional, Sequence

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
    "linear",
    "reshape",
    "concat",
    "gather_rows",
    "mean_rows",
    "row_sums",
    "sum_all",
    "sigmoid",
    "tanh",
    "relu",
    "softmax",
    "log_prob",
    "layer_norm",
    "MASK_LOGIT",
    "attention",
    "aoa",
    "lstm_gates",
    "lstm_memory",
    "lstm_hidden",
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

    def _accumulate_grad(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` to the grad slot; an ``owned`` array is kept, not copied."""
        if self.grad is None:
            self.grad = g if owned else g.copy()
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

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self, "tape stack corrupted"
        return False

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` of every requires_grad tensor reachable from ``loss``.

        ``loss`` must be a scalar produced on this tape. Non-finite loss is
        rejected here even when debug mode is off.
        """
        if loss.data.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {tuple(loss.data.shape)}")
        if not any(out is loss for out, _, _ in reversed(self._records)):
            raise ValueError("loss was not produced on this tape")
        if not np.isfinite(loss.data).all():
            raise FloatingPointError("non-finite loss")

        # tensors hash by identity, and the records keep every key alive
        flow: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}  # dense parts
        owned: set[Tensor] = {loss}  # tensors whose dense part the tape allocated
        factors: dict[Tensor, list] = {}  # tensors -> their _Outer and _Scatter parts
        for out, inputs, backward_fn in reversed(self._records):
            if out in factors:
                _settle(flow, owned, factors, out)
            g = flow.pop(out, None)
            if g is None:
                continue  # not on a path from the loss
            out._accumulate_grad(g, out in owned)
            for t, gi in zip(inputs, backward_fn(g)):
                if gi is None or not t.requires_grad:
                    continue
                if type(gi) in _FACTORED:
                    factors.setdefault(t, []).append(gi)
                elif t not in flow:
                    flow[t] = gi
                elif t in owned:
                    flow[t] += gi
                else:
                    flow[t] = flow[t] + gi
                    owned.add(t)
        # whatever is left never appeared as an op output: the leaves
        for t in list(factors):
            _settle(flow, owned, factors, t)
        for t, g in flow.items():
            t._accumulate_grad(g, t in owned)


class _Outer(NamedTuple):
    """A weight gradient left as its factors: the product g.T @ x."""

    g: np.ndarray
    x: np.ndarray


class _Scatter(NamedTuple):
    """A table gradient left as its factors: ``rows`` added at ``indices`` of zeros."""

    indices: np.ndarray
    rows: np.ndarray


_FACTORED = (_Outer, _Scatter)


def _settle(flow: dict, owned: set, factors: dict, t: Tensor) -> None:
    """Fold a tensor's factored parts into its dense gradient, one product
    and one scatter for all of them."""
    parts = factors.pop(t)
    outer = [p for p in parts if type(p) is _Outer]
    scatter = [p for p in parts if type(p) is _Scatter]
    dense = flow.get(t)
    if outer:
        prod = np.concatenate([p.g for p in outer]).T @ np.concatenate([p.x for p in outer])
        if dense is not None:
            prod += dense
        dense = prod
    elif dense is None:
        dense = np.zeros(t.data.shape)
    elif t not in owned:
        dense = dense.copy()
    if scatter:
        np.add.at(dense, np.concatenate([p.indices for p in scatter]),
                  np.concatenate([p.rows for p in scatter]))
    flow[t] = dense
    owned.add(t)


def _emit(data: np.ndarray, inputs: tuple, backward_fn) -> Tensor:
    """Create an op output, recording it when a tape is active."""
    tape = _active_tape()
    track = False
    if tape is not None:
        for t in inputs:
            if t.requires_grad:
                track = True
                break
    if _DEBUG_FINITE and not np.isfinite(data).all():
        raise FloatingPointError("non-finite op output")
    out = Tensor._wrap(data, track)
    if track:
        tape._records.append((out, inputs, backward_fn))
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


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x W^T, plus b on every row: (n, k) and (m, k) -> (n, m).

    W is read through a transposed view, so no weight is copied. A
    constant x (say, the encoder's feature rows) gets no ``g @ W``.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise DimensionError(f"linear mismatch: {tuple(xd.shape)} @ {tuple(wd.shape)}^T")
    y = xd @ wd.T
    if b is None:
        return _emit(y, (x, w), lambda g: (g @ wd if x.requires_grad else None, _Outer(g, xd)))
    if b.data.shape != (wd.shape[0],):
        raise DimensionError(f"linear bias {tuple(b.data.shape)} does not match {wd.shape[0]} outputs")
    y += b.data
    return _emit(y, (x, w, b),
                 lambda g: (g @ wd if x.requires_grad else None, _Outer(g, xd), g.sum(axis=0)))


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
    data = np.concatenate([t.data for t in tensors], axis=axis)
    blocks, start = [], 0
    for t in tensors:
        stop = start + t.data.shape[axis]
        blocks.append((slice(None),) * axis + (slice(start, stop),))
        start = stop

    def backward_fn(g):
        return tuple(g[block] for block in blocks)

    return _emit(data, tensors, backward_fn)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Select rows of a matrix by integer index (rows may repeat).

    A sequence of indices gives a matrix of rows, a single index the row
    itself as a vector.
    """
    if table.data.ndim != 2:
        raise DimensionError(f"gather_rows expects a matrix, got shape {tuple(table.data.shape)}")
    indices = np.asarray(indices, dtype=np.int64)
    idx = indices.reshape(-1)
    if idx.size == 0:
        raise DimensionError("gather_rows with no indices")
    if idx.min() < 0 or idx.max() >= table.data.shape[0]:
        raise IndexError(f"gather_rows index out of range [0, {table.data.shape[0]})")
    rows = table.data[idx[0]].copy() if indices.ndim == 0 else table.data[idx]
    shape = (idx.size, table.data.shape[1])
    return _emit(rows, (table,), lambda g: (_Scatter(idx, g.reshape(shape)),))


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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, split by sign so that exp never overflows:
    1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    return _emit(y, (a,), lambda g: (g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _emit(y, (a,), lambda g: (g * (1.0 - y * y),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _emit(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Exponential normalizer along ``axis``, max-subtracted for stability.

    Each slice along the axis sums to 1 within 1e-12.
    """
    x = a.data
    ax = axis if axis >= 0 else x.ndim + axis
    if x.ndim == 0 or not (0 <= ax < x.ndim):
        raise DimensionError(f"softmax axis {axis} invalid for shape {tuple(x.shape)}")
    y = _softmax(x, ax)
    return _emit(y, (a,), lambda g: (_softmax_grad(y, g, ax),))


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


def log_prob(logits: Tensor, target) -> Tensor:
    """log softmax(logits)[target] of a logit vector, as a scalar; of a
    logit matrix and one target per row, the vector of each row's value.

    Computed as logit[target] - logsumexp(logits), max-shifted, so it stays
    finite where the target's probability underflows to 0. The gradient is
    g * (onehot(target) - softmax(logits)), row by row.
    """
    x = logits.data
    target = np.asarray(target, dtype=np.int64)
    if not (x.ndim == 1 and target.ndim == 0 or x.ndim == 2 and target.shape == x.shape[:1]):
        raise DimensionError(
            f"log_prob expects a logit vector and one target, or a matrix and one target "
            f"per row; got shape {tuple(x.shape)} and {target.size} target(s)"
        )
    if target.min() < 0 or target.max() >= x.shape[-1]:
        raise IndexError(f"log_prob target out of range [0, {x.shape[-1]})")
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    at = (np.arange(x.shape[0]), target) if x.ndim == 2 else target

    def backward_fn(g):
        d = -(e / total)
        d[at] += 1.0
        return (d * g[..., None],)

    return _emit(np.asarray(shifted[at] - np.log(total[..., 0])), (logits,), backward_fn)


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
# fused blocks: one op each, a block's worth of numpy work per record

MASK_LOGIT = -1e9  # exp of a masked logit underflows to exactly 0.0 after max-subtraction


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask=None) -> Tensor:
    """Scaled dot-product attention of every head, side by side.

    Head i reads column block i of q, k and v and writes
    softmax(q_i k_i^T / sqrt(d / heads)) v_i, softmax over keys, into
    column block i of the output. Keys whose ``mask`` entry is False get
    MASK_LOGIT on their logits, so their weight is exactly 0.0.
    """
    qd, kd, vd = q.data, k.data, v.data
    if qd.ndim != 2 or kd.ndim != 2 or vd.ndim != 2:
        raise DimensionError("attention expects matrices")
    (n_k, d), dv = kd.shape, vd.shape[1]
    if qd.shape[1] != d or vd.shape[0] != n_k:
        raise DimensionError(f"attention mismatch: q {qd.shape}, k {kd.shape}, v {vd.shape}")
    if heads < 1 or d % heads or dv % heads:
        raise DimensionError(f"heads {heads} must divide widths {d} and {dv}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.shape != (n_k,):
            raise DimensionError(f"key mask length {mask.shape[0]} != number of keys {n_k}")
        if not mask.any():
            raise ValueError("attention with every key masked")
    dh, dvh = d // heads, dv // heads
    c = float(1.0 / np.sqrt(dh))
    bias = None if mask is None else np.where(mask, 0.0, MASK_LOGIT)
    out = np.empty((qd.shape[0], dv))
    saved = []  # per head: its column blocks, their contiguous copies, its weights
    for i in range(heads):
        cols, vcols = slice(i * dh, (i + 1) * dh), slice(i * dvh, (i + 1) * dvh)
        qh, kh, vh = (np.ascontiguousarray(a) for a in (qd[:, cols], kd[:, cols], vd[:, vcols]))
        logits = (qh @ kh.T) * c
        if bias is not None:
            logits += bias
        w = _softmax(logits, 1)
        out[:, vcols] = w @ vh
        saved.append((cols, vcols, qh, kh, vh, w))

    def backward_fn(g):
        dq, dk, dv = np.empty_like(qd), np.empty_like(kd), np.empty_like(vd)
        for cols, vcols, qh, kh, vh, w in saved:
            gh = np.ascontiguousarray(g[:, vcols])
            dlogits = _softmax_grad(w, gh @ vh.T, 1) * c
            dq[:, cols], dk[:, cols], dv[:, vcols] = dlogits @ kh, dlogits.T @ qh, w.T @ gh
        return dq, dk, dv

    return _emit(out, (q, k, v), backward_fn)


def aoa(q: Tensor, v: Tensor, w_qi: Tensor, w_vi: Tensor, b_i: Tensor,
        w_qg: Tensor, w_vg: Tensor, b_g: Tensor) -> Tensor:
    """Attention on attention, row by row: out = gate * info, where

    info = (q W_qi^T + b_i) + v W_vi^T
    gate = sigmoid((q W_qg^T + b_g) + v W_vg^T)
    """
    qd, vd = q.data, v.data
    m = b_i.data.size
    if qd.ndim != 2 or qd.shape != vd.shape or (m,) != b_i.data.shape or (m,) != b_g.data.shape or any(
        w.data.shape != (m, qd.shape[1]) for w in (w_qi, w_vi, w_qg, w_vg)
    ):
        raise DimensionError(f"aoa mismatch: q {qd.shape}, v {vd.shape}, weights ({m}, {qd.shape[-1]})")

    def pre(w_q, b, w_v):
        z = qd @ w_q.data.T
        z += b.data
        z += vd @ w_v.data.T
        return z

    info = pre(w_qi, b_i, w_vi)
    gate = _sigmoid(pre(w_qg, b_g, w_vg))

    def backward_fn(g):
        di = g * gate
        dg = (g * info) * gate * (1.0 - gate)
        return (dg @ w_vg.data, dg @ w_qg.data, di @ w_vi.data, di @ w_qi.data, _Outer(di, qd),
                _Outer(di, vd), di.sum(axis=0), _Outer(dg, qd), _Outer(dg, vd), dg.sum(axis=0))

    # v and q are listed twice: the tape adds their gate then their info
    # gradient, in the order of the unfused graph
    return _emit(gate * info, (v, q, v, q, w_qi, w_vi, b_i, w_qg, w_vg, b_g), backward_fn)


def lstm_gates(x: Tensor, h: Tensor, w_i: Tensor, w_f: Tensor, w_o: Tensor, w_c: Tensor,
               b_i: Tensor, b_f: Tensor, b_o: Tensor, b_c: Tensor) -> Tensor:
    """The activated LSTM gates as the rows [i; f; o; c~] of a (4, d) matrix.

    Gate z is sigmoid([x; h] W_z^T + b_z) for i, f and o, tanh for c~.
    """
    if x.data.ndim != 1 or h.data.ndim != 1:
        raise DimensionError(f"lstm_gates expects vectors, got {x.data.shape} and {h.data.shape}")
    row = np.concatenate([x.data, h.data]).reshape(1, -1)
    weights, biases = (w_i, w_f, w_o, w_c), (b_i, b_f, b_o, b_c)
    d = h.data.shape[0]
    if any(w.data.shape != (d, row.shape[1]) or b.data.shape != (d,) for w, b in zip(weights, biases)):
        raise DimensionError(f"lstm gate weights must map width {row.shape[1]} to {d}")
    y = np.concatenate([row @ w.data.T for w in weights])
    for z, b in enumerate(biases):
        y[z] += b.data
    y[:3] = _sigmoid(y[:3])
    y[3] = np.tanh(y[3])

    def backward_fn(g):
        dpre = np.concatenate([g[:3] * y[:3] * (1.0 - y[:3]), g[3:] * (1.0 - y[3:] * y[3:])])
        drow = sum(dpre[z:z + 1] @ weights[z].data for z in (3, 2, 1, 0))  # the unfused order
        split = x.data.shape[0]
        dws = tuple(_Outer(dpre[z:z + 1], row) for z in range(4))
        return (drow[0, :split], drow[0, split:]) + dws + tuple(dpre)

    return _emit(y, (x, h) + weights + biases, backward_fn)


def _check_gates(gates: Tensor, m: Tensor) -> None:
    if gates.data.ndim != 2 or gates.data.shape[0] != 4 or m.data.shape != gates.data.shape[1:]:
        raise DimensionError(f"LSTM gates {gates.data.shape} do not match memory {m.data.shape}")


def lstm_memory(gates: Tensor, m: Tensor) -> Tensor:
    """The LSTM memory update f * m + i * c~, from lstm_gates' rows."""
    _check_gates(gates, m)
    (i, f, _, c), md = gates.data, m.data

    def backward_fn(g):
        dgates = np.zeros_like(gates.data)
        dgates[0], dgates[1], dgates[3] = g * c, g * md, g * i
        return dgates, g * f

    return _emit(f * md + i * c, (gates, m), backward_fn)


def lstm_hidden(gates: Tensor, m: Tensor) -> Tensor:
    """The LSTM output o * tanh(m), from lstm_gates' rows and the new memory."""
    _check_gates(gates, m)
    o, t = gates.data[2], np.tanh(m.data)

    def backward_fn(g):
        dgates = np.zeros_like(gates.data)
        dgates[2] = g * t
        return dgates, (g * o) * (1.0 - t * t)

    return _emit(o * t, (gates, m), backward_fn)


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
