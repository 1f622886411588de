"""Reverse-mode automatic differentiation over dense 64-bit float arrays.

A small tape engine. Forward ops run eagerly on numpy arrays; when a
:class:`Tape` is active, every primitive op appends one record: the
tuple of its outputs (one for most ops, several for the cells), its
inputs, and its backward, which maps the outputs' flows to their whole
gradients and the inputs' gradients.
``Tape.backward`` walks the records once, in reverse execution order
(which is a topological order by construction), and accumulates
gradients into the ``grad`` slot of every tensor that requires them,
leaves and intermediates alike.

Weight and embedding gradients are settled once per backward rather than
once per use. An op hands the tape a weight's gradient as its factors:
the pair (g, x) of ``g.T @ x`` (``linear``, ``aoa``, the cells), or
the pair (indices, rows) of a scatter-add into a zero table
(``gather_rows``). The tape collects the pairs of each tensor and settles
them as one ``concat(g).T @ concat(x)`` product and one ``np.add.at``:
a leaf at the end of the pass, an op output just before that op's own
backward. A weight used at every step of a caption thus costs one GEMM
over all steps instead of one outer product per step. Dense gradients
are summed in place, but only into buffers the tape allocated itself,
since an op may hand one array to several inputs.

Whole blocks of the model are fused into single ops, each with a
hand-written backward that forms and adds gradients in the order of the
unfused graph: multi-head ``attention``, the ``aoa`` gate, the LSTM
transition ``lstm_cell`` -> (h, m), and ``decoder_cell`` -> (h, m, c),
the whole recurrence of a decoder step (its LSTM input, the LSTM, and
the query projections, attention and gates of both attention paths).
They share their array kernels: the stacked attention heads, the AoA
gate and the LSTM cell, each with its backward. Two ops run many rows
as if each ran alone, bit for bit: ``linear_each``, one ``linear`` per
row, which projects one vector as ``linear`` projects one row, and
``lstm_sequences``, the LSTM over a batch of token sequences, whose cell
kernel takes the rows still running at each step.

A free-running decode step is a chain of one-row products, each bound by
the memory traffic of its weights. Where one kernel call's weights total
at least 4 MiB (``_LANE_MIN_BYTES``), the process may run on 2 CPUs or
more, and BLAS is held to one thread by OPENBLAS_NUM_THREADS (else
OMP_NUM_THREADS) = 1, half of those products run on a second lane: one
worker thread, started at the first such call. ``linear_each`` of one row
splits W's rows in two at a multiple of 64 rows, the LSTM kernel runs
two gate products per lane, and the decoder context first the products
that read only h' (both paths' query projections and q-side AoA
products), then each path's v-side AoA pair. Every product stays the one
single-threaded BLAS call it is without the lane, written into its slice
of a preallocated output, so every value is bitwise the same. The worker
multiplies arrays only; it makes no Tensor and never touches the tape.

Design rules, enforced here rather than assumed:

* everything is float64, row-major;
* no implicit broadcasting -- shapes must match exactly, widening is done
  with explicit ``reshape`` and ``linear`` against a column of ones;
* non-finite values are rejected at tensor creation and in the loss
  that ``Tape.backward`` takes;
* gradients accumulate across ``backward`` calls until cleared, so two
  backward passes yield exactly twice one pass.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "DimensionError",
    "Tensor",
    "Tape",
    "no_grad",
    "constant",
    "parameter",
    "add",
    "sub",
    "mul",
    "scale",
    "linear",
    "linear_each",
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
    "KeyValues",
    "key_values",
    "lstm_cell",
    "lstm_sequences",
    "decoder_cell",
    "grad_check",
]


class DimensionError(ValueError):
    """Shape or dimensionality violation in a tensor operation."""


_TAPE_STACK: list["Tape"] = []


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
        self._records: list[tuple] = []  # (tuple of outs, inputs, backward_fn)

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

        ``loss`` must be a scalar output of an op on this tape, and
        finite. Each record settles its outputs' factored parts, then runs
        its backward once on all their flows, unless no flow reached any.
        """
        if loss.data.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {tuple(loss.data.shape)}")
        if not any(loss in outs for outs, _, _ in reversed(self._records)):
            raise ValueError("loss was not produced on this tape")
        if not np.isfinite(loss.data).all():
            raise FloatingPointError("non-finite loss")

        # tensors hash by identity, and the records keep every key alive
        flow: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}  # dense parts
        owned: set[Tensor] = {loss}  # tensors whose dense part the tape allocated
        factors: dict[Tensor, list] = {}  # tensors -> their _Outer and _Scatter parts
        for outs, inputs, backward_fn in reversed(self._records):
            for o in outs:
                if o in factors:
                    _settle(flow, owned, factors, o)
            if flow.keys().isdisjoint(outs):
                continue  # not on a path from the loss
            g = [flow.pop(o, None) for o in outs]
            whole, grads = backward_fn(g)
            for o, gi, flow_gi in zip(outs, whole, g):
                if gi is not None:  # a whole gradient that is not the flow is the op's own array
                    o._accumulate_grad(gi, gi is not flow_gi or o in owned)
            for t, gi in zip(inputs, grads):
                if gi is None or not t.requires_grad:
                    continue
                if type(gi) in _FACTORED:
                    parts = factors.get(t)
                    if parts is None:
                        factors[t] = [gi]
                    else:
                        parts.append(gi)
                    continue
                f = flow.get(t)
                if f is None:
                    flow[t] = gi
                elif t in owned:
                    f += gi
                else:
                    flow[t] = f + gi
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
        if len(outer) == 1 and outer[0].g.flags.c_contiguous and outer[0].x.flags.c_contiguous:
            prod = outer[0].g.T @ outer[0].x  # laid out as the concatenations would copy them
        else:
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
    """Create a one-output op's output, recorded through ``_emit_many``.

    ``backward_fn`` takes the output's flow and returns the inputs'
    gradients; the output's whole gradient is its flow.
    """
    return _emit_many((data,), inputs, lambda g: (g, backward_fn(g[0])))[0]


def _emit_many(datas: tuple, inputs: tuple, backward_fn) -> tuple:
    """Create an op's outputs, recorded as one record when a tape is
    active and an input requires gradient.

    Its backward takes a list of the outputs' flows, None where no flow
    reached one, and returns (the outputs' whole gradients, the inputs'
    gradients). An output the op itself reads, such as the LSTM's new
    memory read by its new hidden state, has a whole gradient of its flow
    plus the op's own term: an array the op made and hands to no input,
    which the output's grad slot keeps uncopied.
    """
    tape = _active_tape()
    if tape is not None:
        for t in inputs:
            if t.requires_grad:
                outs = tuple([Tensor._wrap(d, True) for d in datas])
                tape._records.append((outs, inputs, backward_fn))
                return outs
    return tuple([Tensor._wrap(d, False) for d in datas])


# ---------------------------------------------------------------------------
# the second lane: one worker thread for the one-row products of a step

_LANE_MIN_BYTES = 4 << 20  # the weights one kernel call must read to split its one-row products
_lane_lock = threading.Lock()
_lane = None  # None until first needed, then the worker, or False where the lane rule refuses one


def _forget_lane() -> None:
    global _lane
    _lane = None  # a forked child has no worker thread; it decides and starts its own


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_lane)


def _lanes_pay(environ, cpus: int) -> bool:
    """Whether one-row products gain from a second lane: the process may
    run on 2 CPUs or more, and BLAS is held to one thread by its own
    variable (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS). Threaded BLAS
    already streams a large product on both cores, and competes with the lane."""
    threads = environ.get("OPENBLAS_NUM_THREADS", environ.get("OMP_NUM_THREADS"))
    return cpus >= 2 and threads is not None and threads.strip() == "1"


def _second_lane():
    """The executor of the second lane, started at the first call that needs
    it where ``_lanes_pay`` allows one; else None."""
    global _lane
    with _lane_lock:
        if _lane is None:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
            if _lanes_pay(os.environ, cpus):
                from concurrent.futures import ThreadPoolExecutor

                _lane = ThreadPoolExecutor(1, thread_name_prefix="sgcap-lane")
            else:
                _lane = False
    return _lane or None


def _products(batch) -> None:
    for a, w, out in batch:
        np.matmul(a, w.T, out=out)


def _two_lanes(lane, first: list, second: list) -> None:
    """out = a @ w^T for each (a, w, out), those of ``first`` on the worker
    and those of ``second`` here, all done on return. Each is the one BLAS
    call, on one thread, that ``a @ w.T`` makes, so its values are those
    bit for bit. The worker touches arrays only, never a Tensor or a tape."""
    job = lane.submit(_products, first)
    try:
        _products(second)
    finally:
        job.result()


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


def linear_each(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """``linear`` of each row of x on its own, as one op: (..., k) and
    (m, k) -> (..., m), the values and gradients of one ``linear`` per
    row, the rows recorded in order. A vector (k,) is one row, so its
    (m,) projection is that of ``linear`` on x as a (1, k) row.

    Each row's products are its own (``_each_row``). One row of a large
    weight is projected in two blocks of W's rows, split at a multiple of
    64 rows, one on each lane (``_two_lanes``). The weight's factor
    pair lists the rows last to first, and the bias adds their parts in
    that order, as the tape settles and adds the parts of the per-row ops.
    """
    xd, wd = x.data, w.data
    if xd.ndim < 1 or wd.ndim != 2 or xd.shape[-1] != wd.shape[1]:
        raise DimensionError(f"linear mismatch: {tuple(xd.shape)} @ {tuple(wd.shape)}^T")
    if b is not None and b.data.shape != (wd.shape[0],):
        raise DimensionError(f"linear bias {tuple(b.data.shape)} does not match {wd.shape[0]} outputs")
    rows = xd.reshape(-1, wd.shape[1])
    if wd.nbytes >= _LANE_MIN_BYTES and rows.shape[0] == 1 and (lane := _second_lane()):
        y, split = np.empty((1, wd.shape[0])), wd.shape[0] // 128 * 64
        _two_lanes(lane, [(rows, wd[:split], y[:, :split])], [(rows, wd[split:], y[:, split:])])
        y = y.reshape(*xd.shape[:-1], wd.shape[0])
    else:
        y = (_each_row(rows) @ wd.T).reshape(*xd.shape[:-1], wd.shape[0])

    def backward_fn(g):
        g = g.reshape(-1, wd.shape[0])
        last_first = g[::-1]
        dx = (_each_row(g) @ wd).reshape(xd.shape) if x.requires_grad else None
        parts = (dx, _Outer(last_first.copy(), rows[::-1].copy()))
        if b is None:
            return parts
        # each row's part is its own sum over one row, which turns -0.0 into 0.0, as + 0.0 does here
        return parts + (np.add.accumulate(last_first, axis=0)[-1] + 0.0,)

    if b is None:
        return _emit(y, (x, w), backward_fn)
    y += b.data
    return _emit(y, (x, w, b), backward_fn)


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
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


# The kernels below reduce with np.maximum.reduce and np.add.reduce, the
# ufuncs behind ndarray.max and ndarray.sum, without their Python wrappers.

def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    e = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def _softmax_grad(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    return y * (g - np.add.reduce(g * y, axis=axis, keepdims=True))


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


def _key_bias(qd: np.ndarray, kd: np.ndarray, vd: np.ndarray, heads: int, mask):
    """Check attention's operands; return the key mask's logit bias, or None."""
    if qd.ndim != 2 or kd.ndim != 2 or vd.ndim != 2:
        raise DimensionError("attention expects matrices")
    (n_k, d), dv = kd.shape, vd.shape[1]
    if qd.shape[1] != d or vd.shape[0] != n_k:
        raise DimensionError(f"attention mismatch: q {qd.shape}, k {kd.shape}, v {vd.shape}")
    if heads < 1 or d % heads or dv % heads:
        raise DimensionError(f"heads {heads} must divide widths {d} and {dv}")
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    if mask.shape != (n_k,):
        raise DimensionError(f"key mask length {mask.shape[0]} != number of keys {n_k}")
    if not mask.any():
        raise ValueError("attention with every key masked")
    return np.where(mask, 0.0, MASK_LOGIT)


def _split_heads(a: np.ndarray, heads: int) -> np.ndarray:
    """(n, heads * w) -> (heads, n, w), column block i as slice i, contiguous."""
    n, width = a.shape
    if n == 1 and a.flags.c_contiguous:
        return a.reshape(heads, 1, width // heads)  # one row is already in head order
    return np.ascontiguousarray(a.reshape(n, heads, width // heads).transpose(1, 0, 2))


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(heads, n, w) -> (n, heads * w), the inverse of _split_heads."""
    heads, n, width = a.shape
    if n == 1 and a.flags.c_contiguous:
        return a.reshape(1, heads * width)
    return a.transpose(1, 0, 2).reshape(n, heads * width)


def _mha_fwd(qd: np.ndarray, kd: np.ndarray, vd: np.ndarray, heads: int, bias):
    """Every head's attention as one stacked product; returns the output
    and what _mha_bwd needs.

    Each head's 2-D slice goes to the BLAS call a product of that head's
    own column blocks would make, so the values equal a per-head loop's
    bit for bit.
    """
    return _heads_fwd(*(_split_heads(a, heads) for a in (qd, kd, vd)), bias)


def _heads_fwd(q: np.ndarray, k: np.ndarray, v: np.ndarray, bias):
    """_mha_fwd on operands already split into (heads, n, d / heads)."""
    c = 1.0 / math.sqrt(q.shape[2])
    logits = (q @ k.transpose(0, 2, 1)) * c
    if bias is not None:
        logits += bias
    w = _softmax(logits, 2)
    return _merge_heads(w @ v), (q, k, v, w, c)


def _mha_bwd(g: np.ndarray, saved) -> tuple:
    """The gradients of attention's q, k and v."""
    return tuple(_merge_heads(d) for d in _heads_bwd(_split_heads(g, saved[0].shape[0]), saved))


def _heads_bwd(g: np.ndarray, saved) -> tuple:
    """_mha_bwd on a gradient split by head; returns q's, k's and v's split alike."""
    q, k, v, w, c = saved
    dlogits = _softmax_grad(w, g @ v.transpose(0, 2, 1), 2) * c
    return dlogits @ k, dlogits.transpose(0, 2, 1) @ q, w.transpose(0, 2, 1) @ g


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask=None) -> Tensor:
    """Scaled dot-product attention of every head, side by side.

    Head i reads column block i of q, k and v and writes
    softmax(q_i k_i^T / sqrt(d / heads)) v_i, softmax over keys, into
    column block i of the output. Keys whose ``mask`` entry is False get
    MASK_LOGIT on their logits, so their weight is exactly 0.0.
    """
    bias = _key_bias(q.data, k.data, v.data, heads, mask)
    out, saved = _mha_fwd(q.data, k.data, v.data, heads, bias)
    return _emit(out, (q, k, v), lambda g: _mha_bwd(g, saved))


def _check_aoa(qd: np.ndarray, vd: np.ndarray, gate: Sequence[Tensor]) -> None:
    _check_aoa_shapes(qd.shape, vd.shape, gate)


def _check_aoa_shapes(q: tuple, v: tuple, gate: Sequence[Tensor]) -> None:
    m = gate[2].data.size
    w, b = (m, q[-1]), (m,)
    if len(q) != 2 or q != v or [t.data.shape for t in gate] != [w, w, b, w, w, b]:
        raise DimensionError(f"aoa mismatch: q {q}, v {v}, weights ({m}, {q[-1]})")


def _aoa_pre(qd: np.ndarray, vd: np.ndarray, w_q: Tensor, b: Tensor, w_v: Tensor) -> np.ndarray:
    """(q W_q^T + b) + v W_v^T: aoa's info, or its gate before the sigmoid."""
    z = qd @ w_q.data.T
    z += b.data
    z += vd @ w_v.data.T
    return z


def _aoa_fwd(qd: np.ndarray, vd: np.ndarray, gate: Sequence[Tensor]):
    """aoa's output gate * info, then info and gate themselves."""
    w_qi, w_vi, b_i, w_qg, w_vg, b_g = gate
    info = _aoa_pre(qd, vd, w_qi, b_i, w_vi)
    sig = _sigmoid(_aoa_pre(qd, vd, w_qg, b_g, w_vg))
    return sig * info, info, sig


def _aoa_dpre(g: np.ndarray, info: np.ndarray, sig: np.ndarray) -> tuple:
    """The gradients of aoa's info and of its gate before the sigmoid."""
    return g * sig, (g * info) * sig * (1.0 - sig)


def _aoa_parts(di: np.ndarray, dg: np.ndarray, qd: np.ndarray, vd: np.ndarray, gate: Sequence[Tensor]) -> tuple:
    """The gradients of aoa's inputs (v, q, v, q, w_qi, w_vi, b_i, w_qg, w_vg, b_g)
    from those of its info and pre-sigmoid gate: v's and q's gate part
    before their info part, as the unfused graph adds them."""
    w_qi, w_vi, _, w_qg, w_vg, _ = gate
    return (dg @ w_vg.data, dg @ w_qg.data, di @ w_vi.data, di @ w_qi.data, _Outer(di, qd),
            _Outer(di, vd), np.add.reduce(di, axis=0), _Outer(dg, qd), _Outer(dg, vd), np.add.reduce(dg, axis=0))


def _aoa_bwd(g: np.ndarray, qd: np.ndarray, vd: np.ndarray, gate: Sequence[Tensor], info, sig) -> tuple:
    """The gradients of aoa's inputs, as _aoa_parts lists them."""
    return _aoa_parts(*_aoa_dpre(g, info, sig), qd, vd, gate)


def aoa(q: Tensor, v: Tensor, w_qi: Tensor, w_vi: Tensor, b_i: Tensor,
        w_qg: Tensor, w_vg: Tensor, b_g: Tensor) -> Tensor:
    """Attention on attention, row by row: out = gate * info, where

    info = (q W_qi^T + b_i) + v W_vi^T
    gate = sigmoid((q W_qg^T + b_g) + v W_vg^T)
    """
    qd, vd, gate = q.data, v.data, (w_qi, w_vi, b_i, w_qg, w_vg, b_g)
    _check_aoa(qd, vd, gate)
    out, info, sig = _aoa_fwd(qd, vd, gate)
    # v and q are listed twice: the tape adds their gate then their info
    # gradient, in the order of the unfused graph
    return _emit(out, (v, q, v, q) + gate, lambda g: _aoa_bwd(g, qd, vd, gate, info, sig))


class KeyValues(NamedTuple):
    """Keys and values that every step of a caption attends to.

    ``key_values`` checks them once and splits each by head,
    (heads, n, d / heads), as one tape op, with the key mask kept as its
    logit bias: a step neither re-splits nor re-checks them, and their
    gradients are merged back once per backward, not once per step.
    """

    k: Tensor
    v: Tensor
    heads: int
    k_heads: Tensor
    v_heads: Tensor
    bias: Optional[np.ndarray]


def key_values(k: Tensor, v: Tensor, heads: int, mask=None) -> KeyValues:
    """Keys and values for many queries; keys whose ``mask`` entry is
    False get MASK_LOGIT, as in ``attention``."""
    kd, vd = k.data, v.data
    bias = _key_bias(kd, kd, vd, heads, mask)  # the keys stand in for the queries: a step checks those

    def backward_fn(g):
        return g, tuple(None if gi is None else _merge_heads(gi) for gi in g)

    k_heads, v_heads = _emit_many((_split_heads(kd, heads), _split_heads(vd, heads)), (k, v), backward_fn)
    return KeyValues(k, v, heads, k_heads, v_heads, bias)


def _context_fwd(qd: np.ndarray, paths: Sequence[tuple]):
    """The context vector of the row qd over each path (w_q, kv, gate):

    out = aoa(qd, attention(qd W_q^T, kv, ...), *gate)

    with the paths' outputs side by side in one vector, and what
    _context_bwd needs. A path whose kv is None attends to nothing: its
    gate runs on a zero row. The paths' gates take their sigmoid and
    product together, as rows of one matrix. Every path is checked before
    any product runs; large weights take the second lane
    (``_context_lanes``).
    """
    nbytes = 0
    for w_q, kv, gate in paths:
        v_shape = qd.shape
        if kv is not None:
            if w_q.data.shape != (kv.k.data.shape[1], qd.shape[1]):
                raise DimensionError(f"query projection {tuple(w_q.data.shape)} does not map width "
                                     f"{qd.shape[1]} to the key width {tuple(kv.k.data.shape)}")
            v_shape = (qd.shape[0], kv.v.data.shape[1])
            nbytes += w_q.data.nbytes
        _check_aoa_shapes(qd.shape, v_shape, gate)
        nbytes += 4 * gate[0].data.nbytes
    if nbytes >= _LANE_MIN_BYTES and (lane := _second_lane()):
        pre, saved = _context_lanes(lane, qd, paths)
    else:
        saved, pre = [], []
        for w_q, kv, gate in paths:
            if kv is None:
                vd, att = np.zeros(qd.shape), None
            else:
                vd, att = _heads_fwd(_split_heads(qd @ w_q.data.T, kv.heads), kv.k_heads.data, kv.v_heads.data,
                                     kv.bias)
            w_qi, w_vi, b_i, w_qg, w_vg, b_g = gate
            pre += (_aoa_pre(qd, vd, w_qi, b_i, w_vi), _aoa_pre(qd, vd, w_qg, b_g, w_vg))
            saved.append((w_q, vd, att, gate))
        pre = np.concatenate(pre)  # rows: each path's info, then its gate
    info, sig = pre[0::2], _sigmoid(pre[1::2])
    return (sig * info).reshape(-1), (saved, info, sig)


def _context_lanes(lane, qd: np.ndarray, paths: Sequence[tuple]) -> tuple:
    """_context_fwd's pre-activation rows and saved paths, its products on
    two lanes: first every product that reads only qd (the query
    projections and the q-side AoA products), then, after each path's
    attention, its two v-side AoA products. Each pre-activation is formed
    as _aoa_pre forms it, (q W_q^T + b) + v W_v^T."""
    n, queries, pre, qside = qd.shape[0], [], [], []
    for w_q, kv, gate in paths:
        w_qi, _, _, w_qg, _, _ = gate
        z_info, z_gate = np.empty((n, w_qi.data.shape[0])), np.empty((n, w_qg.data.shape[0]))
        query = None if kv is None else np.empty((n, w_q.data.shape[0]))
        qside += [(qd, w_qi.data, z_info), (qd, w_qg.data, z_gate)] + ([] if kv is None else [(qd, w_q.data, query)])
        queries.append(query)
        pre += (z_info, z_gate)
    _two_lanes(lane, qside[0::2], qside[1::2])
    saved = []
    for (w_q, kv, gate), query, z_info, z_gate in zip(paths, queries, pre[0::2], pre[1::2]):
        _, w_vi, b_i, _, w_vg, b_g = gate
        if kv is None:
            vd, att = np.zeros(qd.shape), None
        else:
            vd, att = _heads_fwd(_split_heads(query, kv.heads), kv.k_heads.data, kv.v_heads.data, kv.bias)
        z_info += b_i.data
        z_gate += b_g.data
        v_info, v_gate = np.empty(z_info.shape), np.empty(z_gate.shape)
        _two_lanes(lane, [(vd, w_vi.data, v_info)], [(vd, w_vg.data, v_gate)])
        z_info += v_info
        z_gate += v_gate
        saved.append((w_q, vd, att, gate))
    return np.concatenate(pre), saved


def _context_inputs(paths: Sequence[tuple]) -> list:
    """The tensors _context_bwd's gradients are for: each path's w_q and
    split k and v when it attends, then its gate's six weights."""
    inputs = []
    for w_q, kv, gate in paths:
        if kv is not None:
            inputs += (w_q, kv.k_heads, kv.v_heads)
        inputs += gate
    return inputs


def _context_bwd(g: np.ndarray, qd: np.ndarray, saved) -> tuple:
    """The gradients of _context_fwd's row, and of _context_inputs.

    The row's is one running sum over the paths, last path first, of each
    path's gate, info and query projection terms: the order in which the
    unfused graph adds them. Each weight gets one factor pair, each bias
    and each split k and v one dense part.
    """
    saved, info, sig = saved
    di, dg = _aoa_dpre(g.reshape(info.shape), info, sig)
    grads, gq = [], None
    for p in reversed(range(len(saved))):
        w_q, vd, att, gate = saved[p]
        dv_gate, dq_gate, dv_info, dq_info, *dgate = _aoa_parts(di[p:p + 1], dg[p:p + 1], qd, vd, gate)
        terms, part = [dq_gate, dq_info], []
        if att is not None:
            dqp, dk, dv = _heads_bwd(_split_heads(dv_gate + dv_info, att[0].shape[0]), att)
            dqp = _merge_heads(dqp)
            terms.append(dqp @ w_q.data)
            part = [_Outer(dqp, qd), dk, dv]
        for t in terms:
            if gq is None:
                gq = t  # a fresh product, safe to add into
            else:
                gq += t
        grads = part + dgate + grads
    return gq.reshape(-1), grads


def _each_row(a: np.ndarray) -> np.ndarray:
    """The rows of a (..., b, n) as matmul's left operand for one one-row
    product per row: stacked (..., b, 1, n), which numpy runs as the BLAS
    call a row alone gets (one general product over all rows differs in
    the last bits), or a itself when b is 1."""
    return a if a.shape[-2] == 1 else a[..., None, :]


def _lstm_fwd(rows: np.ndarray, md: np.ndarray, cell: Sequence[Tensor]):
    """The LSTM cell on each row [x; h] of ``rows`` (b, width) and its
    memory: the rows of ``md`` (b, d), or for one row a vector (d,), with
    ``cell`` the weights (w_i, w_f, w_o, w_c, b_i, b_f, b_o, b_c):

    gate z = sigmoid([x; h] W_z^T + b_z) for i, f and o, tanh for c~
    m' = f * m + i * c~          h' = o * tanh(m')

    Each row's products are its own (``_each_row``), so no row's values
    depend on the others'. One row of large weights runs the products of
    i and f on the second lane and those of o and c~ here (``_two_lanes``).
    Returns h' and m', shaped as md, and what _lstm_bwd needs.
    """
    (b, width), d = rows.shape, md.shape[-1]
    if md.shape != ((d,) if md.ndim == 1 and b == 1 else (b, d)) or \
            [t.data.shape for t in cell] != [(d, width)] * 4 + [(d,)] * 4:
        raise DimensionError(f"lstm weights must map width {width} to the memory's {md.shape}")
    if 4 * cell[0].data.nbytes >= _LANE_MIN_BYTES and b == 1 and (lane := _second_lane()):
        y = np.empty((4, 1, d))
        _two_lanes(lane, [(rows, cell[z].data, y[z]) for z in (0, 1)], [(rows, cell[z].data, y[z]) for z in (2, 3)])
        y = y.reshape((4,) + md.shape)
    else:
        each = _each_row(rows)
        y = np.concatenate([each @ w.data.T for w in cell[:4]]).reshape((4,) + md.shape)  # the gates [i; f; o; c~]
    y += np.concatenate([bias.data for bias in cell[4:]]).reshape((4,) + (1,) * (md.ndim - 1) + (d,))
    y[:3] = _sigmoid(y[:3])
    np.tanh(y[3], out=y[3])
    i, f, o, c = y
    m_new = f * md + i * c
    t = np.tanh(m_new)
    return o * t, m_new, (rows, md, y, t)


def _lstm_bwd(gh, gm, cell: Sequence[Tensor], saved) -> tuple:
    """The LSTM cell's gradients from those of h' and m' (None where no
    flow reached one): m''s whole gradient (its flow, then h''s term), the
    rows' (shaped as the memory, to the rows' width), the memory's, and
    the gates' pre-activations' (4, *md.shape), which give the weights'
    factor pairs and the biases' parts. Each term is formed as the
    unfused gate, memory and hidden-state ops form it, and added in their
    order.
    """
    _, md, y, t = saved
    i, f, o, c = y
    dpre = np.zeros(y.shape)  # the gates' gradient, then in place their pre-activations'
    if gh is not None:
        np.multiply(gh, t, out=dpre[2])
        dm = (gh * o) * (1.0 - t * t)
        gm = dm if gm is None else gm + dm
    np.multiply(gm, c, out=dpre[0])
    np.multiply(gm, md, out=dpre[1])
    np.multiply(gm, i, out=dpre[3])
    if gh is not None:
        dpre += 0.0  # the unfused sum of two zero-padded parts, which turns -0.0 into 0.0
    dpre[:3] *= y[:3]
    dpre[:3] *= 1.0 - y[:3]
    dpre[3] *= 1.0 - y[3] * y[3]
    each = _each_row(dpre.reshape(4, -1, md.shape[-1]))
    drow = sum(each[z] @ cell[z].data for z in (3, 2, 1, 0))  # the unfused order
    return gm, drow.reshape(md.shape[:-1] + (-1,)), gm * f, dpre


def _lstm_row_parts(dpre: np.ndarray, row: np.ndarray) -> tuple:
    """One row's weight factor pairs and bias gradients, from _lstm_bwd."""
    return tuple(_Outer(dpre[z:z + 1], row) for z in range(4)) + tuple(dpre)


def lstm_cell(x: Tensor, h: Tensor, m: Tensor, cell: Sequence[Tensor]) -> tuple[Tensor, Tensor]:
    """One LSTM transition as one op with two outputs, (h', m'): see
    _lstm_fwd. ``cell`` is (w_i, w_f, w_o, w_c, b_i, b_f, b_o, b_c)."""
    xd, hd, md = x.data, h.data, m.data
    if xd.ndim != 1 or hd.shape != md.shape:
        raise DimensionError(f"lstm_cell expects vectors and h, m alike, got {xd.shape}, {hd.shape}, {md.shape}")
    h_new, m_new, saved = _lstm_fwd(np.concatenate([xd, hd]).reshape(1, -1), md, cell)
    split = xd.shape[0]

    def backward_fn(g):
        gh, gm = g
        gm, drow, dm, dpre = _lstm_bwd(gh, gm, cell, saved)
        return (gh, gm), (drow[:split], drow[split:], dm) + _lstm_row_parts(dpre, saved[0])

    return _emit_many((h_new, m_new), (x, h, m) + tuple(cell), backward_fn)


def lstm_sequences(table: Tensor, sequences: Sequence[Sequence[int]], cell: Sequence[Tensor]) -> Tensor:
    """The LSTM over each token sequence, from the zero state, as one op:
    row s of the output (len(sequences), d) is the last hidden state of
    sequence s, whose step t reads the row table[sequences[s][t]].
    ``cell`` is (w_i, w_f, w_o, w_c, b_i, b_f, b_o, b_c).

    All sequences advance together: step t runs one batched cell
    (``_lstm_fwd``) over the rows still running, and a finished row keeps
    its final state. Values and gradients equal those of ``gather_rows``
    and ``lstm_cell`` run token by token, one sequence after another:
    every row's products are its own, and the backward hands the table
    one scatter and each weight one factor pair whose rows are listed as
    that tape lists its parts (sequences last to first, each one's steps
    last to first), and sums each bias's parts in that order.
    """
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    if lengths.size == 0 or lengths.min() < 1:
        raise DimensionError("lstm_sequences needs at least one sequence, and a token in each")
    td = table.data
    if td.ndim != 2:
        raise DimensionError(f"lstm_sequences expects a table matrix, got shape {tuple(td.shape)}")
    order = np.argsort(-lengths, kind="stable")  # longest first: the rows still running are a prefix
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    tokens = np.zeros((lengths.max(), lengths.size), dtype=np.int64)  # [step, row]
    for r, seq in enumerate(order):
        tokens[:lengths[seq], r] = sequences[seq]
    if tokens.min() < 0 or tokens.max() >= td.shape[0]:
        raise IndexError(f"token outside a table of shape {tuple(td.shape)}")
    running = np.count_nonzero(lengths > np.arange(tokens.shape[0])[:, None], axis=1)  # rows at each step
    width, d = td.shape[1], cell[4].data.shape[0]
    rows = np.zeros(tokens.shape + (width + d,))  # each step's rows [x; h], h of the zero state at step 0
    rows[:, :, :width] = td[tokens]
    m, last, saved = np.zeros((lengths.size, d)), np.empty((lengths.size, d)), []
    for t, n in enumerate(running):
        h, m, cell_saved = _lstm_fwd(rows[t, :n], m[:n], cell)
        going = running[t + 1] if t + 1 < running.size else 0
        if going:
            rows[t + 1, :going, width:] = h[:going]
        last[going:n] = h[going:]  # the rows that end at this step
        saved.append(cell_saved)

    def backward_fn(g):
        g = g[order]
        gh = gm = None
        dpre, dx = [], []
        for t in reversed(range(running.size)):
            n, going = running[t], 0 if gh is None else gh.shape[0]
            if going < n:  # rows that end at this step: the output's flow, and none into m' (-0.0 + x is x)
                gh = g[going:n] if gh is None else np.concatenate([gh, g[going:n]])
                no_flow = np.full((n - going, d), -0.0)
                gm = no_flow if gm is None else np.concatenate([gm, no_flow])
            _, drow, gm, dpre_t = _lstm_bwd(gh, gm, cell, saved[t])
            gh = drow[:, width:]
            dpre.append(dpre_t)
            dx.append(drow[:, :width])
        # the (step, row) of each cell in the order of the per-token tape's
        # parts: sequences last to first, each one's steps last to first
        reverse = lengths[::-1]
        row = np.repeat(rank[::-1], reverse)
        step = np.repeat(np.cumsum(reverse), reverse) - 1 - np.arange(reverse.sum())
        at = (np.cumsum(running[::-1])[::-1] - running)[step] + row  # where in the lists above, last step first
        dpre = np.concatenate(dpre, axis=1)[:, at]
        x = rows[step, row]
        scatter = _Scatter(tokens[step, row], np.concatenate(dx)[at])
        return (scatter, *(_Outer(dpre[z], x) for z in range(4)), *np.add.accumulate(dpre, axis=1)[:, -1])

    return _emit(last[rank], (table, *cell), backward_fn)


def decoder_cell(a_bar: Tensor, c_prev: Tensor, table: Tensor, token: int, h: Tensor, m: Tensor,
                 cell: Sequence[Tensor], paths: Sequence[tuple]) -> tuple[Tensor, Tensor, Tensor]:
    """The recurrence of one decoder step as one op with three outputs,
    (h', m', c'):

    x = [table[token]; a_bar + c_prev]
    (h', m') = the LSTM transition of x, h and m (``lstm_cell``)
    c' = the context vector of h' over ``paths``

    Each path is (w_q, kv, gate): w_q projects h' to the query, kv is the
    path's ``KeyValues`` (None: the path attends to nothing, and its gate
    runs on a zero row), gate is ``aoa``'s six weights; the path's output
    is aoa(h', attention(h' W_q^T, kv), *gate). Every gradient is formed
    and added as the unfused ops (add, gather_rows, concat, the LSTM
    cell, the context) form and add it: h''s whole gradient is its flow,
    then the context's term; m''s its flow, then h''s term.
    """
    ad, cd, hd = a_bar.data, c_prev.data, h.data
    if ad.ndim != 1 or cd.shape != ad.shape or hd.ndim != 1 or m.data.shape != hd.shape:
        raise DimensionError(f"decoder_cell expects vectors, got a_bar {ad.shape}, c_prev {cd.shape}, "
                             f"h {hd.shape} and m {m.data.shape}")
    if table.data.ndim != 2 or not 0 <= token < table.data.shape[0]:
        raise IndexError(f"token {token} outside a table of shape {tuple(table.data.shape)}")
    e = table.data[token]
    width, split = e.shape[0], e.shape[0] + ad.shape[0]
    h_new, m_new, lstm_saved = _lstm_fwd(np.concatenate([e, ad + cd, hd]).reshape(1, -1), m.data, cell)
    qd = h_new.reshape(1, -1)
    c_new, context_saved = _context_fwd(qd, paths)
    indices = np.array([token], dtype=np.int64)

    def backward_fn(g):
        gh, gm, gc = g
        dcontext = []  # with no flow into c', zip gives the paths' inputs nothing
        if gc is not None:
            dh, dcontext = _context_bwd(gc, qd, context_saved)
            gh = dh if gh is None else gh + dh
        gm, drow, dm, dpre = _lstm_bwd(gh, gm, cell, lstm_saved)
        du = drow[width:split]
        return (gh, gm, gc), (du, du, _Scatter(indices, drow[:width].reshape(1, width)), drow[split:], dm,
                              *_lstm_row_parts(dpre, lstm_saved[0]), *dcontext)

    inputs = (a_bar, c_prev, table, h, m, *cell, *_context_inputs(paths))
    return _emit_many((h_new, m_new, c_new), inputs, backward_fn)


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
