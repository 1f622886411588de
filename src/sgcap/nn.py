"""Neural network building blocks on top of the tape engine.

Plain parameter containers plus forward functions. Initialization is
Xavier-uniform (limit sqrt(6 / (fan_in + fan_out))) for weight matrices,
zero for biases, except the LSTM forget-gate bias which starts at 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .autodiff import (
    DimensionError,
    Tape,
    Tensor,
    linear,
    linear_each,
    lstm_cell,
    parameter,
)

__all__ = [
    "xavier_limit",
    "init_weight",
    "ParamArrays",
    "check_int_fields",
    "check_positive_fields",
    "LinearLayer",
    "EmbeddingTable",
    "LstmParams",
    "LstmState",
    "lstm_step",
    "epoch_batches",
    "descend",
]


def xavier_limit(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def init_weight(rng: np.random.Generator, fan_out: int, fan_in: int) -> Tensor:
    """(fan_out, fan_in) weight drawn uniform in +-xavier_limit.

    The parameter owns the fresh draw, uncopied: a model built to be
    loaded leaves its zero buffers untouched until the file fills them.
    """
    s = xavier_limit(fan_in, fan_out)
    w = rng.uniform(-s, s, size=(fan_out, fan_in))
    if w.size == 0:
        raise DimensionError(f"zero-size extent in shape {w.shape}")
    return Tensor._wrap(w, requires_grad=True)


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


class ParamArrays:
    """Base of every parameter dataclass; its fields, in order, name its parameters.

    A ``Tensor`` field is the leaf ``<prefix>.<field>`` and a ``ParamArrays``
    field nests its own under that name; any other field (a ``None`` bias,
    a head count, a config) names nothing. This order is the checkpoint
    manifest, so reordering fields changes the checkpoint layout.
    """

    prefix = ""  # named_params' prefix when none is given

    def named_params(self, prefix: Optional[str] = None) -> Iterator[tuple[str, Tensor]]:
        prefix = self.prefix if prefix is None else prefix
        for field in _field_names(type(self)):
            value = getattr(self, field)
            name = f"{prefix}.{field}" if prefix else field
            if isinstance(value, Tensor):
                yield name, value
            elif isinstance(value, ParamArrays):
                yield from value.named_params(name)

    def weights(self) -> tuple[Tensor, ...]:
        """Every parameter in manifest order: the training leaves, and the
        argument order of the fused cell ops (``lstm_cell``, ``aoa``)."""
        return tuple(t for _, t in self.named_params())

    def param_arrays(self) -> dict[str, np.ndarray]:
        """Name -> owned copy of the current values, in manifest order."""
        return {name: t.data.copy() for name, t in self.named_params()}

    def params_for(self, shapes: dict[str, tuple]) -> dict[str, Tensor]:
        """Name -> parameter, once ``shapes`` is checked to name every
        parameter, and nothing else, with its shape."""
        mine = dict(self.named_params())
        missing = set(mine) - set(shapes)
        extra = set(shapes) - set(mine)
        if missing or extra:
            raise ValueError(f"parameter manifest mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, t in mine.items():
            if tuple(shapes[name]) != t.data.shape:
                raise ValueError(f"{name}: shape {tuple(shapes[name])} != expected {t.data.shape}")
        return mine

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite parameter values in place from a name -> array map."""
        arrays = {name: np.asarray(a, dtype=np.float64) for name, a in arrays.items()}
        for name, t in self.params_for({name: a.shape for name, a in arrays.items()}).items():
            t.data[...] = arrays[name]


def check_int_fields(config) -> None:
    """Refuse a config dataclass whose ``int`` field holds anything else: in a
    checkpoint header (JSON), 1.5, 2.0 or true would reach the model as a width."""
    for f in fields(config):
        if f.type in (int, "int") and type(getattr(config, f.name)) is not int:
            raise TypeError(f"config field {f.name} must be an integer, got {getattr(config, f.name)!r}")


def check_positive_fields(config, names: Sequence[str]) -> None:
    """Refuse a config whose named integer fields hold a value below 1, naming the first."""
    for name in names:
        if getattr(config, name) < 1:
            raise ValueError(f"config field {name} must be at least 1, got {getattr(config, name)}")


@dataclass
class LinearLayer(ParamArrays):
    """y = W x (+ b). Weight is (out, in); bias optional."""

    weight: Tensor
    bias: Optional[Tensor] = None

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, d_out: int, bias: bool = True):
        w = init_weight(rng, d_out, d_in)
        b = parameter(np.zeros(d_out)) if bias else None
        return cls(w, b)

    @property
    def d_in(self) -> int:
        return self.weight.shape[1]

    @property
    def d_out(self) -> int:
        return self.weight.shape[0]

    def apply_vec(self, x: Tensor) -> Tensor:
        """Project a single vector (d_in,) -> (d_out,), one ``linear_each``
        op: the values and gradients of ``apply_rows`` on it as one row."""
        if x.data.shape != (self.d_in,):
            raise DimensionError(f"linear expects shape ({self.d_in},), got {tuple(x.data.shape)}")
        return linear_each(x, self.weight, self.bias)

    def apply_rows(self, x: Tensor) -> Tensor:
        """Project every row of (n, d_in) -> (n, d_out)."""
        return linear(x, self.weight, self.bias)

    def apply_each(self, x: Tensor) -> Tensor:
        """Project every row of (n, d_in) -> (n, d_out) in one ``linear_each``
        op, each row as ``apply_vec`` projects it alone, bit for bit."""
        return linear_each(x, self.weight, self.bias)


@dataclass
class EmbeddingTable(ParamArrays):
    """Token id -> row of a trainable (vocab, width) matrix."""

    weight: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, vocab_size: int, width: int):
        return cls(init_weight(rng, vocab_size, width))

    @property
    def vocab_size(self) -> int:
        return self.weight.shape[0]


@dataclass
class LstmState:
    """Hidden and memory vectors of one LSTM."""

    h: Tensor
    m: Tensor


@dataclass
class LstmParams(ParamArrays):
    """Standard (non-peephole) LSTM cell: 4 gates over concat(x, h); fields in lstm_cell's order."""

    w_i: Tensor
    w_f: Tensor
    w_o: Tensor
    w_c: Tensor
    b_i: Tensor
    b_f: Tensor
    b_o: Tensor
    b_c: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, d_hidden: int):
        def w():
            return init_weight(rng, d_hidden, d_in + d_hidden)

        def b(fill=0.0):
            return parameter(np.full(d_hidden, fill))

        # forget-gate bias starts at 1.0 so early memory is retained
        return cls(w(), w(), w(), w(), b(), b(1.0), b(), b())

    @property
    def d_hidden(self) -> int:
        return self.w_i.shape[0]

    @property
    def d_in(self) -> int:
        return self.w_i.shape[1] - self.w_i.shape[0]


def lstm_step(params: LstmParams, state: LstmState, x: Tensor) -> LstmState:
    """One LSTM transition, one tape op.

    i = sigma(W_i [x; h] + b_i)      f = sigma(W_f [x; h] + b_f)
    o = sigma(W_o [x; h] + b_o)      c~ = tanh(W_c [x; h] + b_c)
    m' = f * m + i * c~              h' = o * tanh(m')
    """
    if x.data.shape != (params.d_in,):
        raise DimensionError(f"lstm_step expects input ({params.d_in},), got {tuple(x.data.shape)}")
    return LstmState(*lstm_cell(x, state.h, state.m, params.weights()))


def _clip_gradients(leaves: Sequence[Tensor], clip_norm: float) -> None:
    total = 0.0
    for t in leaves:
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    norm = math.sqrt(total)
    if norm > clip_norm:
        factor = clip_norm / norm
        for t in leaves:
            if t.grad is not None:
                t.grad *= factor


def _sgd_step(leaves: Sequence[Tensor], lr: float) -> None:
    for t in leaves:
        if t.grad is not None:
            t.data -= lr * t.grad


def epoch_batches(rng: np.random.Generator, count: int, batch: int) -> list[np.ndarray]:
    """``rng.permutation(count)`` cut into batches of ``batch``, the last maybe shorter."""
    order = rng.permutation(count)
    return [order[i:i + batch] for i in range(0, count, batch)]


def descend(
    leaves: Sequence[Tensor],
    build_loss: Callable[[], Optional[Tensor]],
    lr: float,
    clip_norm: Optional[float] = None,
) -> Optional[float]:
    """One SGD step on the loss ``build_loss()`` records on a fresh tape.

    Gradients longer than ``clip_norm`` (None: no clipping) are scaled to
    that norm. Returns the loss value, or None with no update when
    ``build_loss`` returns None; a non-finite loss raises before any update.
    """
    for t in leaves:
        t.zero_grad()
    with Tape() as tape:
        loss = build_loss()
    if loss is None:
        return None
    value = loss.item()
    if not math.isfinite(value):
        raise FloatingPointError(f"loss is not finite: {value!r}")
    tape.backward(loss)
    if clip_norm is not None:
        _clip_gradients(leaves, clip_norm)
    _sgd_step(leaves, lr)
    return value
