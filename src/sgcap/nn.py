"""Neural network building blocks on top of the tape engine.

Plain parameter containers plus forward functions. Initialization is
Xavier-uniform (limit sqrt(6 / (fan_in + fan_out))) for weight matrices,
zero for biases, except the LSTM forget-gate bias which starts at 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .autodiff import (
    DimensionError,
    Tape,
    Tensor,
    gather_rows,
    linear,
    lstm_cell,
    parameter,
    reshape,
)

__all__ = [
    "xavier_limit",
    "init_weight",
    "ParamArrays",
    "LinearLayer",
    "EmbeddingTable",
    "LstmParams",
    "LstmState",
    "lstm_step",
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


class ParamArrays:
    """Named-array snapshots of a model; subclasses define ``named_params()``."""

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


@dataclass
class LinearLayer:
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
        """Project a single vector (d_in,) -> (d_out,)."""
        if x.data.shape != (self.d_in,):
            raise DimensionError(f"linear expects shape ({self.d_in},), got {tuple(x.data.shape)}")
        row = reshape(x, (1, self.d_in))
        return reshape(linear(row, self.weight, self.bias), (self.d_out,))

    def apply_rows(self, x: Tensor) -> Tensor:
        """Project every row of (n, d_in) -> (n, d_out)."""
        return linear(x, self.weight, self.bias)

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.weight", self.weight
        if self.bias is not None:
            yield f"{prefix}.bias", self.bias


@dataclass
class EmbeddingTable:
    """Token id -> row of a trainable (vocab, width) matrix."""

    weight: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, vocab_size: int, width: int):
        return cls(init_weight(rng, vocab_size, width))

    @property
    def vocab_size(self) -> int:
        return self.weight.shape[0]

    @property
    def width(self) -> int:
        return self.weight.shape[1]

    def lookup(self, token_id: int) -> Tensor:
        if not 0 <= int(token_id) < self.vocab_size:
            raise IndexError(f"token id {token_id} outside vocabulary of {self.vocab_size}")
        return gather_rows(self.weight, int(token_id))

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.weight", self.weight


@dataclass
class LstmState:
    """Hidden and memory vectors of one LSTM."""

    h: Tensor
    m: Tensor


@dataclass
class LstmParams:
    """Standard (non-peephole) LSTM cell: 4 gates over concat(x, h)."""

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

    def zero_state(self) -> LstmState:
        z = np.zeros(self.d_hidden)
        return LstmState(Tensor(z), Tensor(z))

    def weights(self) -> tuple[Tensor, ...]:
        """(w_i, w_f, w_o, w_c, b_i, b_f, b_o, b_c), the cell ops' order."""
        return (self.w_i, self.w_f, self.w_o, self.w_c, self.b_i, self.b_f, self.b_o, self.b_c)

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        for name in ("w_i", "w_f", "w_o", "w_c", "b_i", "b_f", "b_o", "b_c"):
            yield f"{prefix}.{name}", getattr(self, name)


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
