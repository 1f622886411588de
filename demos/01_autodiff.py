"""A tour of the tape-based autodiff engine.

Builds a small composite function out of the same primitives the model
uses, runs the backward pass, and checks one gradient coordinate against
a finite difference by hand before letting the built-in checker sweep
every coordinate.
"""

import numpy as np

from sgcap.autodiff import (
    Tape,
    Tensor,
    constant,
    grad_check,
    layer_norm,
    linear,
    mul,
    relu,
    softmax,
    sum_all,
)

rng = np.random.default_rng(0)

x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
w = Tensor(rng.normal(size=(4, 4)) * 0.5, requires_grad=True)
gain = Tensor(np.ones(4), requires_grad=True)
bias = Tensor(np.zeros(4), requires_grad=True)
# fixed readout weights; a plain sum of softmax rows would be the
# constant 3.0 and every gradient would vanish
readout = constant(rng.normal(size=(3, 4)))


def forward(*_leaves):
    h = relu(linear(x, w))
    h = layer_norm(h, gain, bias)
    return sum_all(mul(softmax(h), readout))


with Tape() as tape:
    out = forward()
tape.backward(out)

print("forward value:", out.data)
print("dL/dw[0, 0] from the tape:", w.grad[0, 0])

# central difference on the same coordinate
step = 1e-6
w.data[0, 0] += step
up = forward().data
w.data[0, 0] -= 2 * step
down = forward().data
w.data[0, 0] += step
fd = (up - down) / (2 * step)
print("dL/dw[0, 0] by finite difference:", fd)
print("agreement:", abs(w.grad[0, 0] - fd) < 1e-6)

# the library checker does this for every coordinate of every leaf
worst = grad_check(forward, [x, w, gain, bias])
print(f"max relative error over all {x.data.size + w.data.size + 8} coordinates: {worst:.2e}")
