"""Central finite-difference audit of every differentiable block.

Each audit builds one block at miniature dimensions, reads its output
through a fixed random linear functional (uniform readouts would hide
errors along softmax/normalization null directions), and compares tape
gradients of every leaf against central differences.
"""

from dataclasses import dataclass

import numpy as np

from .attention import (
    AoAParams,
    MultiHeadParams,
    aoa_block,
    multi_head_attention,
    scaled_dot_attention,
)
from .autodiff import (
    add,
    constant,
    grad_check,
    layer_norm,
    mul,
    parameter,
    softmax,
    sum_all,
)
from .captioner import CaptionerConfig, CaptionerParams
from .decoder import decode_step, init_state
from .encoder import EncoderOutput, RefinePathParams, refine
from .features import BOS, EOS
from .nn import LstmParams, LstmState, lstm_step
from .trainer import xe_loss
from .vse import EmbeddingPair, hinge_loss

# composite blocks need this step: central-difference roundoff noise
# scales as 1/step and would swamp coordinates with tiny gradients
AUDIT_STEP = 1e-5
# the summed cross-entropy sits near |f| ~ 8, so its roundoff floor is
# ~40x higher than the unit-scale blocks; scale the step to match
_BLOCK_STEPS = {"xe_loss": 5e-5}
TOLERANCE = 1e-5
DEFAULT_SEEDS = (0, 1, 2)


@dataclass(frozen=True)
class BlockReport:
    block: str
    max_rel_err: float
    seeds: tuple[int, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def _readout(rng, *shapes):
    """Fixed random weights, one per output; drawn once, reused every call."""
    return [constant(rng.normal(size=s)) for s in shapes]


def _audit_softmax(rng):
    x = parameter(rng.normal(size=(5, 7)))
    (w,) = _readout(rng, (5, 7))

    def f(*_):
        return sum_all(mul(softmax(x, axis=-1), w))

    return f, [x]


def _audit_layer_norm(rng):
    x = parameter(rng.normal(size=(4, 6)))
    gain = parameter(rng.normal(size=6))
    bias = parameter(rng.normal(size=6))
    (w,) = _readout(rng, (4, 6))

    def f(*_):
        return sum_all(mul(layer_norm(x, gain, bias), w))

    return f, [x, gain, bias]


def _audit_lstm_step(rng):
    params = LstmParams.init(rng, 5, 4)
    h = parameter(rng.normal(size=4))
    m = parameter(rng.normal(size=4))
    x = parameter(rng.normal(size=5))
    w_h, w_m = _readout(rng, (4,), (4,))

    def f(*_):
        state = lstm_step(params, LstmState(h, m), x)
        return add(sum_all(mul(state.h, w_h)), sum_all(mul(state.m, w_m)))

    return f, [h, m, x, *params.weights()]


def _audit_scaled_dot_attention(rng):
    q = parameter(rng.normal(size=(3, 4)))
    k = parameter(rng.normal(size=(5, 4)))
    v = parameter(rng.normal(size=(5, 4)))
    mask = np.array([True, True, False, True, True])
    (w,) = _readout(rng, (3, 4))

    def f(*_):
        return sum_all(mul(scaled_dot_attention(q, k, v, key_mask=mask), w))

    return f, [q, k, v]


def _audit_multi_head_attention(rng):
    params = MultiHeadParams.init(rng, 4, 2)
    q = parameter(rng.normal(size=(3, 4)))
    k = parameter(rng.normal(size=(5, 4)))
    v = parameter(rng.normal(size=(5, 4)))
    mask = np.array([True, False, True, True, True])
    (w,) = _readout(rng, (3, 4))

    def f(*_):
        return sum_all(mul(multi_head_attention(params, q, k, v, key_mask=mask), w))

    return f, [q, k, v, *params.weights()]


def _audit_aoa_block(rng):
    params = AoAParams.init(rng, 4)
    q = parameter(rng.normal(size=(3, 4)))
    v_hat = parameter(rng.normal(size=(3, 4)))
    (w,) = _readout(rng, (3, 4))

    def f(*_):
        return sum_all(mul(aoa_block(params, q, v_hat), w))

    return f, [q, v_hat, *params.weights()]


def _audit_refine(rng):
    path = RefinePathParams.init(rng, 4, 2)
    a = parameter(rng.normal(size=(5, 4)))
    mask = np.array([True, True, False, True, True])
    (w,) = _readout(rng, (5, 4))

    def f(*_):
        return sum_all(mul(refine(path, a, key_mask=mask), w))

    return f, [a, *path.weights()]


def _tiny_captioner(rng):
    """Decoder plus a hand-built encoder output; every extent <= 8."""
    config = CaptionerConfig(
        vocab_size=8, d_model=4, embed_dim=4, heads=2, spatial_dim=6, max_len=6
    )
    params = CaptionerParams.init(config, rng)
    enc = EncoderOutput(
        refined_spatial=parameter(rng.normal(size=(3, 4))),
        refined_rel=parameter(rng.normal(size=(4, 4))),
        rel_mask=np.array([True, False, True, True]),
        a_bar=parameter(rng.normal(size=8)),
    )
    leaves = [enc.refined_spatial, enc.refined_rel, enc.a_bar, *params.decoder.weights()]
    return params, enc, leaves


def _audit_decode_step(rng):
    params, enc, leaves = _tiny_captioner(rng)
    (w,) = _readout(rng, (8,))

    def f(*_):
        state = init_state(params.decoder, enc)
        logits, _, _ = decode_step(params.decoder, enc, state, 4)
        return sum_all(mul(logits, w))

    return f, leaves


def _audit_xe_loss(rng):
    params, enc, leaves = _tiny_captioner(rng)
    tokens = [BOS, 4, 6, 5, EOS]

    def f(*_):
        return xe_loss(params, enc, tokens)

    return f, leaves


def _audit_hinge_loss(rng):
    pairs = [
        EmbeddingPair(parameter(rng.normal(size=4)), parameter(rng.normal(size=4)))
        for _ in range(3)
    ]

    def f(*_):
        return hinge_loss(pairs, margin=0.5)

    leaves = [t for p in pairs for t in (p.i_e, p.w_e)]
    return f, leaves


AUDITS = {
    "softmax": _audit_softmax,
    "layer_norm": _audit_layer_norm,
    "lstm_step": _audit_lstm_step,
    "scaled_dot_attention": _audit_scaled_dot_attention,
    "multi_head_attention": _audit_multi_head_attention,
    "aoa_block": _audit_aoa_block,
    "refine": _audit_refine,
    "decode_step": _audit_decode_step,
    "xe_loss": _audit_xe_loss,
    "hinge_loss": _audit_hinge_loss,
}


def audit_block(block: str, seed: int, step: float = None) -> float:
    """Max relative gradient error of one block at one seed."""
    if block not in AUDITS:
        raise ValueError(f"unknown block {block!r}, expected one of {sorted(AUDITS)}")
    if step is None:
        step = _BLOCK_STEPS.get(block, AUDIT_STEP)
    f, leaves = AUDITS[block](np.random.default_rng([seed, *block.encode()]))
    return grad_check(f, leaves, step=step)


def run_audit(seeds=DEFAULT_SEEDS, tolerance: float = TOLERANCE) -> list[BlockReport]:
    """Audit every block over the seeds; one report per block."""
    seeds = tuple(int(s) for s in seeds)
    return [
        BlockReport(
            block=name,
            max_rel_err=max(audit_block(name, s) for s in seeds),
            seeds=seeds,
            tolerance=tolerance,
        )
        for name in AUDITS
    ]
