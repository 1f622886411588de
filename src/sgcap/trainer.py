"""Two-phase training: cross-entropy warm-up, then self-critical fine-tuning.

Phase 1 minimizes the summed negative log-likelihood of ground-truth
captions. Phase 2 samples a caption per image, uses the greedy decode of
the same model as the reward baseline, and descends
-(r_sampled - r_greedy) * sum(log p) so tokens that beat the baseline get
more probable. The reward blends a language score (consensus metric over
references) with the frozen embedding-space cosine.

Both phases shuffle with a seeded generator, validate with greedy decodes
scored by the plain consensus metric, keep the best-on-validation
parameters, and stop early after ``patience`` epochs without improvement.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .autodiff import Tensor, add, no_grad, scale, sum_all
from .captioner import CaptionerParams
from .decoder import _forced_log_probs, generate_greedy, sample_sequence
from .encoder import EncoderOutput, encode
from .features import BOS, EOS, PAD, FeatureBundle, Vocabulary
from .ioutil import run_log
from .metrics import IdfTable, cider, cider_d
from .nn import _clip_gradients, _sgd_step, descend, epoch_batches  # noqa: F401  (re-exported for test oracles)
from .vse import VseParams, embed_caption, embed_image, vision_reward

__all__ = [
    "RewardBreakdown",
    "Phase1Config",
    "Phase2Config",
    "TrainConfig",
    "TrainResult",
    "xe_loss",
    "combined_reward",
    "ScstRollout",
    "scst_rollout",
    "scst_step",
    "validation_cider",
    "train_xe",
    "train_scst",
]


@dataclass(frozen=True)
class RewardBreakdown:
    """One caption's reward, split into its two ingredients."""

    r_l: float
    r_v: float
    alpha: float
    r: float


@dataclass
class Phase1Config:
    max_epochs: int = 50
    patience: int = 5
    lr0: float = 5e-4
    decay_every: int = 5
    decay_factor: float = 0.8
    batch: int = 128
    # extra knob: stop once mean train loss drops below this (None = off)
    stop_loss: Optional[float] = None

    def __post_init__(self):
        if min(self.max_epochs, self.patience, self.decay_every, self.batch) < 1:
            raise ValueError("phase-1 epoch/patience/decay/batch settings must be positive")
        if not (math.isfinite(self.lr0) and self.lr0 > 0 and 0 < self.decay_factor <= 1):
            raise ValueError("phase-1 learning-rate settings out of range")
        if self.stop_loss is not None and not math.isfinite(self.stop_loss):
            raise ValueError(f"phase-1 stop_loss must be finite, got {self.stop_loss}")


@dataclass
class Phase2Config:
    epochs: int = 30
    patience: int = 5
    lr: float = 2e-5
    batch: int = 64
    alpha: float = 0.7
    # extra knob: hard cap on optimizer steps across all epochs (None = off)
    max_steps: Optional[int] = None

    def __post_init__(self):
        if min(self.epochs, self.patience, self.batch) < 1:
            raise ValueError("phase-2 epoch/patience/batch settings must be positive")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"phase-2 learning rate must be positive and finite, got {self.lr}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"phase-2 max_steps must be at least 1, got {self.max_steps}")


@dataclass
class TrainConfig:
    phase1: Phase1Config = field(default_factory=Phase1Config)
    phase2: Phase2Config = field(default_factory=Phase2Config)
    seed: int = 0
    clip_norm: float = 5.0

    def __post_init__(self):
        if not (math.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValueError(f"gradient clip norm must be positive and finite, got {self.clip_norm}")


@dataclass
class TrainResult:
    history: list
    best_epoch: int
    best_val_cider: float
    stop_reason: str


def xe_loss(params: CaptionerParams, enc: EncoderOutput, gt_tokens: Sequence[int]) -> Tensor:
    """Summed negative log-likelihood of one ground-truth sequence."""
    _, lps, _ = _forced_log_probs(params.decoder, enc, gt_tokens)
    return scale(sum_all(lps), -1.0)


def combined_reward(
    caption_ids: Sequence[int],
    bundle: FeatureBundle,
    refs: Sequence[Sequence[str]],
    idf: IdfTable,
    vse: VseParams,
    vocab: Vocabulary,
    alpha: float,
) -> RewardBreakdown:
    """Blend the language and vision rewards for one decoded caption.

    The endpoints are returned verbatim (alpha=1 gives exactly the
    language reward, alpha=0 exactly the vision one), so reward equality
    checks against the individual components hold bitwise.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    # metrics score token lists; decode_tokens joins into a display string
    words = vocab.decode_tokens(caption_ids).split()
    r_l = cider_d(words, refs, idf)
    content = [t for t in caption_ids if t not in (PAD, BOS, EOS)]
    if content:
        w_e = embed_caption(vse, content)
        i_e = embed_image(vse, Tensor(bundle.spatial, requires_grad=False))
        r_v = vision_reward(w_e, i_e)
    else:
        warnings.warn("empty caption: vision reward defined as 0")
        r_v = 0.0
    if alpha == 1.0:
        r = r_l
    elif alpha == 0.0:
        r = r_v
    else:
        r = alpha * r_l + (1.0 - alpha) * r_v
    return RewardBreakdown(r_l=r_l, r_v=r_v, alpha=alpha, r=r)


@dataclass
class ScstRollout:
    """One image's sampled-vs-greedy comparison inside an active tape."""

    loss: Tensor
    steps: list
    sampled: list
    greedy: list
    advantage: float
    sampled_reward: float


def scst_rollout(
    params: CaptionerParams,
    bundle: FeatureBundle,
    refs: Sequence[Sequence[str]],
    reward_fn: Callable[[Sequence[int], FeatureBundle, Sequence[Sequence[str]]], float],
    rng: np.random.Generator,
) -> ScstRollout:
    """Sample one caption, score it against the greedy baseline.

    loss = -(r_sampled - r_greedy) * sum(log p(sampled tokens)), so the
    gradient at each step's logits is advantage * (probs - onehot(token)).
    Must run inside a Tape for the loss to be differentiable. The greedy
    baseline and both rewards are constants of the loss, so none of them
    is recorded. reward_fn must be a pure function of its arguments: a
    greedy caption equal to the sampled one reuses the sampled reward.
    """
    enc = encode(params.encoder, bundle)
    sampled, total_lp, steps = sample_sequence(params.decoder, enc, rng)
    with no_grad():
        greedy = generate_greedy(params.decoder, enc)
        r_s = reward_fn(sampled, bundle, refs)
        r_b = r_s if greedy == sampled else reward_fn(greedy, bundle, refs)
    advantage = r_s - r_b
    return ScstRollout(
        loss=scale(total_lp, -advantage),
        steps=steps,
        sampled=sampled,
        greedy=greedy,
        advantage=advantage,
        sampled_reward=r_s,
    )


def scst_step(
    params: CaptionerParams,
    batch: Sequence[tuple[FeatureBundle, Sequence[Sequence[str]]]],
    reward_fn: Callable[[Sequence[int], FeatureBundle, Sequence[Sequence[str]]], float],
    lr: float,
    rng: np.random.Generator,
    clip_norm: float = 5.0,
) -> tuple[float, float]:
    """One self-critical policy-gradient step over a batch of images.

    The batch loss is the mean of the per-image rollout losses. A rollout
    with zero advantage has an exactly zero gradient, so it is left out of
    the loss, and a batch of only such rollouts makes no update. Returns
    the mean advantage and the mean sampled reward.
    """
    if not batch:
        raise ValueError("scst_step needs a non-empty batch")
    rollouts = []

    def batch_loss():
        rollouts.extend(scst_rollout(params, b, refs, reward_fn, rng) for b, refs in batch)
        live = [r.loss for r in rollouts if r.advantage != 0.0]
        return scale(functools.reduce(add, live), 1.0 / len(batch)) if live else None

    descend(params.weights(), batch_loss, lr, clip_norm)
    mean_advantage = float(np.mean([r.advantage for r in rollouts]))
    mean_sampled = float(np.mean([r.sampled_reward for r in rollouts]))
    return mean_advantage, mean_sampled


def validation_cider(
    params: CaptionerParams,
    items: Sequence[tuple[FeatureBundle, Sequence[Sequence[str]]]],
    vocab: Vocabulary,
    idf: IdfTable,
) -> float:
    """Mean consensus score of greedy decodes against reference sets."""
    if not items:
        raise ValueError("validation needs at least one item")
    total = 0.0
    with no_grad():
        for bundle, refs in items:
            enc = encode(params.encoder, bundle)
            words = vocab.decode_tokens(generate_greedy(params.decoder, enc)).split()
            total += cider(words, refs, idf)
    return total / len(items)


def _fit(
    params: CaptionerParams,
    run_epoch: Callable[[int], tuple[dict, float, Optional[str]]],
    epochs: int,
    patience: int,
    loss_name: str,
    val_items: Sequence[tuple[FeatureBundle, Sequence[Sequence[str]]]],
    vocab: Vocabulary,
    idf: IdfTable,
    log_path: Optional[Path],
) -> TrainResult:
    """The epoch loop both phases share.

    ``run_epoch(epoch)`` trains one epoch and returns its training figure
    (one key -> value), its learning rate and its own stop reason or None.
    Each epoch is validated, logged to a log that starts empty, and checked
    against the best so far. A "stop_loss" stop keeps the current parameters
    and wins over patience, which wins over any other phase stop. A
    ``FloatingPointError`` restores the best parameters before it propagates.
    """
    log = run_log(log_path)
    history: list[dict] = []
    best_val = -math.inf
    best_epoch = -1
    best_arrays = params.param_arrays()
    since_best = 0
    stop_reason = "max_epochs"
    for epoch in range(epochs):
        try:
            figure, lr, stop = run_epoch(epoch)
        except FloatingPointError:
            params.load_arrays(best_arrays)
            where = "their starting values" if best_epoch < 0 else f"epoch {best_epoch}"
            raise FloatingPointError(
                f"{loss_name} loss diverged at epoch {epoch}; parameters restored to {where}"
            ) from None
        val = validation_cider(params, val_items, vocab, idf)
        record = {"epoch": epoch, **figure, "val_cider": val, "lr": lr}
        history.append(record)
        log(record)
        # the point of the loss threshold is the overfit itself, so the
        # current parameters win over the best-on-validation snapshot
        if val > best_val or stop == "stop_loss":
            best_val, best_epoch, best_arrays = val, epoch, params.param_arrays()
            since_best = 0
        else:
            since_best += 1
        if since_best >= patience:
            stop = "patience"
        if stop is not None:
            stop_reason = stop
            break
    params.load_arrays(best_arrays)
    return TrainResult(history, best_epoch, best_val, stop_reason)


def train_xe(
    params: CaptionerParams,
    train_pairs: Sequence[tuple[FeatureBundle, Sequence[int]]],
    val_items: Sequence[tuple[FeatureBundle, Sequence[Sequence[str]]]],
    vocab: Vocabulary,
    config: TrainConfig,
    idf: IdfTable,
    log_path: Optional[Path] = None,
) -> TrainResult:
    """Phase 1: minimize caption cross-entropy with a decaying learning rate.

    ``train_pairs`` holds one entry per (image, encoded caption); an image
    with several captions appears several times. Keeps the parameters that
    scored best on validation and restores them before returning.
    """
    if not train_pairs:
        raise ValueError("phase-1 training split is empty")
    if not val_items:
        raise ValueError("phase-1 validation split is empty")
    cfg = config.phase1
    rng = np.random.default_rng(config.seed)
    leaves = params.weights()

    def run_epoch(epoch):
        lr = cfg.lr0 * cfg.decay_factor ** (epoch // cfg.decay_every)
        epoch_loss = 0.0
        for batch in epoch_batches(rng, len(train_pairs), cfg.batch):
            def batch_loss():
                parts = [xe_loss(params, encode(params.encoder, bundle), tokens)
                         for bundle, tokens in (train_pairs[k] for k in batch)]
                return scale(functools.reduce(add, parts), 1.0 / len(batch))

            epoch_loss += descend(leaves, batch_loss, lr, config.clip_norm) * len(batch)
        mean_loss = epoch_loss / len(train_pairs)
        stop = "stop_loss" if cfg.stop_loss is not None and mean_loss < cfg.stop_loss else None
        return {"loss": mean_loss}, lr, stop

    return _fit(params, run_epoch, cfg.max_epochs, cfg.patience, "cross-entropy",
                val_items, vocab, idf, log_path)


def train_scst(
    params: CaptionerParams,
    train_items: Sequence[tuple[FeatureBundle, Sequence[Sequence[str]]]],
    val_items: Sequence[tuple[FeatureBundle, Sequence[Sequence[str]]]],
    vocab: Vocabulary,
    config: TrainConfig,
    idf: IdfTable,
    vse: Optional[VseParams] = None,
    reward: str = "mmr",
    log_path: Optional[Path] = None,
) -> TrainResult:
    """Phase 2: self-critical fine-tuning with the blended reward.

    ``reward`` selects the objective: "mmr" blends language and vision
    rewards with the configured alpha and needs the reward network,
    "cider" is the pure language reward and runs without one. The reward
    network and idf table are read, never written.
    """
    if reward not in ("mmr", "cider"):
        raise ValueError(f"unknown reward {reward!r}, expected 'mmr' or 'cider'")
    if reward == "mmr" and vse is None:
        raise ValueError("the mmr reward needs a trained reward network")
    if not train_items:
        raise ValueError("phase-2 training split is empty")
    if not val_items:
        raise ValueError("phase-2 validation split is empty")
    cfg = config.phase2

    if reward == "cider":
        def reward_fn(tokens, bundle, refs):
            return cider_d(vocab.decode_tokens(tokens).split(), refs, idf)
    else:
        def reward_fn(tokens, bundle, refs):
            return combined_reward(tokens, bundle, refs, idf, vse, vocab, cfg.alpha).r

    rng = np.random.default_rng(config.seed)
    steps_left = math.inf if cfg.max_steps is None else cfg.max_steps

    def run_epoch(epoch):
        nonlocal steps_left
        epoch_reward = 0.0
        epoch_count = 0
        for batch_idx in epoch_batches(rng, len(train_items), cfg.batch):
            if steps_left == 0:
                break
            batch = [train_items[k] for k in batch_idx]
            _, mean_sampled = scst_step(params, batch, reward_fn, cfg.lr, rng, config.clip_norm)
            epoch_reward += mean_sampled * len(batch)
            epoch_count += len(batch)
            steps_left -= 1
        stop = "max_steps" if steps_left == 0 else None
        return {"mean_reward": epoch_reward / epoch_count}, cfg.lr, stop

    return _fit(params, run_epoch, cfg.epochs, cfg.patience, "self-critical",
                val_items, vocab, idf, log_path)
