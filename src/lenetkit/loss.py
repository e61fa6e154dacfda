"""Cross-entropy and focal loss over logits, with exact logit gradients.

Both losses fuse the softmax: they consume pre-softmax logits and use the
log-sum-exp formulation, so -ln(p_t) never goes through an explicit, possibly
underflowing probability, and no probability is clamped. Gradients returned
are for the *mean* loss over the batch.

Focal loss follows the standard form FL = -alpha_t * (1 - p_t)^gamma * ln(p_t),
which reduces exactly to cross-entropy at gamma=0 with uniform alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig, InvalidLabel, InvalidShape


@dataclass
class FocalConfig:
    """Focusing exponent gamma >= 0 and per-class weights alpha > 0.

    ``alpha=None`` means uniform weights of 1. Defaults are the conventional
    gamma=2, uniform alpha.
    """

    gamma: float = 2.0
    alpha: np.ndarray | None = None

    def __post_init__(self):
        self.gamma = float(self.gamma)
        if not np.isfinite(self.gamma) or self.gamma < 0.0:
            raise InvalidConfig(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.alpha is not None:
            self.alpha = np.asarray(self.alpha, dtype=np.float64)
            if (self.alpha.ndim != 1 or not np.isfinite(self.alpha).all()
                    or (self.alpha <= 0.0).any()):
                raise InvalidConfig("alpha must be a 1-D vector of finite positive weights")


@dataclass
class LossOutput:
    """Mean batch loss, its gradient w.r.t. the logits, and per-sample losses."""

    mean_loss: float
    dlogits: np.ndarray
    per_sample: np.ndarray = field(repr=False, default=None)


def _check_inputs(logits: np.ndarray, targets) -> np.ndarray:
    if logits.ndim != 2 or logits.shape[0] == 0:
        raise InvalidShape(f"logits must be [N,K] with N >= 1, got shape {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (logits.shape[0],):
        raise InvalidShape(
            f"targets must be a length-{logits.shape[0]} vector, got {targets.shape}"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[1]):
        raise InvalidLabel(
            f"targets must lie in [0, {logits.shape[1]}), got range "
            f"[{targets.min()}, {targets.max()}]"
        )
    return targets


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # a row whose max is infinite has no finite shift: it turns NaN, as its loss
    with np.errstate(invalid="ignore"):
        shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


@np.errstate(over="ignore")  # an overflow only makes a loss infinite
def cross_entropy(logits: np.ndarray, targets) -> LossOutput:
    """Mean of -ln p[n, target_n] with p = softmax(logits).

    dlogits[n] = (p[n] - onehot(target_n)) / N, so every gradient row sums
    to zero.
    """
    targets = _check_inputs(logits, targets)
    n = logits.shape[0]
    logp = _log_softmax(logits)
    per_sample = -logp[np.arange(n), targets]
    dlogits = np.exp(logp)
    dlogits[np.arange(n), targets] -= 1.0
    dlogits /= n
    return LossOutput(float(per_sample.mean()), dlogits, per_sample)


@np.errstate(over="ignore")  # an overflow only makes a loss infinite
def focal_loss(logits: np.ndarray, targets, cfg: FocalConfig) -> LossOutput:
    """Mean of -alpha_t * (1 - p_t)^gamma * ln(p_t) over the batch.

    The gradient is the exact derivative through the softmax,
    dlogits[n] = g_n * (onehot(target_n) - p[n]) / N with g_n = p_t * dFL_n/dp_t
    = alpha_t * (gamma * (1-p_t)^(gamma-1) * p_t * ln(p_t) - (1-p_t)^gamma).
    """
    if not isinstance(cfg, FocalConfig):
        raise InvalidConfig("cfg must be a FocalConfig")
    targets = _check_inputs(logits, targets)
    n, k = logits.shape
    if cfg.alpha is not None and cfg.alpha.shape[0] != k:
        raise InvalidConfig(
            f"alpha has {cfg.alpha.shape[0]} entries for {k} classes"
        )
    alpha_t = np.ones(n) if cfg.alpha is None else cfg.alpha[targets]
    gamma = cfg.gamma

    rows = np.arange(n)
    logp = _log_softmax(logits)
    probs = np.exp(logp)
    log_pt = logp[rows, targets]
    pt = probs[rows, targets]
    one_minus = 1.0 - pt
    focus = one_minus ** gamma

    per_sample = -alpha_t * focus * log_pt

    # (1-p_t)^(gamma-1) diverges at p_t=1 for gamma<1, but the true limit of
    # the whole term is 0 there, since ln(p_t) -> 0; mask it explicitly.
    pow_gm1 = np.where(one_minus > 0.0, one_minus, 1.0) ** (gamma - 1.0)
    pow_gm1 = np.where(one_minus > 0.0, pow_gm1, 0.0)
    # likewise p_t * ln(p_t) -> 0 as p_t -> 0, where ln(p_t) may be -inf
    spread = np.multiply(gamma * pow_gm1 * pt, log_pt, out=np.zeros(n), where=pt > 0.0)
    g = alpha_t * (spread - focus)

    onehot = np.zeros_like(probs)
    onehot[rows, targets] = 1.0
    dlogits = g[:, None] * (onehot - probs) / n
    return LossOutput(float(per_sample.mean()), dlogits, per_sample)


def inverse_frequency_alpha(class_counts) -> np.ndarray:
    """Per-class weights proportional to inverse class frequency.

    alpha[c] = total / (K * count_c), so a balanced dataset gets uniform 1.0.
    Useful when one class dominates the training split.
    """
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.ndim != 1 or np.any(counts <= 0):
        raise InvalidConfig("class counts must be positive")
    return counts.sum() / (counts.size * counts)
