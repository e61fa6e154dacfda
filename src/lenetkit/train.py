"""SGD training loop, evaluation, and per-epoch records.

One epoch = seeded shuffle -> mini-batches (last short batch kept) ->
forward / loss / backward / sgd_step per batch -> full evaluation pass over
the train and validation sets, yielding one EpochRecord.

Determinism contract: a fixed seed gives bit-identical parameter
trajectories and records across runs. Shuffling and per-sample augmentation
draw from substreams keyed on (seed, epoch) and (seed, epoch, sample index),
so augmentation noise is independent of shuffle order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from . import loss as loss_mod
from . import metrics as metrics_mod
from .errors import DivergenceDetected, EmptyDataset, InvalidConfig
from .nn import LeNetModel, model_backward, model_forward

EVAL_BATCH = 64

LOSS_KINDS = ("cross_entropy", "focal")


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 0.1
    loss_kind: str = "cross_entropy"
    focal: loss_mod.FocalConfig | None = None
    seed: int = 0
    shuffle: bool = True
    augment: data_mod.AugmentConfig | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise InvalidConfig(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate >= 0.0:
            raise InvalidConfig(
                f"learning_rate must be >= 0, got {self.learning_rate}"
            )
        if self.loss_kind not in LOSS_KINDS:
            raise InvalidConfig(
                f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}"
            )
        if self.loss_kind == "focal" and self.focal is None:
            self.focal = loss_mod.FocalConfig()


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


def sgd_step(model: LeNetModel, learning_rate: float) -> None:
    """value <- value - learning_rate * grad for every parameter in place."""
    for p in model.param_list():
        p.value -= learning_rate * p.grad


def _compute_loss(logits, targets, loss_kind, focal_cfg):
    if loss_kind == "focal":
        return loss_mod.focal_loss(logits, targets, focal_cfg
                                   or loss_mod.FocalConfig())
    if loss_kind == "cross_entropy":
        return loss_mod.cross_entropy(logits, targets)
    raise InvalidConfig(f"loss_kind must be one of {LOSS_KINDS}, got {loss_kind!r}")


def _stack_pixels(samples) -> np.ndarray:
    return np.stack([s.pixels for s in samples], axis=0)


def evaluate(model: LeNetModel, dataset: data_mod.Dataset,
             loss_kind: str = "cross_entropy",
             focal_cfg: loss_mod.FocalConfig | None = None):
    """Full pure pass; returns (mean per-sample loss, accuracy, ConfusionMatrix).

    Batches are taken in fixed index order with a fixed batch size, so the
    reduced loss is bitwise reproducible. The model is never mutated.
    """
    samples = dataset.samples
    if not samples:
        raise EmptyDataset(f"cannot evaluate an empty {dataset.split!r} set")
    labels = np.array([s.label for s in samples], dtype=np.int64)
    loss_sum = 0.0
    preds = np.empty(len(samples), dtype=np.int64)
    for start in range(0, len(samples), EVAL_BATCH):
        chunk = samples[start:start + EVAL_BATCH]
        probs, trace = model_forward(model, _stack_pixels(chunk))
        out = _compute_loss(trace.logits, labels[start:start + len(chunk)],
                            loss_kind, focal_cfg)
        loss_sum += float(out.per_sample.sum())
        preds[start:start + len(chunk)] = np.argmax(probs, axis=1)
    cm = metrics_mod.confusion(labels, preds, model.num_classes)
    acc = int(np.trace(cm.counts)) / cm.total
    return loss_sum / len(samples), acc, cm


def _snapshot(model: LeNetModel) -> dict[str, np.ndarray]:
    return {p.name: p.value.copy() for p in model.param_list()}


def _restore(model: LeNetModel, snapshot: dict[str, np.ndarray]) -> None:
    for p in model.param_list():
        p.value[...] = snapshot[p.name]


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, epoch, 0])


def _augment_rng(seed: int, epoch: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, epoch, 1, index])


def train(model: LeNetModel, train_set: data_mod.Dataset,
          val_set: data_mod.Dataset, cfg: TrainConfig):
    """Run the training loop; returns (list of EpochRecord, final model).

    On a non-finite batch loss the model is restored to the end of the last
    completed epoch and DivergenceDetected is raised carrying the records
    gathered so far.
    """
    if not train_set.samples:
        raise EmptyDataset("training set is empty")
    if not val_set.samples:
        raise EmptyDataset("validation set is empty")
    n = len(train_set.samples)
    if cfg.batch_size > n:
        raise InvalidConfig(
            f"batch_size {cfg.batch_size} exceeds training-set size {n}"
        )

    labels = np.array([s.label for s in train_set.samples], dtype=np.int64)
    records: list[EpochRecord] = []
    last_good = _snapshot(model)

    for epoch in range(1, cfg.epochs + 1):
        if cfg.shuffle:
            order = _epoch_rng(cfg.seed, epoch).permutation(n)
        else:
            order = np.arange(n)

        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if cfg.augment is not None:
                batch = [
                    data_mod.augment(train_set.samples[i], cfg.augment,
                                     _augment_rng(cfg.augment.seed, epoch, int(i)))
                    for i in idx
                ]
                xb = _stack_pixels(batch)
            else:
                xb = _stack_pixels([train_set.samples[i] for i in idx])
            _, trace = model_forward(model, xb)
            out = _compute_loss(trace.logits, labels[idx], cfg.loss_kind, cfg.focal)
            if not np.isfinite(out.mean_loss):
                _restore(model, last_good)
                raise DivergenceDetected(
                    f"non-finite loss at epoch {epoch}; restored last good state",
                    records=records, epoch=epoch,
                )
            model_backward(model, trace, out.dlogits)
            sgd_step(model, cfg.learning_rate)

        train_loss, train_acc, _ = evaluate(model, train_set, cfg.loss_kind, cfg.focal)
        val_loss, val_acc, _ = evaluate(model, val_set, cfg.loss_kind, cfg.focal)
        records.append(EpochRecord(epoch=epoch, train_loss=train_loss,
                                   train_acc=train_acc, val_loss=val_loss,
                                   val_acc=val_acc))
        last_good = _snapshot(model)

    return records, model
