"""Confusion matrices, accuracy / sensitivity / specificity, and the metrics report.

    accuracy    = (TP + TN) / (TP + FP + TN + FN)
    sensitivity = TP / (TP + FN)        (true positive rate, recall)
    specificity = TN / (TN + FP)        (true negative rate)

A K-class confusion matrix is reported in three modes: ``binarized_nodule``
collapses the classes into a positive/negative partition (e.g. nodule vs.
normal) and applies the binary formulas once; ``macro_ovr`` applies them
one-vs-rest per class and macro-averages; ``per_class`` lists the same
per-class rows without an average. Each mode is the JSON object it is
written as, and ``metrics_json`` builds the whole ``metrics.json`` payload
(also ``evaluate``'s stdout) from them.

Counting is exact integer arithmetic until the final division. A metric
with a zero denominator is *undefined* and reported as ``None`` (JSON
null), never as 0 or 1; ``_ratio`` is that one rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidLabel, InvalidPartition, InvalidShape


@dataclass
class ConfusionMatrix:
    """K x K count matrix: counts[true_class][predicted_class]."""

    k: int
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class BinaryCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(true_labels, pred_labels, k: int) -> ConfusionMatrix:
    """Tally (true, predicted) pairs into a K x K matrix."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    pred_labels = np.asarray(pred_labels, dtype=np.int64)
    if true_labels.shape != pred_labels.shape or true_labels.ndim != 1:
        raise InvalidShape("label vectors must be 1-D and equal length")
    if k < 1:
        raise InvalidLabel(f"class count must be >= 1, got {k}")
    for name, labels in (("true", true_labels), ("predicted", pred_labels)):
        if labels.size and (labels.min() < 0 or labels.max() >= k):
            raise InvalidLabel(f"{name} labels must lie in [0, {k})")
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (true_labels, pred_labels), 1)
    return ConfusionMatrix(k, counts)


def binarize(cm: ConfusionMatrix, positive_classes) -> BinaryCounts:
    """Collapse a K-class matrix into TP/FP/TN/FN under a class partition.

    ``positive_classes`` must be a non-empty proper subset of the classes;
    the total count is conserved.
    """
    pos = sorted(set(int(c) for c in positive_classes))
    if any(c < 0 or c >= cm.k for c in pos):
        raise InvalidLabel(f"positive classes must lie in [0, {cm.k})")
    if len(pos) == 0 or len(pos) == cm.k:
        raise InvalidPartition(
            "positive classes must be a non-empty proper subset"
        )
    side = np.zeros((2, cm.k), dtype=np.int64)  # row 0 positive, row 1 negative
    side[0, pos] = 1
    side[1] = 1 - side[0]
    (tp, fn), (fp, tn) = (side @ cm.counts @ side.T).tolist()
    return BinaryCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def _ratio(part: float, whole: int) -> float | None:
    """part / whole, or None (undefined) when whole is 0."""
    return None if whole == 0 else part / whole


def accuracy(bc: BinaryCounts) -> float | None:
    """(TP + TN) / total; None on an empty tally."""
    return _ratio(bc.tp + bc.tn, bc.total)


def sensitivity(bc: BinaryCounts) -> float | None:
    """TP / (TP + FN); None when there are no actual positives."""
    return _ratio(bc.tp, bc.tp + bc.fn)


def specificity(bc: BinaryCounts) -> float | None:
    """TN / (TN + FP); None when there are no actual negatives."""
    return _ratio(bc.tn, bc.tn + bc.fp)


def binarized_report(cm: ConfusionMatrix, positive_classes) -> dict:
    """The binary formulas once, over a positive/negative class partition."""
    bc = binarize(cm, positive_classes)
    return {"mode": "binarized_nodule", "accuracy": accuracy(bc),
            "sensitivity": sensitivity(bc), "specificity": specificity(bc),
            "confusion": cm.counts.tolist(), "per_class": None}


def macro_report(cm: ConfusionMatrix) -> dict:
    """One-vs-rest sensitivity/specificity per class, macro-averaged.

    The macro average is the unweighted mean over classes where the metric
    is defined; overall accuracy is trace / total.
    """
    if cm.k < 2:
        raise InvalidPartition("macro report needs at least 2 classes")
    per_class = []
    for c in range(cm.k):
        bc = binarize(cm, [c])
        per_class.append({
            "class_index": c,
            "tp": bc.tp, "fp": bc.fp, "tn": bc.tn, "fn": bc.fn,
            "sensitivity": sensitivity(bc),
            "specificity": specificity(bc),
        })
    sens = [row["sensitivity"] for row in per_class if row["sensitivity"] is not None]
    spec = [row["specificity"] for row in per_class if row["specificity"] is not None]
    return {"mode": "macro_ovr",
            "accuracy": _ratio(int(np.trace(cm.counts)), cm.total),
            "sensitivity": _ratio(sum(sens), len(sens)),
            "specificity": _ratio(sum(spec), len(spec)),
            "confusion": cm.counts.tolist(), "per_class": per_class}


def default_positive_classes(class_names: list[str]) -> list[int]:
    """Positive classes for the binarized report.

    Classes whose name contains "normal" form the negative side; when no
    such class exists, the last class plays the negative role.
    """
    negatives = [i for i, n in enumerate(class_names) if "normal" in n.lower()]
    if not negatives or len(negatives) == len(class_names):
        negatives = [len(class_names) - 1]
    return [i for i in range(len(class_names)) if i not in negatives]


def metrics_json(split: str, mean_loss: float, cm: ConfusionMatrix,
                 class_names: list[str], positive_classes: list[int]) -> dict:
    """The ``metrics.json`` payload of one split: its loss and every report mode."""
    macro = macro_report(cm)
    for row in macro["per_class"]:
        row["class_name"] = class_names[row["class_index"]]
    binarized = binarized_report(cm, positive_classes)
    binarized["positive_classes"] = sorted(set(positive_classes))
    return {"split": split, "num_samples": cm.total, "class_names": class_names,
            "loss": mean_loss, "accuracy": macro["accuracy"],
            "reports": {"binarized_nodule": binarized, "macro_ovr": macro,
                        "per_class": macro | {"mode": "per_class", "sensitivity": None,
                                              "specificity": None}}}
