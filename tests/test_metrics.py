import json

import numpy as np
import pytest

from lenetkit.errors import InvalidLabel, InvalidPartition
from lenetkit.metrics import (
    BinaryCounts,
    accuracy,
    binarize,
    binarized_report,
    confusion,
    default_positive_classes,
    macro_report,
    metrics_json,
    sensitivity,
    specificity,
)


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        labels = [0, 1, 2, 1, 0]
        cm = confusion(labels, labels, 3)
        assert np.all(cm.counts == np.diag(np.diag(cm.counts)))
        assert cm.total == 5

    def test_hand_example(self):
        cm = confusion([0, 1, 2], [0, 2, 2], 3)
        assert cm.counts[0][0] == 1
        assert cm.counts[1][2] == 1
        assert cm.counts[2][2] == 1
        assert cm.counts.sum() == 3

    def test_row_sums_are_true_counts(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 4, size=500)
        pred = rng.integers(0, 4, size=500)
        cm = confusion(true, pred, 4)
        for c in range(4):
            assert cm.counts[c].sum() == int((true == c).sum())

    def test_label_out_of_range(self):
        with pytest.raises(InvalidLabel):
            confusion([0, 3], [0, 1], 3)
        with pytest.raises(InvalidLabel):
            confusion([0, 1], [0, -1], 3)

    def test_one_class_is_the_smallest_matrix(self):
        assert confusion([0, 0], [0, 0], 1).counts.tolist() == [[2]]
        with pytest.raises(InvalidLabel):
            confusion([], [], 0)


class TestBinarize:
    def test_diagonal_has_no_errors(self):
        cm = confusion([0, 1, 2], [0, 1, 2], 3)
        bc = binarize(cm, {0, 1})
        assert bc.fp == 0 and bc.fn == 0

    def test_normal_predicted_benign_is_false_positive(self):
        cm = confusion([2] * 5, [0] * 5, 3)
        bc = binarize(cm, {0, 1})
        assert bc.fp == 5 and bc.tp == 0 and bc.tn == 0 and bc.fn == 0

    def test_total_conserved(self):
        rng = np.random.default_rng(1)
        cm = confusion(rng.integers(0, 3, 200), rng.integers(0, 3, 200), 3)
        bc = binarize(cm, {0, 1})
        assert bc.total == cm.total == 200

    def test_invalid_partitions(self):
        cm = confusion([0, 1], [0, 1], 2)
        with pytest.raises(InvalidPartition):
            binarize(cm, set())
        with pytest.raises(InvalidPartition):
            binarize(cm, {0, 1})
        with pytest.raises(InvalidLabel):
            binarize(cm, {5})
        with pytest.raises(InvalidLabel):  # the first index past the last class
            binarize(cm, {2})


class TestBinaryFormulas:
    def test_hand_computed_triple(self):
        bc = BinaryCounts(tp=93, fp=5, tn=95, fn=7)
        assert accuracy(bc) == 188 / 200 == 0.94
        assert sensitivity(bc) == 93 / 100 == 0.93
        assert specificity(bc) == 95 / 100 == 0.95

    def test_all_correct(self):
        bc = BinaryCounts(tp=10, fp=0, tn=5, fn=0)
        assert accuracy(bc) == 1.0
        assert sensitivity(bc) == 1.0
        assert specificity(bc) == 1.0

    def test_all_wrong(self):
        assert accuracy(BinaryCounts(tp=0, fp=1, tn=0, fn=1)) == 0.0

    def test_undefined_is_none_not_zero(self):
        no_pos = BinaryCounts(tp=0, fp=3, tn=4, fn=0)
        assert sensitivity(no_pos) is None
        no_neg = BinaryCounts(tp=3, fp=0, tn=0, fn=4)
        assert specificity(no_neg) is None
        assert accuracy(BinaryCounts(0, 0, 0, 0)) is None

    def test_range_when_defined(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            bc = BinaryCounts(*(int(v) for v in rng.integers(0, 50, size=4)))
            for metric in (accuracy(bc), sensitivity(bc), specificity(bc)):
                assert metric is None or 0.0 <= metric <= 1.0


class TestMacroReport:
    def test_diagonal_all_ones(self):
        cm = confusion([0, 1, 2, 2], [0, 1, 2, 2], 3)
        report = macro_report(cm)
        assert report["accuracy"] == 1.0
        assert report["sensitivity"] == 1.0
        assert report["specificity"] == 1.0

    def test_two_class_macro_is_mean_of_recalls(self):
        cm = confusion([0, 0, 0, 1, 1], [0, 0, 1, 1, 0], 2)
        report = macro_report(cm)
        recall0, recall1 = 2 / 3, 1 / 2
        np.testing.assert_allclose(report["sensitivity"], (recall0 + recall1) / 2)
        # OvR specificity of class 0 is recall of class 1 and vice versa
        np.testing.assert_allclose(report["specificity"], (recall1 + recall0) / 2)

    def test_against_brute_force_ovr_oracle(self):
        rng = np.random.default_rng(3)
        true = rng.integers(0, 4, size=300)
        pred = rng.integers(0, 4, size=300)
        cm = confusion(true, pred, 4)
        report = macro_report(cm)

        sens, spec = [], []
        for c in range(4):
            tp = int(((true == c) & (pred == c)).sum())
            fn = int(((true == c) & (pred != c)).sum())
            fp = int(((true != c) & (pred == c)).sum())
            tn = int(((true != c) & (pred != c)).sum())
            row = report["per_class"][c]
            assert (row["tp"], row["fp"], row["tn"], row["fn"]) == (tp, fp, tn, fn)
            if tp + fn:
                sens.append(tp / (tp + fn))
            if tn + fp:
                spec.append(tn / (tn + fp))
        assert report["sensitivity"] == sum(sens) / len(sens)
        assert report["specificity"] == sum(spec) / len(spec)
        assert report["accuracy"] == (true == pred).mean()

    def test_accuracy_equals_matching_fraction(self):
        rng = np.random.default_rng(4)
        true = rng.integers(0, 3, size=97)
        pred = rng.integers(0, 3, size=97)
        report = macro_report(confusion(true, pred, 3))
        assert report["accuracy"] == float((true == pred).sum()) / 97


class TestReportPlumbing:
    def test_default_positive_classes_uses_normal(self):
        names = ["benign", "malignant", "normal"]
        assert default_positive_classes(names) == [0, 1]

    def test_default_positive_classes_normal_not_last(self):
        # sorted IQ-OTH/NCCD names put "Normal cases" last; any other position
        # must still make the normal class the negative one
        assert default_positive_classes(["Normal cases", "benign", "malignant"]) == [1, 2]
        assert default_positive_classes(["benign", "normal", "malignant"]) == [0, 2]

    def test_default_positive_classes_fallback(self):
        assert default_positive_classes(["a", "b", "c"]) == [0, 1]
        assert default_positive_classes(["x", "y"]) == [0]

    def test_report_json_shape(self):
        cm = confusion([0, 1, 2], [0, 1, 1], 3)
        payload = binarized_report(cm, [0, 1])
        assert payload["mode"] == "binarized_nodule"
        assert payload["confusion"] == cm.counts.tolist()
        assert set(payload) == {"mode", "accuracy", "sensitivity",
                                "specificity", "confusion", "per_class"}

    def test_report_json_null_for_undefined(self):
        cm = confusion([0, 0], [0, 1], 3)  # no samples of class 2
        payload = binarized_report(cm, [2])
        assert payload["sensitivity"] is None

    def test_metrics_json_payload(self):
        #           predicted: benign malignant normal
        counts = [[3, 1, 0],  # benign
                  [0, 2, 1],  # malignant
                  [1, 0, 4]]  # normal
        true = [t for t in range(3) for p in range(3) for _ in range(counts[t][p])]
        pred = [p for t in range(3) for p in range(3) for _ in range(counts[t][p])]
        names = ["benign", "malignant", "normal"]
        rows = [
            {"class_index": 0, "class_name": "benign", "tp": 3, "fp": 1, "tn": 7, "fn": 1,
             "sensitivity": 3 / 4, "specificity": 7 / 8},
            {"class_index": 1, "class_name": "malignant", "tp": 2, "fp": 1, "tn": 8,
             "fn": 1, "sensitivity": 2 / 3, "specificity": 8 / 9},
            {"class_index": 2, "class_name": "normal", "tp": 4, "fp": 1, "tn": 6, "fn": 1,
             "sensitivity": 4 / 5, "specificity": 6 / 7},
        ]
        macro = {"mode": "macro_ovr", "accuracy": 9 / 12,
                 "sensitivity": (3 / 4 + 2 / 3 + 4 / 5) / 3,
                 "specificity": (7 / 8 + 8 / 9 + 6 / 7) / 3,
                 "confusion": counts, "per_class": rows}
        payload = metrics_json("test", 0.5, confusion(true, pred, 3), names, [1, 0])
        # positives {benign, malignant}: TP 6, FN 1, FP 1, TN 4
        assert json.loads(json.dumps(payload, allow_nan=False)) == {
            "split": "test", "num_samples": 12, "class_names": names, "loss": 0.5,
            "accuracy": 9 / 12,
            "reports": {
                "binarized_nodule": {
                    "mode": "binarized_nodule", "accuracy": 10 / 12,
                    "sensitivity": 6 / 7, "specificity": 4 / 5, "confusion": counts,
                    "per_class": None, "positive_classes": [0, 1]},
                "macro_ovr": macro,
                "per_class": {**macro, "mode": "per_class", "sensitivity": None,
                              "specificity": None},
            },
        }
