"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS/FAIL line (visible with ``pytest -s``).

The learning and determinism criteria drive the real CLI/engine end to end
on the synthetic dataset; the clinical-dataset criterion runs only when the
gated export is staged locally (see README).
"""

import contextlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import central_diff, rel_err

from lenetkit import cli
from lenetkit.checkpoint import model_to_checkpoint, save_checkpoint
from lenetkit.data import load_dataset
from lenetkit.loss import FocalConfig, cross_entropy, focal_loss
from lenetkit.metrics import (
    BinaryCounts,
    accuracy,
    binarize,
    confusion,
    macro_report,
    sensitivity,
    specificity,
)
from lenetkit.nn import (
    avgpool2d_backward,
    avgpool2d_forward,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    init_params,
    model_forward,
    sigmoid_backward,
    sigmoid_forward,
)
from lenetkit.train import TrainConfig, train

FD_EPS = 1e-5
FD_TOL = 1e-4
N_INSTANCES = 20


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


# ---------------------------------------------------------------------------
# 1. gradient correctness, every layer and both losses
# ---------------------------------------------------------------------------

def _check_conv_instance(rng, cin, cout):
    x = rng.normal(size=(1, cin, 8, 8))
    k = rng.normal(size=(cout, cin, 5, 5))
    b = rng.normal(size=cout)
    proj = rng.normal(size=(1, cout, 4, 4))

    def loss():
        return float((conv2d_forward(x, k, b) * proj).sum())

    dx, dk, db = conv2d_backward(x, k, proj)
    assert rel_err(dx, central_diff(loss, x, FD_EPS)) <= FD_TOL
    assert rel_err(dk, central_diff(loss, k, FD_EPS)) <= FD_TOL
    assert rel_err(db, central_diff(loss, b, FD_EPS)) <= FD_TOL


def _check_pool_instance(rng, c, hw):
    x = rng.normal(size=(1, c, hw, hw))
    proj = rng.normal(size=(1, c, hw // 2, hw // 2))

    def loss():
        return float((avgpool2d_forward(x) * proj).sum())

    dx = avgpool2d_backward(x.shape, proj)
    assert rel_err(dx, central_diff(loss, x, FD_EPS)) <= FD_TOL


def _check_sigmoid_instance(rng, shape):
    x = rng.normal(size=shape)
    proj = rng.normal(size=shape)

    def loss():
        return float((sigmoid_forward(x) * proj).sum())

    dx = sigmoid_backward(sigmoid_forward(x), proj)
    assert rel_err(dx, central_diff(loss, x, FD_EPS)) <= FD_TOL


def _check_dense_instance(rng, n_in, n_out):
    x = rng.normal(size=(2, n_in))
    w = rng.normal(size=(n_in, n_out))
    b = rng.normal(size=n_out)
    proj = rng.normal(size=(2, n_out))

    def loss():
        return float((dense_forward(x, w, b) * proj).sum())

    dx, dw, db = dense_backward(x, w, proj)
    assert rel_err(dx, central_diff(loss, x, FD_EPS)) <= FD_TOL
    assert rel_err(dw, central_diff(loss, w, FD_EPS)) <= FD_TOL
    assert rel_err(db, central_diff(loss, b, FD_EPS)) <= FD_TOL


def _check_loss_instance(rng, kind):
    logits = rng.normal(size=(3, 4))
    targets = rng.integers(0, 4, size=3)
    cfg = FocalConfig(gamma=2.0, alpha=rng.uniform(0.5, 2.0, size=4))

    if kind == "focal":
        def loss():
            return focal_loss(logits, targets, cfg).mean_loss
        dlogits = focal_loss(logits, targets, cfg).dlogits
    else:
        def loss():
            return cross_entropy(logits, targets).mean_loss
        dlogits = cross_entropy(logits, targets).dlogits
    assert rel_err(dlogits, central_diff(loss, logits, FD_EPS)) <= FD_TOL


def test_gradient_correctness():
    """Analytic gradients match central finite differences everywhere."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    layer_checks = {
        "conv1": lambda: _check_conv_instance(rng, cin=1, cout=3),
        "conv2": lambda: _check_conv_instance(rng, cin=3, cout=4),
        "pool1": lambda: _check_pool_instance(rng, c=3, hw=6),
        "pool2": lambda: _check_pool_instance(rng, c=4, hw=4),
        "sigmoid_conv1": lambda: _check_sigmoid_instance(rng, (1, 3, 6, 6)),
        "sigmoid_conv2": lambda: _check_sigmoid_instance(rng, (1, 4, 4, 4)),
        "sigmoid_fc1": lambda: _check_sigmoid_instance(rng, (2, 10)),
        "sigmoid_fc2": lambda: _check_sigmoid_instance(rng, (2, 8)),
        "fc1": lambda: _check_dense_instance(rng, 12, 8),
        "fc2": lambda: _check_dense_instance(rng, 8, 6),
        "fc_out": lambda: _check_dense_instance(rng, 6, 3),
        "cross_entropy": lambda: _check_loss_instance(rng, "cross_entropy"),
        "focal": lambda: _check_loss_instance(rng, "focal"),
    }
    with criterion("gradient correctness (all layers + both losses, "
                   f"{N_INSTANCES} instances each, rel err <= {FD_TOL})"):
        for name, check in layer_checks.items():
            for _ in range(N_INSTANCES):
                check()
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. oracle equivalence
# ---------------------------------------------------------------------------

def test_oracle_equivalence():
    rng = np.random.default_rng(77)
    with criterion("oracle equivalence (conv, pool, matmul, metrics)"):
        # conv2d_forward vs six-nested-loop oracle
        for _ in range(5):
            x = rng.normal(size=(2, 2, 6, 7))
            k = rng.normal(size=(3, 2, 3, 3))
            b = rng.normal(size=3)
            expect = np.zeros((2, 3, 4, 5))
            for ni in range(2):
                for o in range(3):
                    for i in range(4):
                        for j in range(5):
                            acc = b[o]
                            for c in range(2):
                                for u in range(3):
                                    for v in range(3):
                                        acc += x[ni, c, i + u, j + v] * k[o, c, u, v]
                            expect[ni, o, i, j] = acc
            np.testing.assert_allclose(conv2d_forward(x, k, b), expect,
                                       rtol=1e-12, atol=1e-12)

        # avgpool2d_forward vs windowed-mean oracle
        for _ in range(5):
            x = rng.normal(size=(2, 3, 6, 8))
            out = avgpool2d_forward(x)
            for ni in range(2):
                for c in range(3):
                    for i in range(3):
                        for j in range(4):
                            window = x[ni, c, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
                            np.testing.assert_allclose(out[ni, c, i, j],
                                                       window.mean(), rtol=1e-12)

        # matmul (dense_forward with zero bias) vs triple-loop oracle
        for _ in range(5):
            m, kk, n = rng.integers(1, 33, size=3)
            a = rng.normal(size=(m, kk))
            b = rng.normal(size=(kk, n))
            expect = np.zeros((m, n))
            for i in range(m):
                for j in range(n):
                    s = 0.0
                    for q in range(kk):
                        s += a[i, q] * b[q, j]
                    expect[i, j] = s
            np.testing.assert_allclose(dense_forward(a, b, np.zeros(n)), expect,
                                       rtol=1e-12, atol=1e-12)

        # confusion / binarize / macro_report vs counting oracles (exact)
        for _ in range(5):
            true = rng.integers(0, 4, size=200)
            pred = rng.integers(0, 4, size=200)
            cm = confusion(true, pred, 4)
            for t in range(4):
                for p in range(4):
                    assert cm.counts[t, p] == int(((true == t) & (pred == p)).sum())

            positives = {0, 2}
            bc = binarize(cm, positives)
            tp = sum(1 for t, p in zip(true, pred) if t in positives and p in positives)
            fn = sum(1 for t, p in zip(true, pred) if t in positives and p not in positives)
            fp = sum(1 for t, p in zip(true, pred) if t not in positives and p in positives)
            tn = sum(1 for t, p in zip(true, pred) if t not in positives and p not in positives)
            assert (bc.tp, bc.fn, bc.fp, bc.tn) == (tp, fn, fp, tn)
            assert bc.total == 200

            report = macro_report(cm)
            sens, spec = [], []
            for c in range(4):
                ctp = int(((true == c) & (pred == c)).sum())
                cfn = int(((true == c) & (pred != c)).sum())
                cfp = int(((true != c) & (pred == c)).sum())
                ctn = int(((true != c) & (pred != c)).sum())
                if ctp + cfn:
                    sens.append(ctp / (ctp + cfn))
                if ctn + cfp:
                    spec.append(ctn / (ctn + cfp))
            assert report.sensitivity == sum(sens) / len(sens)
            assert report.specificity == sum(spec) / len(spec)
            assert report.accuracy == float((true == pred).sum()) / 200


# ---------------------------------------------------------------------------
# 3. loss identities
# ---------------------------------------------------------------------------

def test_loss_identities():
    rng = np.random.default_rng(55)
    with criterion("loss identities (focal(0,1) == CE; focal <= CE; ln K)"):
        for _ in range(10):
            n, k = int(rng.integers(1, 9)), int(rng.integers(2, 6))
            logits = rng.normal(scale=3.0, size=(n, k))
            targets = rng.integers(0, k, size=n)

            fl0 = focal_loss(logits, targets, FocalConfig(gamma=0.0))
            ce = cross_entropy(logits, targets)
            assert abs(fl0.mean_loss - ce.mean_loss) <= 1e-12
            assert np.max(np.abs(fl0.dlogits - ce.dlogits)) <= 1e-12

            fl2 = focal_loss(logits, targets, FocalConfig(gamma=2.0))
            assert np.all(fl2.per_sample <= ce.per_sample + 1e-15)

            uniform = cross_entropy(np.zeros((4, k)), [0] * 4)
            assert abs(uniform.mean_loss - math.log(k)) <= 1e-12


# ---------------------------------------------------------------------------
# 4. shape contract
# ---------------------------------------------------------------------------

def test_shape_contract():
    from lenetkit.errors import InvalidShape

    with criterion("shape contract ([N,1,32,32] -> ... -> [N,3], raises on "
                   "bad input)"):
        model = init_params(1, num_classes=3)
        x = np.random.default_rng(0).uniform(0, 1, (2, 1, 32, 32))
        probs, trace = model_forward(model, x)
        assert trace.x.shape == (2, 1, 32, 32)
        assert trace.sig1.shape == (2, 6, 28, 28)
        assert trace.pool1.shape == (2, 6, 14, 14)
        assert trace.sig2.shape == (2, 16, 10, 10)
        assert trace.flat.shape == (2, 400)
        assert trace.sig3.shape == (2, 120)
        assert trace.sig4.shape == (2, 84)
        assert probs.shape == (2, 3)

        for bad in [(2, 1, 28, 28), (2, 3, 32, 32), (2, 1, 32, 33),
                    (2, 1, 64, 64), (2, 32, 32)]:
            with pytest.raises(InvalidShape):
                model_forward(model, np.zeros(bad))


# ---------------------------------------------------------------------------
# 5. desk-scale learning
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    assert cli.main(["gen-synthetic", "--out", str(root),
                     "--n-per-class", "20", "--seed", "42"]) == 0
    return root


def _desk_run(root, loss_kind):
    train_set = load_dataset(root, "train")
    val_set = load_dataset(root, "validation")
    model = init_params(42, len(train_set.class_names))
    cfg = TrainConfig(epochs=200, batch_size=8, learning_rate=0.1,
                      loss_kind=loss_kind, seed=42,
                      focal=FocalConfig(gamma=2.0) if loss_kind == "focal" else None)
    records, model = train(model, train_set, val_set, cfg)
    return records, model, train_set.class_names


def test_desk_scale_learning_cross_entropy(desk_dataset, capsys):
    with criterion("desk-scale learning, cross-entropy (train>=0.99 within "
                   "200 epochs, val>=0.90, <=180s)"):
        start = time.monotonic()
        records, model, class_names = _desk_run(desk_dataset, "cross_entropy")
        elapsed = time.monotonic() - start
        hit = next((r.epoch for r in records if r.train_acc >= 0.99), None)
        assert hit is not None, "never reached 0.99 train accuracy"
        assert records[-1].val_acc >= 0.90
        assert elapsed <= 180.0, f"took {elapsed:.0f}s"

        # classify a held training image of class 0 through the fitted model
        ckpt_dir = desk_dataset / "ckpt"
        ckpt_dir.mkdir(exist_ok=True)
        ckpt_path = ckpt_dir / "model.lnck"
        save_checkpoint(ckpt_path, model_to_checkpoint(model,
                                                       class_names=class_names))
        image = sorted((desk_dataset / "train" / "0_horizontal").glob("*.pgm"))[0]
        capsys.readouterr()
        assert cli.main(["predict", "--checkpoint", str(ckpt_path),
                         "--image", str(image)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class_index"] == 0
        assert payload["class_name"] == "0_horizontal"

        # memorization check: the fitted model scores 1.0 back on its
        # own training split through the evaluate command
        assert cli.main(["evaluate", "--checkpoint", str(ckpt_path),
                         "--data", str(desk_dataset), "--split", "train"]) == 0
        eval_payload = json.loads(capsys.readouterr().out)
        assert eval_payload["accuracy"] == 1.0


def test_desk_scale_learning_focal(desk_dataset):
    with criterion("desk-scale learning, focal gamma=2 (train>=0.99 within "
                   "200 epochs)"):
        start = time.monotonic()
        records, _, _ = _desk_run(desk_dataset, "focal")
        assert any(r.train_acc >= 0.99 for r in records)
        assert time.monotonic() - start <= 180.0


# ---------------------------------------------------------------------------
# 6. determinism of cmd_train
# ---------------------------------------------------------------------------

def test_cli_train_determinism(tmp_path):
    with criterion("determinism (two cmd_train runs, byte-identical "
                   "curves.csv and checkpoint.lnck)"):
        root = tmp_path / "data"
        assert cli.main(["gen-synthetic", "--out", str(root),
                         "--n-per-class", "6", "--seed", "3"]) == 0
        for run in ("r1", "r2"):
            code = cli.main(["train", "--data", str(root),
                             "--out", str(tmp_path / run),
                             "--epochs", "5", "--batch-size", "6",
                             "--seed", "42", "--threads", "1"])
            assert code == 0
        for name in ("curves.csv", "checkpoint.lnck"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


# ---------------------------------------------------------------------------
# 7. metric formulas
# ---------------------------------------------------------------------------

def test_metric_formulas():
    with criterion("metric formulas ((93,95,5,7) -> 0.94 / 0.93 / 0.95)"):
        bc = BinaryCounts(tp=93, fp=5, tn=95, fn=7)
        assert accuracy(bc) == 0.94
        assert sensitivity(bc) == 0.93
        assert specificity(bc) == 0.95


# ---------------------------------------------------------------------------
# 8. conditional clinical-dataset check
# ---------------------------------------------------------------------------

TABLE_TARGETS = {"accuracy": 0.9788, "sensitivity": 0.9314, "specificity": 0.9591}


def _clinical_root():
    env = os.environ.get("IQ_OTH_NCCD_ROOT")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "datasets" / "iq_oth_nccd"


def test_clinical_dataset_when_present(tmp_path):
    root = _clinical_root()
    if not root.is_dir():
        pytest.skip(f"clinical dataset not staged at {root}; "
                    "set IQ_OTH_NCCD_ROOT to enable this check")
    with criterion("clinical dataset split counts (120/561/416 train, "
                   "197 validation)"):
        train_set = load_dataset(root, "train")
        val_set = load_dataset(root, "validation")
        assert train_set.class_counts() == [120, 561, 416]
        assert len(val_set) == 197

    # documented comparison only: report metrics next to published targets,
    # no pass/fail (hyperparameters behind the published numbers are unknown)
    out = tmp_path / "clinical_run"
    code = cli.main(["train", "--data", str(root), "--out", str(out),
                     "--loss", "focal", "--seed", "42"])
    assert code == 0
    payload = json.loads((out / "metrics.json").read_text())
    report = payload["reports"]["binarized_nodule"]
    print("\nclinical run vs published targets (informational):")
    for key, target in TABLE_TARGETS.items():
        print(f"  {key}: trained {report[key]} vs published {target}")
    print("[PASS] clinical dataset comparison (informational)")
