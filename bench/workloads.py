"""The three benchmark workloads.

Each workload generates its inputs from the run's seed during ``setup``,
checks its outputs as it goes, and repeats one user-visible unit of work:

- ``desk-train``: seeded SGD on the desk-scale synthetic set (60 train / 12
  validation images, cross-entropy, batch 8, lr 0.1) until the first epoch
  whose train-split evaluation reaches 0.99 accuracy. Small batches make
  per-call overhead and ``conv2d_backward`` dominate; ``evaluate`` runs in
  the blocking path every epoch; augmentation and checkpoints are bypassed.
- ``augment-train``: 300 train / 60 validation images, focal loss, batch 32,
  augmentation on. The GEMMs carry more of the work, and the per-sample
  Python in ``data.augment`` runs on every training image.
- ``serve``: a saved checkpoint answers ``predict`` calls on rotating PGM
  files, interleaved with ``evaluate`` passes over a 600-image split. It
  reads checkpoints (CRC), decodes PGMs and runs forward passes at N = 1 and
  N = 64, with no backward pass, SGD step or augmentation.

The engine's functions are always looked up as module attributes at call
time, so the traced run's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

from lenetkit import checkpoint as ckpt_mod
from lenetkit import cli as cli_mod
from lenetkit import data as data_mod
from lenetkit import loss as loss_mod
from lenetkit import metrics as metrics_mod
from lenetkit import nn as nn_mod
from lenetkit import train as train_mod

# The acceptance test's training seed. Model init and shuffling use it on
# every run, and the benchmark seed drives only the generated images, so
# the number of epochs to the target is the same for every benchmark seed.
TRAIN_SEED = 42
TARGET_ACC = 0.99
NUM_CLASSES = len(data_mod.SYNTH_CLASS_DIRS)


class Checks:
    """Counts operations attempted and failed, wrong outputs included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok

    def expect(self, ok: bool, message: str) -> bool:
        """An invariant of the run itself, which is not an operation."""
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok


def tail_percentile(n: int) -> float:
    """The highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n - math.ceil(p / 100 * n) >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Workload:
    name = ""
    # What the shared end-to-end metrics measure on this workload.
    meaning: dict[str, str] = {}
    min_units = 2
    # Set-ups per run, spread over it; the median is reported. File creation
    # on a shared disk makes single set-ups vary by up to threefold.
    setup_repeats = 20

    def __init__(self, seed: int, checks: Checks):
        self.seed = seed
        self.checks = checks

    def setup(self, root: Path) -> None:
        """Generate inputs under ``root``, load them and build the model."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed warm-up that also records the reference outputs."""
        raise NotImplementedError

    def unit(self) -> dict:
        """One unit of work; returns its timings, ``wall_s`` among them."""
        raise NotImplementedError

    def summarise(self, samples: list[dict]):
        """(end-to-end metrics, further metrics), each name -> (value, unit)."""
        raise NotImplementedError


class _TrainWorkload(Workload):
    n_per_class = 0
    epochs = 0
    config: dict = {}

    def setup(self, root: Path) -> None:
        data_mod.gen_synthetic(root / "train", self.n_per_class, self.seed)
        data_mod.gen_synthetic(root / "validation", math.ceil(self.n_per_class / 5),
                               self.seed + 1)
        self.train_set = data_mod.load_dataset(root, "train")
        self.val_set = data_mod.load_dataset(root, "validation")
        self.initial = nn_mod.init_params(TRAIN_SEED, NUM_CLASSES)

    def _train(self, epochs: int):
        model = copy.deepcopy(self.initial)
        cfg = train_mod.TrainConfig(epochs=epochs, seed=TRAIN_SEED, **self.config)
        start = time.perf_counter()
        records, _ = train_mod.train(model, self.train_set, self.val_set, cfg)
        return records, time.perf_counter() - start

    def unit(self) -> dict:
        records, wall = self._train(self.epochs)
        self.checks.op(records == self.reference,
                       "epoch records differ from the seeded reference run")
        return {"wall_s": wall}

    def summarise(self, samples):
        walls = [s["wall_s"] for s in samples]
        images = len(self.train_set) * self.epochs
        return {"call_ms_p50": (statistics.median(walls) * 1e3, "ms"),
                "images_per_s": (statistics.median(images / w for w in walls),
                                 "img/s")}, {}


class DeskTrain(_TrainWorkload):
    name = "desk-train"
    # Training stops at the target epoch, so a unit's wall time is the time
    # to target (plus that epoch's small validation pass).
    meaning = {"call_ms_p50": "time to target",
               "images_per_s": "training images per second"}
    n_per_class = 20
    # Its set-up takes about 25 ms, so it affords more samples. They run in
    # bursts between its 7 s units, and longer bursts spread wider.
    setup_repeats = 25
    config = {"batch_size": 8, "learning_rate": 0.1}
    # Epoch counts to try when finding the target epoch; 200 is the
    # acceptance test's limit.
    search_epochs = (100, 200)

    def prepare(self) -> None:
        for epochs in self.search_epochs:
            records, _ = self._train(epochs)
            hit = next((r.epoch for r in records if r.train_acc >= TARGET_ACC), None)
            if hit is not None:
                break
        if not self.checks.op(hit is not None,
                              f"train accuracy never reached {TARGET_ACC}"):
            raise RuntimeError("desk-train cannot reach its target")
        self.epochs = hit
        self.reference = records[:hit]

    def summarise(self, samples):
        e2e, _ = super().summarise(samples)
        return e2e, {"epochs_to_target": (self.epochs, "epochs")}


class AugmentTrain(_TrainWorkload):
    name = "augment-train"
    meaning = {"call_ms_p50": "one 2-epoch train call",
               "images_per_s": "training images per second"}
    n_per_class = 100
    epochs = 2
    min_units = 4
    config = {"batch_size": 32, "learning_rate": 0.1, "loss_kind": "focal",
              "focal": loss_mod.FocalConfig(gamma=2.0),
              "augment": data_mod.AugmentConfig(seed=TRAIN_SEED)}

    def prepare(self) -> None:
        records, _ = self._train(self.epochs)
        self.checks.op(all(math.isfinite(r.train_loss) for r in records),
                       "non-finite training loss")
        self.reference = records


class Serve(Workload):
    name = "serve"
    meaning = {"call_ms_p50": "in-process predict call",
               "images_per_s": "evaluate images per second"}
    n_per_class = 200
    predict_images = 16
    predicts_per_round = 8
    # 25 rounds give 200 predict calls, enough for ten samples beyond p95.
    min_units = 25
    # Its set-up takes about half a second.
    setup_repeats = 15

    def setup(self, root: Path) -> None:
        data_mod.gen_synthetic(root / "test", self.n_per_class, self.seed)
        self.dataset = data_mod.load_dataset(root, "test")
        # A freshly initialised model: the forward pass costs the same
        # whatever the weights, and set-up stays free of training.
        model = nn_mod.init_params(self.seed, NUM_CLASSES)
        self.checkpoint = root / "model.lnck"
        ckpt_mod.save_checkpoint(self.checkpoint, ckpt_mod.model_to_checkpoint(
            model, class_names=self.dataset.class_names))

    def prepare(self) -> None:
        ckpt = ckpt_mod.load_checkpoint(self.checkpoint)
        self.model = ckpt_mod.checkpoint_to_model(ckpt)
        self.class_names = ckpt.class_names
        self.positives = metrics_mod.default_positive_classes(self.class_names)
        samples = self.dataset.samples
        step = len(samples) // self.predict_images
        self.images = [s.source_path for s in samples[::step][:self.predict_images]]
        self.expected = [
            nn_mod.model_forward(self.model, data_mod.load_image(p)[None])[0][0]
            for p in self.images]
        self.reference = self._evaluate()[1]
        self.next_image = 0

    def _evaluate(self):
        start = time.perf_counter()
        loss, acc, cm = train_mod.evaluate(self.model, self.dataset)
        metrics_mod.macro_report(cm)
        metrics_mod.binarized_report(cm, self.positives)
        return time.perf_counter() - start, (loss, acc, cm.counts.tolist())

    def _predict(self) -> float:
        i = self.next_image
        self.next_image = (i + 1) % len(self.images)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli_mod.main(["predict", "--checkpoint", str(self.checkpoint),
                                 "--image", self.images[i]])
        wall = time.perf_counter() - start
        ok = code == 0
        if ok:
            got = json.loads(out.getvalue())
            probs = np.array(got["probs"])
            ok = (got["class_index"] == int(np.argmax(probs))
                  and got["class_name"] == self.class_names[got["class_index"]]
                  and probs.shape == self.expected[i].shape
                  and float(np.max(np.abs(probs - self.expected[i]))) <= 1e-9)
        self.checks.op(ok, f"predict on {self.images[i]} gave a wrong answer"
                           f" (exit {code})")
        return wall

    def unit(self) -> dict:
        start = time.perf_counter()
        eval_s, result = self._evaluate()
        self.checks.op(result == self.reference,
                       "evaluate result differs from the reference pass")
        predict_s = [self._predict() for _ in range(self.predicts_per_round)]
        return {"wall_s": time.perf_counter() - start, "eval_s": eval_s,
                "predict_s": predict_s}

    def summarise(self, samples):
        predict = [t for s in samples for t in s["predict_s"]]
        p50 = statistics.median(predict) * 1e3
        tail_p = tail_percentile(len(predict))
        eval_rate = statistics.median(len(self.dataset) / s["eval_s"] for s in samples)
        e2e = {"call_ms_p50": (p50, "ms"), "images_per_s": (eval_rate, "img/s")}
        extra = {"predict_ms_tail": (percentile(predict, tail_p) * 1e3, "ms"),
                 "predict_tail_percentile": (tail_p, "pct"),
                 "predict_calls": (len(predict), "count")}
        return e2e, extra


WORKLOADS = {w.name: w for w in (DeskTrain, AugmentTrain, Serve)}
