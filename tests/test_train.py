import weakref

import numpy as np
import pytest

from lenetkit import train as train_mod
from lenetkit.data import AugmentConfig, Dataset, Sample, gen_synthetic, load_dataset
from lenetkit.errors import DivergenceDetected, EmptyDataset, InvalidConfig
from lenetkit.loss import FocalConfig, cross_entropy
from lenetkit.metrics import macro_report
from lenetkit.nn import init_params, model_backward, model_forward
from lenetkit.train import TrainConfig, evaluate, sgd_step, train


def tiny_dataset(n_per_class=3, seed=0, split="train"):
    """In-memory 3-class set of random images with noise-free class means."""
    rng = np.random.default_rng(seed)
    samples = []
    means = [0.2, 0.5, 0.8]
    for label, mu in enumerate(means):
        for _ in range(n_per_class):
            img = np.clip(rng.normal(mu, 0.05, size=(1, 32, 32)), 0, 1)
            samples.append(Sample(pixels=img, label=label, source_path="mem"))
    return Dataset(samples=samples, class_names=["a", "b", "c"], split=split)


def param_bytes(model):
    return b"".join(value.tobytes() for value in model.params.values())


class TestSgdStep:
    def test_zero_lr_is_identity(self):
        model = init_params(0)
        before = param_bytes(model)
        sgd_step(model, {name: np.ones_like(value)
                         for name, value in model.params.items()}, 0.0)
        assert param_bytes(model) == before

    def test_single_weight_update(self):
        model = init_params(1)
        p = model.params["fc1.bias"]
        p[0] = 1.0
        grads = {name: np.zeros_like(value) for name, value in model.params.items()}
        grads["fc1.bias"][0] = 0.5
        sgd_step(model, grads, 0.1)
        np.testing.assert_allclose(p[0], 0.95, rtol=1e-15)

    def test_two_steps_equal_one_double_step(self):
        m1, m2 = init_params(2), init_params(2)
        rng = np.random.default_rng(3)
        grads = {name: rng.normal(size=value.shape) for name, value in m1.params.items()}
        sgd_step(m1, grads, 0.01)
        sgd_step(m1, grads, 0.01)
        sgd_step(m2, grads, 0.02)
        for name, value in m1.params.items():
            np.testing.assert_allclose(value, m2.params[name], rtol=1e-15, atol=1e-15)

    def test_small_step_decreases_loss(self):
        # re-forward after the step; property over random instances
        rng = np.random.default_rng(4)
        for trial in range(5):
            model = init_params(trial)
            x = rng.uniform(0, 1, (1, 1, 32, 32))
            target = [int(rng.integers(0, 3))]
            _, trace = model_forward(model, x)
            out = cross_entropy(trace.logits, target)
            sgd_step(model, model_backward(model, trace, out.dlogits), 1e-4)
            _, trace2 = model_forward(model, x)
            after = cross_entropy(trace2.logits, target).mean_loss
            assert after < out.mean_loss


class TestEvaluate:
    def test_never_mutates_model(self):
        model = init_params(5)
        ds = tiny_dataset()
        before = param_bytes(model)
        evaluate(model, ds)
        assert param_bytes(model) == before

    def test_pure_and_repeatable(self):
        model = init_params(6)
        ds = tiny_dataset()
        a = evaluate(model, ds)
        b = evaluate(model, ds)
        assert a[0] == b[0] and a[1] == b[1]
        np.testing.assert_array_equal(a[2].counts, b[2].counts)

    def test_accuracy_consistent_with_metrics_module(self):
        model = init_params(7)
        ds = tiny_dataset(n_per_class=5)
        _, acc, cm = evaluate(model, ds)
        assert acc == macro_report(cm)["accuracy"]

    def test_single_correct_sample(self):
        model = init_params(8)
        ds = tiny_dataset(n_per_class=4)
        probs, _ = model_forward(model, ds.samples[0].pixels[None])
        predicted = int(np.argmax(probs))
        one = Dataset(samples=[Sample(ds.samples[0].pixels, predicted, "mem")],
                      class_names=ds.class_names, split="train")
        _, acc, _ = evaluate(model, one)
        assert acc == 1.0

    def test_loss_and_predictions_over_chunks_match_one_traced_pass(self):
        model = init_params(11)
        ds = tiny_dataset(n_per_class=25)  # 75 images: chunks of 64 and 11
        labels = [s.label for s in ds.samples]
        probs, trace = model_forward(model, np.stack([s.pixels for s in ds.samples]))
        loss, acc, cm = evaluate(model, ds)
        np.testing.assert_allclose(loss, cross_entropy(trace.logits, labels).mean_loss,
                                   rtol=1e-13)
        assert acc == np.mean(np.argmax(probs, axis=1) == labels)
        assert cm.total == 75

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            evaluate(init_params(9), Dataset([], ["a"], "train"))

    def test_focal_loss_kind(self):
        model = init_params(10)
        ds = tiny_dataset()
        ce_loss, _, _ = evaluate(model, ds, "cross_entropy")
        fl_loss, _, _ = evaluate(model, ds, "focal", FocalConfig(gamma=2.0))
        assert fl_loss < ce_loss  # modulator < 1 on imperfect predictions


class TestOneTraceAlive:
    """Each chunk's or step's trace is freed before the next forward runs."""

    @pytest.fixture
    def traces(self, monkeypatch):
        traces = []  # a weak reference to each trace that model_forward returned

        def forward(model, x):
            alive = sum(ref() is not None for ref in traces)
            assert not alive, f"{alive} earlier trace(s) alive at forward {len(traces) + 1}"
            probs, trace = model_forward(model, x)
            traces.append(weakref.ref(trace))
            return probs, trace

        monkeypatch.setattr(train_mod, "model_forward", forward)
        return traces

    def test_in_evaluate(self, traces):
        evaluate(init_params(12), tiny_dataset(n_per_class=50))  # 150 images
        assert len(traces) == 3  # chunks of 64, 64 and 22

    def test_in_train(self, traces):
        val = tiny_dataset(n_per_class=1, seed=1, split="validation")
        records, _ = train(init_params(13), tiny_dataset(), val,
                           TrainConfig(epochs=2, batch_size=3, seed=1))
        assert len(records) == 2
        assert len(traces) == 2 * (3 + 2)  # per epoch, 3 steps and 2 one-chunk evaluations


class TestTrainLoop:
    def test_zero_epochs_is_noop(self):
        model = init_params(11)
        before = param_bytes(model)
        records, out = train(model, tiny_dataset(), tiny_dataset(seed=1),
                             TrainConfig(epochs=0, batch_size=2))
        assert records == []
        assert out is model
        assert param_bytes(model) == before

    def test_zero_lr_keeps_params_and_matches_untrained(self):
        model = init_params(12)
        val = tiny_dataset(seed=2, split="validation")
        _, untrained_acc, _ = evaluate(model, val)
        before = param_bytes(model)
        records, _ = train(model, tiny_dataset(), val,
                           TrainConfig(epochs=1, batch_size=3, learning_rate=0.0))
        assert param_bytes(model) == before
        assert records[0].val_acc == untrained_acc

    def test_record_count_and_fields(self):
        records, _ = train(init_params(13), tiny_dataset(), tiny_dataset(seed=3),
                           TrainConfig(epochs=4, batch_size=3))
        assert [r.epoch for r in records] == [1, 2, 3, 4]
        for r in records:
            assert 0.0 <= r.train_acc <= 1.0 and 0.0 <= r.val_acc <= 1.0
            assert r.train_loss >= 0.0 and r.val_loss >= 0.0

    def test_bitwise_determinism(self):
        cfg = TrainConfig(epochs=3, batch_size=4, seed=99)
        runs = []
        for _ in range(2):
            model = init_params(14)
            records, _ = train(model, tiny_dataset(), tiny_dataset(seed=4), cfg)
            runs.append((records, param_bytes(model)))
        assert runs[0][0] == runs[1][0]  # EpochRecords compare exactly
        assert runs[0][1] == runs[1][1]  # parameter bytes identical

    def test_determinism_with_augmentation(self):
        cfg = TrainConfig(epochs=2, batch_size=4, seed=7,
                          augment=AugmentConfig(seed=7))
        runs = []
        for _ in range(2):
            model = init_params(15)
            records, _ = train(model, tiny_dataset(), tiny_dataset(seed=5), cfg)
            runs.append((records, param_bytes(model)))
        assert runs[0] == runs[1]

    def test_focal_without_a_config_trains_as_the_default_config(self):
        runs = []
        for focal in (None, FocalConfig()):
            model = init_params(19)
            records, _ = train(model, tiny_dataset(), tiny_dataset(seed=6),
                               TrainConfig(epochs=2, batch_size=4, seed=8,
                                           loss_kind="focal", focal=focal))
            runs.append((records, param_bytes(model)))
        assert runs[0] == runs[1]
        assert runs[0][0] != train(init_params(19), tiny_dataset(), tiny_dataset(seed=6),
                                   TrainConfig(epochs=2, batch_size=4, seed=8))[0]

    def test_empty_sets_rejected(self):
        empty = Dataset([], ["a", "b", "c"], "train")
        with pytest.raises(EmptyDataset):
            train(init_params(16), empty, tiny_dataset(), TrainConfig(epochs=1))
        with pytest.raises(EmptyDataset):
            train(init_params(16), tiny_dataset(), empty, TrainConfig(epochs=1))

    def test_batch_size_exceeding_set_rejected(self):
        with pytest.raises(InvalidConfig):
            train(init_params(17), tiny_dataset(n_per_class=1), tiny_dataset(),
                  TrainConfig(epochs=1, batch_size=100))

    def test_divergence_detected_and_state_restored(self):
        # the layers saturate instead of overflowing, so the realistic
        # trigger is poisoned input producing a NaN loss
        model = init_params(18)
        ds = tiny_dataset()
        ds.samples[0].pixels[0, 5, 5] = np.nan
        before = param_bytes(model)
        with pytest.raises(DivergenceDetected) as err:
            train(model, ds, tiny_dataset(seed=6),
                  TrainConfig(epochs=5, batch_size=9, shuffle=False))
        # restored to the last good snapshot; params must be finite
        for value in model.params.values():
            assert np.all(np.isfinite(value))
        assert err.value.records == []
        # divergence hits in epoch 1 here, so restore == initial state
        assert param_bytes(model) == before

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(epochs=-1)
        with pytest.raises(InvalidConfig):
            TrainConfig(batch_size=0)
        with pytest.raises(InvalidConfig):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(InvalidConfig):
            TrainConfig(loss_kind="hinge")
        with pytest.raises(InvalidConfig):
            evaluate(init_params(0), tiny_dataset(), "focall")


class TestLearnsSyntheticData:
    def test_small_run_beats_chance(self, tmp_path):
        # loss should at least move off its initial value in a short run
        gen_synthetic(tmp_path / "train", 6, seed=0)
        gen_synthetic(tmp_path / "validation", 2, seed=1)
        train_set = load_dataset(tmp_path, "train")
        val_set = load_dataset(tmp_path, "validation")
        model = init_params(42, len(train_set.class_names))
        records, _ = train(model, train_set, val_set,
                           TrainConfig(epochs=5, batch_size=6, seed=42))
        assert len(records) == 5
        assert records[-1].train_loss < records[0].train_loss * 1.5
