import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import types
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lenetkit import cli, errors
from lenetkit.checkpoint import Checkpoint, model_to_checkpoint, save_checkpoint
from lenetkit.curves import render_curves_svg
from lenetkit.data import AugmentConfig, gen_synthetic, load_dataset
from lenetkit.errors import DivergenceDetected
from lenetkit.loss import FocalConfig
from lenetkit.nn import init_params, model_forward, param_shapes
from lenetkit.train import EpochRecord, TrainConfig


@pytest.fixture()
def synth_root(tmp_path):
    root = tmp_path / "data"
    assert cli.main(["gen-synthetic", "--out", str(root),
                     "--n-per-class", "4", "--seed", "5"]) == 0
    return root


def run_train(root, out, extra=()):
    argv = ["train", "--data", str(root), "--out", str(out),
            "--epochs", "3", "--batch-size", "4", "--seed", "9", *extra]
    return cli.main(argv)


def with_train_config(**changes):
    return lambda meta: {**meta, "train_config": {**meta["train_config"], **changes}}


def fail_half_way_through(monkeypatch, name):
    """Make the write of ``name``'s temporary file stop half way, as a full disk would."""
    write_bytes = Path.write_bytes

    def write_half_then_fail(self, data):
        if not self.name.startswith(name + "."):
            return write_bytes(self, data)
        with open(self, "wb") as f:
            f.write(data[:len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)


def file_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestGenSynthetic:
    def test_split_counts(self, synth_root):
        assert len(list((synth_root / "train").rglob("*.pgm"))) == 12
        assert len(list((synth_root / "validation").rglob("*.pgm"))) == 3

    def test_counts_formula(self, tmp_path):
        assert cli.main(["gen-synthetic", "--out", str(tmp_path / "d"),
                         "--n-per-class", "20", "--seed", "0"]) == 0
        assert len(list((tmp_path / "d" / "train").rglob("*.pgm"))) == 60
        assert len(list((tmp_path / "d" / "validation").rglob("*.pgm"))) == 12

    def test_deterministic(self, tmp_path):
        for name in ("a", "b"):
            cli.main(["gen-synthetic", "--out", str(tmp_path / name),
                      "--n-per-class", "3", "--seed", "11"])
        files_a = sorted((tmp_path / "a").rglob("*.pgm"))
        assert files_a
        for fa in files_a:
            fb = tmp_path / "b" / fa.relative_to(tmp_path / "a")
            assert fa.read_bytes() == fb.read_bytes()

    def test_loads_via_dataset_module(self, synth_root):
        ds = load_dataset(synth_root, "train")
        assert ds.class_counts() == [4, 4, 4]

    def test_too_many_images_for_one_draw_exits_2_on_a_failed_write(
            self, tmp_path, monkeypatch, capsys):
        """The images are drawn in blocks, so a count past any one array's limit
        writes until the disk fails, and that failure is one line."""
        write_bytes, calls = Path.write_bytes, []

        def fail_on_third_call(self, data):
            calls.append(self)
            if len(calls) == 3:
                raise OSError(28, "No space left on device")
            return write_bytes(self, data)

        monkeypatch.setattr(Path, "write_bytes", fail_on_third_call)
        assert cli.main(["gen-synthetic", "--out", str(tmp_path / "d"),
                         "--n-per-class", str(10**20)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write synthetic data") and len(calls) == 3
        assert len(err.splitlines()) == 1


class TestTrainCommand:
    def test_artifacts_written(self, synth_root, tmp_path):
        out = tmp_path / "run"
        assert run_train(synth_root, out) == 0
        for name in ("checkpoint.lnck", "curves.csv", "curves.svg",
                     "metrics.json", "config.echo.json"):
            assert (out / name).is_file(), name
        rows = (out / "curves.csv").read_text().strip().splitlines()
        assert rows[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(rows) == 1 + 3  # header + one row per epoch

    def test_byte_identical_reruns(self, synth_root, tmp_path):
        run_train(synth_root, tmp_path / "r1")
        run_train(synth_root, tmp_path / "r2")
        for name in ("curves.csv", "checkpoint.lnck"):
            assert (tmp_path / "r1" / name).read_bytes() == \
                   (tmp_path / "r2" / name).read_bytes(), name

    def test_loss_flag_only_changes_loss_fields(self, synth_root, tmp_path):
        run_train(synth_root, tmp_path / "ce", ("--loss", "cross_entropy"))
        run_train(synth_root, tmp_path / "fo", ("--loss", "focal"))
        ce = json.loads((tmp_path / "ce" / "config.echo.json").read_text())
        fo = json.loads((tmp_path / "fo" / "config.echo.json").read_text())
        diff = {k for k in ce if ce[k] != fo[k] and k != "out_dir"}
        assert diff == {"loss_kind"}

    def test_config_file_with_flag_override(self, synth_root, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"epochs": 2, "batch_size": 3,
                                        "seed": 4}))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg_file),
                         "--data", str(synth_root), "--out", str(out),
                         "--epochs", "1"]) == 0
        echo = json.loads((out / "config.echo.json").read_text())
        assert echo["epochs"] == 1      # flag wins
        assert echo["batch_size"] == 3  # file value kept
        rows = (out / "curves.csv").read_text().strip().splitlines()
        assert len(rows) == 2

    def test_focal_with_inverse_frequency_alpha(self, synth_root, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"loss_kind": "focal",
                                        "alpha": "inverse_frequency"}))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg_file),
                         "--data", str(synth_root), "--out", str(out),
                         "--epochs", "2", "--batch-size", "4"]) == 0
        meta = json.loads((out / "checkpoint.lnck.json").read_text())
        # balanced synthetic split -> uniform resolved weights
        assert meta["train_config"]["alpha_resolved"] == [1.0, 1.0, 1.0]

    def test_augmented_training_runs(self, synth_root, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"augment": True, "max_shift_px": 1}))
        assert cli.main(["train", "--config", str(cfg_file),
                         "--data", str(synth_root),
                         "--out", str(tmp_path / "run"),
                         "--epochs", "2", "--batch-size", "4"]) == 0

    def test_augment_fields_validated_even_when_off(self, synth_root, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"augment": False, "hflip_prob": 7.0}))
        code = cli.main(["train", "--config", str(cfg_file),
                         "--data", str(synth_root),
                         "--out", str(tmp_path / "x")])
        assert code == 1
        assert not (tmp_path / "x").exists()

    def test_unknown_config_key_rejected(self, synth_root, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"learning_rat": 0.1}))
        code = cli.main(["train", "--config", str(cfg_file),
                         "--data", str(synth_root),
                         "--out", str(tmp_path / "x")])
        assert code == 1
        assert not (tmp_path / "x").exists()  # no partial artifacts

    @pytest.mark.parametrize("cfg", [
        {"positive_classes": [7]},
        {"positive_classes": [-1]},
        {"positive_classes": [0, 1, 2]},
        {"positive_classes": []},
        {"loss_kind": "focal", "alpha": [2.0]},
        {"loss_kind": "focal", "alpha": [float("nan"), 1.0, 1.0]},
        {"loss_kind": "focal", "alpha": [float("inf"), 1.0, 1.0]},
        {"learning_rate": float("inf")},
        {"gamma": 10**400},
        {"loss_kind": "focal", "alpha": [10**400, 1, 1]},
        {"learning_rate": 10**400},
        {"max_shift_px": 10**30, "augment": True},
        {"batch_size": 13},
    ], ids=["index-past-end", "negative-index", "every-class", "no-class", "short-alpha",
            "nan-alpha", "infinite-alpha", "infinite-lr", "int-beyond-float-gamma",
            "int-beyond-float-alpha", "int-beyond-float-lr", "shift-beyond-int64",
            "batch-beyond-train-set"])
    def test_class_count_ranges_checked_before_mkdir(self, synth_root, tmp_path, capsys,
                                                      cfg):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        code = cli.main(["train", "--config", str(cfg_file), "--data", str(synth_root),
                         "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not (tmp_path / "x").exists()

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        code = cli.main(["train", "--data", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert not (tmp_path / "out").exists()
        assert "error" in capsys.readouterr().err

    def test_empty_split_is_data_error_before_mkdir(self, synth_root, tmp_path, capsys):
        for f in (synth_root / "validation").rglob("*.pgm"):
            f.unlink()
        assert run_train(synth_root, tmp_path / "out") == 2
        assert capsys.readouterr().err.endswith("error: validation set is empty\n")
        assert not (tmp_path / "out").exists()

    def test_unlistable_dataset_is_data_error(self, synth_root, tmp_path, monkeypatch,
                                              capsys):
        def denied(self):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "iterdir", denied)  # file modes do not stop root
        assert run_train(synth_root, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Permission denied" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_divergence_exit_code(self, synth_root, tmp_path, monkeypatch, capsys):
        def exploding_train(model, train_set, val_set, cfg, *, on_epoch=None):
            raise DivergenceDetected("boom", records=[])

        monkeypatch.setattr(cli.train_mod, "train", exploding_train)
        code = run_train(synth_root, tmp_path / "run")
        assert code == 3
        assert capsys.readouterr().err == "error: boom\n"
        # last-good checkpoint still written
        assert (tmp_path / "run" / "checkpoint.lnck").is_file()

    @pytest.mark.parametrize("epochs", ["1", "2"])
    def test_overflow_in_last_step_of_epoch_is_divergence(self, tmp_path, epochs):
        """A loss that turns non-finite only in the epoch-end evaluation diverges too."""
        data, out = tmp_path / "d", tmp_path / "r"
        assert cli.main(["gen-synthetic", "--out", str(data),
                         "--n-per-class", "4", "--seed", "1"]) == 0
        env = dict(os.environ)  # a process of its own, so numpy's warnings reach stderr
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(cli.__file__).parent.parent), env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "lenetkit.cli", "train", "--data", str(data),
             "--out", str(out), "--epochs", epochs, "--batch-size", "12",
             "--lr", "1e308", "--seed", "1"], env=env, capture_output=True, text=True)
        assert run.returncode == 3
        assert run.stderr.startswith("error: ") and len(run.stderr.splitlines()) == 1
        assert (out / "curves.csv").read_text() == \
            "epoch,train_loss,train_acc,val_loss,val_acc\n"

        def reject(constant):
            raise ValueError(f"{constant} in an artifact")

        for name in ("metrics.json", "checkpoint.lnck.json"):
            json.loads((out / name).read_text(), parse_constant=reject)

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_validation_is_evaluated_once_per_epoch(self, synth_root, tmp_path,
                                                    monkeypatch, epochs):
        calls = []
        evaluate = cli.train_mod.evaluate

        def counting_evaluate(*args, **kwargs):
            calls.append(args[1].split)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(cli.train_mod, "evaluate", counting_evaluate)
        assert run_train(synth_root, tmp_path / "run", ("--epochs", str(epochs))) == 0
        # with no epoch completed, the validation metrics need a pass of their own
        assert calls == (["train", "validation"] * epochs or ["validation"])

    def test_zero_epoch_rerun_removes_stale_svg(self, synth_root, tmp_path):
        out = tmp_path / "run"
        assert run_train(synth_root, out) == 0
        assert (out / "curves.svg").is_file()
        assert run_train(synth_root, out, ("--epochs", "0")) == 0
        assert sorted(file_bytes(out)) == ["checkpoint.lnck", "checkpoint.lnck.json",
                                           "config.echo.json", "curves.csv", "metrics.json"]
        assert (out / "curves.csv").read_text() == \
            "epoch,train_loss,train_acc,val_loss,val_acc\n"

    def test_failed_metrics_write_keeps_previous_files(self, synth_root, tmp_path,
                                                       monkeypatch, capsys):
        out = tmp_path / "run"
        assert run_train(synth_root, out) == 0
        before = file_bytes(out)
        capsys.readouterr()
        fail_half_way_through(monkeypatch, "metrics.json")
        assert run_train(synth_root, out, ("--epochs", "1")) == 2
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "metrics.json" in err
        after = file_bytes(out)
        assert sorted(after) == sorted(before)  # no temporary left behind
        for name in before:  # the checkpoint, its sidecar and the config echo too
            assert after[name] == before[name], name

    def test_interrupted_rerun_keeps_previous_files(self, synth_root, tmp_path,
                                                    monkeypatch):
        out = tmp_path / "run"
        assert run_train(synth_root, out) == 0
        before = file_bytes(out)

        def interrupted_train(model, train_set, val_set, cfg, *, on_epoch=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.train_mod, "train", interrupted_train)
        with pytest.raises(KeyboardInterrupt):
            run_train(synth_root, out, ("--epochs", "500", "--lr", "0.05"))
        assert file_bytes(out) == before

    def test_nul_in_config_out_dir_is_io_error(self, synth_root, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"out_dir": str(tmp_path / "a\0b")}))
        assert cli.main(["train", "--config", str(cfg_file), "--data", str(synth_root),
                         "--epochs", "1", "--batch-size", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory")
        assert len(err.splitlines()) == 1

    def test_artifact_write_failure_is_io_error(self, synth_root, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "curves.csv").mkdir(parents=True)
        assert run_train(synth_root, out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "curves.csv" in err
        assert len(err.strip().splitlines()) == 1


class TestEvaluateCommand:
    def test_reproduces_final_epoch_record(self, synth_root, tmp_path, capsys):
        out = tmp_path / "run"
        run_train(synth_root, out)
        capsys.readouterr()
        final = json.loads((out / "checkpoint.lnck.json").read_text())["final_record"]
        assert cli.main(["evaluate", "--checkpoint", str(out / "checkpoint.lnck"),
                         "--data", str(synth_root), "--split", "validation"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["loss"] == final["val_loss"]
        assert payload["accuracy"] == final["val_acc"]
        assert set(payload["reports"]) == {"binarized_nodule", "macro_ovr",
                                           "per_class"}

    def test_metrics_json_matches_evaluate_output(self, synth_root, tmp_path,
                                                  capsys):
        out = tmp_path / "run"
        run_train(synth_root, out)
        capsys.readouterr()
        cli.main(["evaluate", "--checkpoint", str(out / "checkpoint.lnck"),
                  "--data", str(synth_root), "--split", "validation"])
        assert capsys.readouterr().out.encode() == (out / "metrics.json").read_bytes()

    def test_corrupt_checkpoint(self, synth_root, tmp_path, capsys):
        out = tmp_path / "run"
        run_train(synth_root, out)
        path = out / "checkpoint.lnck"
        raw = bytearray(path.read_bytes())
        raw[50] ^= 0x55
        path.write_bytes(bytes(raw))
        code = cli.main(["evaluate", "--checkpoint", str(path),
                         "--data", str(synth_root)])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("command, sidecar", [
        ("evaluate", lambda meta: [meta]),
        ("predict", lambda meta: {**meta, "class_names": ["only"]}),
        ("evaluate", lambda meta: {**meta, "class_names": ["x", "y", "z"]}),
        ("evaluate", lambda meta: {**meta, "train_config": [1]}),
        ("evaluate", with_train_config(gamma="x")),
        ("evaluate", with_train_config(positive_classes=7)),
        ("evaluate", with_train_config(loss_kind="hinge")),
        ("evaluate", with_train_config(alpha_resolved=["a"])),
        ("predict", lambda meta: {**meta, "final_record": 3}),
        ("evaluate", with_train_config(gamma=-1)),
        ("evaluate", with_train_config(alpha_resolved=[-1.0, 1.0, 1.0])),
        ("evaluate", with_train_config(alpha_resolved=[1.0])),
        ("evaluate", with_train_config(positive_classes=["nope"])),
        ("evaluate", with_train_config(positive_classes=[3])),
        ("evaluate", with_train_config(alpha_resolved=[float("nan"), 1.0, 1.0])),
        # every range check that train makes, also on fields evaluate does not use
        ("evaluate", with_train_config(epochs=-1)),
        ("evaluate", with_train_config(batch_size=0)),
        ("evaluate", with_train_config(learning_rate=-1.0)),
        ("evaluate", with_train_config(hflip_prob=7.0)),
        ("evaluate", with_train_config(max_rotation_deg=400.0)),
        ("evaluate", with_train_config(fill_value=2.0)),
        ("evaluate", with_train_config(max_shift_px=-1)),
    ], ids=["list-sidecar", "one-class-name", "renamed-classes", "list-train-config",
            "string-gamma", "int-positive-classes", "unknown-loss-kind",
            "string-alpha-resolved", "int-final-record", "negative-gamma",
            "negative-alpha-resolved", "short-alpha-resolved", "unknown-positive-class",
            "positive-index-past-end", "nan-alpha-resolved", "negative-epochs",
            "zero-batch-size", "negative-learning-rate", "hflip-prob-past-1",
            "rotation-past-180", "fill-value-past-1", "negative-shift"])
    def test_sidecar_disagreeing_with_data_is_data_error(
            self, synth_root, tmp_path, capsys, command, sidecar):
        out = tmp_path / "run"
        run_train(synth_root, out)
        meta_path = out / "checkpoint.lnck.json"
        meta_path.write_text(json.dumps(sidecar(json.loads(meta_path.read_text()))))
        image = next((synth_root / "train" / "0_horizontal").glob("*.pgm"))
        target = (["--data", str(synth_root)] if command == "evaluate"
                  else ["--image", str(image)])
        capsys.readouterr()
        assert cli.main([command, "--checkpoint", str(out / "checkpoint.lnck"),
                         *target]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out
        assert len(captured.err.splitlines()) == 1

    def test_each_positive_class_is_reported_once(self, synth_root, tmp_path, capsys):
        """A class named twice, by name and by index, is listed once in train's
        metrics.json and in evaluate's output from the sidecar."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"positive_classes": ["0_horizontal", 0, 1, 1]}))
        out = tmp_path / "run"
        assert run_train(synth_root, out, ("--config", str(cfg_file))) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--checkpoint", str(out / "checkpoint.lnck"),
                         "--data", str(synth_root)]) == 0
        for payload in (out / "metrics.json").read_text(), capsys.readouterr().out:
            report = json.loads(payload)["reports"]["binarized_nodule"]
            assert report["positive_classes"] == [0, 1]

    def test_out_of_range_flag_is_config_error(self, synth_root, tmp_path, capsys):
        out = tmp_path / "run"
        run_train(synth_root, out)
        capsys.readouterr()
        assert cli.main(["evaluate", "--checkpoint", str(out / "checkpoint.lnck"),
                         "--data", str(synth_root), "--gamma", "-1"]) == 1
        assert "gamma" in capsys.readouterr().err


def _run_on(command, checkpoint, root):
    image = next((root / "train" / "0_horizontal").glob("*.pgm"))
    target = ["--data", str(root)] if command == "evaluate" else ["--image", str(image)]
    return cli.main([command, "--checkpoint", str(checkpoint), *target])


class TestSidecarBinding:
    """A sidecar names its binary's CRC, so a pair that disagrees is corrupt."""

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_another_runs_sidecar_beside_the_binary_exits_2(self, synth_root, tmp_path,
                                                              capsys, command):
        # run A: cross-entropy, 1 epoch, seed 1; run B: focal, 2 epochs, seed 9
        for run, extra in (("a", ["--epochs", "1", "--seed", "1"]),
                           ("b", ["--loss", "focal", "--epochs", "2", "--seed", "9"])):
            assert cli.main(["train", "--data", str(synth_root), "--out", str(tmp_path / run),
                             "--batch-size", "4", *extra]) == 0
        b, sidecar_b = tmp_path / "b" / "checkpoint.lnck", tmp_path / "b" / "checkpoint.lnck.json"
        sidecar_b.write_bytes((tmp_path / "a" / "checkpoint.lnck.json").read_bytes())
        capsys.readouterr()
        assert _run_on(command, b, synth_root) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out
        assert len(captured.err.splitlines()) == 1
        assert str(sidecar_b) in captured.err and f"of {b}" in captured.err

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_one_bit_changed_in_the_field_exits_2(self, synth_root, tmp_path, capsys,
                                                  command):
        out = tmp_path / "run"
        run_train(synth_root, out)
        meta_path = out / "checkpoint.lnck.json"
        meta = json.loads(meta_path.read_text())
        crc = int(meta["crc64"], 16)
        assert meta["crc64"] == f"{crc:016x}"  # 16 lowercase hex digits
        meta_path.write_text(json.dumps({**meta, "crc64": f"{crc ^ 1 << 37:016x}"}))
        capsys.readouterr()
        assert _run_on(command, out / "checkpoint.lnck", synth_root) == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "crc64" in captured.err

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_an_older_sidecar_still_loads(self, synth_root, tmp_path, capsys, command):
        """Sidecars written before the field have no crc64 and may hold "threads": 1."""
        out = tmp_path / "run"
        run_train(synth_root, out)
        capsys.readouterr()
        assert _run_on(command, out / "checkpoint.lnck", synth_root) == 0
        want = capsys.readouterr().out
        meta_path = out / "checkpoint.lnck.json"
        meta = json.loads(meta_path.read_text())
        assert "threads" not in meta["train_config"]
        del meta["crc64"]
        meta["train_config"]["threads"] = 1
        meta_path.write_text(json.dumps(meta))
        assert _run_on(command, out / "checkpoint.lnck", synth_root) == 0
        assert capsys.readouterr().out == want


class TestPredictCommand:
    def test_output_structure(self, synth_root, tmp_path, capsys):
        out = tmp_path / "run"
        run_train(synth_root, out)
        capsys.readouterr()
        image = next((synth_root / "train" / "0_horizontal").glob("*.pgm"))
        assert cli.main(["predict", "--checkpoint", str(out / "checkpoint.lnck"),
                         "--image", str(image)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["probs"]) == 3
        assert abs(sum(payload["probs"]) - 1.0) <= 1e-9
        assert payload["class_index"] == int(np.argmax(payload["probs"]))
        assert payload["class_name"] in ("0_horizontal", "1_vertical", "2_checker")

    def test_non_image_is_data_error(self, synth_root, tmp_path, capsys):
        out = tmp_path / "run"
        run_train(synth_root, out)
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"certainly not a pgm")
        code = cli.main(["predict", "--checkpoint", str(out / "checkpoint.lnck"),
                         "--image", str(bad)])
        assert code == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize("num_classes", [0, 1])
    def test_checkpoint_with_fewer_than_two_classes_is_data_error(
            self, synth_root, tmp_path, capsys, num_classes):
        path = tmp_path / "few.lnck"
        save_checkpoint(path, Checkpoint(num_classes, {
            name: np.zeros(shape) for name, shape in param_shapes(num_classes)}))
        image = next((synth_root / "train" / "0_horizontal").glob("*.pgm"))
        assert cli.main(["predict", "--checkpoint", str(path),
                         "--image", str(image)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and not captured.out
        assert len(captured.err.splitlines()) == 1 and "classes" in captured.err

    def test_each_image_matches_its_row_of_a_64_image_forward(self, tmp_path, capsys):
        # one image at a time may round the last bit unlike a 64-image batch
        gen_synthetic(tmp_path / "test", 22, 1)
        samples = load_dataset(tmp_path, "test").samples[:64]
        model = init_params(1)
        path = tmp_path / "m.lnck"
        save_checkpoint(path, model_to_checkpoint(model))
        batch, _ = model_forward(model, np.stack([s.pixels for s in samples]))
        for sample, row in zip(samples, batch):
            assert cli.main(["predict", "--checkpoint", str(path),
                             "--image", sample.source_path]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert np.max(np.abs(np.array(payload["probs"]) - row)) <= 1e-15
            assert payload["class_index"] == int(np.argmax(row))

    def test_one_pixel_high_image_is_data_error(self, synth_root, tmp_path, capsys):
        out = tmp_path / "run"
        run_train(synth_root, out)
        flat = tmp_path / "flat.pgm"
        flat.write_bytes(b"P5\n8 1\n255\n" + bytes(range(8)))
        code = cli.main(["predict", "--checkpoint", str(out / "checkpoint.lnck"),
                         "--image", str(flat)])
        assert code == 2
        assert str(flat) in capsys.readouterr().err


_NUMBER_TEXT = re.compile(r"-?[0-9.]+(e[+-][0-9]+)?")  # a decimal, never nan or inf


class TestExportCurves:
    def test_svg_well_formed_with_matching_points(self, synth_root, tmp_path):
        out = tmp_path / "run"
        run_train(synth_root, out)
        svg_path = tmp_path / "curves.svg"
        assert cli.main(["export-curves", "--csv", str(out / "curves.csv"),
                         "--svg", str(svg_path)]) == 0
        tree = ET.parse(svg_path)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polylines = tree.getroot().findall(".//svg:polyline", ns)
        assert len(polylines) == 4  # train/val x loss/acc
        rows = (out / "curves.csv").read_text().strip().splitlines()
        for line in polylines:
            assert len(line.attrib["points"].split()) == len(rows) - 1

    def test_svg_coordinates_follow_the_panel_constants(self, tmp_path):
        csv_path = tmp_path / "two.csv"
        csv_path.write_text("epoch,train_loss,train_acc,val_loss,val_acc\n"
                            "1,1.0,0.25,0.5,0.5\n3,0.5,0.75,0.25,1.0\n")
        svg_path = tmp_path / "two.svg"
        assert cli.main(["export-curves", "--csv", str(csv_path),
                         "--svg", str(svg_path)]) == 0
        svg, ns = ET.parse(svg_path).getroot(), "{http://www.w3.org/2000/svg}"
        # Panels are 420x300 with their corners at (60, 40) and (580, 40).
        # Epochs 1..3 pad by 5% to 0.9..3.1: x = ox + 420 * (e - 0.9) / 2.2,
        # ox + 19.09 and ox + 400.91. Both panels' values span 0.25..1, padded
        # to 0.2125..1.0375: y = 340 - 300 * (v - 0.2125) / 0.825, which is
        # 53.64, 144.55, 235.45 and 326.36 for 1, 0.75, 0.5 and 0.25.
        assert [line.get("points") for line in svg.iter(ns + "polyline")] == [
            "79.09,53.64 460.91,235.45", "79.09,235.45 460.91,326.36",
            "599.09,326.36 980.91,144.55", "599.09,235.45 980.91,53.64"]
        # "epoch" is centred 34 below each panel; the y-label 44 left of it, at
        # mid-height, rotated about its own anchor.
        labels = [(t.text, t.get("x"), t.get("y"), t.get("transform"))
                  for t in svg.iter(ns + "text") if t.get("font-size") == "12"]
        assert labels == [("epoch", "270", "374", None),
                          ("loss", "16", "190", "rotate(-90 16 190)"),
                          ("epoch", "790", "374", None),
                          ("accuracy", "536", "190", "rotate(-90 536 190)")]

    def test_svg_bytes_of_three_epochs(self):
        """Every position of the layout, the tick labels and the legend included,
        against a figure whose accuracy is flat, so its range is widened by 0.5."""
        records = [EpochRecord(1, 1.1, 1.0, 0.9, 1.0), EpochRecord(2, 0.6, 1.0, 0.55, 1.0),
                   EpochRecord(3, 0.3, 1.0, 0.4, 1.0)]
        golden = Path(__file__).parent / "golden" / "curves_three_epochs.svg"
        assert render_curves_svg(records).encode() == golden.read_bytes()

    def test_span_past_the_float_range_places_points_exactly(self):
        svg = render_curves_svg([EpochRecord(1, 1e308, 0.5, -1e308, 0.5),
                                 EpochRecord(2, 1.0, 0.5, 1.0, 0.5)])
        # the loss range pads to -1.1e308..1.1e308, whose span is past the float
        # range: 1e308, 1 and -1e308 sit 10.5/11, 1/2 and 0.5/11 of the way up
        loss_lines = re.findall(r'points="([^"]*)"', svg)[:2]
        assert loss_lines == ["79.09,53.64 460.91,190.00", "79.09,326.36 460.91,190.00"]

    def test_single_row_csv(self, tmp_path):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("epoch,train_loss,train_acc,val_loss,val_acc\n"
                            "1,0.5,0.6,0.7,0.4\n")
        svg_path = tmp_path / "one.svg"
        assert cli.main(["export-curves", "--csv", str(csv_path),
                         "--svg", str(svg_path)]) == 0
        ET.parse(svg_path)

    def test_flat_curve_of_huge_values(self, tmp_path):
        csv_path = tmp_path / "huge.csv"
        csv_path.write_text("epoch,train_loss,train_acc,val_loss,val_acc\n"
                            "1,1e+300,0.5,1e+300,0.5\n2,1e+300,0.5,1e+300,0.5\n")
        svg_path = tmp_path / "huge.svg"
        assert cli.main(["export-curves", "--csv", str(csv_path),
                         "--svg", str(svg_path)]) == 0
        svg = ET.parse(svg_path).getroot()
        for line in svg.iter("{http://www.w3.org/2000/svg}polyline"):
            ys = [float(point.split(",")[1]) for point in line.attrib["points"].split()]
            assert len(set(ys)) == 1 and all(np.isfinite(ys))

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,curves,file\n1,2,3,4\n")
        code = cli.main(["export-curves", "--csv", str(bad),
                         "--svg", str(tmp_path / "x.svg")])
        assert code == 2
        assert not (tmp_path / "x.svg").exists()

    def test_failed_export_keeps_previous_svg(self, tmp_path, monkeypatch, capsys):
        csv_path = tmp_path / "one.csv"
        svg_path = tmp_path / "one.svg"
        header = "epoch,train_loss,train_acc,val_loss,val_acc\n"
        csv_path.write_text(header + "1,0.5,0.6,0.7,0.4\n")
        assert cli.main(["export-curves", "--csv", str(csv_path),
                         "--svg", str(svg_path)]) == 0
        before = file_bytes(tmp_path)
        csv_path.write_text(header + "1,0.5,0.6,0.7,0.4\n2,0.4,0.7,0.6,0.5\n")
        before["one.csv"] = csv_path.read_bytes()
        fail_half_way_through(monkeypatch, "one.svg")
        assert cli.main(["export-curves", "--csv", str(csv_path),
                         "--svg", str(svg_path)]) == 2
        monkeypatch.undo()
        assert str(svg_path) in capsys.readouterr().err
        assert file_bytes(tmp_path) == before

    def test_svg_into_missing_directory_is_io_error(self, tmp_path, capsys):
        csv_path = tmp_path / "one.csv"
        csv_path.write_text("epoch,train_loss,train_acc,val_loss,val_acc\n"
                            "1,0.5,0.6,0.7,0.4\n")
        svg_path = tmp_path / "missing" / "one.svg"
        assert cli.main(["export-curves", "--csv", str(csv_path),
                         "--svg", str(svg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(svg_path) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("row", ["2,nan,0.6,0.7,0.4", "2,0.5,inf,0.7,0.4",
                                     "2,0.5,0.6,-Infinity,0.4", "2,0.5,0.6,0.7,NaN",
                                     "1" + "0" * 400 + ",0.5,0.6,0.7,0.4"],
                             ids=["nan", "inf", "-infinity", "NaN", "epoch-past-floats"])
    def test_non_finite_value_exits_2_naming_its_line(self, tmp_path, capsys, row):
        csv_path, svg_path = tmp_path / "bad.csv", tmp_path / "bad.svg"
        csv_path.write_text("epoch,train_loss,train_acc,val_loss,val_acc\n"
                            "1,0.5,0.6,0.7,0.4\n" + row + "\n")
        assert cli.main(["export-curves", "--csv", str(csv_path),
                         "--svg", str(svg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and len(err.splitlines()) == 1
        assert not svg_path.exists()

    @pytest.mark.parametrize("rows", [
        ["1,1e308,0.5,-1e308,0.5", "2,1,0.5,1,0.5"],
        ["1,1.7976931348623157e308,-1.7976931348623157e308,0,1",
         "2,-1.7976931348623157e308,1.7976931348623157e308,0,1"],
        ["1,1.7976931348623157e308,0.5,1.7976931348623157e308,0.5",
         "2,1.7976931348623157e308,0.5,1.7976931348623157e308,0.5"],
        ["1,-1.7976931348623157e308,0.5,-1.7976931348623157e308,0.5"],
        ["1,1.5e-323,0.5,2e-323,0.5"],
        ["18014398509481983,1,0.5,1,0.5", "18014398509481984,1,0.5,1,0.5"],
    ], ids=["opposite-1e308", "opposite-float-max", "flat-float-max", "flat-lowest",
            "adjacent-subnormals", "epochs-equal-as-floats"])
    def test_values_at_the_float_limits_plot_inside_the_panels(self, tmp_path, rows):
        csv_path, svg_path = tmp_path / "wide.csv", tmp_path / "wide.svg"
        csv_path.write_text("epoch,train_loss,train_acc,val_loss,val_acc\n"
                            + "\n".join(rows) + "\n")
        assert cli.main(["export-curves", "--csv", str(csv_path),
                         "--svg", str(svg_path)]) == 0
        svg, ns = ET.parse(svg_path).getroot(), "{http://www.w3.org/2000/svg}"
        lines = list(svg.iter(ns + "polyline"))
        for line, ox in zip(lines, (60, 60, 580, 580)):  # panels are 420x300 at y 40
            for point in line.get("points").split():
                x, y = map(float, point.split(","))
                assert ox <= x <= ox + 420 and 40 <= y <= 340, point
        labels = [t.text for t in svg.iter(ns + "text") if t.get("font-size") == "10"]
        assert all(map(_NUMBER_TEXT.fullmatch, labels)), labels
        assert all(math.isfinite(float(label)) for label in labels), labels

    @pytest.mark.parametrize("rows", [["0,0.5,0.6,0.7,0.4"], ["-3,0.5,0.6,0.7,0.4"],
                                      ["1,0.5,0.6,0.7,0.4", "1,0.4,0.7,0.6,0.5"],
                                      ["2,0.5,0.6,0.7,0.4", "1,0.4,0.7,0.6,0.5"]],
                             ids=["zero", "negative", "repeated", "backwards"])
    def test_epoch_train_could_not_write_exits_2_naming_its_line(self, tmp_path, capsys,
                                                                 rows):
        csv_path, svg_path = tmp_path / "bad.csv", tmp_path / "bad.svg"
        csv_path.write_text("epoch,train_loss,train_acc,val_loss,val_acc\n"
                            + "\n".join(rows) + "\n")
        assert cli.main(["export-curves", "--csv", str(csv_path),
                         "--svg", str(svg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {len(rows) + 1}: epoch ")
        assert len(err.splitlines()) == 1 and not svg_path.exists()


# six in seven drawn files are valid (rising positive epochs, finite values
# from the subnormals to +-1.8e308), so most examples reach the SVG checks;
# the rest take any integer and any float, which mostly ends in exit 2, as
# the explicit example always does
_VALID_CURVE_ROWS = st.lists(st.integers(1, 10**308), min_size=1, max_size=4,
                             unique=True).flatmap(lambda epochs: st.tuples(*[
    st.tuples(st.just(epoch), *[st.floats(allow_nan=False, allow_infinity=False,
                                          allow_subnormal=True)] * 4)
    for epoch in sorted(epochs)]))
_ANY_CURVE_ROWS = st.lists(st.tuples(st.integers(-10**310, 10**310),
                                     *[st.floats(allow_subnormal=True)] * 4),
                           min_size=1, max_size=4)


@settings(max_examples=50, deadline=None)
@given(rows=st.one_of(*[_VALID_CURVE_ROWS] * 6, _ANY_CURVE_ROWS))
@example(rows=[(2, 0.5, 0.6, 0.7, 0.4), (1, 0.4, 0.7, 0.6, float("nan"))])
def test_export_curves_exits_2_or_draws_only_finite_numbers(rows):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, svg_path = Path(tmp) / "any.csv", Path(tmp) / "any.svg"
        csv_path.write_text("epoch,train_loss,train_acc,val_loss,val_acc\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in rows))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["export-curves", "--csv", str(csv_path), "--svg", str(svg_path)])
        if code:
            assert code == 2 and not svg_path.exists()
            assert err.getvalue().startswith("error: line ")
            assert len(err.getvalue().splitlines()) == 1
            return
        svg, ns = ET.parse(svg_path).getroot(), "{http://www.w3.org/2000/svg}"
        for line in svg.iter(ns + "polyline"):
            for point in line.get("points").split():
                assert all(map(math.isfinite, map(float, point.split(",")))), point
        for text in svg.iter(ns + "text"):
            is_tick_label = text.get("font-size") == "10"
            numbers = [text.get("x"), text.get("y")] + [text.text] * is_tick_label
            assert all(map(_NUMBER_TEXT.fullmatch, numbers)), numbers


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert cli.main(["train", "--frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required(self, capsys):
        assert cli.main(["predict", "--image", "x.pgm"]) == 1
        capsys.readouterr()

    def test_missing_out_dir(self, synth_root, capsys):
        assert cli.main(["train", "--data", str(synth_root)]) == 1
        capsys.readouterr()

    def test_bad_threads_value(self, synth_root, tmp_path, capsys):
        """The retired threads knob is neither a flag nor a config key."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"threads": 1}))
        for extra in (["--threads", "1"], ["--config", str(cfg_file)]):
            code = cli.main(["train", "--data", str(synth_root),
                             "--out", str(tmp_path / "o"), *extra])
            assert code == 1, extra
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1, extra
            assert "threads" in err, extra
        assert not (tmp_path / "o").exists()


def test_seeded_train_bytes_do_not_depend_on_the_blas_environment(tmp_path):
    """The CLI runs BLAS on one thread whether the variables are unset, 1 or 2."""
    data = tmp_path / "data"
    assert cli.main(["gen-synthetic", "--out", str(data), "--n-per-class", "40",
                     "--seed", "5"]) == 0
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    checkpoints = []
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in names}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        if threads:
            env.update(dict.fromkeys(names, threads))
        out = tmp_path / f"run-{threads}"
        subprocess.run([sys.executable, "-m", "lenetkit.cli", "train", "--data", str(data),
                        "--out", str(out), "--epochs", "10", "--batch-size", "64",
                        "--seed", "5"], env=env, capture_output=True, check=True,
                       timeout=120)
        checkpoints.append((out / "checkpoint.lnck").read_bytes())
    assert len(set(checkpoints)) == 1


# Config values of a wrong JSON type, per key, written independently of
# cli.CONFIG_SCHEMA: a bool is not an int, an int is a float, and null is
# allowed only where the default is null.
_JSON = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-10, 10**12),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.text(max_size=6),
    "list": st.lists(st.integers(0, 2), max_size=3),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
_ACCEPTS = {
    **dict.fromkeys(["epochs", "batch_size", "seed", "max_shift_px"], {"int"}),
    **dict.fromkeys(["learning_rate", "gamma", "hflip_prob", "max_rotation_deg",
                     "fill_value"], {"int", "float"}),
    "shuffle": {"bool"}, "augment": {"bool"}, "loss_kind": {"str"},
    "alpha": {"null", "str", "list"}, "positive_classes": {"null", "list"},
    "data_root": {"null", "str"}, "out_dir": {"null", "str"},
}
_WRONG_ITEMS = {  # lists whose items have the wrong type
    "alpha": st.lists(st.text() | st.booleans() | st.none(), min_size=1),
    "positive_classes": st.lists(st.floats() | st.booleans() | st.none(), min_size=1),
}


@st.composite
def wrongly_typed_configs(draw):
    keys = draw(st.lists(st.sampled_from(sorted(cli.CONFIG_SCHEMA)), min_size=1,
                         unique=True))
    wrong = keys[:draw(st.integers(1, len(keys)))]
    cfg = {key: cli.CONFIG_SCHEMA[key][0] for key in keys}
    for key in wrong:
        kinds = [s for kind, s in _JSON.items() if kind not in _ACCEPTS[key]]
        cfg[key] = draw(st.one_of(kinds + [_WRONG_ITEMS.get(key, st.nothing())]))
    return cfg


@settings(max_examples=50, deadline=None)
@given(cfg=wrongly_typed_configs())
def test_wrongly_typed_config_exits_1(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_file = Path(tmp) / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["train", "--config", str(cfg_file), "--data",
                             str(Path(tmp) / "data"), "--out", str(Path(tmp) / "out")])
        assert code == 1
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
        assert not (Path(tmp) / "out").exists()


def test_readme_config_table_matches_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("## Configuration", 1)[1].split("\n\n| key |", 1)[1]
    documented = {}
    for row in table.split("\n\n", 1)[0].splitlines()[2:]:
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        default = json.loads(cells[2].strip("`"))
        for key in cells[0].split(", "):
            documented[key.strip("`")] = (type(default), default)
    assert documented == {key: (type(default), default)
                          for key, (default, _) in cli.CONFIG_SCHEMA.items()}


def test_config_defaults_are_the_dataclass_defaults():
    """A bare config builds the TrainConfig that the library's defaults build."""
    cfg = {key: default for key, (default, _) in cli.CONFIG_SCHEMA.items()}
    built = cli._build_train_config(cfg, None, 3)
    assert built == TrainConfig(focal=FocalConfig(), augment=None)
    assert cli._build_train_config({**cfg, "augment": True}, None, 3).augment == AugmentConfig()
    named = {f.name for cls in (TrainConfig, AugmentConfig) for f in fields(cls)}
    assert named - {"focal", "augment"} <= set(cli.CONFIG_SCHEMA)


def test_cli_import_loads_every_module():
    """No module under the package is left that the engine never imports."""
    package = Path(cli.__file__).parent
    expected = {"lenetkit"} | {f"lenetkit.{p.stem}" for p in package.glob("*.py")
                               if p.stem != "__init__"}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package.parent),
                                                      env.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, lenetkit.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert expected - set(loaded) == set()


def test_only_the_atomic_writer_writes_files():
    """Every run artifact reaches disk through ``checkpoint.write_atomic``.

    ``data.gen_synthetic`` writes dataset inputs, not run artifacts, so it may
    write its PGM files directly.
    """
    package = Path(cli.__file__).parent
    writers, replacers = set(), set()
    for module in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(module.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    where = f"{module.stem}.{fn.name}"
                    if node.func.attr in ("write_text", "write_bytes"):
                        writers.add(where)
                    if node.func.attr == "replace" and \
                            getattr(node.func.value, "id", None) == "os":
                        replacers.add(where)
    assert writers <= {"checkpoint.write_atomic", "data.gen_synthetic"}
    assert replacers == {"checkpoint.write_atomic"}


@pytest.mark.parametrize("payload", [b"\xff\xfe{", b"[" * 100_000],
                         ids=["not-utf8", "nested-too-deep"])
@pytest.mark.parametrize("command, code", [("train", 1), ("predict", 2), ("evaluate", 2),
                                           ("export-curves", 2)])
def test_unreadable_input_exits_with_one_line(synth_root, tmp_path, capsys, payload,
                                              command, code):
    """The payload is the config file, the checkpoint sidecar or the curves CSV."""
    bad = tmp_path / "bad"
    bad.write_bytes(payload)
    ckpt = tmp_path / "model.lnck"
    save_checkpoint(ckpt, model_to_checkpoint(init_params(0, 3)))
    (tmp_path / "model.lnck.json").write_bytes(payload)
    image = next((synth_root / "train" / "0_horizontal").glob("*.pgm"))
    argv = {
        "train": ["--config", str(bad), "--data", str(synth_root),
                  "--out", str(tmp_path / "out")],
        "predict": ["--checkpoint", str(ckpt), "--image", str(image)],
        "evaluate": ["--checkpoint", str(ckpt), "--data", str(synth_root)],
        "export-curves": ["--csv", str(bad), "--svg", str(tmp_path / "x.svg")],
    }[command]
    assert cli.main([command, *argv]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "out").exists() and not (tmp_path / "x.svg").exists()


def test_exit_codes_match_readme():
    """Each error type's ``exit_code`` is the one the README lists it under."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listing = readme.split("\nExit codes", 1)[1].split("\n\n", 2)[1]
    documented = {}
    for code, text in re.findall(r"^- (\d): (.*?)(?=^- |\Z)", listing, re.M | re.S):
        for name in re.findall(r"`(\w+)`", text):
            if isinstance(getattr(errors, name, None), type):
                documented[name] = int(code)
    classes, todo = {}, [errors.EngineError]
    while todo:
        cls = todo.pop()
        if cls.__module__ == errors.__name__:
            classes[cls.__name__] = cls.exit_code
            todo += cls.__subclasses__()
    assert documented == classes


def test_only_the_reader_reads_files():
    """Every file the engine reads is read by ``errors.read_input``."""
    package = Path(cli.__file__).parent
    readers = set()
    for module in sorted(package.glob("*.py")):
        tree = ast.parse(module.read_text())
        owner = {}  # node -> innermost enclosing function; ast.walk visits outer ones first
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner |= dict.fromkeys(ast.walk(fn), fn.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None)) in (
                    "read_bytes", "read_text", "open"):
                readers.add(f"{module.stem}.{owner.get(node, '<module>')}")
    assert readers == {"errors.read_input"}


def test_only_metrics_holds_the_report_format():
    """The report mode names are string constants of ``metrics.py`` alone."""
    package = Path(cli.__file__).parent
    holders = set()
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Constant) and node.value in (
                    "binarized_nodule", "macro_ovr", "per_class"):
                holders.add(module.stem)
    assert holders == {"metrics"}


# Well-typed config values drawn from the schema's JSON types: mostly in range, but
# with integers far beyond what a float or an int64 holds and floats including NaN
# and infinities.
_INTS = st.integers(0, 3) | st.just(1) | st.integers(-10**400, 10**400)
_WELL_TYPED = {
    int: _INTS,
    float: st.floats(0, 1) | st.floats() | _INTS,
    bool: st.booleans(),
    str: st.sampled_from(["cross_entropy", "focal", "inverse_frequency", "0_horizontal"])
    | st.text(max_size=4),
}


def well_typed(kind):
    if isinstance(kind, types.UnionType):
        return st.one_of([well_typed(k) for k in kind.__args__])
    if isinstance(kind, types.GenericAlias):  # list[item]
        return st.lists(well_typed(kind.__args__[0]), max_size=4)
    return _WELL_TYPED[kind]


@pytest.fixture(scope="module")
def tiny_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny") / "data"
    assert cli.main(["gen-synthetic", "--out", str(root), "--n-per-class", "2"]) == 0
    return root


@settings(max_examples=30, deadline=None)
@given(cfg=st.fixed_dictionaries({}, optional={
           key: st.none() | well_typed(kind) if default is None else well_typed(kind)
           for key, (default, kind) in cli.CONFIG_SCHEMA.items()}),
       epochs=st.sampled_from(["0", "1"]),
       batch_size=st.sampled_from(["1", "2", "6"]),
       flags=st.lists(st.sampled_from([("--augment",), ("--loss", "focal"),
                                       ("--lr", "1e300")]), unique=True))
def test_train_exits_0_to_3_with_one_error_line(tiny_root, cfg, epochs, batch_size, flags):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_file = Path(tmp) / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):  # the flags override a drawn data_root/out_dir
            code = cli.main(["train", "--config", str(cfg_file), "--data", str(tiny_root),
                             "--out", str(Path(tmp) / "out"), "--epochs", epochs,
                             "--batch-size", batch_size,
                             *(arg for flag in flags for arg in flag)])
        assert code in (0, 1, 2, 3)
        if code:
            assert err.getvalue().startswith("error: ")
            assert len(err.getvalue().splitlines()) == 1


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("name, value, index", [
    ("fc_out.bias", float("nan"), 0),
    ("fc1.weight", float("inf"), 0),
    ("fc_out.weight", 1e308, slice(None)),  # finite, but the logits overflow
], ids=["nan-bias", "inf-weight", "huge-weights"])
def test_non_finite_checkpoint_or_output_exits_2(synth_root, tmp_path, capsys, command,
                                                 name, value, index):
    ckpt = model_to_checkpoint(init_params(1))
    ckpt.params[name].flat[index] = value
    path = tmp_path / "m.lnck"
    save_checkpoint(path, ckpt)
    image = next((synth_root / "train" / "0_horizontal").glob("*.pgm"))
    target = (["--data", str(synth_root)] if command == "evaluate"
              else ["--image", str(image)])
    capsys.readouterr()
    assert cli.main([command, "--checkpoint", str(path), *target]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    assert len(captured.err.splitlines()) == 1 and "non-finite" in captured.err


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command, code", [("train", 1), ("predict", 2)])
def test_json_non_finite_constants_are_rejected(synth_root, tmp_path, capsys, constant,
                                                command, code):
    """A config file or sidecar holding a constant that Python's parser accepts."""
    if command == "train":
        bad = tmp_path / "cfg.json"
        bad.write_text(f'{{"fill_value": {constant}}}')
        argv = ["--config", str(bad), "--data", str(synth_root),
                "--out", str(tmp_path / "out")]
    else:  # nothing else in the sidecar checks final_record's values
        ckpt = tmp_path / "model.lnck"
        save_checkpoint(ckpt, model_to_checkpoint(init_params(0, 3)))
        bad = tmp_path / "model.lnck.json"
        bad.write_text(f'{{"final_record": {{"val_loss": {constant}}}}}')
        image = next((synth_root / "train" / "0_horizontal").glob("*.pgm"))
        argv = ["--checkpoint", str(ckpt), "--image", str(image)]
    assert cli.main([command, *argv]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    assert len(captured.err.splitlines()) == 1
    assert str(bad) in captured.err and constant.lstrip("-") in captured.err
    assert not (tmp_path / "out").exists()


# float64 edge values: non-finite, near overflow, subnormal and the smallest normal
_EDGE_FLOATS = st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, -1e308,
                                5e-324, -5e-324, 2.2250738585072014e-308])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_predict_exits_2_or_prints_strict_json(tiny_root, data):
    ckpt = model_to_checkpoint(init_params(1))
    tensor = ckpt.params[data.draw(st.sampled_from(sorted(ckpt.params)))]
    values = data.draw(st.lists(_EDGE_FLOATS | st.floats(), min_size=1, max_size=4))
    if data.draw(st.booleans()):  # the whole tensor, cycling through the values
        tensor[...] = np.resize(values, tensor.shape)
    else:
        for value in values:
            tensor.flat[data.draw(st.integers(0, tensor.size - 1))] = value
    image = next((tiny_root / "train" / "0_horizontal").glob("*.pgm"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.lnck"
        save_checkpoint(path, ckpt)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["predict", "--checkpoint", str(path), "--image", str(image)])
    if code:
        assert code == 2 and not out.getvalue()
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
    else:
        probs = json.loads(out.getvalue(), parse_constant=_reject_constant)["probs"]
        assert abs(math.fsum(probs) - 1.0) <= 1e-12


class TestSharedParser:
    """``main`` parses with one parser per process; each call gets what a fresh one gives."""

    @staticmethod
    def run_each(argvs, capsys, fresh):
        outcomes = []
        for argv in argvs:
            if fresh:
                cli._parser.cache_clear()
            outcomes.append((cli.main(argv), *capsys.readouterr()))
        return outcomes

    @staticmethod
    def predict_argv(synth_root, tmp_path):
        path = tmp_path / "m.lnck"
        save_checkpoint(path, model_to_checkpoint(init_params(0, 3)))
        image = next((synth_root / "train" / "0_horizontal").glob("*.pgm"))
        return ["predict", "--checkpoint", str(path), "--image", str(image)]

    def test_evaluate_flags_do_not_carry_over(self, synth_root, tmp_path, capsys):
        out = tmp_path / "run"
        run_train(synth_root, out, ["--loss", "focal"])
        capsys.readouterr()
        final = json.loads((out / "checkpoint.lnck.json").read_text())["final_record"]
        plain = ["evaluate", "--checkpoint", str(out / "checkpoint.lnck"),
                 "--data", str(synth_root)]
        argvs = [plain + ["--split", "train"], plain,
                 plain + ["--loss", "focal", "--gamma", "0"], plain]
        shared = self.run_each(argvs, capsys, fresh=False)
        assert shared == self.run_each(argvs, capsys, fresh=True)
        assert [code for code, _, _ in shared] == [0, 0, 0, 0]
        payloads = [json.loads(out) for _, out, _ in shared]
        assert [p["split"] for p in payloads] == ["train"] + ["validation"] * 3
        # a plain evaluate falls back to the sidecar's focal loss with gamma 2
        assert payloads[1]["loss"] == payloads[3]["loss"] == final["val_loss"]
        assert payloads[2]["loss"] != final["val_loss"]

    @pytest.mark.parametrize("bad", [["predict", "--image", "x.pgm"], ["frobnicate"],
                                     ["predict", "--checkpoint"]],
                             ids=["missing-flag", "unknown-command", "missing-value"])
    def test_usage_error_then_good_predict(self, synth_root, tmp_path, capsys, bad):
        good = self.predict_argv(synth_root, tmp_path)
        argvs = [good, bad, good]
        shared = self.run_each(argvs, capsys, fresh=False)
        assert shared == self.run_each(argvs, capsys, fresh=True)
        assert shared[1][0] == 1 and shared[1][2].startswith("error: ")
        assert shared[0] == shared[2] and shared[2][0] == 0

    @pytest.mark.parametrize("help_argv", [["--help"], ["predict", "--help"]])
    def test_help_then_good_predict(self, synth_root, tmp_path, capsys, help_argv):
        good = self.predict_argv(synth_root, tmp_path)
        cli._parser.cache_clear()
        first = (cli.main(good), *capsys.readouterr())
        with pytest.raises(SystemExit) as exit_info:
            cli.main(help_argv)
        assert exit_info.value.code == 0 and "usage:" in capsys.readouterr().out
        assert (cli.main(good), *capsys.readouterr()) == first
        assert first[0] == 0 and cli._parser.cache_info().misses == 1

    def test_build_parser_stays_fresh(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_import_builds_no_parser(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        script = ("import lenetkit.cli as cli;"
                  " print(cli._parser.cache_info().currsize);"
                  " cli.main(['predict']); cli.main(['train', '--x']);"
                  " print(cli._parser.cache_info().misses)")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == ["0", "1"]


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_closed_stdout_exits_2_with_one_line(synth_root, tmp_path, command, unbuffered):
    ckpt = tmp_path / "m.lnck"
    save_checkpoint(ckpt, model_to_checkpoint(init_params(0, 3)))
    image = next((synth_root / "train" / "0_horizontal").glob("*.pgm"))
    target = (["--data", str(synth_root)] if command == "evaluate"
              else ["--image", str(image)])
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:  # the write fails in print; buffered, it fails when main flushes
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the process writes a byte
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lenetkit.cli", command, "--checkpoint", str(ckpt),
             *target], env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert "standard output" in proc.stderr
