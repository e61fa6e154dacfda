import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenetkit import cli, errors
from lenetkit.checkpoint import Checkpoint, model_to_checkpoint, save_checkpoint
from lenetkit.data import load_dataset
from lenetkit.errors import DivergenceDetected
from lenetkit.nn import init_params, param_shapes


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
        run_train(synth_root, tmp_path / "r1", ("--threads", "1"))
        run_train(synth_root, tmp_path / "r2", ("--threads", "1"))
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
        def exploding_train(model, train_set, val_set, cfg):
            raise DivergenceDetected("boom", records=[])

        monkeypatch.setattr(cli.train_mod, "train", exploding_train)
        code = run_train(synth_root, tmp_path / "run")
        assert code == 3
        assert capsys.readouterr().err == "error: boom\n"
        # last-good checkpoint still written
        assert (tmp_path / "run" / "checkpoint.lnck").is_file()

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

        def interrupted_train(model, train_set, val_set, cfg):
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
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads((out / "metrics.json").read_text())
        assert stdout_payload == file_payload

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
    ], ids=["list-sidecar", "one-class-name", "renamed-classes", "list-train-config",
            "string-gamma", "int-positive-classes", "unknown-loss-kind",
            "string-alpha-resolved", "int-final-record", "negative-gamma",
            "negative-alpha-resolved", "short-alpha-resolved", "unknown-positive-class",
            "positive-index-past-end", "nan-alpha-resolved"])
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

    def test_out_of_range_flag_is_config_error(self, synth_root, tmp_path, capsys):
        out = tmp_path / "run"
        run_train(synth_root, out)
        capsys.readouterr()
        assert cli.main(["evaluate", "--checkpoint", str(out / "checkpoint.lnck"),
                         "--data", str(synth_root), "--gamma", "-1"]) == 1
        assert "gamma" in capsys.readouterr().err


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

    def test_one_pixel_high_image_is_data_error(self, synth_root, tmp_path, capsys):
        out = tmp_path / "run"
        run_train(synth_root, out)
        flat = tmp_path / "flat.pgm"
        flat.write_bytes(b"P5\n8 1\n255\n" + bytes(range(8)))
        code = cli.main(["predict", "--checkpoint", str(out / "checkpoint.lnck"),
                         "--image", str(flat)])
        assert code == 2
        assert str(flat) in capsys.readouterr().err


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
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"threads": True}))
        for extra in (["--threads", "0"], ["--threads", "2"],
                      ["--config", str(cfg_file)]):
            code = cli.main(["train", "--data", str(synth_root),
                             "--out", str(tmp_path / "o"), *extra])
            assert code == 1, extra
            assert "threads" in capsys.readouterr().err


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
    **dict.fromkeys(["epochs", "batch_size", "seed", "max_shift_px", "threads"], {"int"}),
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
