"""Command-line entry point.

Commands: ``train``, ``evaluate``, ``predict``, ``gen-synthetic``,
``export-curves``. Configuration comes from an optional JSON file with
flat snake_case keys; command-line flags override file values, and the
effective configuration is echoed to ``config.echo.json`` in the output
directory for reproducibility.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
divergence. Diagnostics go to stderr; stdout carries only declared JSON
output (evaluate, predict).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt_mod
from . import curves as curves_mod
from . import data as data_mod
from . import loss as loss_mod
from . import metrics as metrics_mod
from . import train as train_mod
from .errors import (
    CorruptCheckpoint,
    CurvesFormatError,
    DatasetNotFound,
    DivergenceDetected,
    EmptyDataset,
    EngineError,
    ImageDecodeError,
    InvalidConfig,
    IoError,
    UnsupportedVersion,
)
from .nn import init_params, model_forward

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3

_DATA_ERRORS = (DatasetNotFound, ImageDecodeError, EmptyDataset, IoError,
                CorruptCheckpoint, UnsupportedVersion, CurvesFormatError)

CONFIG_DEFAULTS = {
    "epochs": 100,
    "batch_size": 32,
    "learning_rate": 0.1,
    "loss_kind": "cross_entropy",
    "gamma": 2.0,
    "alpha": None,          # null = uniform; "inverse_frequency"; or a list
    "seed": 0,
    "shuffle": True,
    "augment": False,
    "hflip_prob": 0.5,
    "max_rotation_deg": 15.0,
    "max_shift_px": 2,
    "fill_value": 0.0,
    "threads": 1,
    "positive_classes": None,  # override for the binarized metric mode
    "data_root": None,
    "out_dir": None,
}


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InvalidConfig(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidConfig("config file must contain a JSON object")
    unknown = sorted(set(raw) - set(CONFIG_DEFAULTS))
    if unknown:
        raise InvalidConfig(f"unknown config keys: {', '.join(unknown)}")
    return raw


def _effective_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- command-line flags."""
    cfg = dict(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(_load_config_file(args.config))
    overrides = {
        "data_root": getattr(args, "data", None),
        "out_dir": getattr(args, "out", None),
        "seed": getattr(args, "seed", None),
        "loss_kind": getattr(args, "loss", None),
        "gamma": getattr(args, "gamma", None),
        "epochs": getattr(args, "epochs", None),
        "learning_rate": getattr(args, "lr", None),
        "batch_size": getattr(args, "batch_size", None),
        "threads": getattr(args, "threads", None),
        "augment": getattr(args, "augment", None),
    }
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    return cfg


def _resolve_alpha(alpha_spec, train_set: data_mod.Dataset) -> np.ndarray | None:
    if alpha_spec is None:
        return None
    if alpha_spec == "inverse_frequency":
        return loss_mod.inverse_frequency_alpha(train_set.class_counts())
    if isinstance(alpha_spec, (list, tuple)):
        return np.asarray(alpha_spec, dtype=np.float64)
    raise InvalidConfig(
        f"alpha must be null, 'inverse_frequency', or a list, got {alpha_spec!r}"
    )


def _build_train_config(cfg: dict, train_set: data_mod.Dataset) -> train_mod.TrainConfig:
    if type(cfg["threads"]) is not int or cfg["threads"] != 1:  # bools are ints
        raise InvalidConfig(
            f"threads must be 1 (the engine is single-threaded), got {cfg['threads']!r}")
    focal = loss_mod.FocalConfig(gamma=cfg["gamma"],
                                 alpha=_resolve_alpha(cfg["alpha"], train_set))
    # validate augmentation fields up front even when augmentation is off
    augment_cfg = data_mod.AugmentConfig(
        hflip_prob=cfg["hflip_prob"],
        max_rotation_deg=cfg["max_rotation_deg"],
        max_shift_px=cfg["max_shift_px"],
        seed=cfg["seed"],
        fill_value=cfg["fill_value"],
    )
    if not cfg["augment"]:
        augment_cfg = None
    return train_mod.TrainConfig(
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        learning_rate=cfg["learning_rate"],
        loss_kind=cfg["loss_kind"],
        focal=focal,
        seed=cfg["seed"],
        shuffle=cfg["shuffle"],
        augment=augment_cfg,
    )


def _positive_classes(cfg_value, class_names: list[str]) -> list[int]:
    if cfg_value is None:
        return metrics_mod.default_positive_classes(class_names)
    indices = []
    for item in cfg_value:
        if isinstance(item, str):
            if item not in class_names:
                raise InvalidConfig(f"unknown positive class name {item!r}")
            indices.append(class_names.index(item))
        else:
            indices.append(int(item))
    return indices


def _metrics_payload(split: str, mean_loss: float, cm, class_names: list[str],
                     positive_classes: list[int]) -> dict:
    macro = metrics_mod.macro_report(cm)
    per_class_rows = []
    for row in macro.per_class:
        row = dict(row)
        row["class_name"] = class_names[row["class_index"]]
        per_class_rows.append(row)
    binarized = metrics_mod.report_json(
        metrics_mod.binarized_report(cm, positive_classes), cm)
    binarized["positive_classes"] = sorted(positive_classes)
    macro_json = metrics_mod.report_json(macro, cm)
    macro_json["per_class"] = per_class_rows
    total = cm.total
    return {
        "split": split,
        "num_samples": total,
        "class_names": class_names,
        "loss": mean_loss,
        "accuracy": None if total == 0 else int(np.trace(cm.counts)) / total,
        "reports": {
            "binarized_nodule": binarized,
            "macro_ovr": macro_json,
            "per_class": {
                "mode": "per_class",
                "accuracy": None if total == 0 else int(np.trace(cm.counts)) / total,
                "sensitivity": None,
                "specificity": None,
                "confusion": cm.counts.tolist(),
                "per_class": per_class_rows,
            },
        },
    }


def _record_json(record: train_mod.EpochRecord) -> dict:
    return {
        "epoch": record.epoch,
        "train_loss": record.train_loss,
        "train_acc": record.train_acc,
        "val_loss": record.val_loss,
        "val_acc": record.val_acc,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_train(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    if not cfg["data_root"]:
        raise InvalidConfig("train requires a dataset root (--data or config)")
    if not cfg["out_dir"]:
        raise InvalidConfig("train requires an output directory (--out or config)")

    train_set = data_mod.load_dataset(cfg["data_root"], "train")
    val_set = data_mod.load_dataset(cfg["data_root"], "validation")
    if train_set.class_names != val_set.class_names:
        raise DatasetNotFound(
            "train and validation splits declare different classes"
        )
    num_classes = len(train_set.class_names)
    if num_classes < 2:
        raise InvalidConfig(f"need >= 2 classes, found {num_classes}")

    tcfg = _build_train_config(cfg, train_set)
    positives = _positive_classes(cfg["positive_classes"], train_set.class_names)
    model = init_params(cfg["seed"], num_classes)

    out_dir = Path(cfg["out_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.echo.json").write_text(
            json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write to output directory {out_dir}: {exc}") from exc

    diverged = False
    try:
        records, model = train_mod.train(model, train_set, val_set, tcfg)
    except DivergenceDetected as exc:
        print(f"warning: {exc}", file=sys.stderr)
        records = exc.records
        diverged = True

    final_record = _record_json(records[-1]) if records else None
    val_loss, _, cm = train_mod.evaluate(model, val_set, tcfg.loss_kind, tcfg.focal)
    payload = _metrics_payload("validation", val_loss, cm,
                               train_set.class_names, positives)

    sidecar_cfg = dict(cfg)
    if tcfg.focal is not None and tcfg.focal.alpha is not None:
        sidecar_cfg["alpha_resolved"] = tcfg.focal.alpha.tolist()
    ckpt = ckpt_mod.model_to_checkpoint(
        model, class_names=train_set.class_names,
        train_config=sidecar_cfg, final_record=final_record)
    ckpt_mod.save_checkpoint(out_dir / "checkpoint.lnck", ckpt)
    try:
        curves_mod.write_curves_csv(out_dir / "curves.csv", records)
        if records:
            (out_dir / "curves.svg").write_text(curves_mod.render_curves_svg(records))
        (out_dir / "metrics.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write artifacts to {out_dir}: {exc}") from exc

    if diverged:
        print("training diverged; wrote last good state", file=sys.stderr)
        return EXIT_DIVERGED
    print(f"wrote checkpoint and curves to {out_dir}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    ckpt = ckpt_mod.load_checkpoint(args.checkpoint)
    model = ckpt_mod.checkpoint_to_model(ckpt)
    dataset = data_mod.load_dataset(args.data, args.split)
    names = dataset.class_names
    if (len(names) != ckpt.num_classes
            or (ckpt.class_names and ckpt.class_names != names)):
        raise DatasetNotFound(
            f"dataset classes {names} do not match the checkpoint's"
            f" {ckpt.num_classes} classes {ckpt.class_names or ''}"
        )

    trained = ckpt.train_config or {}
    loss_kind = args.loss or trained.get("loss_kind", "cross_entropy")
    gamma = args.gamma if args.gamma is not None else trained.get("gamma", 2.0)
    alpha = trained.get("alpha_resolved") if args.loss is None else None
    focal = loss_mod.FocalConfig(gamma=gamma, alpha=alpha)

    mean_loss, _, cm = train_mod.evaluate(model, dataset, loss_kind, focal)
    positives = _positive_classes(trained.get("positive_classes"), names)
    payload = _metrics_payload(args.split, mean_loss, cm, names, positives)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    ckpt = ckpt_mod.load_checkpoint(args.checkpoint)
    model = ckpt_mod.checkpoint_to_model(ckpt)
    pixels = data_mod.load_image(args.image)
    probs, _ = model_forward(model, pixels[None, :, :, :])
    probs = probs[0]
    index = int(np.argmax(probs))
    names = ckpt.class_names or [f"class_{i}" for i in range(ckpt.num_classes)]
    print(json.dumps({
        "class_name": names[index],
        "class_index": index,
        "probs": probs.tolist(),
    }, indent=2))
    return EXIT_OK


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    out = Path(args.out)
    n = args.n_per_class
    if n < 1:
        raise InvalidConfig(f"--n-per-class must be >= 1, got {n}")
    data_mod.gen_synthetic(out / "train", n, args.seed)
    data_mod.gen_synthetic(out / "validation", math.ceil(n / 5), args.seed + 1)
    print(f"wrote synthetic dataset under {out}", file=sys.stderr)
    return EXIT_OK


def cmd_export_curves(args: argparse.Namespace) -> int:
    curves_mod.export_curves_svg(args.csv, args.svg)
    print(f"wrote {args.svg}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map usage errors onto exit code 1
        raise InvalidConfig(message)


def _add_shared_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--data", help="dataset root directory")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--loss", choices=train_mod.LOSS_KINDS, help="loss function")
    p.add_argument("--gamma", type=float, help="focal loss focusing exponent")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--lr", type=float, help="learning rate")
    p.add_argument("--batch-size", type=int, dest="batch_size", help="batch size")
    p.add_argument("--threads", type=int, help="must be 1 (single-threaded engine)")
    p.add_argument("--augment", action="store_const", const=True, default=None,
                   help="enable training-time augmentation")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lenetkit",
                     description="LeNet training/inference engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and export artifacts")
    _add_shared_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="validation")
    p.add_argument("--loss", choices=train_mod.LOSS_KINDS, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("predict", help="classify a single image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gen-synthetic", help="write a synthetic PGM dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-class", type=int, default=20, dest="n_per_class")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gen_synthetic)

    p = sub.add_parser("export-curves", help="render a curves CSV as SVG")
    p.add_argument("--csv", required=True)
    p.add_argument("--svg", required=True)
    p.set_defaults(fn=cmd_export_curves)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except InvalidConfig as exc:
        return _fail(str(exc), EXIT_CONFIG)
    except _DATA_ERRORS as exc:
        return _fail(str(exc), EXIT_DATA)
    except DivergenceDetected as exc:
        return _fail(str(exc), EXIT_DIVERGED)
    except EngineError as exc:
        return _fail(str(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
