"""Command-line entry point.

Commands: ``train``, ``evaluate``, ``predict``, ``gen-synthetic``,
``export-curves``. Configuration comes from an optional JSON file with
flat snake_case keys; command-line flags override file values, and the
effective configuration is echoed to ``config.echo.json`` in the output
directory for reproducibility. ``train``, and ``evaluate`` from the sidecar,
build the run's ``TrainConfig`` through one builder, so both check the same
ranges. Both write the metrics report that ``metrics.metrics_json`` builds.

Exit codes: 0 success, else the ``exit_code`` of the error type raised (see
``errors``): 1 usage/config error, 2 data error, 3 numeric divergence. A
failure prints one ``error:`` line to stderr; stdout carries only declared
JSON output (evaluate, predict).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import types
from dataclasses import asdict, fields
from pathlib import Path

# one BLAS thread, set before numpy loads, so seeded bytes match on any core count
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402

from . import checkpoint as ckpt_mod  # noqa: E402
from . import curves as curves_mod  # noqa: E402
from . import data as data_mod  # noqa: E402
from . import loss as loss_mod  # noqa: E402
from . import metrics as metrics_mod  # noqa: E402
from . import train as train_mod  # noqa: E402
from .errors import (CorruptCheckpoint, DatasetNotFound, DivergenceDetected,  # noqa: E402
                     EngineError, InvalidConfig, IoError, read_json)
from .nn import init_params, model_forward  # noqa: E402

EXIT_OK = 0

# key -> (default, JSON type); a key named after a field of TrainConfig, FocalConfig
# or AugmentConfig (seed: both seeds) takes its default there and is range-checked there
CONFIG_SCHEMA = {
    "epochs": (train_mod.TrainConfig.epochs, int),
    "batch_size": (train_mod.TrainConfig.batch_size, int),
    "learning_rate": (train_mod.TrainConfig.learning_rate, float),
    "loss_kind": (train_mod.TrainConfig.loss_kind, str),
    "gamma": (loss_mod.FocalConfig.gamma, float),
    "alpha": (None, str | list[float]),  # null = uniform; "inverse_frequency"; or a list
    "seed": (train_mod.TrainConfig.seed, int),
    "shuffle": (train_mod.TrainConfig.shuffle, bool),
    "augment": (False, bool),
    "hflip_prob": (data_mod.AugmentConfig.hflip_prob, float),
    "max_rotation_deg": (data_mod.AugmentConfig.max_rotation_deg, float),
    "max_shift_px": (data_mod.AugmentConfig.max_shift_px, int),
    "fill_value": (data_mod.AugmentConfig.fill_value, float),
    "positive_classes": (None, list[str | int]),  # override for the binarized metric mode
    "data_root": (None, str),
    "out_dir": (None, str),
}
# a sidecar's train_config also carries the focal weights the run resolved, and
# sidecars written before the threads knob was retired carry "threads": 1
_SIDECAR_SCHEMA = {**CONFIG_SCHEMA, "alpha_resolved": (None, list[float]),
                   "threads": (1, int)}


def _has_type(value, kind) -> bool:
    """JSON type test: a bool is not an int, and an int in float range is a float."""
    if isinstance(kind, types.UnionType):
        return any(_has_type(value, k) for k in kind.__args__)
    if isinstance(kind, types.GenericAlias):  # list[item]
        return type(value) is list and all(_has_type(v, kind.__args__[0]) for v in value)
    return type(value) is kind or (kind is float and type(value) is int
                                   and abs(value) <= sys.float_info.max)


def _check_config(cfg: dict, where: str, error: type[EngineError],
                  schema: dict = CONFIG_SCHEMA) -> None:
    """Raise ``error`` unless each key of ``cfg`` is in ``schema``, with its type."""
    for key, value in cfg.items():
        if key not in schema:
            raise error(f"{where}: unknown config key {key!r}")
        default, kind = schema[key]
        if not (value is None and default is None or _has_type(value, kind)):
            name = kind.__name__ if isinstance(kind, type) else kind
            raise error(f"{where}: {key} must be {name}, got {value!r}")


def _load_config_file(path: str) -> dict:
    raw = read_json(path, InvalidConfig)
    _check_config(raw, f"config file {path}", InvalidConfig)
    return raw


def _effective_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- command-line flags (each flag's dest is its key)."""
    cfg = {key: default for key, (default, _) in CONFIG_SCHEMA.items()}
    if args.config:
        cfg |= _load_config_file(args.config)
    cfg |= {k: v for k, v in vars(args).items() if k in CONFIG_SCHEMA and v is not None}
    return cfg


def _resolve_alpha(alpha_spec, train_set: data_mod.Dataset):
    """null or a list passes through; FocalConfig makes it an array."""
    if alpha_spec == "inverse_frequency":
        return loss_mod.inverse_frequency_alpha(train_set.class_counts())
    if isinstance(alpha_spec, str):
        raise InvalidConfig(
            f"alpha must be null, 'inverse_frequency', or a list, got {alpha_spec!r}")
    return alpha_spec


def _from_config(cls, cfg: dict, **given):
    """``cls`` with each field that a config key names set from it; ``given`` wins."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg} | given)


def _build_train_config(cfg: dict, alpha, num_classes: int) -> train_mod.TrainConfig:
    """The run's TrainConfig from a config with every key, ``alpha`` its resolved weights."""
    focal = _from_config(loss_mod.FocalConfig, cfg, alpha=alpha)
    if focal.alpha is not None and len(focal.alpha) != num_classes:
        raise InvalidConfig(f"alpha has {len(focal.alpha)} entries for {num_classes} classes")
    # validate augmentation fields up front even when augmentation is off
    augment = _from_config(data_mod.AugmentConfig, cfg)
    return _from_config(train_mod.TrainConfig, cfg, focal=focal,
                        augment=augment if cfg["augment"] else None)


def _positive_classes(cfg_value, class_names: list[str]) -> list[int]:
    if cfg_value is None:
        return metrics_mod.default_positive_classes(class_names)
    k = len(class_names)
    for item in cfg_value:
        if isinstance(item, str) and item not in class_names:
            raise InvalidConfig(f"unknown positive class name {item!r}")
        if isinstance(item, int) and not 0 <= item < k:
            raise InvalidConfig(f"positive class index {item} is outside [0, {k})")
    indices = [class_names.index(i) if isinstance(i, str) else i for i in cfg_value]
    if not 0 < len(set(indices)) < k:
        raise InvalidConfig("positive classes must be a non-empty proper subset"
                            f" of the {k} classes")
    return indices


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

    tcfg = _build_train_config(cfg, _resolve_alpha(cfg["alpha"], train_set), num_classes)
    train_mod.check_sets(train_set, val_set, tcfg.batch_size)
    positives = _positive_classes(cfg["positive_classes"], train_set.class_names)
    model = init_params(cfg["seed"], num_classes)

    out_dir = Path(cfg["out_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in a config file's out_dir
        raise IoError(f"cannot create output directory {out_dir}: {exc}") from exc

    diverged, stats = None, []
    try:
        records, model = train_mod.train(model, train_set, val_set, tcfg,
                                         on_epoch=stats.append)
    except DivergenceDetected as exc:
        records, diverged = exc.records, exc

    final_record = asdict(records[-1]) if records else None
    if stats:  # the model is in the state whose validation pass ended the last epoch
        val_loss, cm = stats[-1].record.val_loss, stats[-1].val_confusion
    else:
        val_loss, _, cm = train_mod.evaluate(model, val_set, tcfg.loss_kind, tcfg.focal)
    payload = metrics_mod.metrics_json("validation", val_loss, cm,
                                       train_set.class_names, positives)

    sidecar_cfg = dict(cfg)
    if tcfg.focal is not None and tcfg.focal.alpha is not None:
        sidecar_cfg["alpha_resolved"] = tcfg.focal.alpha.tolist()
    ckpt = ckpt_mod.model_to_checkpoint(
        model, class_names=train_set.class_names,
        train_config=sidecar_cfg, final_record=final_record)
    csv = curves_mod.format_curves_csv(records).encode()
    # a run with no epochs has nothing to plot, so an earlier run's figure goes
    svg = curves_mod.render_curves_svg(records).encode() if records else None
    # one write for all six, so a run that stops before it leaves the last run's whole
    ckpt_mod.write_atomic({out_dir / "config.echo.json": ckpt_mod.json_bytes(cfg),
                           **ckpt_mod.checkpoint_files(out_dir / "checkpoint.lnck", ckpt),
                           out_dir / "curves.csv": csv, out_dir / "curves.svg": svg,
                           out_dir / "metrics.json": ckpt_mod.json_bytes(payload)})

    if diverged:  # exit 3 with one line, now that the last good state is written
        raise diverged
    print(f"wrote checkpoint and curves to {out_dir}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    ckpt = ckpt_mod.load_checkpoint(args.checkpoint)
    where = f"checkpoint sidecar of {args.checkpoint}"
    _check_config(ckpt.train_config or {}, where, CorruptCheckpoint, _SIDECAR_SCHEMA)
    trained = {k: d for k, (d, _) in _SIDECAR_SCHEMA.items()} | (ckpt.train_config or {})
    model = ckpt_mod.checkpoint_to_model(ckpt)
    dataset = data_mod.load_dataset(args.data, args.split)
    names = dataset.class_names
    if (len(names) != ckpt.num_classes
            or (ckpt.class_names and ckpt.class_names != names)):
        raise DatasetNotFound(
            f"dataset classes {names} do not match the checkpoint's"
            f" {ckpt.num_classes} classes {ckpt.class_names or ''}"
        )

    try:  # a value out of range in the sidecar is the checkpoint's fault, not the config's
        tcfg = _build_train_config(trained, trained["alpha_resolved"], len(names))
        positives = _positive_classes(trained["positive_classes"], names)
    except InvalidConfig as exc:
        raise CorruptCheckpoint(f"{where}: {exc}") from exc
    loss_kind, focal = args.loss or tcfg.loss_kind, tcfg.focal
    if args.loss is not None or args.gamma is not None:
        focal = loss_mod.FocalConfig(gamma=focal.gamma if args.gamma is None else args.gamma,
                                     alpha=None if args.loss else focal.alpha)

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is caught below
        mean_loss, _, cm = train_mod.evaluate(model, dataset, loss_kind, focal)
    if not math.isfinite(mean_loss):
        raise CorruptCheckpoint(f"checkpoint {args.checkpoint} gives a non-finite loss"
                                f" on {args.split!r}")
    payload = metrics_mod.metrics_json(args.split, mean_loss, cm, names, positives)
    sys.stdout.write(ckpt_mod.json_bytes(payload).decode())  # the bytes of metrics.json
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    ckpt = ckpt_mod.load_checkpoint(args.checkpoint)
    model = ckpt_mod.checkpoint_to_model(ckpt)
    pixels = data_mod.load_image(args.image)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite output is caught below
        probs, _ = model_forward(model, pixels[None, :, :, :])
    probs = probs[0]
    if not np.isfinite(probs).all():
        raise CorruptCheckpoint(f"checkpoint {args.checkpoint} gives non-finite"
                                f" probabilities for {args.image}")
    index = int(np.argmax(probs))
    names = ckpt.class_names or [f"class_{i}" for i in range(ckpt.num_classes)]
    print(json.dumps({
        "class_name": names[index],
        "class_index": index,
        "probs": probs.tolist(),
    }, indent=2, allow_nan=False))
    return EXIT_OK


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    out = Path(args.out)
    n = args.n_per_class
    if n < 1:
        raise InvalidConfig(f"--n-per-class must be >= 1, got {n}")
    data_mod.gen_synthetic(out / "train", n, args.seed)
    data_mod.gen_synthetic(out / "validation", -(-n // 5), args.seed + 1)
    print(f"wrote synthetic dataset under {out}", file=sys.stderr)
    return EXIT_OK


def cmd_export_curves(args: argparse.Namespace) -> int:
    svg = curves_mod.render_curves_svg(curves_mod.read_curves_csv(args.csv))
    ckpt_mod.write_atomic({Path(args.svg): svg.encode()})
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
    p.add_argument("--data", dest="data_root", help="dataset root directory")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--loss", choices=train_mod.LOSS_KINDS, dest="loss_kind",
                   help="loss function")
    p.add_argument("--gamma", type=float, help="focal loss focusing exponent")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--lr", type=float, dest="learning_rate", help="learning rate")
    p.add_argument("--batch-size", type=int, dest="batch_size", help="batch size")
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


_parser = functools.cache(build_parser)  # main's one parser, built on its first call


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        try:
            code = args.fn(args)
            sys.stdout.flush()  # a closed pipe fails here, not at interpreter shutdown
        except BrokenPipeError as exc:
            with contextlib.suppress(BrokenPipeError):
                sys.stdout.close()  # so that shutdown does not flush it again
            raise IoError(f"cannot write to standard output: {exc}") from exc
        return code
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
