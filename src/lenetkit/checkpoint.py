"""Bit-exact model checkpoints (``.lnck``).

Binary layout, all integers little-endian:

    "LNCK"                     4 bytes magic
    version                    u32
    num_classes                u32
    param_count                u32
    per parameter:
        name_len               u32
        name                   UTF-8 bytes
        rank                   u32
        dims                   u32 each
        values                 f64 IEEE-754, row-major
    crc                        u64, CRC-64 over all preceding bytes

The CRC is CRC-64/XZ (reflected ECMA-182 polynomial). It is computed over
``_CRC64_LANES`` contiguous slices of the input at once, each numpy step
advancing every slice by one byte through the byte table; the slice CRCs are
then folded pairwise with the GF(2)-linear "feed k zero bytes" map, as zlib's
``crc32_combine`` does, and the bytes after the last whole slice go through
the plain per-byte loop. The value is the same as the byte-at-a-time CRC's,
so the format does not depend on how it is computed. Loading verifies magic,
CRC, then structure; a truncated or tampered file never yields a partial
model.

Run metadata that is not part of the binary contract (class names, the
training config echo, the final epoch record) travels in an optional JSON
sidecar ``<path>.json``. Every run artifact (this pair, the curves, the
metrics, the config echo) is written by ``write_atomic``: to temporary files
beside the targets, renamed into place once all are written, so a failed
write leaves the previous files whole. The same call removes a stale
companion, such as the sidecar of a checkpoint saved without metadata.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptCheckpoint, InvalidShape, IoError, UnsupportedVersion
from .nn import LeNetModel, Param

MAGIC = b"LNCK"
VERSION = 1

_CRC64_POLY = 0xC96C5795D7870F42  # ECMA-182, reflected
_CRC64_LANES = 4096  # a power of two, so the lanes fold pairwise to one


def _make_crc64_table():
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC64_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC64_TABLE = _make_crc64_table()
_CRC64_TABLE_U64 = np.array(_CRC64_TABLE, dtype=np.uint64)


def _advance(regs: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Feed row i of the uint8 ``block`` through CRC register ``regs[i]``."""
    for column in block.T:
        regs = np.take(_CRC64_TABLE_U64, regs.astype(np.uint8) ^ column) ^ (regs >> 8)
    return regs


def _byte_tables(images: np.ndarray) -> np.ndarray:
    """Eight 256-entry tables of the GF(2)-linear map taking bit i to ``images[i]``."""
    tables = np.zeros((8, 256), dtype=np.uint64)
    bits = images.reshape(8, 8)
    for b in range(8):
        tables[:, 1 << b:2 << b] = tables[:, :1 << b] ^ bits[:, b:b + 1]
    return tables


def _apply(tables: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """Map every register through the linear map that ``_byte_tables`` built."""
    out = np.take(tables[0], regs.astype(np.uint8))
    for k in range(1, 8):
        out ^= np.take(tables[k], (regs >> 8 * k).astype(np.uint8))
    return out


def crc64(data: bytes) -> int:
    """CRC-64/XZ of a bytes-like object."""
    crc = 0xFFFFFFFFFFFFFFFF
    span = len(data) // _CRC64_LANES
    if span:
        # only the first lane carries the initial value; a fold shifts the earlier
        # lane's register past the later lane's bytes and XORs the two
        regs = np.zeros(_CRC64_LANES, dtype=np.uint64)
        regs[0] = crc
        regs = _advance(regs, np.frombuffer(data, np.uint8, _CRC64_LANES * span)
                        .reshape(_CRC64_LANES, span))
        # images of the 64 register bits under span zero bytes; each fold doubles span
        images = _advance(np.uint64(1) << np.arange(64, dtype=np.uint64),
                          np.zeros((64, span), dtype=np.uint8))
        while len(regs) > 1:
            tables = _byte_tables(images)
            regs = _apply(tables, regs[0::2]) ^ regs[1::2]
            images = _apply(tables, images)
        crc = int(regs[0])
    for b in data[_CRC64_LANES * span:]:
        crc = _CRC64_TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFFFFFFFFFF


@dataclass
class Checkpoint:
    num_classes: int
    params: dict[str, np.ndarray]
    version: int = VERSION
    class_names: list[str] | None = None
    train_config: dict | None = None
    final_record: dict | None = None


def model_to_checkpoint(model: LeNetModel, class_names=None, train_config=None,
                        final_record=None) -> Checkpoint:
    return Checkpoint(
        num_classes=model.num_classes,
        params={p.name: p.value.copy() for p in model.param_list()},
        class_names=list(class_names) if class_names else None,
        train_config=train_config,
        final_record=final_record,
    )


def checkpoint_to_model(ckpt: Checkpoint) -> LeNetModel:
    """Rebuild a model; a name or shape the architecture does not declare is corrupt."""
    params = {name: Param(name, value.copy(), np.zeros(value.shape))
              for name, value in ckpt.params.items()}
    try:
        return LeNetModel(params, ckpt.num_classes)
    except InvalidShape as exc:
        raise CorruptCheckpoint(f"checkpoint does not fit the model: {exc}") from exc


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def json_bytes(obj) -> bytes:
    """The artifact form of a JSON value: sorted keys, indent 2, closing newline."""
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def write_atomic(files: dict[Path, bytes | None]) -> None:
    """Replace each target with its bytes, or remove it where they are ``None``.

    Targets are renamed into place, in order, from ``<name>.<pid>.tmp`` files
    only once every payload is written; no directory is created. An
    ``OSError`` removes the temporaries and raises ``IoError`` naming the target.
    """
    temps = {target: target.with_name(f"{target.name}.{os.getpid()}.tmp")
             for target, data in files.items() if data is not None}
    try:
        for target, temp in temps.items():
            temp.write_bytes(files[target])
        for target, data in files.items():
            if data is None:
                target.unlink(missing_ok=True)
            else:
                os.replace(temps[target], target)
    except OSError as exc:
        for temp in temps.values():
            with contextlib.suppress(OSError):
                temp.unlink(missing_ok=True)
        raise IoError(f"cannot write {target}: {exc}") from exc


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Write the binary checkpoint and its metadata sidecar, or remove a stale one."""
    path = Path(path)
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<I", ckpt.version)
    buf += struct.pack("<I", ckpt.num_classes)
    buf += struct.pack("<I", len(ckpt.params))
    for name, value in ckpt.params.items():
        encoded = name.encode("utf-8")
        buf += struct.pack("<I", len(encoded))
        buf += encoded
        buf += struct.pack("<I", value.ndim)
        buf += struct.pack(f"<{value.ndim}I", *value.shape)
        buf += np.ascontiguousarray(value, dtype="<f8").tobytes()
    buf += struct.pack("<Q", crc64(buf))
    meta = {key: value for key in ("class_names", "train_config", "final_record")
            if (value := getattr(ckpt, key)) is not None}
    write_atomic({path: buf, _sidecar_path(path): json_bytes(meta) if meta else None})


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptCheckpoint("checkpoint truncated mid-record")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CorruptCheckpoint(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < len(MAGIC) + 4 + 4 + 4 + 8:
        raise CorruptCheckpoint(f"checkpoint {path} too short")
    if raw[:4] != MAGIC:
        raise CorruptCheckpoint(
            f"checkpoint {path} has bad magic {raw[:4]!r}, expected {MAGIC!r}"
        )
    body, stored = raw[:-8], struct.unpack("<Q", raw[-8:])[0]
    if crc64(body) != stored:
        raise CorruptCheckpoint(f"checkpoint {path} failed CRC verification")

    r = _Reader(body)
    r.take(4)  # magic, already checked
    version = r.u32()
    if version != VERSION:
        raise UnsupportedVersion(
            f"checkpoint version {version} not supported (expected {VERSION})"
        )
    num_classes = r.u32()
    param_count = r.u32()
    params: dict[str, np.ndarray] = {}
    for _ in range(param_count):
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptCheckpoint(f"parameter name is not UTF-8: {exc}") from exc
        rank = r.u32()
        if rank < 1 or rank > 8:
            raise CorruptCheckpoint(f"parameter {name!r} has absurd rank {rank}")
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
        count = math.prod(dims)  # a Python int: u32 dims cannot overflow it
        values = np.frombuffer(r.take(8 * count), dtype="<f8")
        try:
            params[name] = values.reshape(dims).astype(np.float64)
        except ValueError as exc:  # a zero dim beside dims too large to address
            raise CorruptCheckpoint(f"parameter {name!r} has dims {dims}: {exc}") from exc
    if r.pos != len(body):
        raise CorruptCheckpoint("trailing bytes after parameter table")

    ckpt = Checkpoint(num_classes=num_classes, params=params, version=version)
    sidecar = _sidecar_path(path)
    if sidecar.is_file():
        try:
            meta = json.loads(sidecar.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CorruptCheckpoint(
                f"checkpoint sidecar {sidecar} unreadable: {exc}"
            ) from exc
        if not isinstance(meta, dict):
            raise CorruptCheckpoint(f"checkpoint sidecar {sidecar} is not an object")
        names = meta.get("class_names")
        if names is not None and (not isinstance(names, list) or len(names) != num_classes
                                  or not all(isinstance(n, str) for n in names)):
            raise CorruptCheckpoint(f"checkpoint sidecar {sidecar}: class_names must be"
                                    f" {num_classes} strings to match the binary")
        ckpt.class_names = names
        for key in ("train_config", "final_record"):
            if not isinstance(meta.get(key), (dict, type(None))):
                raise CorruptCheckpoint(f"sidecar {sidecar}: {key} is not an object")
            setattr(ckpt, key, meta.get(key))
    return ckpt
