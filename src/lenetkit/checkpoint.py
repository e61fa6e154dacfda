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

The CRC is CRC-64/XZ (reflected ECMA-182 polynomial), the check of the .xz
file format. The writer computes it with numpy (``crc64``) over
``_CRC64_LANES`` contiguous slices of the input at once, each numpy step
advancing every slice by one byte through the byte table; the slice CRCs are
then folded pairwise with the GF(2)-linear "feed k zero bytes" map, as zlib's
``crc32_combine`` does, and the bytes after the last whole slice go through
the plain per-byte loop. The value is the same as the byte-at-a-time CRC's,
so the format does not depend on how it is computed.

The reader checks the stored value through the stdlib ``lzma`` module
instead, in C: about 0.15 ms for a 489 KB body, where ``crc64`` takes about
6 ms. ``_crc_matches`` frames the body as an in-memory .xz stream
(https://tukaani.org/xz/xz-file-format.txt) whose one block holds the body as
stored, uncompressed LZMA2 chunks and the file's stored CRC as its CRC-64
check, and liblzma rejects the stream unless the two agree.

Loading walks the file's bytes at offsets and checks, in order: length,
magic, CRC, version, class count, each record's UTF-8 name, rank, dims and
values, trailing bytes, then the sidecar. Each tensor is copied once, out of
those bytes; a truncated or tampered file never yields a partial model.
``checkpoint_to_model`` rejects parameters that are not float64 or hold
non-finite values, and keeps those arrays.

Run metadata that is not part of the binary contract (class names, the
training config echo, the final epoch record) travels in an optional JSON
sidecar ``<path>.json``, which names its binary's CRC as ``crc64`` (16 hex
digits), so a sidecar beside another binary is corrupt. A sidecar without
that field, as older versions wrote it, is not checked against its binary.
Every run artifact (this pair, the curves, the metrics, the config echo) is
written by ``write_atomic``: to temporary files beside the targets, renamed
into place once all are written, so a failed write of a temporary leaves
the previous files whole. A failed rename leaves the renames before it in
place. The same call removes a stale companion, such as the sidecar of a
checkpoint saved without metadata.
"""

from __future__ import annotations

import contextlib
import json
import lzma
import math
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (CorruptCheckpoint, InvalidShape, IoError, UnsupportedVersion,
                     read_input, read_json)
from .nn import LeNetModel

MAGIC = b"LNCK"
VERSION = 1
_HEADER = struct.Struct("<4sIII")  # magic, version, num_classes, param_count

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


# The fixed parts of the .xz stream that ``_crc_matches`` builds. Stream flags:
# check type 4, CRC-64. Block header: its size as (2 + 1) * 4 bytes, block flags
# (one filter, no sizes), filter 0x21 (LZMA2) with one property byte, 0 (a 4 KiB
# dictionary: stored chunks only pass through it), padding to four bytes, CRC-32.
_XZ_FLAGS = b"\x00\x04"
_XZ_HEADER = b"\xfd7zXZ\x00" + _XZ_FLAGS + struct.pack("<I", zlib.crc32(_XZ_FLAGS))
_XZ_BLOCK_FIELDS = b"\x02\x00\x21\x01\x00\x00\x00\x00"
_XZ_BLOCK_HEADER = _XZ_BLOCK_FIELDS + struct.pack("<I", zlib.crc32(_XZ_BLOCK_FIELDS))
_LZMA2_CHUNK = 1 << 16  # the most bytes one stored LZMA2 chunk holds
# A liblzma built without CRC-64 would skip the check silently, so the numpy
# CRC stands in for it there.
_LZMA_CHECKS_CRC64 = lzma.is_check_supported(lzma.CHECK_CRC64)


def _varint(n: int) -> bytes:
    """The .xz multibyte integer: seven bits a byte, least significant first."""
    out = bytearray()
    while n >= 0x80:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


def _crc_matches(body: bytes, stored: int) -> bool:
    """Whether ``stored`` is the CRC-64/XZ of ``body``, as liblzma checks it."""
    if not _LZMA_CHECKS_CRC64:
        return crc64(body) == stored
    view = memoryview(body)
    parts = [_XZ_HEADER, _XZ_BLOCK_HEADER]
    for start in range(0, len(body), _LZMA2_CHUNK):
        # control byte 1 resets the dictionary, 2 keeps it; then size - 1, big-endian
        chunk = view[start:start + _LZMA2_CHUNK]
        parts += (struct.pack(">BH", 2 if start else 1, len(chunk) - 1), chunk)
    block = sum(map(len, parts[1:])) + 1  # header and chunks, then the end marker
    # the LZMA2 end marker, block padding, then the check
    parts += (bytes(1 + -block % 4), struct.pack("<Q", stored))
    # the index: indicator, one record (the block's size unpadded, the body's size)
    index = b"\x00\x01" + _varint(block + 8) + _varint(len(body))
    index += bytes(-len(index) % 4)
    index += struct.pack("<I", zlib.crc32(index))
    footer = struct.pack("<I", len(index) // 4 - 1) + _XZ_FLAGS
    parts += (index, struct.pack("<I", zlib.crc32(footer)), footer, b"YZ")
    # fed part by part, the stream is never joined into one copy of the body
    decoder = lzma.LZMADecompressor(lzma.FORMAT_XZ)
    try:
        for part in parts:
            decoder.decompress(part)
    except lzma.LZMAError:
        return False
    return decoder.eof


@dataclass
class Checkpoint:
    """Parameters and sidecar metadata; the binary's format is always ``VERSION``."""

    num_classes: int
    params: dict[str, np.ndarray]
    class_names: list[str] | None = None
    train_config: dict | None = None
    final_record: dict | None = None


def model_to_checkpoint(model: LeNetModel, class_names=None, train_config=None,
                        final_record=None) -> Checkpoint:
    return Checkpoint(
        num_classes=model.num_classes,
        params={name: value.copy() for name, value in model.params.items()},
        class_names=list(class_names) if class_names else None,
        train_config=train_config,
        final_record=final_record,
    )


def checkpoint_to_model(ckpt: Checkpoint) -> LeNetModel:
    """Rebuild a model that owns ``ckpt.params``' arrays from then on, not copies of them.

    An undeclared name, shape or dtype, or a non-finite value, is corrupt.
    """
    try:
        model = LeNetModel(ckpt.params, ckpt.num_classes)
    except InvalidShape as exc:
        raise CorruptCheckpoint(f"checkpoint does not fit the model: {exc}") from exc
    for name, value in model.params.items():
        if not np.isfinite(value).all():
            raise CorruptCheckpoint(
                f"checkpoint parameter {name!r} holds a non-finite value")
    return model


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def json_bytes(obj) -> bytes:
    """The artifact form of a JSON value: sorted keys, indent 2, closing newline."""
    return (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


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


def checkpoint_files(path: str | Path, ckpt: Checkpoint) -> dict[Path, bytes | None]:
    """The binary's bytes and the sidecar's (``None``, to remove it, without metadata)."""
    path = Path(path)
    buf = bytearray(_HEADER.pack(MAGIC, VERSION, ckpt.num_classes, len(ckpt.params)))
    for name, value in ckpt.params.items():
        encoded = name.encode("utf-8")
        buf += struct.pack(f"<I{len(encoded)}sI{value.ndim}I", len(encoded), encoded,
                           value.ndim, *value.shape)
        buf += np.ascontiguousarray(value, dtype="<f8").tobytes()
    crc = crc64(buf)
    buf += struct.pack("<Q", crc)
    meta = {key: value for key in ("class_names", "train_config", "final_record")
            if (value := getattr(ckpt, key)) is not None}
    if meta:
        meta["crc64"] = f"{crc:016x}"
    return {path: buf, _sidecar_path(path): json_bytes(meta) if meta else None}


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    """Write the binary checkpoint and its metadata sidecar, or remove a stale one."""
    write_atomic(checkpoint_files(path, ckpt))


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    raw = read_input(path, CorruptCheckpoint)
    if len(raw) < _HEADER.size + 8:
        raise CorruptCheckpoint(f"checkpoint {path} too short")
    if raw[:4] != MAGIC:
        raise CorruptCheckpoint(
            f"checkpoint {path} has bad magic {raw[:4]!r}, expected {MAGIC!r}"
        )
    body = memoryview(raw)[:len(raw) - 8]
    stored = struct.unpack_from("<Q", raw, len(body))[0]
    if not _crc_matches(body, stored):
        raise CorruptCheckpoint(f"checkpoint {path} failed CRC verification")

    _, version, num_classes, param_count = _HEADER.unpack_from(body)
    if version != VERSION:
        raise UnsupportedVersion(
            f"checkpoint version {version} not supported (expected {VERSION})"
        )
    if num_classes < 2:
        raise CorruptCheckpoint(f"checkpoint {path} declares {num_classes} classes,"
                                " need >= 2")
    params: dict[str, np.ndarray] = {}
    pos = _HEADER.size
    try:  # struct.error: a field or a tensor's values run past the end of the body
        for _ in range(param_count):
            (name_len,) = struct.unpack_from("<I", body, pos)
            name, rank = struct.unpack_from(f"<{name_len}sI", body, pos + 4)
            try:
                name = name.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptCheckpoint(f"parameter name is not UTF-8: {exc}") from exc
            if rank < 1 or rank > 8:
                raise CorruptCheckpoint(f"parameter {name!r} has absurd rank {rank}")
            dims = struct.unpack_from(f"<{rank}I", body, pos + 8 + name_len)
            pos += 8 + name_len + 4 * rank
            count = math.prod(dims)  # a Python int: u32 dims cannot overflow it
            if pos + 8 * count > len(body):
                raise struct.error
            values = np.frombuffer(body, "<f8", count, pos)
            pos += 8 * count
            try:
                params[name] = values.reshape(dims).astype(np.float64)
            except ValueError as exc:  # a zero dim beside dims too large to address
                raise CorruptCheckpoint(f"parameter {name!r} has dims {dims}: {exc}") from exc
    except struct.error as exc:
        raise CorruptCheckpoint("checkpoint truncated mid-record") from exc
    if pos != len(body):
        raise CorruptCheckpoint("trailing bytes after parameter table")

    ckpt = Checkpoint(num_classes=num_classes, params=params)
    sidecar = _sidecar_path(path)
    if sidecar.is_file():
        meta = read_json(sidecar, CorruptCheckpoint)
        if "crc64" in meta and meta["crc64"] != f"{stored:016x}":
            raise CorruptCheckpoint(f"checkpoint sidecar {sidecar} names crc64"
                                    f" {meta['crc64']!r}, not the {stored:016x} of {path}")
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
