import functools
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenetkit import checkpoint as ckpt_mod
from lenetkit.checkpoint import (
    Checkpoint,
    checkpoint_to_model,
    crc64,
    load_checkpoint,
    model_to_checkpoint,
    save_checkpoint,
)
from lenetkit.errors import CorruptCheckpoint, InvalidShape, IoError, UnsupportedVersion
from lenetkit.nn import LeNetModel, init_params
from lenetkit.train import evaluate

from test_train import tiny_dataset


def crc64_bitwise(data: bytes) -> int:
    """Independent bit-at-a-time CRC-64/XZ for cross-checking the table code."""
    poly = 0xC96C5795D7870F42
    crc = 0xFFFFFFFFFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFFFFFFFFFF


class TestCrc64:
    def test_matches_bitwise_reference(self):
        rng = np.random.default_rng(0)
        for n in (0, 1, 7, 100):
            data = rng.integers(0, 256, size=n).astype(np.uint8).tobytes()
            assert crc64(data) == crc64_bitwise(data)

    def test_known_vector(self):
        # CRC-64/XZ check value for "123456789"
        assert crc64(b"123456789") == 0x995DC9BBDF1939FA

    def test_matches_bitwise_reference_at_lane_boundaries(self):
        # lanes start at L bytes; the bytes past the last whole lane take the byte loop
        lanes = ckpt_mod._CRC64_LANES
        rng = np.random.default_rng(1)
        for n in (0, 1, lanes - 1, lanes, lanes + 1, 2 * lanes - 1, 2 * lanes,
                  2 * lanes + 1, 3 * lanes + lanes // 2, 5 * lanes + 7):
            data = rng.integers(0, 256, size=n).astype(np.uint8).tobytes()
            assert crc64(data) == crc64_bitwise(data), n
            assert crc64(bytearray(data)) == crc64_bitwise(data), n


@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 1 << 16), seed=st.integers(0, 2**32 - 1))
def test_crc64_matches_bitwise_reference_on_random_bytes(n, seed):
    data = np.random.default_rng(seed).integers(0, 256, size=n).astype(np.uint8).tobytes()
    assert crc64(data) == crc64_bitwise(data)


_CHUNK = ckpt_mod._LZMA2_CHUNK
# bytes that look like .xz framing: stream header magic and flags, footer magic,
# and runs of the LZMA2 control bytes (end marker, stored chunk, stored chunk
# without a dictionary reset)
_XZ_LOOKING = (b"\xfd7zXZ\x00\x00\x04" + b"YZ" + bytes(9) + b"\x01" * 7 + b"\x02" * 5
               + b"\x01\xff\xff\x02\x00\x00")


def _xz_looking(n: int) -> bytes:
    return (_XZ_LOOKING * (n // len(_XZ_LOOKING) + 1))[:n]


def _one_tensor_body(n: int, fill: bytes) -> bytes:
    """A valid checkpoint body of exactly ``n`` >= 29 bytes: one rank-1 tensor of fill's bytes."""
    name_len = 1 + (n - 29) % 8
    count = (n - 28 - name_len) // 8
    body = (b"LNCK" + struct.pack("<IIII", 1, 2, 1, name_len) + b"w" * name_len
            + struct.pack("<II", 1, count) + fill[:8 * count])
    assert len(body) == n
    return body


class TestLzmaCheck:
    """The reader's liblzma check against the independent bit-at-a-time CRC."""

    # both sides of each chunk seam, and the lengths where a body length or the
    # block's unpadded size (body + 24 bytes) takes a second or third varint byte
    LENGTHS = (0, 1, 7, 16, 104, 127, 128, 16360, 16384,
               _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_accepts_the_crc_and_rejects_a_flipped_bit(self, n):
        body = np.random.default_rng(n).integers(0, 256, size=n).astype(np.uint8).tobytes()
        crc = crc64_bitwise(body)
        assert ckpt_mod._crc_matches(body, crc)
        for bit in (0, 31, 63):
            assert not ckpt_mod._crc_matches(body, crc ^ 1 << bit)
        if n:
            flipped = bytearray(body)
            flipped[n // 2] ^= 0x10
            assert not ckpt_mod._crc_matches(bytes(flipped), crc)

    @pytest.mark.parametrize("n", (6, len(_XZ_LOOKING), _CHUNK - 2, _CHUNK, _CHUNK + 3,
                                   2 * _CHUNK + 1))
    def test_xz_looking_body_verifies(self, n):
        body = bytearray(_xz_looking(n))
        for seam in range(_CHUNK, n, _CHUNK):  # the footer magic and a header at the seam
            body[seam - 2:seam + 6] = b"YZ\xfd7zXZ\x00"[:n - seam + 2]
        crc = crc64_bitwise(bytes(body))
        assert ckpt_mod._crc_matches(bytes(body), crc)
        assert not ckpt_mod._crc_matches(bytes(body), crc ^ 1)

    @pytest.mark.parametrize("fill", ["random", "xz-looking"])
    def test_file_with_the_bitwise_crc_loads_and_every_flip_is_caught(self, tmp_path, fill):
        n = 2 * _CHUNK + 1  # three stored chunks, two seams
        values = (np.random.default_rng(5).integers(0, 256, size=n).astype(np.uint8).tobytes()
                  if fill == "random" else _xz_looking(n))
        body = _one_tensor_body(n, values)
        crc = crc64_bitwise(body)
        path = tmp_path / "one.lnck"
        path.write_bytes(body + struct.pack("<Q", crc))
        (tensor,) = load_checkpoint(path).params.values()
        assert tensor.tobytes() == body[-tensor.nbytes:]
        for bit in range(64):
            path.write_bytes(body + struct.pack("<Q", crc ^ 1 << bit))
            with pytest.raises(CorruptCheckpoint, match="failed CRC verification"):
                load_checkpoint(path)
        for pos in (_CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK):
            flipped = bytearray(body)
            flipped[pos] ^= 0x01
            path.write_bytes(bytes(flipped) + struct.pack("<Q", crc))
            with pytest.raises(CorruptCheckpoint, match="failed CRC verification"):
                load_checkpoint(path)

    def test_numpy_crc_stands_in_without_liblzma_crc64(self, monkeypatch):
        body = _xz_looking(_CHUNK + 1)
        crc = crc64_bitwise(body)
        monkeypatch.setattr(ckpt_mod, "_LZMA_CHECKS_CRC64", False)
        assert ckpt_mod._crc_matches(body, crc)
        assert not ckpt_mod._crc_matches(body, crc ^ 1 << 40)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 2 * _CHUNK + 1), seed=st.integers(0, 2**32 - 1))
def test_lzma_check_matches_bitwise_reference(n, seed):
    body = np.random.default_rng(seed).integers(0, 256, size=n).astype(np.uint8).tobytes()
    crc = crc64_bitwise(body)
    assert ckpt_mod._crc_matches(body, crc)
    assert not ckpt_mod._crc_matches(body, crc ^ 1 << seed % 64)


class TestRoundTrip:
    def test_params_bitwise_identical(self, tmp_path):
        model = init_params(7)
        path = tmp_path / "model.lnck"
        save_checkpoint(path, model_to_checkpoint(model))
        loaded = load_checkpoint(path)
        assert loaded.num_classes == 3
        assert path.read_bytes()[4:8] == struct.pack("<I", 1)  # the format version
        for name, value in model.params.items():
            assert loaded.params[name].tobytes() == value.tobytes()

    def test_rebuilt_model_evaluates_identically(self, tmp_path):
        model = init_params(21)
        ds = tiny_dataset()
        before = evaluate(model, ds)
        path = tmp_path / "model.lnck"
        save_checkpoint(path, model_to_checkpoint(model))
        rebuilt = checkpoint_to_model(load_checkpoint(path))
        after = evaluate(rebuilt, ds)
        assert before[0] == after[0] and before[1] == after[1]

    def test_metadata_sidecar_round_trip(self, tmp_path):
        model = init_params(3)
        ckpt = model_to_checkpoint(model, class_names=["x", "y", "z"],
                                   train_config={"epochs": 5},
                                   final_record={"epoch": 5, "val_acc": 0.5})
        path = tmp_path / "m.lnck"
        save_checkpoint(path, ckpt)
        assert (tmp_path / "m.lnck.json").is_file()
        loaded = load_checkpoint(path)
        assert loaded.class_names == ["x", "y", "z"]
        assert loaded.train_config == {"epochs": 5}
        assert loaded.final_record == {"epoch": 5, "val_acc": 0.5}

    def test_no_sidecar_without_metadata(self, tmp_path):
        save_checkpoint(tmp_path / "m.lnck", model_to_checkpoint(init_params(1)))
        assert not (tmp_path / "m.lnck.json").exists()

    def test_metadata_free_save_removes_stale_sidecar(self, tmp_path):
        path = tmp_path / "m.lnck"
        save_checkpoint(path, model_to_checkpoint(init_params(3), class_names=["x", "y", "z"],
                                                  train_config={"epochs": 5}))
        save_checkpoint(path, model_to_checkpoint(init_params(4)))
        loaded = load_checkpoint(path)
        assert loaded.class_names is None and loaded.train_config is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.lnck"]

    def test_failed_save_keeps_previous_files(self, tmp_path, monkeypatch):
        path = tmp_path / "m.lnck"
        save_checkpoint(path, model_to_checkpoint(init_params(3), class_names=["x", "y", "z"]))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def write_half_then_fail(self, data):  # a full disk, part way through the binary
            with open(self, "wb") as f:
                f.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
        with pytest.raises(IoError):
            save_checkpoint(path, model_to_checkpoint(init_params(4), class_names=["a", "b", "c"]))
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert load_checkpoint(path).class_names == ["x", "y", "z"]


class TestByteLayout:
    def test_file_parses_per_declared_grammar(self, tmp_path):
        # independent field-by-field reader for a small hand-built checkpoint
        params = {
            "w": np.array([[1.5, -2.0], [0.0, 3.25]]),
            "b": np.array([0.5]),
        }
        path = tmp_path / "tiny.lnck"
        save_checkpoint(path, Checkpoint(num_classes=2, params=params))
        raw = path.read_bytes()

        assert raw[:4] == b"LNCK"
        version, num_classes, count = struct.unpack("<III", raw[4:16])
        assert (version, num_classes, count) == (1, 2, 2)
        pos = 16
        seen = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", raw[pos:pos + 4]); pos += 4
            name = raw[pos:pos + name_len].decode("utf-8"); pos += name_len
            (rank,) = struct.unpack("<I", raw[pos:pos + 4]); pos += 4
            dims = struct.unpack(f"<{rank}I", raw[pos:pos + 4 * rank]); pos += 4 * rank
            n = int(np.prod(dims))
            values = np.frombuffer(raw[pos:pos + 8 * n], dtype="<f8").reshape(dims)
            pos += 8 * n
            seen[name] = values
        (stored_crc,) = struct.unpack("<Q", raw[pos:pos + 8])
        assert pos + 8 == len(raw)
        assert stored_crc == crc64_bitwise(raw[:pos])
        for name, arr in params.items():
            np.testing.assert_array_equal(seen[name], arr)

    def test_deterministic_bytes(self, tmp_path):
        for name in ("a.lnck", "b.lnck"):
            save_checkpoint(tmp_path / name, model_to_checkpoint(init_params(11)))
        assert (tmp_path / "a.lnck").read_bytes() == (tmp_path / "b.lnck").read_bytes()


class TestErrorPaths:
    def _saved(self, tmp_path):
        path = tmp_path / "m.lnck"
        save_checkpoint(path, model_to_checkpoint(init_params(2)))
        return path

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_flipped_byte_fails_crc(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = self._saved(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 2)
        body = bytes(raw[:-8])
        path.write_bytes(body + struct.pack("<Q", crc64(body)))
        with pytest.raises(UnsupportedVersion):
            load_checkpoint(path)

    def test_empty_parameter_table_is_the_shortest_loadable_file(self, tmp_path):
        path = tmp_path / "empty.lnck"
        save_checkpoint(path, Checkpoint(num_classes=3, params={}))
        assert path.stat().st_size == 24  # magic, version, classes, count, CRC
        ckpt = load_checkpoint(path)
        assert ckpt.num_classes == 3 and ckpt.params == {}
        with pytest.raises(CorruptCheckpoint, match="does not fit the model"):
            checkpoint_to_model(ckpt)

    def test_one_byte_under_the_minimum_is_too_short(self, tmp_path):
        path = tmp_path / "short.lnck"
        save_checkpoint(path, Checkpoint(num_classes=3, params={}))
        path.write_bytes(path.read_bytes()[:23])
        with pytest.raises(CorruptCheckpoint, match="too short"):
            load_checkpoint(path)

    def test_rank_bounds(self, tmp_path):
        # ranks 1 to 8 load; a CRC-valid file with rank 0 or 9 is corrupt
        path = tmp_path / "rank.lnck"
        for rank in (1, 8):
            save_checkpoint(path, Checkpoint(num_classes=2, params={"t": np.ones((1,) * rank)}))
            assert load_checkpoint(path).params["t"].shape == (1,) * rank
        for rank in (0, 9):
            save_checkpoint(path, Checkpoint(num_classes=2, params={"t": np.ones((1,) * rank)}))
            with pytest.raises(CorruptCheckpoint, match=f"absurd rank {rank}"):
                load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(tmp_path / "absent.lnck")

    def test_wrong_geometry_rejected_at_model_build(self, tmp_path):
        params = {name: np.zeros(1) for name in (
            "conv1.kernel", "conv1.bias", "conv2.kernel", "conv2.bias",
            "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias",
            "fc_out.weight", "fc_out.bias",
        )}
        with pytest.raises(CorruptCheckpoint):
            checkpoint_to_model(Checkpoint(num_classes=3, params=params))
        # a CRC-valid file whose tensors are all right but one too many
        path = tmp_path / "extra.lnck"
        ckpt = model_to_checkpoint(init_params(2))
        ckpt.params["evil.extra"] = np.ones(3)
        save_checkpoint(path, ckpt)
        with pytest.raises(CorruptCheckpoint, match="evil.extra"):
            checkpoint_to_model(load_checkpoint(path))


@functools.cache
def _saved_checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.lnck"
        save_checkpoint(path, model_to_checkpoint(init_params(2)))
        return path.read_bytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_single_byte_mutation_is_rejected(data):
    raw = bytearray(_saved_checkpoint())
    pos = data.draw(st.integers(0, len(raw) - 1))
    raw[pos] ^= data.draw(st.integers(1, 255))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.lnck"
        path.write_bytes(bytes(raw))
        with pytest.raises((CorruptCheckpoint, UnsupportedVersion)):
            load_checkpoint(path)


def test_resealed_single_byte_mutation_never_escapes(tmp_path):
    # each byte of a small checkpoint set to each edge value (both extremes, the
    # rank bounds 1 and 8, the UTF-8 lead and continuation ranges), with the CRC
    # recomputed so that the structure checks behind it see the mutation
    path = tmp_path / "tiny.lnck"
    save_checkpoint(path, Checkpoint(num_classes=2, params={
        "w": np.ones((2, 3)), "b": np.ones(1)}))
    body = path.read_bytes()[:-8]
    for pos in range(len(body)):
        for value in (0x00, 0x01, 0x07, 0x08, 0x09, 0x7F, 0x80, 0xBF, 0xC0, 0xFF):
            mutated = bytearray(body)
            mutated[pos] = value
            path.write_bytes(mutated + struct.pack("<Q", crc64(mutated)))
            try:
                load_checkpoint(path)
            except (CorruptCheckpoint, UnsupportedVersion):
                pass


def test_resealed_truncation_is_corrupt(tmp_path):
    # the body cut to every shorter length and resealed, so the CRC passes and the
    # reader walks off the end of each cut
    path = tmp_path / "tiny.lnck"
    save_checkpoint(path, Checkpoint(num_classes=2, params={
        "w": np.ones((2, 3)), "b": np.ones(1)}))
    body = path.read_bytes()[:-8]
    for n in range(len(body)):
        path.write_bytes(body[:n] + struct.pack("<Q", crc64(body[:n])))
        with pytest.raises(CorruptCheckpoint, match="too short|truncated mid-record"):
            load_checkpoint(path)


def test_loaded_arrays_own_writable_float64(tmp_path):
    path = tmp_path / "m.lnck"
    save_checkpoint(path, model_to_checkpoint(init_params(2)))
    for value in load_checkpoint(path).params.values():
        assert value.dtype == np.float64 and value.base is None
        assert value.flags.writeable and value.flags.c_contiguous


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_rejected_at_model_build(tmp_path, value):
    path = tmp_path / "m.lnck"
    ckpt = model_to_checkpoint(init_params(2))
    ckpt.params["fc2.bias"][3] = value
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)  # the binary is well formed
    with pytest.raises(CorruptCheckpoint, match="'fc2.bias' holds a non-finite value"):
        checkpoint_to_model(loaded)


def _params_of_dtype(kind):
    """init_params(2)'s parameters, all int64, with a string fc1.bias, or one float32."""
    params = model_to_checkpoint(init_params(2)).params
    if kind == "int64":
        return {name: value.astype(np.int64) for name, value in params.items()}
    if kind == "string":
        return {**params, "fc1.bias": np.full(120, "0.0")}
    return {**params, "conv2.kernel": params["conv2.kernel"].astype(np.float32)}


@pytest.mark.parametrize("kind", ["int64", "string", "mixed"])
def test_a_parameter_that_is_not_float64_is_corrupt(kind):
    params = _params_of_dtype(kind)
    with pytest.raises(InvalidShape, match="expected float64"):
        LeNetModel(params, 3)
    with pytest.raises(CorruptCheckpoint, match="does not fit the model.*expected float64"):
        checkpoint_to_model(Checkpoint(num_classes=3, params=params))


def test_rebuilt_model_keeps_the_loaded_arrays(tmp_path):
    path = tmp_path / "m.lnck"
    save_checkpoint(path, model_to_checkpoint(init_params(2), class_names=["x", "y", "z"]))
    loaded = load_checkpoint(path)
    model = checkpoint_to_model(loaded)
    assert all(model.params[name] is value for name, value in loaded.params.items())
    again = tmp_path / "again.lnck"
    save_checkpoint(again, model_to_checkpoint(model, class_names=loaded.class_names))
    assert again.read_bytes() == path.read_bytes()
    assert (tmp_path / "again.lnck.json").read_bytes() == (tmp_path / "m.lnck.json").read_bytes()
