import logging
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lenetkit.data as data_mod
from lenetkit.data import (
    AugmentConfig,
    SYNTH_CLASS_DIRS,
    augment,
    decode_pgm,
    encode_pgm,
    gen_synthetic,
    load_dataset,
    load_image,
    normalize,
    resize_bilinear,
    synthetic_pattern,
)
from lenetkit.errors import (
    DatasetNotFound,
    ImageDecodeError,
    InvalidConfig,
    InvalidShape,
)


class TestPgmCodec:
    def test_decode_hand_example(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])
        pixels, maxval = decode_pgm(data)
        np.testing.assert_array_equal(pixels, [[0, 128], [255, 64]])
        assert maxval == 255

    def test_comments_skipped(self):
        data = b"P5\n# a comment\n2 1 # trailing\n255\n" + bytes([7, 9])
        pixels, _ = decode_pgm(data)
        np.testing.assert_array_equal(pixels, [[7, 9]])

    def test_truncated_payload(self):
        with pytest.raises(ImageDecodeError):
            decode_pgm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))

    def test_wrong_magic(self):
        with pytest.raises(ImageDecodeError):
            decode_pgm(b"P2\n2 2\n255\n1 2 3 4")
        with pytest.raises(ImageDecodeError):
            decode_pgm(b"P6\n1 1\n255\n" + bytes([1, 2, 3]))

    def test_maxval_out_of_range(self):
        with pytest.raises(ImageDecodeError):
            decode_pgm(b"P5\n1 1\n65535\n" + bytes([1, 1]))

    def test_truncated_header(self):
        with pytest.raises(ImageDecodeError):
            decode_pgm(b"P5\n2")

    def test_round_trip_random_images(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h, w = rng.integers(1, 40, size=2)
            img = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
            pixels, _ = decode_pgm(encode_pgm(img))
            np.testing.assert_array_equal(pixels, img)

    def test_encode_rejects_bad_shapes(self):
        with pytest.raises(InvalidShape):
            encode_pgm(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(InvalidShape):  # a 3x0 header that no decoder accepts
            encode_pgm(np.zeros((0, 3), dtype=np.uint8))

    def test_sample_above_maxval_rejected(self):
        with pytest.raises(ImageDecodeError, match="exceeds maxval"):
            decode_pgm(b"P5\n2 1\n15\n" + bytes([15, 16]))
        pixels, maxval = decode_pgm(b"P5\n2 1\n15\n" + bytes([0, 15]))
        assert maxval == 15 and pixels.tolist() == [[0, 15]]

    @pytest.mark.parametrize("header", [b"P5\n1_0 1\n255\n", b"P5\n+4 1\n255\n",
                                        b"P5\n1 1\n2_55\n", b"P5\n1 -1\n255\n",
                                        b"P5\n\xd9\xa1 1\n255\n"],
                             ids=["underscore", "plus-sign", "underscore-maxval",
                                  "minus-sign", "arabic-indic-digit"])
    def test_header_numbers_are_ascii_decimal(self, header):
        with pytest.raises(ImageDecodeError):
            decode_pgm(header + bytes(255))

    def test_encode_rejects_samples_above_maxval(self):
        for img in (np.full((2, 2), 200, np.uint8), np.full((2, 2), 200)):
            with pytest.raises(InvalidShape):
                encode_pgm(img, maxval=15)

    @pytest.mark.parametrize("maxval", [0, 256, 1000])
    def test_encode_rejects_maxval_beyond_one_byte(self, maxval):
        with pytest.raises(InvalidShape):
            encode_pgm(np.zeros((2, 2), np.uint8), maxval=maxval)

    def test_load_image_normalizes_by_maxval(self, tmp_path):
        path = tmp_path / "white.pgm"
        path.write_bytes(encode_pgm(np.full((4, 4), 15, np.uint8), maxval=15))
        np.testing.assert_array_equal(load_image(path), np.ones((1, 32, 32)))


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=64) | st.builds(
    lambda head, tail: head + tail,
    st.sampled_from([b"P5", b"P5\n", b"P5 2 2", b"P5\n2 2\n", b"P5\n2 2\n3\n",
                     b"P5 1 1 255 ", b"P5\n#c\n1 1\n9 "]),
    st.binary(max_size=16)))
def test_decode_arbitrary_bytes_raises_only_decode_error(data):
    try:
        pixels, maxval = decode_pgm(data)
    except ImageDecodeError:
        return
    assert pixels.dtype == np.uint8 and 1 <= maxval <= 255
    assert pixels.size and int(pixels.max()) <= maxval


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(st.integers(1, 9), st.integers(1, 9)))
def test_encode_decode_round_trip_for_every_maxval(seed, shape):
    rng = np.random.default_rng(seed)
    for maxval in range(1, 256):
        img = rng.integers(0, maxval + 1, size=shape).astype(np.uint8)
        img.flat[0] = maxval
        pixels, decoded_maxval = decode_pgm(encode_pgm(img, maxval=maxval))
        np.testing.assert_array_equal(pixels, img)
        assert decoded_maxval == maxval


class TestResize:
    def test_constant_image(self):
        out = resize_bilinear(np.full((7, 9), 0.375))
        np.testing.assert_allclose(out, 0.375, rtol=1e-15)
        assert out.shape == (32, 32)

    def test_identity_at_equal_size(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(32, 32))
        np.testing.assert_array_equal(resize_bilinear(img), img)

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(2)
        img = np.arange(16, dtype=np.float64).reshape(4, 4) + rng.uniform(size=(4, 4))
        out = resize_bilinear(img, 6, 5)
        h, w = img.shape
        for i in range(6):
            for j in range(5):
                sr = min(max((i + 0.5) * h / 6 - 0.5, 0.0), h - 1.0)
                sc = min(max((j + 0.5) * w / 5 - 0.5, 0.0), w - 1.0)
                r0, c0 = int(np.floor(sr)), int(np.floor(sc))
                r1, c1 = min(r0 + 1, h - 1), min(c0 + 1, w - 1)
                tr, tc = sr - r0, sc - c0
                expect = (img[r0, c0] * (1 - tr) * (1 - tc)
                          + img[r0, c1] * (1 - tr) * tc
                          + img[r1, c0] * tr * (1 - tc)
                          + img[r1, c1] * tr * tc)
                np.testing.assert_allclose(out[i, j], expect, rtol=1e-12)

    def test_output_within_input_range(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(size=(11, 5))
        out = resize_bilinear(img, 32, 32)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_degenerate_dims_rejected(self):
        with pytest.raises(InvalidShape):
            resize_bilinear(np.zeros((1, 8)))


class TestNormalize:
    def test_endpoints(self):
        np.testing.assert_array_equal(normalize(np.array([[0, 255]], dtype=np.uint8)),
                                      [[0.0, 1.0]])

    def test_midpoint(self):
        np.testing.assert_allclose(normalize(np.array([[128]])), 128 / 255)

    def test_monotone(self):
        v = np.arange(256, dtype=np.uint8).reshape(16, 16)
        out = normalize(v)
        assert np.all(np.diff(out.reshape(-1)) > 0)


def _batch(pixels):
    """A batch of one [1, 1, H, W] from an H x W image."""
    return pixels[None, None, :, :]


def _rngs(*seeds):
    return [np.random.default_rng(seed) for seed in seeds]


class _FixedDraw:
    """A draw stream that never flips or shifts and always rotates by ``angle``."""

    def __init__(self, angle):
        self.angle = angle

    def random(self):
        return 1.0

    def uniform(self, low, high):
        return self.angle

    def integers(self, low, high):
        return 0


class TestAugment:
    def test_identity_config_is_noop(self):
        rng = np.random.default_rng(4)
        x = _batch(rng.uniform(size=(32, 32)))
        cfg = AugmentConfig(hflip_prob=0.0, max_rotation_deg=0.0, max_shift_px=0)
        out = augment(x, cfg, _rngs(0))
        np.testing.assert_array_equal(out, x)

    def test_hflip_and_involution(self):
        rng = np.random.default_rng(5)
        x = _batch(rng.uniform(size=(32, 32)))
        cfg = AugmentConfig(hflip_prob=1.0, max_rotation_deg=0.0, max_shift_px=0)
        once = augment(x, cfg, _rngs(1))
        np.testing.assert_array_equal(once[0, 0], x[0, 0][:, ::-1])
        twice = augment(once, cfg, _rngs(2))
        np.testing.assert_array_equal(twice, x)

    def test_deterministic_per_stream(self):
        rng = np.random.default_rng(6)
        x = _batch(rng.uniform(size=(32, 32)))
        cfg = AugmentConfig(hflip_prob=0.5, max_rotation_deg=15.0, max_shift_px=2)
        a = augment(x, cfg, _rngs(42))
        b = augment(x, cfg, _rngs(42))
        np.testing.assert_array_equal(a, b)

    def test_output_stays_in_range_and_label_kept(self):
        # augment sees pixels only (train takes labels by index), so what is
        # kept is the input batch itself: it must come back unmodified
        rng = np.random.default_rng(7)
        cfg = AugmentConfig(hflip_prob=0.5, max_rotation_deg=30.0, max_shift_px=3)
        for i in range(10):
            x = _batch(rng.uniform(size=(32, 32)))
            kept = x.copy()
            out = augment(x, cfg, _rngs(i))
            assert out.min() >= 0.0 and out.max() <= 1.0
            np.testing.assert_array_equal(x, kept)
            assert out.shape == (1, 1, 32, 32)

    def test_shift_fills_with_zeros(self):
        x = _batch(np.ones((32, 32)))
        cfg = AugmentConfig(hflip_prob=0.0, max_rotation_deg=0.0, max_shift_px=2)
        # draw until the shift is nonzero; the vacated border must be 0
        for seed in range(20):
            out = augment(x, cfg, _rngs(seed))
            if not np.array_equal(out, x):
                assert out.min() == 0.0
                break
        else:
            pytest.fail("no nonzero shift drawn in 20 streams")

    @pytest.mark.parametrize("fill", [0.0, 0.37])
    def test_batch_equals_samples_one_at_a_time(self, fill):
        rng = np.random.default_rng(8)
        x = rng.uniform(size=(16, 1, 32, 32))
        cfg = AugmentConfig(hflip_prob=0.5, max_rotation_deg=180.0, max_shift_px=6,
                            fill_value=fill)
        batched = augment(x, cfg, _rngs(*range(16)))
        singles = np.concatenate([augment(x[i:i + 1], cfg, _rngs(i)) for i in range(16)])
        assert batched.tobytes() == singles.tobytes()

    @pytest.mark.parametrize("angle, quarter_turns", [(90.0, -1), (-90.0, 1), (180.0, 2)])
    def test_right_angle_rotation_matches_rot90(self, angle, quarter_turns):
        img = np.random.default_rng(9).uniform(size=(32, 32))
        cfg = AugmentConfig(hflip_prob=0.0, max_rotation_deg=180.0, max_shift_px=0)
        out = augment(_batch(img), cfg, [_FixedDraw(angle)])
        np.testing.assert_allclose(out[0, 0], np.rot90(img, quarter_turns),
                                   rtol=0, atol=1e-12)

    def test_huge_shift_paints_fill_without_warning(self):
        x = np.random.default_rng(10).uniform(size=(64, 1, 32, 32))
        cfg = AugmentConfig(max_shift_px=2**63 - 1, fill_value=0.37)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = augment(x, cfg, _rngs(*range(64)))
        assert np.all(out == 0.37)

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            AugmentConfig(hflip_prob=1.5)
        with pytest.raises(InvalidConfig):
            AugmentConfig(max_rotation_deg=200.0)
        with pytest.raises(InvalidConfig):
            AugmentConfig(max_shift_px=-1)


def _resize_one(img, out_h=32, out_w=32):
    """``resize_bilinear``'s formula for one H x W image, gathered with np.ix_."""
    h, w = img.shape
    src_r = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    src_c = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    r0, c0 = np.floor(src_r).astype(np.int64), np.floor(src_c).astype(np.int64)
    r1, c1 = np.minimum(r0 + 1, h - 1), np.minimum(c0 + 1, w - 1)
    tr, tc = (src_r - r0)[:, None], (src_c - c0)[None, :]
    top = img[np.ix_(r0, c0)] * (1.0 - tc) + img[np.ix_(r0, c1)] * tc
    bottom = img[np.ix_(r1, c0)] * (1.0 - tc) + img[np.ix_(r1, c1)] * tc
    return top * (1.0 - tr) + bottom * tr


class TestLoadDataset:
    def _make_tree(self, root, classes=("alpha", "beta"), n=3, size=8):
        rng = np.random.default_rng(8)
        for cls in classes:
            d = root / "train" / cls
            d.mkdir(parents=True)
            for i in range(n):
                img = rng.integers(0, 256, size=(size, size)).astype(np.uint8)
                (d / f"{i}.pgm").write_bytes(encode_pgm(img))

    def test_fixture_counts_and_sorted_names(self, tmp_path):
        self._make_tree(tmp_path)
        ds = load_dataset(tmp_path, "train")
        assert len(ds) == 6
        assert ds.class_names == ["alpha", "beta"]
        assert [s.label for s in ds.samples] == [0, 0, 0, 1, 1, 1]
        for s in ds.samples:
            assert s.pixels.shape == (1, 32, 32)
            assert 0.0 <= s.pixels.min() and s.pixels.max() <= 1.0

    def test_lexicographic_order_and_determinism(self, tmp_path):
        self._make_tree(tmp_path)
        a = load_dataset(tmp_path, "train")
        b = load_dataset(tmp_path, "train")
        assert [s.source_path for s in a.samples] == \
               sorted(s.source_path for s in a.samples)
        for s1, s2 in zip(a.samples, b.samples):
            np.testing.assert_array_equal(s1.pixels, s2.pixels)

    def test_missing_root(self, tmp_path):
        with pytest.raises(DatasetNotFound):
            load_dataset(tmp_path / "nope", "train")
        with pytest.raises(DatasetNotFound):
            load_dataset(tmp_path, "train")  # root exists, split missing

    def test_undecodable_file_names_path(self, tmp_path):
        self._make_tree(tmp_path)
        bad = tmp_path / "train" / "alpha" / "0.pgm"
        bad.write_bytes(b"not a pgm at all")
        with pytest.raises(ImageDecodeError) as err:
            load_dataset(tmp_path, "train")
        assert "0.pgm" in str(err.value)

    def test_batched_loader_matches_per_image_oracle(self, tmp_path):
        # 70 12x12 images span two runs; then shapes change file by file
        rng = np.random.default_rng(12)
        shapes = {"a": [(12, 12)] * 70,
                  "b": [(2, 2), (7, 9), (7, 9), (512, 512), (12, 12), (33, 5), (2, 2)]}
        maxvals = [255, 1, 15, 100, 254, 7]
        for cls, class_shapes in shapes.items():
            (tmp_path / "train" / cls).mkdir(parents=True)
            for i, shape in enumerate(class_shapes):
                maxval = maxvals[i % len(maxvals)]
                img = rng.integers(0, maxval + 1, size=shape).astype(np.uint8)
                path = tmp_path / "train" / cls / f"{i:03d}.pgm"
                path.write_bytes(encode_pgm(img, maxval=maxval))
        ds = load_dataset(tmp_path, "train")
        assert len(ds) == 77
        for s in ds.samples:
            expect = _resize_one(normalize(*decode_pgm(Path(s.source_path).read_bytes())))
            assert s.pixels.tobytes() == expect[None].tobytes()
            assert load_image(s.source_path).tobytes() == expect[None].tobytes()

    def test_resize_runs_stay_within_pixel_budget(self, tmp_path, monkeypatch):
        self._make_tree(tmp_path, n=40, size=12)
        runs = []

        def recording_resize(img):
            runs.append(img.shape)
            return resize_bilinear(img)

        monkeypatch.setattr(data_mod, "resize_bilinear", recording_resize)
        assert len(load_dataset(tmp_path, "train")) == 80
        assert sum(n for n, _, _ in runs) == 80 and len(runs) == 2
        for n, h, w in runs:
            assert n * (h * w + 32 * 32) <= data_mod.LOAD_RUN_PIXELS

    @pytest.mark.parametrize("bad", [b"not a pgm at all", encode_pgm(np.zeros((1, 8)))],
                             ids=["undecodable", "one-pixel-high"])
    def test_first_bad_file_in_order_is_named(self, tmp_path, bad):
        self._make_tree(tmp_path, n=5)
        (tmp_path / "train" / "alpha" / "2.pgm").write_bytes(bad)
        (tmp_path / "train" / "beta" / "1.pgm").write_bytes(b"also not a pgm")
        with pytest.raises(ImageDecodeError) as err:
            load_dataset(tmp_path, "train")
        assert str(err.value).startswith(str(tmp_path / "train" / "alpha" / "2.pgm") + ":")

    def test_empty_class_dir_warns_not_fails(self, tmp_path, caplog):
        self._make_tree(tmp_path)
        (tmp_path / "train" / "zeta").mkdir()
        with caplog.at_level(logging.WARNING):
            ds = load_dataset(tmp_path, "train")
        assert len(ds) == 6
        assert ds.class_names == ["alpha", "beta", "zeta"]
        assert any("zeta" in rec.message for rec in caplog.records)


class TestGenSynthetic:
    def test_file_counts(self, tmp_path):
        gen_synthetic(tmp_path / "train", 20, seed=0)
        files = sorted((tmp_path / "train").rglob("*.pgm"))
        assert len(files) == 60
        dirs = sorted(p.name for p in (tmp_path / "train").iterdir())
        assert dirs == list(SYNTH_CLASS_DIRS)

    def test_deterministic_trees(self, tmp_path):
        gen_synthetic(tmp_path / "a", 5, seed=9)
        gen_synthetic(tmp_path / "b", 5, seed=9)
        for fa in sorted((tmp_path / "a").rglob("*.pgm")):
            fb = tmp_path / "b" / fa.relative_to(tmp_path / "a")
            assert fa.read_bytes() == fb.read_bytes()

    def test_loads_cleanly(self, tmp_path):
        gen_synthetic(tmp_path / "train", 4, seed=1)
        ds = load_dataset(tmp_path, "train")
        assert len(ds) == 12
        assert ds.class_counts() == [4, 4, 4]

    def test_nearest_centroid_separates_classes(self, tmp_path):
        # oracle: clean-pattern centroids classify every noisy sample
        gen_synthetic(tmp_path / "train", 10, seed=2)
        ds = load_dataset(tmp_path, "train")
        centroids = np.stack([
            resize_bilinear(synthetic_pattern(c) / 255.0) for c in range(3)
        ])
        hits = 0
        for s in ds.samples:
            dists = [np.linalg.norm(s.pixels[0] - c) for c in centroids]
            hits += int(np.argmin(dists) == s.label)
        assert hits == len(ds.samples)

    def test_rejects_nonpositive_count(self, tmp_path):
        with pytest.raises(InvalidConfig):
            gen_synthetic(tmp_path / "x", 0, seed=0)
