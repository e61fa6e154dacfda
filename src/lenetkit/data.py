"""Dataset ingestion, preprocessing, augmentation, and synthetic data.

On-disk layout:  <root>/<split>/<class_name>/*.pgm  with binary (P5) PGM
files, 8-bit grayscale (maxval 1..255, every sample at most maxval). Class
names are the sorted directory names and the label of a sample is its class
position in that order, so loading is fully deterministic for a given tree.

Preprocessing maps every image to a [1, 32, 32] float64 tensor in [0, 1]:
decode -> bilinear resize of v / maxval, files loaded one at a time in order.
Each frame is cut to the at most 4 * 32 * 32 samples its bilinear taps read
before those are normalized, so a large CT slice is never converted whole.

Training-time augmentation is one inverse affine map per sample (flip,
rotation, shift), its bilinear taps gathered for a whole [B, 1, H, W] batch
at once; pixels mapped from outside the frame take the fill value.

The synthetic generator writes three trivially separable texture classes
(horizontal stripes / vertical stripes / checkerboard) with seeded Gaussian
noise, giving the test suite a dataset that any working training loop must
be able to fit.
"""

from __future__ import annotations

import functools
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DatasetNotFound,
    ImageDecodeError,
    InvalidConfig,
    InvalidShape,
    IoError,
    read_input,
)
from .nn import IMAGE_SIZE

log = logging.getLogger(__name__)

# synthetic class directories; the numeric prefix pins the sorted label order
SYNTH_CLASS_DIRS = ("0_horizontal", "1_vertical", "2_checker")
# Generated small on purpose: after the bilinear upscale to 32x32 the stripe
# bands are wide relative to the 5x5 receptive fields and survive the average
# pooling, which is what lets plain SGD at modest learning rates fit the set
# quickly. At 32x32 generation the same patterns train far more slowly.
SYNTH_IMAGE_SIZE = 12
SYNTH_NOISE_SIGMA = 16.0  # gray levels
_SYNTH_BLOCK = 256  # images drawn and written at a time; the bytes do not depend on it


@dataclass
class Sample:
    """One labeled image: pixels [1, 32, 32] in [0, 1]."""

    pixels: np.ndarray
    label: int
    source_path: str


@dataclass
class Dataset:
    samples: list[Sample]
    class_names: list[str]
    split: str

    def __len__(self) -> int:
        return len(self.samples)

    def class_counts(self) -> list[int]:
        counts = [0] * len(self.class_names)
        for s in self.samples:
            counts[s.label] += 1
        return counts


@dataclass
class AugmentConfig:
    """Label-preserving random transforms applied during training only.

    ``fill_value`` paints pixels that rotation or shifting vacates; the
    default 0 matches dark backgrounds in CT slices.
    """

    hflip_prob: float = 0.5
    max_rotation_deg: float = 15.0
    max_shift_px: int = 2
    seed: int = 0
    fill_value: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.hflip_prob <= 1.0:
            raise InvalidConfig(f"hflip_prob must be in [0,1], got {self.hflip_prob}")
        if not 0.0 <= self.max_rotation_deg <= 180.0:
            raise InvalidConfig(
                f"max_rotation_deg must be in [0,180], got {self.max_rotation_deg}"
            )
        if not 0 <= self.max_shift_px <= np.iinfo(np.int64).max:
            raise InvalidConfig(
                f"max_shift_px must be in [0, 2**63 - 1], got {self.max_shift_px}")
        if not 0.0 <= self.fill_value <= 1.0:
            raise InvalidConfig(f"fill_value must be in [0,1], got {self.fill_value}")


# ---------------------------------------------------------------------------
# PGM codec (binary P5, maxval <= 255)
# ---------------------------------------------------------------------------

# Magic, width, height and maxval, each optional so that a short header yields
# what it has. A comment ends only at "\n" or the end of the data, so separators
# split one way and a group that fails backtracks in linear time.
_PGM_SEPARATOR = rb"(?:\s|#[^\n]*(?:\n|\Z))"
_PGM_TOKEN = rb"([^\s#]+)"
_PGM_HEADER = re.compile(rb"(?:%s*%s)?" % (_PGM_SEPARATOR, _PGM_TOKEN) * 4)


def decode_pgm(data: bytes) -> tuple[np.ndarray, int]:
    """Decode binary PGM bytes into an H x W uint8 array and its maxval.

    Header comments (``#`` to end of line) may appear between tokens, and
    the numbers are ASCII decimal digits. After the maxval token exactly one
    whitespace byte separates header and pixel payload; no sample may exceed
    maxval. The pixels are a view of ``data``, so read-only for ``bytes``.
    """
    header = _PGM_HEADER.match(data)
    magic, *numbers = header.groups()
    if magic not in (None, b"P5"):
        raise ImageDecodeError(f"not a binary PGM (magic {magic!r}, expected b'P5')")
    if None in header.groups():
        raise ImageDecodeError("truncated PGM header")
    if not b"".join(numbers).isdigit():  # int() also takes "+4" and "1_0"
        raise ImageDecodeError(f"non-decimal PGM header numbers {b' '.join(numbers)!r}")
    try:
        width, height, maxval = map(int, numbers)
    except ValueError as exc:  # more digits than int() parses
        raise ImageDecodeError(f"malformed PGM header: {exc}") from exc
    if width < 1 or height < 1:
        raise ImageDecodeError(f"bad PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise ImageDecodeError(f"PGM maxval {maxval} out of supported range (1..255)")
    offset = header.end() + 1  # past the one whitespace byte after maxval
    if not data[offset - 1:offset].isspace():
        raise ImageDecodeError("missing whitespace between PGM header and payload")
    if len(data) - offset < width * height:
        raise ImageDecodeError(f"PGM payload truncated: expected {width * height} bytes,"
                               f" got {len(data) - offset}")
    pixels = np.frombuffer(data, np.uint8, width * height, offset).reshape(height, width)
    if maxval < 255 and pixels.max() > maxval:
        raise ImageDecodeError(f"PGM sample {pixels.max()} exceeds maxval {maxval}")
    return pixels, maxval


def encode_pgm(img: np.ndarray, maxval: int = 255) -> bytes:
    """Encode an H x W array of integers in [0, maxval] as binary PGM."""
    img = np.asarray(img)
    if img.ndim != 2 or img.size == 0:
        raise InvalidShape(f"PGM encoder expects a non-empty H x W, got {img.shape}")
    if not 0 < maxval <= 255:
        raise InvalidShape(f"PGM maxval {maxval} does not fit 1-byte samples (1..255)")
    if img.dtype != np.uint8 or maxval < 255:  # any uint8 fits maxval 255
        if img.min() < 0 or img.max() > maxval:
            raise InvalidShape(f"pixel values out of range [0, {maxval}] for PGM")
    img = img.astype(np.uint8, copy=False)
    h, w = img.shape
    return b"P5\n%d %d\n%d\n" % (w, h, maxval) + img.tobytes(order="C")


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def normalize(img: np.ndarray, maxval: int | np.ndarray = 255) -> np.ndarray:
    """Map [0, maxval] to [0, 1] as v / maxval in one new buffer; maxval may broadcast."""
    return np.divide(img, maxval, dtype=np.float64)


def _check_resizable(shape: tuple[int, ...]) -> None:
    if len(shape) < 2 or shape[-2] < 2 or shape[-1] < 2:
        raise InvalidShape(f"resize needs an H x W image with H, W >= 2, got {shape}")


# One shape's index set is 32 KB; the bound keeps a stream of distinct shapes
# from growing the cache for the life of the process.
@functools.lru_cache(maxsize=32)
def _taps(h: int, w: int, out_h: int, out_w: int):
    """Flat indices [2, 2, out_h, out_w] of the corners (c0, c1) x (r0, r1) of an
    H x W source, and the weights (1 - tr, tr) and (1 - tc, tc); shared, so read-only.
    """
    src_r = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    src_c = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    tr = (src_r - r0)[:, None]
    tc = (src_c - c0)[None, None, :]
    index = np.stack([r0, r1])[None, :, :, None] * w + np.stack([c0, c1])[:, None, None, :]
    taps = index, np.stack([1.0 - tr, tr]), np.stack([1.0 - tc, tc])
    for a in taps:
        a.flags.writeable = False
    return taps


def _interpolate(samples: np.ndarray, row_w: np.ndarray, col_w: np.ndarray) -> np.ndarray:
    """Blend samples [..., 2, 2, out_h, out_w] taken at ``_taps``: top * (1 - tr) +
    bottom * tr, top = s[r0, c0] * (1 - tc) + s[r0, c1] * tc, in this order for the bits.
    """
    cols = samples * col_w
    top_bottom = cols[..., 0, :, :, :] + cols[..., 1, :, :, :]
    rows = top_bottom * row_w
    return rows[..., 0, :, :] + rows[..., 1, :, :]


def resize_bilinear(img: np.ndarray, out_h: int = IMAGE_SIZE,
                    out_w: int = IMAGE_SIZE) -> np.ndarray:
    """Bilinear resize of the last two axes of ``img`` [..., H, W].

    Half-pixel-center convention: the source coordinate for output row i is
    (i + 0.5) * H / out_h - 0.5, clamped into [0, H-1]; same along columns.
    At equal sizes this is an exact identity, and outputs always stay within
    [min(img), max(img)]. A batch gives each image the bits it gets alone.
    """
    img = np.asarray(img, dtype=np.float64)
    _check_resizable(img.shape)
    index, row_w, col_w = _taps(*img.shape[-2:], out_h, out_w)
    samples = np.take(img.reshape(*img.shape[:-2], -1), index, axis=-1)
    return _interpolate(samples, row_w, col_w)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def augment(pixels: np.ndarray, cfg: AugmentConfig, draws) -> np.ndarray:
    """Flip, rotate about the center, then shift a [B, 1, H, W] batch in one map.

    ``draws[i]`` is sample i's RNG substream; it draws flip, angle, dy, dx in
    that order whatever the config. Output (r, c) reads the rotated image at
    (r - dy, c - dx); that point, or a bilinear tap of the flipped input, out
    of frame takes ``fill_value``. An all-zero config returns the input.
    """
    b, _, h, w = pixels.shape
    params = []
    for draw in draws:
        flip = draw.random() < cfg.hflip_prob
        theta = math.radians(float(draw.uniform(-cfg.max_rotation_deg,
                                                 cfg.max_rotation_deg)))
        dy = int(draw.integers(-cfg.max_shift_px, cfg.max_shift_px + 1))
        dx = int(draw.integers(-cfg.max_shift_px, cfg.max_shift_px + 1))
        # a whole-frame shift already paints only fill_value; this keeps int64 exact
        dy, dx = min(max(dy, -h), h), min(max(dx, -w), w)
        params.append((flip, math.cos(theta), math.sin(theta), dy, dx))
    flip, cos_t, sin_t, dy, dx = (np.array(v)[:, None, None] for v in zip(*params))

    # inverse map: output (r, c) <- rotated (rr, cc) <- source (src_r, src_c)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    rr = np.arange(h)[None, :, None] - dy
    cc = np.arange(w)[None, None, :] - dx
    inside = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
    src_r = cy + (rr - cy) * cos_t - (cc - cx) * sin_t
    src_c = cx + (rr - cy) * sin_t + (cc - cx) * cos_t
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    tr, tc = src_r - r0, src_c - c0

    base = np.arange(b)[:, None, None] * (h * w)
    out = np.zeros((b, h, w))
    for dr, dc, weight in (
        (0, 0, (1 - tr) * (1 - tc)),
        (0, 1, (1 - tr) * tc),
        (1, 0, tr * (1 - tc)),
        (1, 1, tr * tc),
    ):
        r, c = r0 + dr, c0 + dc
        valid = (r >= 0) & (r < h) & (c >= 0) & (c < w)
        # the flip acts on the tap's column; invalid taps read a clipped index
        tap = np.take(pixels, base + r * w + np.where(flip, w - 1 - c, c), mode="clip")
        out += weight * np.where(valid, tap, cfg.fill_value)
    out = np.where(inside, out, cfg.fill_value)
    return np.clip(out, 0.0, 1.0)[:, None]


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def load_image(path: str | Path) -> np.ndarray:
    """Decode + normalize + resize one PGM file to [1, 32, 32] in [0, 1].

    Only the tapped samples are normalized: as v / maxval is elementwise, the
    bits are those of normalizing the whole frame.
    """
    raw = read_input(path, ImageDecodeError)
    try:
        img, maxval = decode_pgm(raw)
        _check_resizable(img.shape)  # in the try, so a 1-pixel-high file is named
    except (ImageDecodeError, InvalidShape) as exc:
        raise ImageDecodeError(f"{path}: {exc}") from exc
    index, row_w, col_w = _taps(*img.shape, IMAGE_SIZE, IMAGE_SIZE)
    return _interpolate(normalize(np.take(img, index), maxval), row_w, col_w)[None]


def load_dataset(root_dir: str | Path, split_name: str) -> Dataset:
    """Load ``<root>/<split>/<class>/*.pgm`` into a Dataset.

    Class names are the sorted class directory names; files are read in
    lexicographic path order. An empty class directory logs a warning but
    does not fail.
    """
    root = Path(root_dir)
    split_dir = root / split_name
    if not root.is_dir():
        raise DatasetNotFound(f"dataset root {root} does not exist")
    if not split_dir.is_dir():
        raise DatasetNotFound(f"split directory {split_dir} does not exist")
    try:
        class_dirs = sorted(p for p in split_dir.iterdir() if p.is_dir())
        class_files = [sorted(class_dir.glob("*.pgm")) for class_dir in class_dirs]
    except OSError as exc:
        raise DatasetNotFound(f"cannot list {split_dir}: {exc}") from exc
    if not class_dirs:
        raise DatasetNotFound(f"no class directories under {split_dir}")
    class_names = [p.name for p in class_dirs]

    samples = []
    for label, (class_dir, files) in enumerate(zip(class_dirs, class_files)):
        if not files:
            log.warning("class directory %s contains no .pgm files", class_dir)
        samples += [Sample(pixels=load_image(f), label=label, source_path=str(f))
                    for f in files]
    return Dataset(samples=samples, class_names=class_names, split=split_name)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def synthetic_pattern(class_index: int) -> np.ndarray:
    """Clean uint8 SYNTH_IMAGE_SIZE-square base pattern for a synthetic class.

    0: horizontal stripes (period 8 px), 1: vertical stripes (period 8 px),
    2: checkerboard with 4 px cells.
    """
    rows, cols = np.indices((SYNTH_IMAGE_SIZE, SYNTH_IMAGE_SIZE))
    if class_index == 0:
        on = (rows // 4) % 2 == 0
    elif class_index == 1:
        on = (cols // 4) % 2 == 0
    elif class_index == 2:
        on = (rows // 4 + cols // 4) % 2 == 0
    else:
        raise InvalidConfig(f"synthetic classes are 0..2, got {class_index}")
    return np.where(on, 255, 0).astype(np.uint8)


def gen_synthetic(out_dir: str | Path, n_per_class: int, seed: int) -> None:
    """Write one split of synthetic PGMs under ``out_dir``, one dir per class.

    Each file is the class pattern plus seeded Gaussian noise (sigma 16 gray
    levels, clamped to 0..255). Byte-identical trees for equal seeds.
    """
    if n_per_class < 1:
        raise InvalidConfig(f"n_per_class must be >= 1, got {n_per_class}")
    out = Path(out_dir)
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    try:
        for class_index, dirname in enumerate(SYNTH_CLASS_DIRS):
            class_dir = out / dirname
            class_dir.mkdir(parents=True, exist_ok=True)
            base = synthetic_pattern(class_index).astype(np.float64)
            for start in range(0, n_per_class, _SYNTH_BLOCK):
                size = (min(_SYNTH_BLOCK, n_per_class - start), *base.shape)
                noise = rng.normal(0.0, SYNTH_NOISE_SIGMA, size=size)
                images = np.clip(np.rint(base + noise), 0, 255).astype(np.uint8)
                for i, img in enumerate(images, start):
                    (class_dir / f"{i:04d}.pgm").write_bytes(encode_pgm(img))
    except OSError as exc:
        raise IoError(f"cannot write synthetic data under {out}: {exc}") from exc
