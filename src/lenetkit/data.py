"""Dataset ingestion, preprocessing, augmentation, and synthetic data.

On-disk layout:  <root>/<split>/<class_name>/*.pgm  with binary (P5) PGM
files, 8-bit grayscale (maxval 1..255, every sample at most maxval). Class
names are the sorted directory names and the label of a sample is its class
position in that order, so loading is fully deterministic for a given tree.

Preprocessing maps every image to a [1, 32, 32] float64 tensor in [0, 1]:
decode -> normalize (v / maxval) -> bilinear resize, files decoded in order and
runs of same-shape images resized in one call under a fixed pixel budget.

Training-time augmentation is one inverse affine map per sample (flip,
rotation, shift), its bilinear taps gathered for a whole [B, 1, H, W] batch
at once; pixels mapped from outside the frame take the fill value.

The synthetic generator writes three trivially separable texture classes
(horizontal stripes / vertical stripes / checkerboard) with seeded Gaussian
noise, giving the test suite a dataset that any working training loop must
be able to fit.
"""

from __future__ import annotations

import logging
import math
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

log = logging.getLogger(__name__)

TARGET_SIZE = 32

# synthetic class directories; the numeric prefix pins the sorted label order
SYNTH_CLASS_DIRS = ("0_horizontal", "1_vertical", "2_checker")
# Generated small on purpose: after the bilinear upscale to 32x32 the stripe
# bands are wide relative to the 5x5 receptive fields and survive the average
# pooling, which is what lets plain SGD at modest learning rates fit the set
# quickly. At 32x32 generation the same patterns train far more slowly.
SYNTH_IMAGE_SIZE = 12
SYNTH_NOISE_SIGMA = 16.0  # gray levels
# Source plus output pixels resized in one call (512 KB as float64): 56
# 12x12 images share a call, while a 512x512 slice is resized alone.
LOAD_RUN_PIXELS = 1 << 16


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

def decode_pgm(data: bytes) -> tuple[np.ndarray, int]:
    """Decode binary PGM bytes into an H x W uint8 array and its maxval.

    Header comments (``#`` to end of line) may appear between tokens, and
    the numbers are ASCII decimal digits. After the maxval token exactly one
    whitespace byte separates header and pixel payload; no sample may exceed
    maxval.
    """
    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(data):
            c = data[pos:pos + 1]
            if c == b"#":
                eol = data.find(b"\n", pos)
                pos = len(data) if eol < 0 else eol + 1
            elif c.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace() \
                and data[pos:pos + 1] != b"#":
            pos += 1
        if start == pos:
            raise ImageDecodeError("truncated PGM header")
        return data[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise ImageDecodeError(f"not a binary PGM (magic {magic!r}, expected b'P5')")
    numbers = [next_token() for _ in range(3)]
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
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise ImageDecodeError("missing whitespace between PGM header and payload")
    pos += 1
    payload = data[pos:pos + width * height]
    if len(payload) < width * height:
        raise ImageDecodeError(
            f"PGM payload truncated: expected {width * height} bytes,"
            f" got {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()
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
    out = np.array(img, dtype=np.float64)
    out /= maxval
    return out


def _check_resizable(shape: tuple[int, ...]) -> None:
    if len(shape) < 2 or shape[-2] < 2 or shape[-1] < 2:
        raise InvalidShape(f"resize needs an H x W image with H, W >= 2, got {shape}")


def resize_bilinear(img: np.ndarray, out_h: int = TARGET_SIZE,
                    out_w: int = TARGET_SIZE) -> np.ndarray:
    """Bilinear resize of the last two axes of ``img`` [..., H, W].

    Half-pixel-center convention: the source coordinate for output row i is
    (i + 0.5) * H / out_h - 0.5, clamped into [0, H-1]; same along columns.
    At equal sizes this is an exact identity, and outputs always stay within
    [min(img), max(img)]. A batch gives each image the bits it gets alone.
    """
    img = np.asarray(img, dtype=np.float64)
    _check_resizable(img.shape)
    h, w = img.shape[-2:]

    src_r = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    src_c = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    tr = (src_r - r0)[:, None]
    tc = (src_c - c0)[None, :]
    r0, r1 = r0[:, None], r1[:, None]

    top = img[..., r0, c0] * (1.0 - tc) + img[..., r0, c1] * tc
    bottom = img[..., r1, c0] * (1.0 - tc) + img[..., r1, c1] * tc
    return top * (1.0 - tr) + bottom * tr


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

def _load_images(paths: list[str | Path]) -> np.ndarray:
    """Decode PGM files in order (an error names the first bad one) to [n, 1, 32, 32].

    A run of same-shape images within LOAD_RUN_PIXELS is normalized and
    resized in one call; only one run of decoded images is held at a time.
    """
    out = np.empty((len(paths), 1, TARGET_SIZE, TARGET_SIZE))
    run, maxvals = [], []

    def flush() -> None:
        done = len(maxvals) - len(run)
        out[done:len(maxvals), 0] = resize_bilinear(
            normalize(np.stack(run), np.array(maxvals[done:])[:, None, None]))
        run.clear()

    for path in paths:
        raw = read_input(path, ImageDecodeError)
        try:
            img, maxval = decode_pgm(raw)
            _check_resizable(img.shape)  # here, so a 1-pixel-high file is named in order
        except (ImageDecodeError, InvalidShape) as exc:
            raise ImageDecodeError(f"{path}: {exc}") from exc
        if run and img.shape != run[0].shape:
            flush()
        run.append(img)
        maxvals.append(maxval)
        if (len(run) + 1) * (img.size + TARGET_SIZE ** 2) > LOAD_RUN_PIXELS:
            flush()  # full: resize before reading on, so one run is held at most
    if run:
        flush()
    return out


def load_image(path: str | Path) -> np.ndarray:
    """Decode + normalize + resize one PGM file to [1, 32, 32] in [0, 1]."""
    return _load_images([path])[0]


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

    labeled = []
    for label, (class_dir, files) in enumerate(zip(class_dirs, class_files)):
        if not files:
            log.warning("class directory %s contains no .pgm files", class_dir)
        labeled += [(f, label) for f in files]
    pixels = _load_images([f for f, _ in labeled])
    samples = [Sample(pixels=p, label=label, source_path=str(f))
               for p, (f, label) in zip(pixels, labeled)]
    return Dataset(samples=samples, class_names=class_names, split=split_name)


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def synthetic_pattern(class_index: int, size: int = SYNTH_IMAGE_SIZE) -> np.ndarray:
    """Clean uint8 base pattern for a synthetic class.

    0: horizontal stripes (period 8 px), 1: vertical stripes (period 8 px),
    2: checkerboard with 4 px cells.
    """
    rows, cols = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
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
            noise = rng.normal(0.0, SYNTH_NOISE_SIGMA, size=(n_per_class, *base.shape))
            images = np.clip(np.rint(base + noise), 0, 255).astype(np.uint8)
            for i, img in enumerate(images):
                (class_dir / f"{i:04d}.pgm").write_bytes(encode_pgm(img))
    except OSError as exc:
        raise IoError(f"cannot write synthetic data under {out}: {exc}") from exc
