"""Synthetic echo-like images: a dark chamber ellipse inside an ultrasound cone.

Every image shows a triangular sector (the scan cone) of bright tissue with a
filled, rotated ellipse of dark pixels as the cardiac chamber. The class
label is carried entirely by chamber size: label 1 samples draw their width
from ``width_dilated``, label 0 from ``width_normal``. Each sample also
carries the generating width, normalized by image height, as a regression
target.

Randomness is counter-based: sample ``index`` under dataset ``seed`` always
uses the Philox stream keyed by (seed, index), so individual samples can be
regenerated bit-identically no matter the batch or process layout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataFormatError, StratificationError

__all__ = ["SynthConfig", "EchoDataset", "generate", "save", "load", "check_split", "split",
           "class_proportions"]

CHAMBER_ASPECT = 1.4  # major over minor axis of the chamber ellipse
CONE_APEX_ROW = 1.0
CONE_HALF_ANGLE_DEG = 40.0
TISSUE_LEVEL = 0.55
CHAMBER_LEVEL = 0.12
CROP_ZOOMS = (1.0, 0.8, 0.6)  # 3-channel mode: tighter center crops per channel
_SHUFFLE_STREAM = np.uint64(2**63)  # reserved stream key; sample indices stay below


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the generator. Widths are in pixels of the base (channel 0) view."""

    n_samples: int = 2000
    image_size: tuple[int, int, int] = (1, 32, 32)  # (channels, height, width)
    positive_ratio: float = 0.2
    rotation_range_train: tuple[float, float] = (-15.0, 15.0)  # degrees
    rotation_range_test: tuple[float, float] = (-45.0, 45.0)
    translation_range: float = 2.0  # max |jitter| of the chamber center, pixels
    width_normal: tuple[float, float] = (6.0, 9.0)
    width_dilated: tuple[float, float] = (10.0, 13.0)
    noise_sigma: float = 0.08
    seed: int = 10
    allow_width_overlap: bool = False

    def __post_init__(self):
        if self.n_samples < 1:
            raise ConfigurationError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must lie in [0, 2**64), got {self.seed}")
        c, h, w = self.image_size
        if c not in (1, 3):
            raise ConfigurationError(f"image channels must be 1 or 3, got {c}")
        if h < 8 or w < 8:
            raise ConfigurationError(f"image size {h}x{w} is too small to render")
        if not 0.0 < self.positive_ratio < 1.0:
            raise ConfigurationError(
                f"positive_ratio must lie strictly between 0 and 1, got {self.positive_ratio}"
            )
        for name in ("rotation_range_train", "rotation_range_test", "width_normal", "width_dilated"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigurationError(f"{name} has lo > hi: ({lo}, {hi})")
        if self.width_normal[0] <= 0 or self.width_dilated[0] <= 0:
            raise ConfigurationError("chamber widths must be positive")
        overlap = (
            self.width_normal[1] > self.width_dilated[0]
            and self.width_dilated[1] > self.width_normal[0]
        )
        if overlap and not self.allow_width_overlap:
            raise ConfigurationError(
                f"width intervals {self.width_normal} and {self.width_dilated} overlap; "
                f"set allow_width_overlap=True if intended"
            )
        if self.translation_range < 0 or self.noise_sigma < 0:
            raise ConfigurationError("translation_range and noise_sigma must be >= 0")
        widest = max(self.width_normal[1], self.width_dilated[1])
        reach = CHAMBER_ASPECT * widest / 2.0 + self.translation_range
        if reach > min(h, w) / 2.0 - 2.0:
            raise ConfigurationError(
                f"chamber cannot fit: max semi-axis plus jitter {reach:.1f}px exceeds "
                f"frame budget {min(h, w) / 2.0 - 2.0:.1f}px"
            )


@dataclass(eq=False)
class EchoDataset:
    """Images in [0, 1] float32, binary labels, normalized-width targets."""

    images: np.ndarray  # [N, C, H, W] float32
    labels: np.ndarray  # [N] uint8
    reg_targets: np.ndarray  # [N] float32

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, indices) -> "EchoDataset":
        idx = np.asarray(indices)
        return EchoDataset(self.images[idx], self.labels[idx], self.reg_targets[idx])

    def same_as(self, other: "EchoDataset") -> bool:
        return (
            np.array_equal(self.images, other.images)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.reg_targets, other.reg_targets)
        )


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _scene(h: int, w: int, zoom: float, cy: float, cx: float, width_px: float, angle_deg: float):
    """Rasterize one channel; returns (image without noise, chamber mask, cone mask).

    ``zoom`` < 1 emulates a tighter center crop by sampling the scene at
    coordinates pulled toward the frame center, which enlarges the anatomy
    without any resampling artifacts.
    """
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    mid_y, mid_x = (h - 1) / 2.0, (w - 1) / 2.0
    sy = mid_y + (yy - mid_y) * zoom
    sx = mid_x + (xx - mid_x) * zoom

    spread = np.tan(np.deg2rad(CONE_HALF_ANGLE_DEG))
    cone = (sy >= CONE_APEX_ROW) & (np.abs(sx - (w - 1) / 2.0) <= spread * (sy - CONE_APEX_ROW))

    theta = np.deg2rad(angle_deg)
    dy, dx = sy - cy, sx - cx
    major = np.cos(theta) * dx + np.sin(theta) * dy
    minor = -np.sin(theta) * dx + np.cos(theta) * dy
    a = CHAMBER_ASPECT * width_px / 2.0
    b = width_px / 2.0
    chamber = ((major / a) ** 2 + (minor / b) ** 2 <= 1.0) & cone

    img = np.where(cone, TISSUE_LEVEL, 0.0)
    img[chamber] = CHAMBER_LEVEL
    return img, chamber, cone


def _render_sample(
    cfg: SynthConfig, rng: np.random.Generator, label: int, rotation_range: tuple[float, float]
) -> tuple[np.ndarray, float]:
    c, h, w = cfg.image_size
    interval = cfg.width_dilated if label == 1 else cfg.width_normal
    # Draw order is part of the format: width, angle, dy, dx, then per-channel noise.
    width_px = rng.uniform(interval[0], interval[1])
    angle = rng.uniform(rotation_range[0], rotation_range[1])
    jy = rng.uniform(-cfg.translation_range, cfg.translation_range)
    jx = rng.uniform(-cfg.translation_range, cfg.translation_range)
    cy = 0.55 * (h - 1) + jy
    cx = (w - 1) / 2.0 + jx

    img = np.empty((c, h, w))
    for ch in range(c):
        base, _, cone = _scene(h, w, CROP_ZOOMS[ch], cy, cx, width_px, angle)
        noise = rng.normal(0.0, 1.0, size=(h, w))
        img[ch] = np.clip(base + cfg.noise_sigma * noise * cone, 0.0, 1.0)
    return img, width_px / h


def generate(
    cfg: SynthConfig,
    rotation_range: tuple[float, float] | None = None,
    index_offset: int = 0,
) -> EchoDataset:
    """Render ``cfg.n_samples`` images with an exact positive count.

    Exactly round(n * positive_ratio) samples get label 1; the assignment is
    shuffled by a stream derived from the seed alone. ``rotation_range``
    defaults to the training range; pass ``cfg.rotation_range_test`` (plus a
    disjoint ``index_offset``) to build a rotation-shifted evaluation set under
    the same seed.
    """
    n = cfg.n_samples
    rot = rotation_range if rotation_range is not None else cfg.rotation_range_train
    n_pos = int(round(n * cfg.positive_ratio))
    if n_pos == 0 or n_pos == n:
        raise ConfigurationError(
            f"positive_ratio {cfg.positive_ratio} allots {n_pos} positives out of {n}"
        )
    labels = np.zeros(n, dtype=np.uint8)
    labels[:n_pos] = 1
    shuffle_rng = np.random.Generator(
        np.random.Philox(key=np.array([np.uint64(cfg.seed), _SHUFFLE_STREAM], dtype=np.uint64))
    )
    shuffle_rng.shuffle(labels)

    c, h, w = cfg.image_size
    images = np.empty((n, c, h, w), dtype=np.float32)
    regs = np.empty(n, dtype=np.float32)
    for i in range(n):
        rng = _sample_rng(cfg.seed, index_offset + i)
        img, reg = _render_sample(cfg, rng, int(labels[i]), rot)
        images[i] = img.astype(np.float32)
        regs[i] = np.float32(reg)
    return EchoDataset(images, labels, regs)


# ------------------------------------------------------------------ ECAP format
_MAGIC = b"ECAP"
_VERSION = 1
_HEADER = struct.Struct("<4sIIHHH")  # magic, version, count, channels, height, width


def _record(c: int, h: int, w: int) -> np.dtype:
    """One ECAP sample, unpadded: float32 pixels row-major, a u8 label, a float32 target."""
    return np.dtype([("image", "<f4", (c, h, w)), ("label", "u1"), ("target", "<f4")])


def save(dataset: EchoDataset, path) -> None:
    """Write the dataset in the little-endian ECAP container.

    Layout: magic ``ECAP``, u32 version (=1), u32 sample count, u16 channels,
    u16 height, u16 width, then one ``_record`` per sample: the float32
    pixels row-major, a u8 label, and the float32 regression target.
    """
    n = len(dataset)
    _, c, h, w = dataset.images.shape
    records = np.empty(n, dtype=_record(c, h, w))
    records["image"] = dataset.images
    records["label"] = dataset.labels
    records["target"] = dataset.reg_targets
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, n, c, h, w))
        fh.write(records.data)


def load(path) -> EchoDataset:
    """Read an ECAP file; raises ``DataFormatError`` with a byte offset on damage.

    Damage includes a label byte other than 0 or 1, reported at the first such
    byte, and then a NaN or infinite pixel or target, reported at the offset
    of the first sample that holds one.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise DataFormatError(
            f"truncated header: {len(blob)} bytes, need {_HEADER.size}", offset=len(blob)
        )
    magic, version, count, c, h, w = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC:
        raise DataFormatError(f"bad magic {magic!r}, expected {_MAGIC!r}", offset=0)
    if version != _VERSION:
        raise DataFormatError(f"unsupported version {version}", offset=4)
    record = _record(c, h, w)
    expected = _HEADER.size + count * record.itemsize
    if len(blob) != expected:
        raise DataFormatError(
            f"file is {len(blob)} bytes but {count} samples need {expected}",
            offset=min(len(blob), expected),
        )
    records = np.frombuffer(blob, dtype=record, count=count, offset=_HEADER.size)
    bad = np.flatnonzero(records["label"] > 1)
    if bad.size:
        first = int(bad[0])
        raise DataFormatError(
            f"label byte must be 0 or 1, got {records['label'][first]}",
            offset=_HEADER.size + first * record.itemsize + record.fields["label"][1],
        )
    images = records["image"].astype(np.float32, order="C")
    regs = records["target"].astype(np.float32)
    finite = np.isfinite(images).all(axis=(1, 2, 3)) & np.isfinite(regs)
    if not finite.all():
        first = int(np.argmin(finite))
        raise DataFormatError(
            f"sample {first} holds a non-finite pixel or target",
            offset=_HEADER.size + first * record.itemsize,
        )
    return EchoDataset(images, records["label"].astype(np.uint8), regs)


# ----------------------------------------------------------------------- splits
def _largest_remainder(total: int, fractions: tuple[float, ...]) -> list[int]:
    exact = [f * total for f in fractions]
    counts = [int(np.floor(e)) for e in exact]
    leftovers = total - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:leftovers]:
        counts[i] += 1
    return counts


def check_split(fractions: tuple[float, ...], seed: int) -> None:
    """Reject split fractions that are not three non-negative shares summing to
    1, and a negative split seed."""
    if len(fractions) != 3:
        raise ConfigurationError(f"expected 3 fractions (train, val, test), got {len(fractions)}")
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError(f"fractions must be non-negative and sum to 1, got {fractions}")
    if seed < 0:
        raise ConfigurationError(f"split seed must be >= 0, got {seed}")


def split(
    dataset: EchoDataset, fractions: tuple[float, float, float], seed: int
) -> tuple[EchoDataset, EchoDataset, EchoDataset]:
    """Stratified (train, val, test) split preserving class balance within one sample.

    Within each class, indices are shuffled by ``seed`` and dealt to the three
    subsets by largest remainder, so each subset's positive count is within one
    of the exact proportional share. A non-empty subset that would receive no
    positives (while the dataset has them) raises ``StratificationError``.
    """
    check_split(fractions, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dealt = []
    for cls in (0, 1):
        idx = rng.permutation(np.flatnonzero(dataset.labels == cls))
        dealt.append(np.split(idx, np.cumsum(_largest_remainder(idx.size, fractions))[:-1]))
    total_pos = int((dataset.labels == 1).sum())
    parts = []
    for k, (neg_idx, pos_idx) in enumerate(zip(*dealt)):
        part = dataset.subset(np.sort(np.concatenate([neg_idx, pos_idx])))
        if total_pos > 0 and len(part) > 0 and int(part.labels.sum()) == 0:
            raise StratificationError(
                f"subset {k} has {len(part)} samples but no positives; "
                f"use more data or different fractions"
            )
        parts.append(part)
    return parts[0], parts[1], parts[2]


def class_proportions(labels: np.ndarray) -> tuple[float, float]:
    """Empirical frequencies of classes 0 and 1, the input for loss weighting."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size == 0:
        raise ConfigurationError("cannot compute class proportions of an empty set")
    return tuple(float(np.sum(y == k)) / y.size for k in (0, 1))
