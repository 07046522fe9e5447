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

import hashlib
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import (ConfigurationError, ContractError, DataFormatError, StratificationError, check_finite,
                     check_integer)

__all__ = ["SynthConfig", "EchoDataset", "generate", "save", "load", "check_split", "split",
           "class_proportions"]

CHAMBER_ASPECT = 1.4  # major over minor axis of the chamber ellipse
CONE_APEX_ROW = 1.0
CONE_HALF_ANGLE_DEG = 40.0
TISSUE_LEVEL = 0.55
CHAMBER_LEVEL = 0.12
CROP_ZOOMS = (1.0, 0.8, 0.6)  # 3-channel mode: tighter center crops per channel
_SHUFFLE_STREAM = 2**63  # reserved stream key; sample indices stay below
_BLOCK = 32  # samples rendered per pass; each [B, H, W] float64 temporary is ~0.25 MB at 32x32


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
        for f in fields(self):  # arity first: the checks below unpack and compare
            value, want = getattr(self, f.name), np.shape(f.default)
            if np.shape(value) != want:
                count = f"{want[0]} values" if want else "a single value"
                raise ConfigurationError(f"{f.name} expects {count}, got {value!r}")
        check_integer("n_samples", self.n_samples, 1)
        check_integer("image_size", self.image_size, 1)
        check_integer("seed (data_seed)", self.seed, 0)
        if self.seed >= 2**64:
            raise ConfigurationError(f"seed (data_seed) must lie in [0, 2**64), got {self.seed}")
        for name in ("positive_ratio", "rotation_range_train", "rotation_range_test", "translation_range",
                     "width_normal", "width_dilated", "noise_sigma"):
            check_finite(name, getattr(self, name))
        c, h, w = self.image_size
        if c not in (1, 3):
            raise ConfigurationError(f"image_size needs 1 or 3 channels, got {c}")
        if h < 8 or w < 8:
            raise ConfigurationError(f"image_size {h}x{w} is too small to render")
        if not 0.0 < self.positive_ratio < 1.0:
            raise ConfigurationError(
                f"positive_ratio must lie strictly between 0 and 1, got {self.positive_ratio}"
            )
        for name in ("rotation_range_train", "rotation_range_test", "width_normal", "width_dilated"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigurationError(f"{name} has lo > hi: ({lo}, {hi})")
        for name in ("width_normal", "width_dilated"):
            if getattr(self, name)[0] <= 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
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


def _seek(rng: np.random.Generator, seed: int, index: int) -> None:
    """Restart ``rng``'s Philox on the stream ``_sample_rng(seed, index)`` begins.

    Building a Philox also seeds an unused ``SeedSequence`` from OS entropy,
    which costs several times more than resetting the state of one.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([seed, index], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _scene(h: int, w: int, zoom: float, cy, cx, width_px, angle_deg):
    """Rasterize one channel; returns (image without noise, chamber mask, cone mask).

    ``cy``, ``cx``, ``width_px`` and ``angle_deg`` are scalars for one scene, or
    ``[B, 1, 1]`` arrays for B scenes; the image and chamber mask then gain the
    leading sample axis, while the cone mask, which depends only on the view,
    stays ``[H, W]``. ``zoom`` < 1 emulates a tighter center crop by sampling the
    scene at coordinates pulled toward the frame center, which enlarges the
    anatomy without any resampling artifacts.
    """
    # Sampled rows and columns stay 1-D ([H, 1] and [1, W]) until the masks
    # broadcast them, so the offsets from each center are one row and one column.
    mid_y, mid_x = (h - 1) / 2.0, (w - 1) / 2.0
    sy = mid_y + (np.arange(h, dtype=np.float64)[:, None] - mid_y) * zoom
    sx = mid_x + (np.arange(w, dtype=np.float64)[None, :] - mid_x) * zoom

    spread = np.tan(np.deg2rad(CONE_HALF_ANGLE_DEG))
    cone = (sy >= CONE_APEX_ROW) & (np.abs(sx - (w - 1) / 2.0) <= spread * (sy - CONE_APEX_ROW))

    theta = np.deg2rad(angle_deg)
    dy, dx = sy - cy, sx - cx
    major = np.cos(theta) * dx + np.sin(theta) * dy
    minor = -np.sin(theta) * dx + np.cos(theta) * dy
    a = CHAMBER_ASPECT * width_px / 2.0
    b = width_px / 2.0
    chamber = ((major / a) ** 2 + (minor / b) ** 2 <= 1.0) & cone

    img = np.where(chamber, CHAMBER_LEVEL, np.where(cone, TISSUE_LEVEL, 0.0))
    return img, chamber, cone


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

    Samples are rendered ``_BLOCK`` at a time: each sample draws from its own
    stream in the format's order, then the block's geometry is rasterized in
    one broadcast pass per channel.
    """
    n = cfg.n_samples
    check_integer("index_offset", index_offset, 0)
    if index_offset + n > _SHUFFLE_STREAM:
        raise ConfigurationError(
            f"index_offset must keep sample indices in [0, 2**63), below the label stream's key; "
            f"got index_offset={index_offset} for {n} samples"
        )
    rot = rotation_range if rotation_range is not None else cfg.rotation_range_train
    if np.shape(rot) != (2,) or not np.isfinite(rot).all() or rot[0] > rot[1]:
        raise ConfigurationError(f"rotation_range must be two finite values with lo <= hi, got {rot!r}")
    n_pos = int(round(n * cfg.positive_ratio))
    if n_pos == 0 or n_pos == n:
        raise ConfigurationError(
            f"positive_ratio {cfg.positive_ratio} allots {n_pos} positives out of {n}"
        )
    labels = np.zeros(n, dtype=np.uint8)
    labels[:n_pos] = 1
    rng = _sample_rng(cfg.seed, _SHUFFLE_STREAM)
    rng.shuffle(labels)

    c, h, w = cfg.image_size
    t = cfg.translation_range
    widths = np.array([cfg.width_normal, cfg.width_dilated], dtype=np.float64)[labels]  # [N, (lo, hi)]
    images = np.empty((n, c, h, w), dtype=np.float32)
    regs = np.empty(n, dtype=np.float32)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        u = np.empty((stop - start, 4))
        noise = np.empty((stop - start, c, h, w))
        for k in range(stop - start):
            _seek(rng, cfg.seed, index_offset + start + k)
            # Draw order is part of the format: width, angle, dy, dx, then the
            # noise of each channel. uniform(lo, hi) is lo + (hi - lo) * random().
            rng.random(out=u[k])
            rng.standard_normal(out=noise[k])
        lo, hi = widths[start:stop].T
        width_px = lo + (hi - lo) * u[:, 0]
        angle = rot[0] + (rot[1] - rot[0]) * u[:, 1]
        jy, jx = (-t + 2.0 * t * u[:, 2:]).T
        cy = 0.55 * (h - 1) + jy
        cx = (w - 1) / 2.0 + jx
        geometry = [a[:, None, None] for a in (cy, cx, width_px, angle)]
        for ch in range(c):
            base, _, cone = _scene(h, w, CROP_ZOOMS[ch], *geometry)
            images[start:stop, ch] = np.clip(base + cfg.noise_sigma * noise[:, ch] * cone, 0.0, 1.0)
        regs[start:stop] = width_px / h
    return EchoDataset(images, labels, regs)


# ------------------------------------------------------------------ ECAP format
_MAGIC = b"ECAP"
_VERSION = 1
_HEADER = struct.Struct("<4sIIHHH")  # magic, version, count, channels, height, width
# Records move between a file and the dataset's arrays through one buffer of
# about this size, so neither save nor load holds a second copy of the file.
_CHUNK_BYTES = 256 << 10


def _record(c: int, h: int, w: int) -> np.dtype:
    """One ECAP sample, unpadded: float32 pixels row-major, a u8 label, a float32 target."""
    return np.dtype([("image", "<f4", (c, h, w)), ("label", "u1"), ("target", "<f4")])


def _per_chunk(record: np.dtype) -> int:
    """Records in one chunk: as many as fit ``_CHUNK_BYTES``, and at least one."""
    return max(1, _CHUNK_BYTES // record.itemsize)


def _chunks(record: np.dtype, n: int):
    """Yield (start, part) for n records a chunk at a time: ``part`` is the
    leading slice of one reused buffer, one entry per record from ``start``."""
    step = _per_chunk(record)
    buf = np.empty(min(n, step), dtype=record)
    for start in range(0, n, step):
        yield start, buf[: min(step, n - start)]


def save(dataset: EchoDataset, path) -> None:
    """Write the dataset in the little-endian ECAP container.

    Layout: magic ``ECAP``, u32 version (=1), u32 sample count, u16 channels,
    u16 height, u16 width, then one ``_record`` per sample: the float32
    pixels row-major, a u8 label, and the float32 regression target.

    Only a file ``load`` accepts is written. Before the file is opened, a
    ``ContractError`` names the field when the images are not [N, C, H, W],
    the labels or targets are not one per image, a count or extent does not
    fit its header field, a label is not 0 or 1, or a pixel or target is not
    finite as float32. Records are converted a chunk at a time, once to be
    checked and once to be written.
    """
    images, labels, targets = (np.asarray(a) for a in (dataset.images, dataset.labels, dataset.reg_targets))
    if images.ndim != 4:
        raise ContractError(f"images must be [N, C, H, W], got shape {images.shape}")
    n, c, h, w = images.shape
    for name, values in (("labels", labels), ("reg_targets", targets)):
        if values.shape != (n,):
            raise ContractError(f"{name} must hold one value for each of {n} images, "
                                f"got shape {values.shape}")
    for name, value, bits in (("count", n, 32), ("channels", c, 16), ("height", h, 16), ("width", w, 16)):
        if value >= 1 << bits:
            raise ContractError(f"images {name} {value} does not fit the header's u{bits} field")
    bad = np.flatnonzero((labels != 0) & (labels != 1))
    if bad.size:
        raise ContractError(f"labels must be 0 or 1, got {labels[bad[0]]} at sample {bad[0]}")
    chunks = list(_chunks(_record(c, h, w), n))  # every part is a slice of the same buffer

    def fill(start, part):
        stop = start + len(part)
        part["image"], part["label"] = images[start:stop], labels[start:stop]
        part["target"] = targets[start:stop]
        return part

    with np.errstate(over="ignore"):  # a value past float32's range turns inf, and is named below
        for start, part in chunks:
            fill(start, part)
            for name, values in (("images", part["image"]), ("reg_targets", part["target"])):
                finite = np.isfinite(values).reshape(len(part), -1).all(axis=1)
                if not finite.all():
                    raise ContractError(f"{name} hold a value that is not finite as float32 "
                                        f"at sample {start + int(np.argmin(finite))}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, n, c, h, w))
        for start, part in chunks:
            fh.write(fill(start, part).data)


def load(path) -> EchoDataset:
    """Read an ECAP file; raises ``DataFormatError`` with a byte offset on damage.

    Damage includes a label byte other than 0 or 1, reported at the first such
    byte, and then a NaN or infinite pixel or target, reported at the offset
    of the first sample that holds one. Records are read a chunk at a time
    into the returned arrays, and each check runs a chunk at a time.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise DataFormatError(
                f"truncated header: {len(head)} bytes, need {_HEADER.size}", offset=len(head)
            )
        magic, version, count, c, h, w = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise DataFormatError(f"bad magic {magic!r}, expected {_MAGIC!r}", offset=0)
        if version != _VERSION:
            raise DataFormatError(f"unsupported version {version}", offset=4)
        record = _record(c, h, w)
        expected = _HEADER.size + count * record.itemsize
        if size != expected:
            raise DataFormatError(
                f"file is {size} bytes but {count} samples need {expected}",
                offset=min(size, expected),
            )
        images = np.empty((count, c, h, w), dtype=np.float32)
        labels = np.empty(count, dtype=np.uint8)
        regs = np.empty(count, dtype=np.float32)
        for start, part in _chunks(record, count):
            at = _HEADER.size + start * record.itemsize
            got = fh.readinto(part.view(np.uint8))
            if got != part.nbytes:
                raise DataFormatError(f"file ended at {at + got} bytes while {count} samples need {expected}",
                                      offset=at + got)
            bad = np.flatnonzero(part["label"] > 1)
            if bad.size:
                first = int(bad[0])
                raise DataFormatError(
                    f"label byte must be 0 or 1, got {part['label'][first]}",
                    offset=at + first * record.itemsize + record.fields["label"][1],
                )
            stop = start + len(part)
            images[start:stop], labels[start:stop] = part["image"], part["label"]
            regs[start:stop] = part["target"]
    step = _per_chunk(record)
    for start in range(0, count, step):
        stop = start + step
        finite = np.isfinite(images[start:stop]).all(axis=(1, 2, 3)) & np.isfinite(regs[start:stop])
        if not finite.all():
            first = start + int(np.argmin(finite))
            raise DataFormatError(
                f"sample {first} holds a non-finite pixel or target",
                offset=_HEADER.size + first * record.itemsize,
            )
    return EchoDataset(images, labels, regs)


def _sha256(path) -> str:
    """The SHA-256 hex digest of a file, read through one buffer of ``_CHUNK_BYTES``."""
    digest, buf = hashlib.sha256(), bytearray(_CHUNK_BYTES)
    with open(path, "rb", buffering=0) as fh:
        while got := fh.readinto(buf):
            digest.update(memoryview(buf)[:got])
    return digest.hexdigest()


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
    """Reject split fractions that are not three finite, non-negative shares
    summing to 1, and a split seed that is not an integer >= 0."""
    if len(fractions) != 3:
        raise ConfigurationError(f"split_fractions needs 3 shares (train, val, test), got {len(fractions)}")
    check_finite("split_fractions", fractions)
    if any(f < 0 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError(f"split_fractions must be non-negative and sum to 1, got {fractions}")
    check_integer("split_seed", seed, 0)


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
    """Empirical frequencies of classes 0 and 1, the input for loss weighting.
    Every label must equal 0 or 1; an integral float does."""
    y = np.asarray(labels)
    if y.size == 0:
        raise ConfigurationError("cannot compute class proportions of an empty set")
    bad = np.flatnonzero((y != 0) & (y != 1))
    if bad.size:
        raise ContractError(f"labels must be 0 or 1, got {y[bad[0]]} at index {bad[0]}")
    return tuple(float(np.sum(y == k)) / y.size for k in (0, 1))
