"""Synthetic data: determinism, geometry, the ECAP container, and splits."""

import hashlib
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from capsroute import data
from capsroute.data import (
    _BLOCK,
    CHAMBER_ASPECT,
    CHAMBER_LEVEL,
    CONE_APEX_ROW,
    CONE_HALF_ANGLE_DEG,
    CROP_ZOOMS,
    TISSUE_LEVEL,
    EchoDataset,
    SynthConfig,
    _sample_rng,
    _scene,
    _seek,
    _sha256,
    class_proportions,
    generate,
    load,
    save,
    split,
)
from capsroute.errors import ConfigurationError, ContractError, DataFormatError, StratificationError

QUIET = dict(noise_sigma=0.0, translation_range=0.0,
             rotation_range_train=(0.0, 0.0), width_normal=(7.0, 7.0),
             width_dilated=(11.0, 11.0))


def small_cfg(**kwargs) -> SynthConfig:
    base = dict(n_samples=20, positive_ratio=0.25, seed=3)
    base.update(kwargs)
    return SynthConfig(**base)


# ------------------------------------------------------------------ generation


def test_exact_positive_count():
    ds = generate(SynthConfig(n_samples=1000, positive_ratio=0.2, seed=1))
    assert int(ds.labels.sum()) == 200


def test_generate_is_bit_identical_across_calls():
    cfg = small_cfg()
    assert generate(cfg).same_as(generate(cfg))


def _oracle_scene(h, w, zoom, cy, cx, width_px, angle_deg):
    # One scene over a full [H, W] coordinate grid, from scalar parameters.
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
    return img, cone


def per_sample_oracle(cfg, rotation_range=None, index_offset=0) -> EchoDataset:
    """``generate`` one sample per pass: scalar ``uniform`` draws, one ``normal``
    draw per channel, and a full coordinate grid per scene."""
    n = cfg.n_samples
    rot = rotation_range if rotation_range is not None else cfg.rotation_range_train
    labels = np.zeros(n, dtype=np.uint8)
    labels[: int(round(n * cfg.positive_ratio))] = 1
    _sample_rng(cfg.seed, 2**63).shuffle(labels)
    c, h, w = cfg.image_size
    images = np.empty((n, c, h, w), dtype=np.float32)
    regs = np.empty(n, dtype=np.float32)
    for i in range(n):
        rng = _sample_rng(cfg.seed, index_offset + i)
        interval = cfg.width_dilated if labels[i] == 1 else cfg.width_normal
        width_px = rng.uniform(interval[0], interval[1])
        angle = rng.uniform(rot[0], rot[1])
        jy = rng.uniform(-cfg.translation_range, cfg.translation_range)
        jx = rng.uniform(-cfg.translation_range, cfg.translation_range)
        cy, cx = 0.55 * (h - 1) + jy, (w - 1) / 2.0 + jx
        for ch in range(c):
            base, cone = _oracle_scene(h, w, CROP_ZOOMS[ch], cy, cx, width_px, angle)
            noise = rng.normal(0.0, 1.0, size=(h, w))
            images[i, ch] = np.clip(base + cfg.noise_sigma * noise * cone, 0.0, 1.0)
        regs[i] = np.float32(width_px / h)
    return EchoDataset(images, labels, regs)


def assert_same_bytes(a: EchoDataset, b: EchoDataset) -> None:
    for x, y in ((a.images, b.images), (a.labels, b.labels), (a.reg_targets, b.reg_targets)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("n", [2, _BLOCK - 1, _BLOCK + 1])  # _BLOCK + 1 ends in a block of one
@pytest.mark.parametrize("index_offset", [0, 2**40])
@pytest.mark.parametrize("test_rotation", [False, True])
@pytest.mark.parametrize("channels", [1, 3])
def test_generate_matches_the_per_sample_oracle_byte_for_byte(channels, test_rotation, index_offset, n):
    cfg = small_cfg(n_samples=n, positive_ratio=0.4, image_size=(channels, 32, 32))
    rot = cfg.rotation_range_test if test_rotation else None
    assert_same_bytes(generate(cfg, rot, index_offset), per_sample_oracle(cfg, rot, index_offset))


@pytest.mark.parametrize("translation_range", [2.0, 0.0])
@pytest.mark.parametrize("channels", [1, 3])
def test_generate_matches_the_per_sample_oracle_on_a_non_square_image(channels, translation_range):
    cfg = small_cfg(n_samples=_BLOCK + 3, image_size=(channels, 48, 40),
                    translation_range=translation_range)
    assert_same_bytes(generate(cfg, index_offset=5), per_sample_oracle(cfg, index_offset=5))


def test_single_sample_stream_is_counter_based():
    # Sample p of an offset-7 set draws from stream 7 + p, as sample 7 + p of
    # an unshifted set does, though the two fall at different block positions.
    cfg = small_cfg(n_samples=_BLOCK + 9)
    base, shifted = generate(cfg), generate(cfg, index_offset=7)
    same_label = np.flatnonzero(shifted.labels[:-7] == base.labels[7:])
    assert same_label.size > 0
    assert_array_equal(shifted.images[same_label], base.images[same_label + 7])
    assert_array_equal(shifted.reg_targets[same_label], base.reg_targets[same_label + 7])


@pytest.mark.parametrize("index", [3, 2**62])
def test_seek_restarts_a_used_generator_on_a_fresh_stream(index):
    rng = _sample_rng(7, 99)
    rng.integers(0, 10, size=3, dtype=np.uint32)  # leaves a buffered half word
    rng.random()
    _seek(rng, 7, index)
    fresh = _sample_rng(7, index)
    assert_array_equal(rng.integers(0, 2**32, size=5, dtype=np.uint32),
                       fresh.integers(0, 2**32, size=5, dtype=np.uint32))
    assert_array_equal(rng.standard_normal(100), fresh.standard_normal(100))
    assert rng.random() == fresh.random()


@pytest.mark.parametrize("index_offset", [-1, 2**63 - 3])
def test_generate_rejects_an_index_offset_outside_the_sample_streams(index_offset):
    # Stream 2**63 is the label shuffle's; sample indices must stay below it.
    with pytest.raises(ConfigurationError, match="index_offset"):
        generate(small_cfg(n_samples=4, positive_ratio=0.5), index_offset=index_offset)


@pytest.mark.parametrize("index_offset", [1.5, True, np.float64(2.0)], ids=["float", "bool", "np-float"])
def test_generate_rejects_an_index_offset_that_is_not_an_integer(index_offset):
    # _seek casts the key to uint64, so 1.5 and True would render the samples of offset 1.
    with pytest.raises(ConfigurationError, match="index_offset must be an integer"):
        generate(small_cfg(n_samples=4, positive_ratio=0.5), index_offset=index_offset)


def test_generate_takes_a_numpy_integer_index_offset():
    cfg = small_cfg(n_samples=4, positive_ratio=0.5)
    assert_same_bytes(generate(cfg, index_offset=np.int64(2)), generate(cfg, index_offset=2))


def test_generate_accepts_the_last_sample_streams():
    ds = generate(small_cfg(n_samples=4, positive_ratio=0.5), index_offset=2**63 - 4)
    assert len(ds) == 4


def test_index_offset_shifts_sample_streams_only():
    cfg = small_cfg()
    base = generate(cfg)
    shifted = generate(cfg, index_offset=1)
    assert_array_equal(base.labels, shifted.labels)  # label stream is seed-only
    # Sample i of the shifted set uses stream i+1. Labels generally differ per
    # position, so compare a position whose label matches.
    match = np.flatnonzero(base.labels[1:] == shifted.labels[:-1])[0]
    assert_array_equal(shifted.images[match], base.images[match + 1])


def test_collapsed_ranges_make_classes_internally_identical():
    ds = generate(small_cfg(**QUIET))
    pos = ds.images[ds.labels == 1]
    neg = ds.images[ds.labels == 0]
    for group in (pos, neg):
        for img in group[1:]:
            assert_array_equal(img, group[0])
    assert not np.array_equal(pos[0], neg[0])


def test_noiseless_pixels_take_scene_levels_only():
    ds = generate(small_cfg(**QUIET))
    values = set(np.unique(ds.images).tolist())
    assert values <= {0.0, np.float32(CHAMBER_LEVEL), np.float32(TISSUE_LEVEL)}


def test_dilated_chambers_are_larger():
    ds = generate(small_cfg(**QUIET))
    dark = (ds.images < 0.2) & (ds.images > 0.0)
    dark_counts = dark.sum(axis=(1, 2, 3))
    assert dark_counts[ds.labels == 1].min() > dark_counts[ds.labels == 0].max()


def test_regression_target_is_normalized_width():
    cfg = small_cfg()
    ds = generate(cfg)
    h = cfg.image_size[1]
    for label, reg in zip(ds.labels, ds.reg_targets):
        lo, hi = cfg.width_dilated if label else cfg.width_normal
        assert lo / h - 1e-6 <= reg <= hi / h + 1e-6


def test_chamber_area_stable_under_rotation():
    # The rasterized ellipse covers the same area whatever its orientation,
    # so rotation varies pose, not the size cue that separates the classes.
    # Rasterization quantizes the count, so measure on a grid fine enough
    # that boundary pixels are a small fraction of the area.
    counts = []
    for angle in np.linspace(0.0, 180.0, 25):
        _, chamber, _ = _scene(128, 128, 1.0, 0.55 * 127, 63.5, 30.0, angle)
        counts.append(chamber.sum())
    counts = np.asarray(counts, dtype=np.float64)
    assert counts.max() / counts.min() < 1.03


def test_three_channel_mode_prepends_the_base_view():
    cfg1 = small_cfg(**QUIET)
    cfg3 = small_cfg(image_size=(3, 32, 32), **QUIET)
    ds1, ds3 = generate(cfg1), generate(cfg3)
    assert ds3.images.shape[1] == 3
    assert_array_equal(ds3.images[:, 0], ds1.images[:, 0])
    # Tighter crops magnify the chamber: more dark pixels per channel.
    dark = ((ds3.images < 0.2) & (ds3.images > 0.0)).sum(axis=(0, 2, 3))
    assert dark[0] < dark[1] < dark[2]


def test_generate_validation_errors():
    with pytest.raises(ConfigurationError):
        generate(SynthConfig(n_samples=3, positive_ratio=0.1))  # rounds to 0 positives
    with pytest.raises(ConfigurationError):
        SynthConfig(image_size=(2, 32, 32))
    with pytest.raises(ConfigurationError):
        SynthConfig(width_normal=(9.0, 6.0))
    with pytest.raises(ConfigurationError):
        SynthConfig(width_normal=(6.0, 9.0), width_dilated=(8.0, 13.0))
    SynthConfig(width_normal=(6.0, 9.0), width_dilated=(8.0, 13.0), allow_width_overlap=True)
    with pytest.raises(ConfigurationError):
        SynthConfig(width_dilated=(20.0, 26.0))  # cannot fit the frame


@pytest.mark.parametrize("key,value", [
    ("image_size", (32, 32)),
    ("image_size", (1, 32, 32, 4)),
    ("rotation_range_train", (1.0, 2.0, 3.0)),
    ("width_normal", (0.1,)),
    ("translation_range", (1, 2)),
])
def test_synth_config_rejects_a_value_of_the_wrong_arity_naming_the_key(key, value):
    with pytest.raises(ConfigurationError, match=rf"^{key} expects"):
        SynthConfig(**{key: value})


@pytest.mark.parametrize("rotation_range", [(float("nan"), 0.0), (0.0, float("inf")), (1.0,),
                                            (1.0, 2.0, 3.0), (10.0, -10.0)])
def test_generate_rejects_a_bad_rotation_range_naming_it(rotation_range):
    # As SynthConfig checks its own ranges: NaN would render every image without
    # its chamber, and (1.0,) would reach an IndexError.
    with pytest.raises(ConfigurationError, match="^rotation_range"):
        generate(small_cfg(n_samples=4), rotation_range=rotation_range)


# ------------------------------------------------------------------------ ECAP


def test_ecap_round_trip_and_resave_bytes(tmp_path):
    ds = generate(small_cfg(n_samples=3, positive_ratio=0.34))
    p1, p2 = tmp_path / "a.ecap", tmp_path / "b.ecap"
    save(ds, p1)
    back = load(p1)
    assert back.same_as(ds)
    save(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def struct_reference(ds: EchoDataset) -> bytes:
    """The ECAP bytes of ``ds``, packed one sample at a time with ``struct``."""
    expected = struct.pack("<4sIIHHH", b"ECAP", 1, *ds.images.shape)
    for img, label, target in zip(ds.images, ds.labels, ds.reg_targets):
        expected += img.astype("<f4").tobytes() + struct.pack("<Bf", int(label), float(target))
    return expected


def test_ecap_bytes_match_a_per_sample_struct_reference(tmp_path):
    ds = generate(small_cfg(n_samples=5, positive_ratio=0.4, image_size=(3, 16, 12),
                            width_normal=(3.0, 3.0), width_dilated=(5.0, 5.0),
                            translation_range=0.0))
    path = tmp_path / "ref.ecap"
    save(ds, path)
    assert path.read_bytes() == struct_reference(ds)


CHUNK = 4  # records per chunk under the small_chunks fixture


@pytest.fixture
def small_chunks(monkeypatch):
    """Shrink the ECAP chunk budget to CHUNK records of a 1x16x12 or 3x16x12 image
    (an odd byte count past each, which rounds down), so a few samples span chunks."""
    def use(channels):
        monkeypatch.setattr(data, "_CHUNK_BYTES", CHUNK * (4 * channels * 16 * 12 + 5) + 3)
    return use


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 2])
def test_streamed_ecap_matches_the_struct_reference_and_loads_back_byte_for_byte(
        tmp_path, small_chunks, channels, n):
    small_chunks(channels)
    rng = np.random.default_rng(n * channels)
    images = rng.uniform(size=(n, channels, 16, 12)).astype(np.float32)
    images[0, 0, 0, :2] = (-0.0, 1e-45)  # a negative zero and a subnormal keep their bits
    ds = EchoDataset(images, (np.arange(n) % 2).astype(np.uint8), rng.uniform(size=n).astype(np.float32))
    path = tmp_path / "chunked.ecap"
    save(ds, path)
    assert path.read_bytes() == struct_reference(ds)
    back = load(path)
    for got, want in ((back.images, ds.images), (back.labels, ds.labels),
                      (back.reg_targets, ds.reg_targets)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_ecap_file_size_formula(tmp_path):
    cfg = small_cfg(n_samples=5, positive_ratio=0.2, image_size=(1, 16, 12),
                    width_normal=(3.0, 3.0), width_dilated=(5.0, 5.0),
                    translation_range=0.0)
    path = tmp_path / "d.ecap"
    save(generate(cfg), path)
    c, h, w = cfg.image_size
    assert path.stat().st_size == 18 + 5 * (4 * c * h * w + 1 + 4)


def test_ecap_bad_magic(tmp_path):
    path = tmp_path / "bad.ecap"
    save(generate(small_cfg(n_samples=4, positive_ratio=0.25)), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"JUNK"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert err.value.offset == 0
    assert "byte offset 0" in str(err.value)


def test_ecap_bad_version(tmp_path):
    path = tmp_path / "bad.ecap"
    save(generate(small_cfg(n_samples=4, positive_ratio=0.25)), path)
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert err.value.offset == 4


def test_ecap_truncation_names_the_offset(tmp_path):
    path = tmp_path / "cut.ecap"
    save(generate(small_cfg(n_samples=4, positive_ratio=0.25)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 10])
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert err.value.offset == len(blob) - 10
    assert f"byte offset {len(blob) - 10}" in str(err.value)


def test_ecap_load_checks_each_read_against_the_size_it_expected(tmp_path, monkeypatch):
    # A file that shrinks between its size check and its read ends in a format error.
    path = tmp_path / "shrunk.ecap"
    save(generate(small_cfg(n_samples=4, positive_ratio=0.25)), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 10])
    monkeypatch.setattr(data.os, "fstat", lambda fd: SimpleNamespace(st_size=len(blob)))
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert err.value.offset == len(blob) - 10
    assert str(err.value).startswith(f"file ended at {len(blob) - 10} bytes while 4 samples need {len(blob)}")


def test_ecap_bad_label_byte(tmp_path):
    path = tmp_path / "lab.ecap"
    cfg = small_cfg(n_samples=4, positive_ratio=0.25)
    save(generate(cfg), path)
    blob = bytearray(path.read_bytes())
    c, h, w = cfg.image_size
    first_label_at = 18 + 4 * c * h * w
    blob[first_label_at] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert err.value.offset == first_label_at


def _stride(cfg) -> int:
    c, h, w = cfg.image_size
    return 4 * c * h * w + 1 + 4


def _damage(path, *writes) -> None:
    """Overwrite bytes of a saved file: each write is (offset, bytes)."""
    blob = bytearray(path.read_bytes())
    for at, value in writes:
        blob[at:at + len(value)] = value
    path.write_bytes(bytes(blob))


def _f32(value) -> bytes:
    return struct.pack("<f", value)


@pytest.mark.parametrize("damage", ["pixel", "target"])
def test_ecap_rejects_non_finite_values_naming_the_sample_offset(tmp_path, damage):
    # save refuses a non-finite value, so the file is damaged after it is written.
    path = tmp_path / "nan.ecap"
    cfg = small_cfg(n_samples=4, positive_ratio=0.25)
    save(generate(cfg), path)
    c, h, w = cfg.image_size
    sample_at = 18 + 2 * _stride(cfg)
    bad_at = sample_at + 4 * (5 * w + 7) if damage == "pixel" else sample_at + _stride(cfg) - 4
    later = 18 + 3 * _stride(cfg)  # a later damaged sample is not the one named
    _damage(path, (bad_at, _f32(np.nan if damage == "pixel" else np.inf)), (later, _f32(-np.inf)))
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert err.value.offset == sample_at
    assert f"byte offset {sample_at}" in str(err.value)


def test_ecap_non_finite_offset_names_the_first_damaged_sample_across_chunks(tmp_path, small_chunks):
    small_chunks(1)
    cfg = small_cfg(n_samples=3 * CHUNK, positive_ratio=0.25, image_size=(1, 16, 12),
                    width_normal=(3.0, 3.0), width_dilated=(5.0, 5.0), translation_range=0.0)
    path = tmp_path / "nan.ecap"
    save(generate(cfg), path)
    first, later = CHUNK + 1, 2 * CHUNK + 1  # in the second and the third chunk
    _damage(path, (18 + later * _stride(cfg), _f32(np.nan)),
            (18 + first * _stride(cfg) + _stride(cfg) - 4, _f32(-np.inf)))
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert err.value.offset == 18 + first * _stride(cfg)
    assert str(err.value).startswith(f"sample {first} holds a non-finite pixel or target")


def test_ecap_bad_label_in_a_later_sample_names_that_sample(tmp_path):
    path = tmp_path / "lab.ecap"
    cfg = small_cfg(n_samples=4, positive_ratio=0.25)
    save(generate(cfg), path)
    blob = bytearray(path.read_bytes())
    label_at = 18 + 3 * _stride(cfg) + _stride(cfg) - 5
    blob[label_at] = 2
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert err.value.offset == label_at
    assert str(err.value) == f"label byte must be 0 or 1, got 2 (byte offset {label_at})"


def test_ecap_bad_label_outranks_an_earlier_non_finite_pixel(tmp_path):
    path = tmp_path / "both.ecap"
    cfg = small_cfg(n_samples=4, positive_ratio=0.25)
    save(generate(cfg), path)
    w = cfg.image_size[2]
    label_at = 18 + 2 * _stride(cfg) + _stride(cfg) - 5
    _damage(path, (18 + 4 * (3 * w + 3), _f32(np.nan)), (label_at, b"\xff"))
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert err.value.offset == label_at
    assert "got 255" in str(err.value)


def test_ecap_bad_label_outranks_a_non_finite_pixel_in_an_earlier_chunk(tmp_path, small_chunks):
    small_chunks(1)
    cfg = small_cfg(n_samples=3 * CHUNK, positive_ratio=0.25, image_size=(1, 16, 12),
                    width_normal=(3.0, 3.0), width_dilated=(5.0, 5.0), translation_range=0.0)
    path = tmp_path / "both.ecap"
    save(generate(cfg), path)
    label_at = 18 + (2 * CHUNK + 1) * _stride(cfg) + _stride(cfg) - 5  # in the third chunk
    _damage(path, (18 + 1 * _stride(cfg) + 8, _f32(np.nan)), (label_at, b"\x02"))
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert err.value.offset == label_at
    assert str(err.value) == f"label byte must be 0 or 1, got 2 (byte offset {label_at})"


def test_ecap_zero_sample_dataset_round_trips(tmp_path):
    empty = EchoDataset(
        np.zeros((0, 3, 12, 10), dtype=np.float32),
        np.zeros(0, dtype=np.uint8),
        np.zeros(0, dtype=np.float32),
    )
    path = tmp_path / "empty.ecap"
    save(empty, path)
    assert path.stat().st_size == 18
    back = load(path)
    assert back.images.shape == (0, 3, 12, 10)
    assert back.same_as(empty)
    assert back.images.dtype == np.float32 and back.labels.dtype == np.uint8
    assert back.reg_targets.dtype == np.float32


def test_ecap_load_returns_writeable_native_arrays(tmp_path):
    path = tmp_path / "one.ecap"
    ds = generate(small_cfg(n_samples=4, positive_ratio=0.25))
    for n in (1, 4):
        save(ds.subset(np.arange(n)), path)
        back = load(path)
        for arr, dtype in ((back.images, np.float32), (back.labels, np.uint8),
                           (back.reg_targets, np.float32)):
            assert arr.dtype == dtype and arr.dtype.isnative
            assert arr.flags.writeable and arr.flags.c_contiguous


def _no_data():
    return np.zeros((3, 1, 8, 8), np.float32), np.ones(3, np.uint8), np.full(3, 0.5, np.float32)


def _with(index, value):
    """The three fields of _no_data with field ``index`` replaced by ``value``."""
    fields = list(_no_data())
    fields[index] = value
    return fields


def _nan_at(shape, where):
    values = np.zeros(shape, np.float32)
    values[where] = np.nan
    return values


_BIG = [np.broadcast_to(np.float32(0.0), (2**32, 1, 1, 1)),  # views: nothing is allocated
        np.broadcast_to(np.uint8(0), (2**32,)), np.broadcast_to(np.float32(0.0), (2**32,))]


@pytest.mark.parametrize("fields,named", [
    (_with(1, np.ones(1, np.uint8)), "labels must hold one value for each of 3 images"),
    (_with(2, np.full(1, 0.5, np.float32)), "reg_targets must hold one value for each of 3 images"),
    (_with(2, np.full(4, 0.5, np.float32)), "reg_targets must hold one value for each of 3 images"),
    (_with(0, np.zeros((3, 8, 8), np.float32)), "images must be [N, C, H, W]"),
    (_with(1, np.array([0, 2, 1], np.uint8)), "labels must be 0 or 1, got 2 at sample 1"),
    (_with(1, np.array([0.0, 1.0, 0.5])), "labels must be 0 or 1, got 0.5 at sample 2"),
    (_with(0, _nan_at((3, 1, 8, 8), (2, 0, 7, 7))),
     "images hold a value that is not finite as float32 at sample 2"),
    (_with(0, np.full((3, 1, 8, 8), 1e39)), "images hold a value that is not finite as float32 at sample 0"),
    (_with(2, np.array([0.5, np.inf, 0.5], np.float32)),
     "reg_targets hold a value that is not finite as float32 at sample 1"),
    (_with(0, np.zeros((3, 2**16, 1, 1), np.float32)), "images channels 65536 does not fit the header's u16"),
    (_with(0, np.zeros((3, 1, 2**16, 1), np.float32)), "images height 65536 does not fit the header's u16"),
    (_with(0, np.zeros((3, 1, 1, 2**16), np.float32)), "images width 65536 does not fit the header's u16"),
    (_BIG, "images count 4294967296 does not fit the header's u32"),
], ids=["short-labels", "short-targets", "long-targets", "3-d-images", "label-2", "label-0.5", "nan-pixel",
        "float32-overflow", "inf-target", "channels", "height", "width", "count"])
def test_ecap_save_rejects_what_load_would_not_read_back_before_opening_the_file(tmp_path, fields, named):
    path = tmp_path / "refused.ecap"
    with pytest.raises(ContractError) as err:
        save(EchoDataset(*fields), path)
    assert str(err.value).startswith(named)
    assert not path.exists()


def test_ecap_save_and_load_stay_within_a_chunk_of_the_arrays_they_move(tmp_path, peak_mib):
    ds = generate(SynthConfig(n_samples=512, image_size=(3, 32, 32), seed=27))
    path = tmp_path / "big.ecap"
    save(ds, path)  # the first call's lazy set-up is not the call's memory
    assert peak_mib(save, ds, path) <= 1.0
    arrays = sum(a.nbytes for a in (ds.images, ds.labels, ds.reg_targets))
    assert peak_mib(load, path) <= arrays / 2**20 + 1.0


def test_file_sha256_matches_hashlib_across_chunks_within_a_chunk_of_memory(tmp_path, monkeypatch, peak_mib):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(5).bytes(6 << 20))
    want = hashlib.sha256(path.read_bytes()).hexdigest()
    assert _sha256(path) == want
    assert peak_mib(_sha256, path) <= 1.0
    monkeypatch.setattr(data, "_CHUNK_BYTES", 4093)  # a prime: the last chunk is short
    assert _sha256(path) == want


# ---------------------------------------------------------------------- splits


def test_split_stratification_hand_case():
    ds = generate(SynthConfig(n_samples=100, positive_ratio=0.2, seed=4))
    train, val, test = split(ds, (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (80, 10, 10)
    assert (int(train.labels.sum()), int(val.labels.sum()), int(test.labels.sum())) == (16, 2, 2)


def test_split_is_deterministic_and_seed_sensitive():
    ds = generate(small_cfg(n_samples=40, positive_ratio=0.25))
    a = split(ds, (0.7, 0.15, 0.15), seed=5)
    b = split(ds, (0.7, 0.15, 0.15), seed=5)
    c = split(ds, (0.7, 0.15, 0.15), seed=6)
    for x, y in zip(a, b):
        assert x.same_as(y)
    assert not all(x.same_as(y) for x, y in zip(a, c))


def test_split_everything_to_train():
    ds = generate(small_cfg())
    train, val, test = split(ds, (1.0, 0.0, 0.0), seed=0)
    assert len(train) == len(ds) and len(val) == 0 and len(test) == 0
    assert train.same_as(ds)  # sorted indices restore the original order


def test_split_partition_is_exact():
    ds = generate(small_cfg(n_samples=37, positive_ratio=0.3, seed=9))
    parts = split(ds, (0.6, 0.2, 0.2), seed=1)
    together = np.concatenate([p.reg_targets for p in parts])
    assert sorted(together.tolist()) == sorted(ds.reg_targets.tolist())
    assert sum(len(p) for p in parts) == len(ds)


def test_split_raises_when_a_subset_loses_all_positives():
    ds = generate(SynthConfig(n_samples=10, positive_ratio=0.1, seed=2))
    with pytest.raises(StratificationError):
        split(ds, (0.5, 0.3, 0.2), seed=0)


def test_split_validation():
    ds = generate(small_cfg())
    with pytest.raises(ConfigurationError):
        split(ds, (0.5, 0.5, 0.5), seed=0)


def test_class_proportions():
    assert class_proportions(np.array([0, 1, 1, 0])) == (0.5, 0.5)
    assert class_proportions(np.array([0, 0, 0, 1])) == (0.75, 0.25)
    with pytest.raises(ConfigurationError):
        class_proportions(np.array([]))


@pytest.mark.parametrize("labels,bad", [([0.7, 1.0, 0], "0.7 at index 0"), ([0, 2, 1], "2 at index 1"),
                                        ([1, 0, float("nan")], "nan at index 2"), ([0, -1], "-1 at index 1")],
                         ids=["fraction", "two", "nan", "negative"])
def test_class_proportions_rejects_a_label_other_than_0_or_1(labels, bad):
    with pytest.raises(ContractError, match=f"labels must be 0 or 1, got {bad}"):
        class_proportions(np.array(labels))


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int32, np.int64, np.uint64, np.float32, np.float64, bool])
def test_class_proportions_accepts_every_integer_dtype_and_integral_floats(dtype):
    assert class_proportions(np.array([0, 1, 1, 1], dtype=dtype)) == (0.25, 0.75)


def test_subset_and_len():
    ds = generate(small_cfg())
    sub = ds.subset([0, 2, 4])
    assert len(sub) == 3
    assert_array_equal(sub.images[1], ds.images[2])
