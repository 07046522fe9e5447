"""Synthetic data: determinism, geometry, the ECAP container, and splits."""

import struct

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from capsroute.data import (
    CHAMBER_LEVEL,
    TISSUE_LEVEL,
    EchoDataset,
    SynthConfig,
    _render_sample,
    _sample_rng,
    _scene,
    class_proportions,
    generate,
    load,
    save,
    split,
)
from capsroute.errors import ConfigurationError, DataFormatError, StratificationError

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


def test_single_sample_stream_is_counter_based():
    cfg = small_cfg()
    a = _render_sample(cfg, _sample_rng(cfg.seed, 7), 1, cfg.rotation_range_train)
    b = _render_sample(cfg, _sample_rng(cfg.seed, 7), 1, cfg.rotation_range_train)
    assert_array_equal(a[0], b[0])
    assert a[1] == b[1]


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


# ------------------------------------------------------------------------ ECAP


def test_ecap_round_trip_and_resave_bytes(tmp_path):
    ds = generate(small_cfg(n_samples=3, positive_ratio=0.34))
    p1, p2 = tmp_path / "a.ecap", tmp_path / "b.ecap"
    save(ds, p1)
    back = load(p1)
    assert back.same_as(ds)
    save(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_ecap_bytes_match_a_per_sample_struct_reference(tmp_path):
    ds = generate(small_cfg(n_samples=5, positive_ratio=0.4, image_size=(3, 16, 12),
                            width_normal=(3.0, 3.0), width_dilated=(5.0, 5.0),
                            translation_range=0.0))
    path = tmp_path / "ref.ecap"
    save(ds, path)
    expected = struct.pack("<4sIIHHH", b"ECAP", 1, 5, 3, 16, 12)
    for img, label, target in zip(ds.images, ds.labels, ds.reg_targets):
        expected += img.astype("<f4").tobytes() + struct.pack("<Bf", int(label), float(target))
    assert path.read_bytes() == expected


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


@pytest.mark.parametrize("damage", ["pixel", "target"])
def test_ecap_rejects_non_finite_values_naming_the_sample_offset(tmp_path, damage):
    path = tmp_path / "nan.ecap"
    cfg = small_cfg(n_samples=4, positive_ratio=0.25)
    ds = generate(cfg)
    if damage == "pixel":
        ds.images[2, 0, 5, 7] = np.nan
    else:
        ds.reg_targets[2] = np.inf
    ds.images[3, 0, 0, 0] = -np.inf  # a later damaged sample is not the one named
    save(ds, path)
    c, h, w = cfg.image_size
    sample_at = 18 + 2 * (4 * c * h * w + 1 + 4)
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert err.value.offset == sample_at
    assert f"byte offset {sample_at}" in str(err.value)


def _stride(cfg) -> int:
    c, h, w = cfg.image_size
    return 4 * c * h * w + 1 + 4


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
    ds = generate(cfg)
    ds.images[0, 0, 3, 3] = np.nan
    save(ds, path)
    blob = bytearray(path.read_bytes())
    label_at = 18 + 2 * _stride(cfg) + _stride(cfg) - 5
    blob[label_at] = 255
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert err.value.offset == label_at
    assert "got 255" in str(err.value)


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


def test_subset_and_len():
    ds = generate(small_cfg())
    sub = ds.subset([0, 2, 4])
    assert len(sub) == 3
    assert_array_equal(sub.images[1], ds.images[2])
