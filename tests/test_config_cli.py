"""Configuration parsing, precedence rules, and the command-line surface."""

import hashlib
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from capsroute import (
    ConfigurationError,
    MarginLossParams,
    ModelConfig,
    SynthConfig,
    TrainConfig,
    WeightedLossParams,
    data,
    experiment,
)
from capsroute.cli import main
from capsroute.config import SCHEMA, build, config_snapshot, default_config_text, parse_config_file, resolve

TINY_SETTINGS = [
    "n_samples=32",
    "image_size=1,20,20",
    "positive_ratio=0.5",
    "width_normal=3,3",
    "width_dilated=5,5",
    "translation_range=0",
    "noise_sigma=0.02",
    "data_seed=5",
    "split_fractions=0.75,0.125,0.125",
    "hidden_dim=16",
    "lr=0.003",
    "batch_size=8",
    "max_epochs=2",
    "patience=2",
]


def tiny_args(*extra):
    out = []
    for item in TINY_SETTINGS + list(extra):
        out += ["--set", item]
    return out


# -------------------------------------------------------------- config parsing


def test_parse_config_file_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# a comment\n"
        "\n"
        "lr = 0.01  # trailing comment\n"
        "architecture=cnn1\n"
    )
    assert parse_config_file(path) == {"lr": "0.01", "architecture": "cnn1"}


def test_parse_config_file_reports_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("lr=0.01\nnot a pair\n")
    with pytest.raises(ConfigurationError) as err:
        parse_config_file(path)
    assert ":2:" in str(err.value)


def test_resolve_defaults_match_schema():
    cfg = resolve()
    assert set(cfg) == set(SCHEMA)
    assert cfg["image_size"] == (1, 32, 32)
    assert cfg["allow_width_overlap"] is False
    assert cfg["lr"] == 1e-4


def test_resolve_precedence_file_then_overrides():
    cfg = resolve({"lr": "0.01", "batch_size": "4"}, {"lr": "0.5"})
    assert cfg["lr"] == 0.5  # --set wins over the file
    assert cfg["batch_size"] == 4  # file wins over the default
    assert cfg["max_epochs"] == 100  # default survives


def test_resolve_rejects_unknown_key():
    with pytest.raises(ConfigurationError) as err:
        resolve({"learning_rate": "0.1"})
    assert "learning_rate" in str(err.value)


def test_resolve_rejects_malformed_values():
    with pytest.raises(ConfigurationError):
        resolve({"allow_width_overlap": "perhaps"})
    with pytest.raises(ConfigurationError):
        resolve({"width_normal": "1,2,3"})  # pairs need exactly two values
    with pytest.raises(ConfigurationError):
        resolve({"decoder_hidden": "wide,narrow"})


# (dataclass, field, config key) of every integer field a config key feeds
_INTEGER_FIELDS = [
    *[(ModelConfig, name, name) for name in ("hidden_dim", "conv_kernel", "d_primary", "d_digit", "decoder_hidden")],
    *[(TrainConfig, name, name) for name in ("batch_size", "max_epochs", "patience", "seed")],
    (SynthConfig, "n_samples", "n_samples"),
    (SynthConfig, "image_size", "image_size"),
    (SynthConfig, "seed", "data_seed"),
]


def _as_float(value):
    """``value`` with its (first) integer turned into the equal float."""
    return (float(value[0]), *value[1:]) if isinstance(value, tuple) else float(value)


@pytest.mark.parametrize("cls,name,key", _INTEGER_FIELDS)
def test_integer_fields_reject_a_float_naming_the_key(cls, name, key):
    default = getattr(cls(), name)
    with pytest.raises(ConfigurationError, match=rf"\b{key}\)? must be (an integer|integers), got"):
        cls(**{name: _as_float(default)})
    fractional = default + 0.5 if isinstance(default, int) else (default[0] + 0.5, *default[1:])
    with pytest.raises(ConfigurationError, match=rf"\b{key}\)? must be"):
        cls(**{name: fractional})
    as_numpy = tuple(map(np.int64, default)) if isinstance(default, tuple) else np.int64(default)
    assert getattr(cls(**{name: as_numpy}), name) == default


def test_check_split_rejects_a_non_finite_share_and_a_float_seed_naming_the_key():
    with pytest.raises(ConfigurationError, match="split_fractions must be finite"):
        data.check_split((float("nan"), 0.5, 0.5), 3)
    with pytest.raises(ConfigurationError, match="split_seed must be an integer"):
        data.check_split((0.8, 0.1, 0.1), 3.5)


_FLOAT_FIELDS = [
    *[(SynthConfig, name) for name in ("positive_ratio", "rotation_range_train", "rotation_range_test",
                                        "translation_range", "width_normal", "width_dilated", "noise_sigma")],
    *[(WeightedLossParams, name) for name in ("class_proportions", "lambda_reg", "lambda_recon")],
    *[(MarginLossParams, name) for name in ("m_plus", "m_minus", "negative_weight")],
]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("cls,name", _FLOAT_FIELDS)
def test_float_fields_reject_non_finite_values_naming_the_key(cls, name, bad):
    default = getattr(cls(), name)
    value = (bad, *default[1:]) if isinstance(default, tuple) else bad
    with pytest.raises(ConfigurationError, match=rf"^{name} must be finite"):
        cls(**{name: value})


def _malformed_values():
    """(key, raw) pairs that no non-str key may accept: a bad element for every
    key, one value too few and too many for every tuple key, and a NaN and an
    infinite element for every float key."""
    for key, (default, _, _) in SCHEMA.items():
        if isinstance(default, str):
            continue
        is_float = isinstance(default[0] if isinstance(default, tuple) else default, float)
        if not isinstance(default, tuple):
            yield key, "abc"
            if is_float:
                yield key, "nan"
                yield key, "inf"
            continue
        values = config_snapshot({key: default})[key].split(",")
        yield key, ",".join(["abc"] * len(values))
        yield key, ",".join(values[:-1])
        yield key, ",".join(values + values[:1])
        if is_float:
            yield key, ",".join(["nan"] + values[1:])
            yield key, ",".join(values[:-1] + ["-inf"])


@pytest.mark.parametrize("key,raw", list(_malformed_values()))
def test_cli_rejects_malformed_values_naming_the_key(tmp_path, capsys, key, raw):
    out = tmp_path / "x.ecap"
    assert main(["gen-data", "--set", f"{key}={raw}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not out.exists()


def test_default_config_text_round_trips(tmp_path):
    path = tmp_path / "defaults.cfg"
    path.write_text(default_config_text())
    assert resolve(parse_config_file(path)) == resolve()


def test_config_snapshot_round_trips():
    cfg = resolve({"lr": "0.003", "rotation_shift_test": "true"})
    snapshot = config_snapshot(cfg)
    assert snapshot["rotation_shift_test"] == "true"
    assert snapshot["image_size"] == "1,32,32"
    assert resolve(snapshot) == cfg


def test_builders_map_config_keys():
    cfg = resolve(
        {
            "data_seed": "21",
            "seed": "9",
            "routing_method": "dynamic",
            "routing_iterations": "2",
            "weight_mode": "literal",
            "lambda_reg": "0.1",
            "m_plus": "0.8",
            "m_minus": "0.2",
        }
    )
    synth = build(SynthConfig, cfg)
    assert synth.seed == 21 and synth.n_samples == 2000
    model_cfg = build(ModelConfig, cfg)
    assert model_cfg.routing.method == "dynamic"
    assert model_cfg.routing.iterations == 2
    tc = build(TrainConfig, cfg)
    assert tc.seed == 9
    margin = build(MarginLossParams, cfg)
    assert (margin.m_plus, margin.m_minus) == (0.8, 0.2)
    weighted = build(WeightedLossParams, cfg)
    assert weighted.weight_mode == "literal"
    assert weighted.class_proportions == (0.5, 0.5)
    assert weighted.lambda_reg == 0.1


def test_readme_config_tables_list_every_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration keys", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*?) \|", section, flags=re.MULTILINE)
    assert [key for key, _ in rows] == list(SCHEMA)
    assert dict(rows) == config_snapshot(resolve())


# ------------------------------------------------------------------ CLI surface


def test_cli_gen_data_writes_loadable_file(tmp_path, capsys):
    out = tmp_path / "sets" / "tiny.ecap"
    assert main(["gen-data", *tiny_args(), "--out", str(out)]) == 0
    assert "wrote 32 samples (16 positive)" in capsys.readouterr().out
    dataset = data.load(out)
    assert len(dataset) == 32
    assert dataset.images.shape == (32, 1, 20, 20)


def test_cli_train_on_a_data_file_records_its_sha256(tmp_path):
    ecap = tmp_path / "tiny.ecap"
    assert main(["gen-data", *tiny_args(), "--out", str(ecap)]) == 0
    for name, data_args in (("file", ["--data", str(ecap)]), ("generated", [])):
        argv = ["train", *tiny_args("max_epochs=1"), *data_args, "--run-dir", str(tmp_path / name)]
        assert main(argv) == 0
    digest = hashlib.sha256(ecap.read_bytes()).hexdigest()
    assert f"[data]\nsha256={digest}\n[seed]\n" in (tmp_path / "file" / "record.txt").read_text()
    assert "[data]" not in (tmp_path / "generated" / "record.txt").read_text()


def test_cli_train_eval_round_trip(tmp_path, capsys):
    ecap = tmp_path / "tiny.ecap"
    run_dir = tmp_path / "run"
    assert main(["gen-data", *tiny_args(), "--out", str(ecap)]) == 0
    assert main(["train", *tiny_args(), "--data", str(ecap), "--run-dir", str(run_dir)]) == 0
    train_out = capsys.readouterr().out
    assert "--- val ---" in train_out and "accuracy=" in train_out

    for name in ("record.txt", "config.txt", "metrics.csv", "confusion.txt", "model.npz"):
        assert (run_dir / name).is_file(), name
    record_text = (run_dir / "record.txt").read_text()
    for marker in ("[config]", "[seed]", "[epochs]", "[metrics test]", "[timings]"):
        assert marker in record_text
    # the stored config must itself be a valid config file
    stored = resolve(parse_config_file(run_dir / "config.txt"))
    assert stored["n_samples"] == 32 and stored["hidden_dim"] == 16
    csv_lines = (run_dir / "metrics.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "metric,value,seed"
    assert any(line.startswith("test.") for line in csv_lines[1:])

    assert main(["eval", "--run-dir", str(run_dir), "--data", str(ecap)]) == 0
    eval_out = capsys.readouterr().out
    assert "accuracy=" in eval_out
    assert "pred_1" in eval_out and "true_0" in eval_out


def test_cli_config_file_and_set_precedence(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("\n".join(TINY_SETTINGS) + "\nn_samples=16\n")
    out = tmp_path / "byfile.ecap"
    assert main(["gen-data", "--config", str(cfg_file), "--set", "n_samples=24", "--out", str(out)]) == 0
    assert len(data.load(out)) == 24


def test_cli_gradcheck_reports_every_probe(capsys):
    assert main(["gradcheck", "--seed", "7"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    total = len(lines) - 1
    assert lines[-1] == f"{total}/{total} gradient checks passed"
    assert total >= 30
    assert all(line.startswith("[PASS]") for line in lines[:-1])


def test_cli_bench_routing_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench-routing",
            "--shapes", "8,2,4;16,2,4",
            "--iterations", "1,2",
            "--repeats", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("method,n_in,n_out,d_out,iterations,")
    # per shape: one dynamic row per r value plus a single attention row
    assert len(lines) == 1 + 2 * 3
    attention_rows = [l for l in lines[1:] if l.startswith("attention,8,")]
    assert len(attention_rows) == 1
    assert attention_rows[0].split(",")[4] == "1"


def test_cli_sweep_lambda_emits_table(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    args = ["sweep-lambda", *tiny_args("max_epochs=1"), "--grid", "0.05", "--out", str(out)]
    assert main(args) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "lambda,accuracy,f1,roc_auc,pr_auc"
    assert len(lines) == 2
    assert lines[1].startswith("0.05,")


@pytest.mark.parametrize("grid", ["0.1,x", "", "nan", "0.1,inf", "-0.5"])
def test_cli_sweep_lambda_rejects_bad_grid(tmp_path, capsys, grid):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-lambda", *tiny_args(), "--grid", grid, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--grid" in err
    assert not out.exists()


def test_cli_errors_exit_with_code_two(tmp_path, capsys):
    assert main(["gen-data", "--set", "bogus_key=1", "--out", str(tmp_path / "x.ecap")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["gen-data", "--set", "no-equals-sign", "--out", str(tmp_path / "x.ecap")]) == 2
    capsys.readouterr()
    assert main(["eval", "--run-dir", str(tmp_path / "nowhere"), "--data", "also-nowhere"]) == 2
    assert "config.txt" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-data", "eval-data", "config"])
def test_cli_missing_file_exits_with_code_two(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.file")
    run_dir = str(tmp_path / "run")
    if command == "train-data":
        argv = ["train", *tiny_args(), "--data", missing, "--run-dir", run_dir]
    elif command == "eval-data":
        assert main(["train", *tiny_args("max_epochs=1"), "--run-dir", run_dir]) == 0
        argv = ["eval", "--run-dir", run_dir, "--data", missing]
    else:
        argv = ["gen-data", "--config", missing, "--out", str(tmp_path / "x.ecap")]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "missing.file" in err


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    ecap, run_dir = root / "tiny.ecap", root / "run"
    assert main(["gen-data", *tiny_args(), "--out", str(ecap)]) == 0
    assert main(["train", *tiny_args("max_epochs=1"), "--data", str(ecap), "--run-dir", str(run_dir)]) == 0
    return ecap, run_dir


def _zero_inside_first_member(blob: bytes) -> bytes:
    # A zip local header is 30 bytes plus the member's name and extra field;
    # zeroing past the .npy header leaves the member readable but its CRC-32 wrong.
    name_len, extra_len = struct.unpack("<HH", blob[26:30])
    start = 30 + name_len + extra_len + 200
    return blob[:start] + bytes(60) + blob[start + 60:]


_CHECKPOINT_DAMAGE = {
    "empty": lambda blob: b"",
    "truncated": lambda blob: blob[:100],
    "garbage": lambda blob: b"garbage",
    "zeroed-member": _zero_inside_first_member,
}


@pytest.mark.parametrize("damage", list(_CHECKPOINT_DAMAGE))
def test_cli_eval_rejects_a_damaged_checkpoint(tmp_path, capsys, trained_run, damage):
    ecap, trained = trained_run
    run_dir = tmp_path / "run"
    shutil.copytree(trained, run_dir)
    checkpoint = run_dir / "model.npz"
    checkpoint.write_bytes(_CHECKPOINT_DAMAGE[damage](checkpoint.read_bytes()))
    capsys.readouterr()
    assert main(["eval", "--run-dir", str(run_dir), "--data", str(ecap)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "model.npz" in captured.err


def _out_of_range_values():
    """(key, raw) pairs that parse but lie out of range: -1 and 0 for every int key,
    -1.0 and 0.0 for every float key, in each entry of a tuple key."""
    for key, (default, _, _) in SCHEMA.items():
        entries = default if isinstance(default, tuple) else (default,)
        kind = type(entries[0])
        if kind in (bool, str):
            continue
        for value in (-1, 0):
            yield key, ",".join([str(kind(value))] * len(entries))


@pytest.mark.parametrize("key,raw", list(_out_of_range_values()))
def test_cli_eval_of_a_run_whose_config_is_out_of_range_names_the_key_or_ignores_it(
    tmp_path, capsys, trained_run, key, raw
):
    # eval reads the whole config.txt but builds only the model from it, so a
    # value it never uses may pass; one it uses must fail as `error:` naming the key.
    ecap, trained = trained_run
    run_dir = tmp_path / "run"
    shutil.copytree(trained, run_dir)
    config = run_dir / "config.txt"
    config.write_text(re.sub(rf"^{key}=.*$", f"{key}={raw}", config.read_text(), flags=re.MULTILINE))
    capsys.readouterr()
    code = main(["eval", "--run-dir", str(run_dir), "--data", str(ecap)])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert code == 0 or (err.startswith("error:") and re.search(rf"\b{key}\b", err)), err


@pytest.mark.parametrize("command", ["train-config", "eval-run-config"])
def test_cli_rejects_a_config_file_that_is_not_utf8(tmp_path, capsys, monkeypatch, command):
    for owner in (data, experiment):
        _forbid(monkeypatch, owner, "generate", "load")
    bad = b"\xff\xfe" + "lr=0.01\n".encode("utf-16-le")
    if command == "train-config":
        path = tmp_path / "exp.cfg"
        argv = ["train", "--config", str(path), "--run-dir", str(tmp_path / "run")]
    else:
        path = tmp_path / "old-run" / "config.txt"
        path.parent.mkdir()
        argv = ["eval", "--run-dir", str(path.parent), "--data", str(tmp_path / "never-read.ecap")]
    path.write_bytes(bad)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and "byte offset 0" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("shifted", [False, True], ids=["pooled", "rotation-shift"])
def test_cli_sweep_lambda_rejects_a_zero_test_share_before_any_data_work(
    tmp_path, capsys, monkeypatch, shifted
):
    _forbid(monkeypatch, experiment, "generate", "train")
    out = tmp_path / "sweep.csv"
    settings = tiny_args("split_fractions=0.8,0.2,0", f"rotation_shift_test={str(shifted).lower()}")
    assert main(["sweep-lambda", *settings, "--grid", "0.05", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "split_fractions" in err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["lr=-0.01", "routing_iterations=0", "max_epochs=0", "m_minus=0.95"])
def test_cli_sweep_lambda_rejects_out_of_range_values_before_any_data_work(
    tmp_path, capsys, monkeypatch, bad
):
    _forbid(monkeypatch, experiment, "generate", "train")
    out = tmp_path / "sweep.csv"
    assert main(["sweep-lambda", *tiny_args(bad), "--grid", "0.05", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and bad.split("=")[0] in err
    assert not out.exists()


def test_sweep_lambda_builds_one_model_before_any_data_work(monkeypatch):
    # Only lambda_reg varies across the grid, so the first point's model checks the
    # geometry of every point; each later point needs only its loss weighting checked.
    built = []
    build_model = experiment.build_model
    monkeypatch.setattr(experiment, "build_model", lambda *a, **kw: built.append(a) or build_model(*a, **kw))

    def prepare_splits(cfg):
        raise LookupError(f"data work after {len(built)} model builds")

    monkeypatch.setattr(experiment, "prepare_splits", prepare_splits)
    cfg = resolve(dict(item.split("=") for item in TINY_SETTINGS))
    with pytest.raises(LookupError, match="after 1 model builds"):
        experiment.sweep_lambda(cfg, experiment.DEFAULT_LAMBDA_GRID)


def test_sweep_lambda_rejects_a_later_points_value_before_any_data_work(monkeypatch):
    _forbid(monkeypatch, experiment, "prepare_splits")
    cfg = resolve(dict(item.split("=") for item in TINY_SETTINGS))
    with pytest.raises(ConfigurationError, match="lambda_reg"):
        experiment.sweep_lambda(cfg, (0.05, 0.1, -1.0))


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--shapes", "8,2,x"),
        ("--iterations", "1,x"),
        ("--shapes", "0,2,4"),
        ("--shapes", "8,0,4"),
        ("--repeats", "0"),
    ],
)
def test_cli_bench_routing_rejects_bad_values(capsys, flag, value):
    assert main(["bench-routing", "--repeats", "1", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and (flag in err or "votes" in err)


def _forbid(monkeypatch, owner, *names):
    for name in names:
        def reached(*args, _name=f"{owner.__name__}.{name}", **kwargs):
            raise AssertionError(f"reached {_name}")

        monkeypatch.setattr(owner, name, reached)


def test_run_experiment_rejects_an_infinite_lr_before_any_data_work(monkeypatch):
    # The command line rejects inf when parsing; a config dict reaches run_experiment as is.
    _forbid(monkeypatch, experiment, "generate", "load")
    with pytest.raises(ConfigurationError, match="finite lr"):
        experiment.run_experiment({**resolve(), "lr": float("inf")})


# train() needs a non-empty train and validation split; data.split alone accepts zero shares.
_ZERO_SHARES = ["split_fractions=0,0,1", "split_fractions=0.9,0,0.1"]


@pytest.mark.parametrize("with_data", [False, True], ids=["generated", "data-file"])
@pytest.mark.parametrize(
    "bad",
    ["lr=-0.01", "routing_iterations=0", "routing_method=foo", "attention_softmax_axis=rows",
     "max_epochs=0", "split_fractions=0.5,0.5,0.5", "m_minus=0.95", "lambda_reg=-1",
     "positive_class=2", "n_classes=3", "seed=-1", "split_seed=-1", "decoder_hidden=0,5",
     "d_primary=5", "conv_kernel=11", *_ZERO_SHARES],
)
def test_cli_train_rejects_out_of_range_values_before_any_data_work(
    tmp_path, capsys, monkeypatch, bad, with_data
):
    _assert_train_rejects_before_any_data_work(tmp_path, capsys, monkeypatch, [bad], with_data,
                                               bad.split("=")[0])


@pytest.mark.parametrize("with_data", [False, True], ids=["generated", "data-file"])
@pytest.mark.parametrize("architecture, kernel", [("cnn1", 6), ("cnn2", 30)])
def test_cli_train_rejects_a_cnn_kernel_that_does_not_fit_before_any_data_work(
    tmp_path, capsys, monkeypatch, architecture, kernel, with_data
):
    # On 20x20, cnn1's 6x6 stem leaves an odd 15x15 map to pool; cnn2's 30x30 leaves none.
    settings = [f"architecture={architecture}", f"conv_kernel={kernel}"]
    _assert_train_rejects_before_any_data_work(tmp_path, capsys, monkeypatch, settings, with_data,
                                               "conv_kernel")


def _assert_train_rejects_before_any_data_work(tmp_path, capsys, monkeypatch, settings, with_data,
                                               key):
    for owner in (data, experiment):
        _forbid(monkeypatch, owner, "generate", "load")
    data_args = ["--data", str(tmp_path / "never-read.ecap")] if with_data else []
    argv = ["train", *tiny_args(*settings), *data_args, "--run-dir", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "bad",
    ["positive_ratio=1.5", "data_seed=-1", "n_samples=0", "n_samples=-1", "image_size=2,32,32",
     "width_normal=-1,9"],
)
def test_cli_train_rejects_a_bad_generator_value_before_generating(tmp_path, capsys, monkeypatch, bad):
    _forbid(monkeypatch, data, "generate")
    _forbid(monkeypatch, experiment, "generate")
    argv = ["train", *tiny_args(bad), "--run-dir", str(tmp_path / "run")]
    assert main(argv) == 2
    assert bad.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_train_and_eval_on_a_data_file_ignore_the_generator_settings(tmp_path, capsys):
    # At 20x20 the default chamber widths cannot be rendered, so only the
    # narrow tiny widths make this file; a run on it never renders anything.
    ecap = _tiny_ecap(tmp_path, "1,20,20")
    default_widths = [s for s in TINY_SETTINGS if not s.startswith(("width_", "translation_range"))]
    run_args = [item for s in default_widths for item in ("--set", s)]
    with pytest.raises(ConfigurationError, match="cannot fit"):
        build(SynthConfig, resolve(overrides=dict(s.split("=", 1) for s in default_widths)))
    run_dir = tmp_path / "run"
    assert main(["train", *run_args, "--data", str(ecap), "--run-dir", str(run_dir)]) == 0
    assert main(["eval", "--run-dir", str(run_dir), "--data", str(ecap)]) == 0
    assert "accuracy=" in capsys.readouterr().out


def _tiny_ecap(tmp_path, image_size):
    path = tmp_path / f"tiny-{image_size.replace(',', 'x')}.ecap"
    assert main(["gen-data", *tiny_args(f"image_size={image_size}"), "--out", str(path)]) == 0
    return path


def test_cli_train_rejects_a_data_file_of_another_image_shape(tmp_path, capsys, monkeypatch):
    ecap = _tiny_ecap(tmp_path, "1,24,24")
    _forbid(monkeypatch, experiment, "train")
    capsys.readouterr()
    argv = ["train", *tiny_args(), "--data", str(ecap), "--run-dir", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "1x24x24" in err and "1x20x20" in err


def test_cli_eval_rejects_a_data_file_of_another_image_shape(tmp_path, capsys, monkeypatch):
    # Constant votes and routing run at any image size, so without the
    # check this run scores 24x24 images with its 20x20 weights and exits 0.
    run_dir = tmp_path / "run"
    constant_run = tiny_args("affine_kind=constant", "routing_method=dynamic", "max_epochs=1")
    assert main(["train", *constant_run, "--run-dir", str(run_dir)]) == 0
    ecap = _tiny_ecap(tmp_path, "1,24,24")
    _forbid(monkeypatch, experiment, "build_model")
    capsys.readouterr()
    assert main(["eval", "--run-dir", str(run_dir), "--data", str(ecap)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "1x24x24" in captured.err and "1x20x20" in captured.err


@pytest.mark.parametrize("removed", ["n_classes=2", "positive_class=1"])
def test_cli_eval_rejects_a_run_directory_naming_a_removed_key(tmp_path, capsys, removed):
    # Runs saved before labels were fixed to binary name these keys in config.txt.
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "config.txt").write_text(default_config_text() + removed + "\n", encoding="utf-8")
    assert main(["eval", "--run-dir", str(run_dir), "--data", str(tmp_path / "never-read.ecap")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown configuration key" in err
    assert removed.split("=")[0] in err


def test_cli_train_rejects_rotation_shift_test_with_a_data_file(tmp_path, capsys, monkeypatch):
    ecap = _tiny_ecap(tmp_path, "1,20,20")
    _forbid(monkeypatch, experiment, "train")
    capsys.readouterr()
    argv = ["train", *tiny_args("rotation_shift_test=true"), "--data", str(ecap),
            "--run-dir", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "rotation_shift_test" in err


def test_cli_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "capsroute", "gradcheck", "--seed", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "gradient checks passed" in proc.stdout
