"""Model assembly, the training loop, checkpointing, and run records."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import capsroute
from capsroute import (
    ConfigurationError,
    EchoDataset,
    MarginLossParams,
    MetricsReport,
    ModelConfig,
    RoutingSpec,
    SynthConfig,
    Tensor,
    TrainConfig,
    WeightedLossParams,
    build_model,
    classify,
    evaluate,
    generate,
    load_params,
    parameter_count,
    save_params,
    split,
    train,
    validation_loss,
)
from capsroute.experiment import lambda_table
from capsroute.tensor import vector_norm
from capsroute.training import EpochStats, ExperimentRecord

TINY_SYNTH = SynthConfig(
    n_samples=32,
    image_size=(1, 20, 20),
    positive_ratio=0.5,
    width_normal=(3.0, 3.0),
    width_dilated=(5.0, 5.0),
    translation_range=0.0,
    noise_sigma=0.02,
    seed=5,
)


def tiny_model(seed=3, **overrides):
    cfg = ModelConfig(**{"hidden_dim": 16, **overrides})
    return build_model(
        cfg,
        image_size=(1, 20, 20),
        margin=MarginLossParams(),
        weighted=WeightedLossParams(class_proportions=(0.5, 0.5)),
        seed=seed,
    )


def tiny_splits():
    data = generate(TINY_SYNTH)
    return split(data, (0.75, 0.125, 0.125), seed=5)


# --------------------------------------------------------------- model assembly


def test_capsule_model_output_shapes():
    model = tiny_model()
    images = Tensor(np.zeros((3, 1, 20, 20)))
    v = model.digit_caps(images)
    assert v.shape == (3, 2, 16)
    assert vector_norm(v).shape == (3, 2)
    assert model.reg_head(v).shape == (3,)
    assert model.decoder(v).shape == (3, 400)
    preds, scores = model.predict(images)
    assert preds.shape == (3,) and scores.shape == (3,)
    assert np.all((preds == 0) | (preds == 1))


CAPSULE_VARIANTS = pytest.mark.parametrize(
    "overrides",
    [{}, {"affine_kind": "conv", "routing": RoutingSpec(method="dynamic")}],
    ids=["attention-shared", "dynamic-conv"],
)


@CAPSULE_VARIANTS
def test_capsule_predict_reads_only_the_digit_capsules(overrides):
    model = tiny_model(**overrides)
    images = Tensor(np.random.default_rng(4).uniform(size=(5, 1, 20, 20)))
    want_preds, want_scores = classify(model.digit_caps(images))

    def training_only_head(_):
        raise AssertionError("predict ran a head that only shapes training")

    model.decoder = model.reg_head = training_only_head
    preds, scores = model.predict(images)
    assert_array_equal(preds, want_preds)
    assert_array_equal(scores, want_scores)


@CAPSULE_VARIANTS
def test_training_step_leaves_gradients_on_parameters_only(overrides):
    model = tiny_model(**overrides)
    images = Tensor(np.random.default_rng(5).uniform(size=(4, 1, 20, 20)))
    loss, _ = model.training_loss(images, np.array([0, 1, 0, 1]), np.full(4, 0.5))
    loss.backward()
    graph = loss._topological_order()
    ops = [node for node in graph if node._backward_rule is not None]
    assert ops and all(node.grad is None for node in ops)
    params = dict(model.parameters())
    leaves = {id(node) for node in graph if node.requires_grad and node._backward_rule is None}
    assert leaves == {id(p) for p in params.values()}
    for name, p in params.items():
        assert p.grad.shape == p.data.shape and np.all(np.isfinite(p.grad)), name
        assert np.any(p.grad != 0.0), name


def test_capsule_grid_matches_conv_arithmetic():
    # 20 -> conv9 -> 12 -> primary conv9 stride2 -> grid 2x2, two capsules per cell
    model = tiny_model()
    assert model.grid == (2, 2)
    assert model.affine.weight.shape[0] == 2 * 2 * 2


def test_constant_affine_has_fewer_parameters_than_shared():
    shared = tiny_model(affine_kind="shared")
    constant = tiny_model(affine_kind="constant")
    conv = tiny_model(affine_kind="conv")
    assert parameter_count(constant) < parameter_count(shared)
    assert parameter_count(conv) > parameter_count(constant)
    vote_params = [n for n, _ in constant.parameters() if n.startswith("votes.")]
    assert vote_params == []


CAPSULE_HEAD = ["conv.weight", "conv.bias", "primary.weight", "primary.bias"]
CAPSULE_TAIL = [
    "decoder.fc1.weight", "decoder.fc1.bias",
    "decoder.fc2.weight", "decoder.fc2.bias",
    "decoder.fc3.weight", "decoder.fc3.bias",
    "regression.weight", "regression.bias",
]


@pytest.mark.parametrize(
    "overrides, names",
    [
        ({}, CAPSULE_HEAD + ["votes.weight", "routing.weight", "routing.bias"] + CAPSULE_TAIL),
        (
            {"affine_kind": "conv", "routing": RoutingSpec(method="dynamic")},
            CAPSULE_HEAD + ["votes.weight", "votes.bias"] + CAPSULE_TAIL,
        ),
        ({"affine_kind": "constant"}, CAPSULE_HEAD + ["routing.weight", "routing.bias"] + CAPSULE_TAIL),
        (
            {"architecture": "cnn1"},
            ["conv1.weight", "conv1.bias", "conv2.weight", "conv2.bias", "fc.weight", "fc.bias"],
        ),
    ],
    ids=["attention-shared", "dynamic-conv", "constant", "cnn1"],
)
def test_parameter_names_are_the_checkpoint_keys(overrides, names):
    # save_params keys model.npz by these names; renaming one orphans every saved run.
    assert [name for name, _ in tiny_model(**overrides).parameters()] == names


def tiny_model_with_image(image_size, **overrides):
    cfg = ModelConfig(**{"hidden_dim": 16, **overrides})
    return build_model(
        cfg, image_size, MarginLossParams(), WeightedLossParams(), seed=3
    )


def test_model_rejects_images_too_small_for_grid():
    with pytest.raises(ConfigurationError) as err:
        tiny_model_with_image((1, 12, 12))
    assert "4x4" in str(err.value)


def test_cnn_variants_forward_and_predict():
    for arch in ("cnn1", "cnn2"):
        model = tiny_model_with_image((1, 20, 20), architecture=arch)
        images = Tensor(np.zeros((4, 1, 20, 20)))
        logits = model.forward(images)
        assert logits.shape == (4, 2)
        preds, scores = model.predict(images)
        assert preds.shape == (4,)
        assert np.all((0.0 <= scores) & (scores <= 1.0))
        loss, parts = model.training_loss(
            images, np.array([0, 1, 0, 1]), np.zeros(4)
        )
        assert loss.shape == ()
        assert parts["regression"] == 0.0 and parts["reconstruction"] == 0.0
        assert parts["total"] == parts["classification"]


def test_cnn_reports_spatial_trace_on_bad_geometry():
    with pytest.raises(ConfigurationError) as err:
        tiny_model_with_image((1, 23, 23), architecture="cnn1")
    assert "even extents" in str(err.value)
    assert "23x23" in str(err.value)


# ------------------------------------------------------------------ train loop


class _SlopeModel:
    """Stub whose loss is +p on label-1 batches and -p on label-0 batches.

    Training on all-ones labels drives p down, so an all-zeros validation
    set sees a strictly worsening loss every epoch.
    """

    def __init__(self):
        self.p = Tensor(np.zeros(1), requires_grad=True)

    def parameters(self):
        return [("slope.p", self.p)]

    def training_loss(self, images, labels, reg_targets):
        loss = self.p.sum() if labels[0] == 1 else (-self.p).sum()
        value = loss.item()
        return loss, {
            "total": value,
            "classification": value,
            "regression": 0.0,
            "reconstruction": 0.0,
        }


def constant_dataset(label: int, n: int = 2) -> EchoDataset:
    return EchoDataset(
        np.zeros((n, 1, 4, 4), dtype=np.float32),
        np.full(n, label, dtype=np.uint8),
        np.zeros(n, dtype=np.float32),
    )


def test_patience_stops_after_strictly_worsening_validation():
    model = _SlopeModel()
    tc = TrainConfig(lr=0.05, batch_size=2, max_epochs=10, patience=1, seed=0)
    record = train(model, constant_dataset(1), constant_dataset(0), tc)
    # epoch 1 sets the best value; epoch 2 worsens it and exhausts patience=1
    assert len(record.epochs) == 2
    assert record.best_epoch == 1
    vals = [e.val_total for e in record.epochs]
    assert vals[1] > vals[0]
    # parameters roll back to the epoch-1 snapshot
    assert validation_loss(model, constant_dataset(0), tc.batch_size) == vals[0]


def test_patience_budget_counts_consecutive_bad_epochs():
    model = _SlopeModel()
    tc = TrainConfig(lr=0.05, batch_size=2, max_epochs=10, patience=3, seed=0)
    record = train(model, constant_dataset(1), constant_dataset(0), tc)
    assert len(record.epochs) == 4  # 1 best + 3 bad
    assert record.best_epoch == 1


def test_train_restores_best_epoch_parameters():
    train_set, val_set, _ = tiny_splits()
    model = tiny_model()
    tc = TrainConfig(lr=3e-3, batch_size=8, max_epochs=3, patience=3, seed=7)
    record = train(model, train_set, val_set, tc)
    assert 1 <= record.best_epoch <= len(record.epochs)
    best = record.epochs[record.best_epoch - 1].val_total
    assert min(e.val_total for e in record.epochs) == best
    assert validation_loss(model, val_set, tc.batch_size) == best
    assert "train_seconds" in record.timings


def test_train_loss_decreases_on_tiny_problem():
    train_set, val_set, _ = tiny_splits()
    model = tiny_model()
    tc = TrainConfig(lr=3e-3, batch_size=8, max_epochs=4, patience=4, seed=7)
    record = train(model, train_set, val_set, tc)
    assert record.epochs[-1].train_total < record.epochs[0].train_total


def test_identical_runs_produce_identical_records_and_parameters():
    train_set, val_set, _ = tiny_splits()
    tc = TrainConfig(lr=3e-3, batch_size=8, max_epochs=2, patience=2, seed=11)
    snapshot = {"architecture": "cardiocaps", "seed": "11"}

    def run():
        model = tiny_model(seed=11)
        record = train(model, train_set, val_set, tc, config_snapshot=snapshot)
        record.metrics["val"] = evaluate(model, val_set)
        return model, record

    model_a, rec_a = run()
    model_b, rec_b = run()
    assert rec_a.canonical_text() == rec_b.canonical_text()
    assert rec_a.metric_csv() == rec_b.metric_csv()
    for (name, pa), (_, pb) in zip(model_a.parameters(), model_b.parameters()):
        assert np.array_equal(pa.data, pb.data), name


def _run_in_process(script: str, threads: int, *args: str) -> str:
    """Run ``script`` in a fresh interpreter at ``threads`` BLAS threads; return its stdout."""
    src = str(Path(capsroute.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return done.stdout


# Trains cardiocaps with attention routing and shared votes, then with dynamic
# routing and convolutional votes, and prints both canonical records.
_CROSS_PROCESS_RUN = """
from capsroute import (MarginLossParams, ModelConfig, RoutingSpec, SynthConfig,
                       TrainConfig, WeightedLossParams, build_model, evaluate,
                       generate, split, train)
data = generate(SynthConfig(n_samples=32, image_size=(1, 32, 32), positive_ratio=0.5, seed=5))
train_set, val_set, _ = split(data, (0.75, 0.125, 0.125), seed=5)
for cfg in (ModelConfig(), ModelConfig(affine_kind="conv", routing=RoutingSpec("dynamic"))):
    model = build_model(cfg, (1, 32, 32), MarginLossParams(),
                        WeightedLossParams(class_proportions=(0.5, 0.5)), seed=11)
    record = train(model, train_set, val_set,
                   TrainConfig(lr=3e-3, batch_size=8, max_epochs=2, patience=2, seed=11))
    record.metrics["val"] = evaluate(model, val_set)
    print(record.canonical_text())
"""


def test_records_are_identical_across_processes_and_blas_threads():
    one_thread, two_threads = (_run_in_process(_CROSS_PROCESS_RUN, t) for t in (1, 2))
    assert one_thread.count("[epochs]") == 2  # both records were printed
    assert one_thread == two_threads


# The same training settings for the two models whose BLAS GEMMs split their
# sums by thread count: cnn2 on 3-channel images, and cardiocaps at
# hidden_dim=16 (16 primary-capsule output channels). Prints both canonical
# records and saves every parameter to the .npz path in argv[1].
_THREAD_SENSITIVE_RUN = """
import sys
import numpy as np
from capsroute import (MarginLossParams, ModelConfig, SynthConfig, TrainConfig,
                       WeightedLossParams, build_model, evaluate, generate, split, train)
params = {}
for name, cfg, channels in (("cnn2", ModelConfig(architecture="cnn2"), 3),
                            ("cardiocaps16", ModelConfig(hidden_dim=16), 1)):
    image_size = (channels, 32, 32)
    data = generate(SynthConfig(n_samples=32, image_size=image_size, positive_ratio=0.5, seed=5))
    train_set, val_set, _ = split(data, (0.75, 0.125, 0.125), seed=5)
    model = build_model(cfg, image_size, MarginLossParams(),
                        WeightedLossParams(class_proportions=(0.5, 0.5)), seed=11)
    record = train(model, train_set, val_set,
                   TrainConfig(lr=3e-3, batch_size=8, max_epochs=2, patience=2, seed=11))
    record.metrics["val"] = evaluate(model, val_set)
    print(record.canonical_text())
    params.update({f"{name}.{key}": p.data for key, p in model.parameters()})
np.savez(sys.argv[1], **params)
"""


def test_thread_sensitive_models_are_identical_per_thread_count_and_close_across(tmp_path):
    params = {}
    for threads in (1, 2):
        paths = [tmp_path / f"threads{threads}-run{k}.npz" for k in (0, 1)]
        first, second = (_run_in_process(_THREAD_SENSITIVE_RUN, threads, str(p)) for p in paths)
        assert first.count("[epochs]") == 2  # both records were printed
        assert first == second
        with np.load(paths[0]) as a, np.load(paths[1]) as b:
            assert a.files == b.files
            for name in a.files:
                assert_array_equal(a[name], b[name], err_msg=name)
            params[threads] = dict(a)
    # Across thread counts the GEMMs add in another order: close, not identical.
    for name, one_thread in params[1].items():
        assert_allclose(params[2][name], one_thread, rtol=0, atol=1e-9, err_msg=name)


@pytest.mark.parametrize(
    "field, value",
    [("lr", 0.0), ("lr", -0.01), ("lr", float("nan")), ("seed", -1)],
)
def test_train_config_rejects_values_outside_their_range(field, value):
    with pytest.raises(ConfigurationError, match=field):
        TrainConfig(**{field: value})


def test_train_rejects_empty_splits():
    empty = EchoDataset(
        np.zeros((0, 1, 4, 4), dtype=np.float32),
        np.zeros(0, dtype=np.uint8),
        np.zeros(0, dtype=np.float32),
    )
    with pytest.raises(ConfigurationError):
        train(_SlopeModel(), empty, constant_dataset(0), TrainConfig())
    with pytest.raises(ConfigurationError):
        train(_SlopeModel(), constant_dataset(1), empty, TrainConfig())


# ------------------------------------------------------------------- evaluation


def test_evaluate_produces_consistent_report():
    train_set, _, _ = tiny_splits()
    model = tiny_model()
    report = evaluate(model, train_set)
    assert isinstance(report, MetricsReport)
    counts = report.tp + report.tn + report.fp + report.fn
    assert counts == len(train_set)
    assert 0.0 <= report.accuracy <= 1.0


def test_evaluate_rejects_empty_dataset():
    empty = EchoDataset(
        np.zeros((0, 1, 4, 4), dtype=np.float32),
        np.zeros(0, dtype=np.uint8),
        np.zeros(0, dtype=np.float32),
    )
    with pytest.raises(ConfigurationError):
        evaluate(tiny_model(), empty)


# ---------------------------------------------------------------- checkpointing


def test_save_load_round_trip_restores_predictions(tmp_path):
    train_set, _, _ = tiny_splits()
    images = Tensor(train_set.images[:4].astype(np.float64))
    source = tiny_model(seed=3)
    clone = tiny_model(seed=4)
    preds_src, scores_src = source.predict(images)
    _, scores_clone = clone.predict(images)
    assert not np.array_equal(scores_src, scores_clone)

    path = tmp_path / "model.npz"
    save_params(source, path)
    load_params(clone, path)
    preds_after, scores_after = clone.predict(images)
    assert np.array_equal(preds_src, preds_after)
    assert np.array_equal(scores_src, scores_after)


def test_load_rejects_missing_parameter(tmp_path):
    model = tiny_model()
    stored = {name: p.data for name, p in model.parameters()}
    stored.pop("conv.bias")
    path = tmp_path / "partial.npz"
    np.savez(path, **stored)
    with pytest.raises(ConfigurationError) as err:
        load_params(model, path)
    assert "conv.bias" in str(err.value)


def test_load_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "wide.npz"
    save_params(tiny_model(hidden_dim=24), path)
    with pytest.raises(ConfigurationError) as err:
        load_params(tiny_model(hidden_dim=16), path)
    assert "shape" in str(err.value)


def test_load_rejects_unknown_parameter(tmp_path):
    model = tiny_model()
    stored = {name: p.data for name, p in model.parameters()}
    stored["rogue.weight"] = np.zeros(3)
    path = tmp_path / "extra.npz"
    np.savez(path, **stored)
    with pytest.raises(ConfigurationError) as err:
        load_params(model, path)
    assert "rogue.weight" in str(err.value)


def test_load_rejects_non_finite_parameter(tmp_path):
    model = tiny_model()
    stored = {name: p.data + 1.0 for name, p in model.parameters()}
    names = list(stored)
    stored[names[2]].flat[5] = np.nan
    stored[names[-1]].flat[0] = np.inf  # a later damaged parameter is not the one named
    path = tmp_path / "nan.npz"
    np.savez(path, **stored)
    before = [p.data.copy() for _, p in model.parameters()]
    with pytest.raises(ConfigurationError) as err:
        load_params(model, path)
    assert names[2] in str(err.value)
    assert names[-1] not in str(err.value)
    # a rejected checkpoint leaves every parameter as it was
    assert all(np.array_equal(b, p.data) for b, (_, p) in zip(before, model.parameters()))


# ------------------------------------------------------------------ run records


def sample_record() -> ExperimentRecord:
    record = ExperimentRecord(config={"architecture": "cardiocaps", "lr": "0.001"}, seed=10)
    record.epochs.append(
        EpochStats(
            epoch=1,
            train_total=0.5,
            train_classification=0.4,
            train_regression=0.05,
            train_reconstruction=0.05,
            val_total=0.6,
        )
    )
    record.best_epoch = 1
    record.metrics["test"] = MetricsReport.from_predictions(
        np.array([1, 0, 1, 0]), np.array([0.9, 0.2, 0.8, 0.4]), np.array([1, 0, 0, 1])
    )
    record.timings["train_seconds"] = 12.5
    return record


def test_record_text_has_all_sections_in_order():
    text = sample_record().to_text()
    markers = ["[config]", "[seed]", "[epochs]", "[metrics test]", "[timings]"]
    positions = [text.index(m) for m in markers]
    assert positions == sorted(positions)
    assert "architecture=cardiocaps" in text
    assert "lr=0.001" in text
    assert "seed=10" in text
    assert "best_epoch=1" in text
    assert "train_seconds=12.500000" in text
    header = "epoch,train_total,train_classification,train_regression,train_reconstruction,val_total"
    assert header in text
    assert "1,0.5,0.4,0.05,0.05,0.6" in text


def test_canonical_text_drops_only_timings():
    record = sample_record()
    canonical = record.canonical_text()
    assert "[timings]" not in canonical
    assert "train_seconds" not in canonical
    assert canonical == record.to_text().split("[timings]")[0]
    changed = sample_record()
    changed.timings["train_seconds"] = 99.0
    assert changed.canonical_text() == canonical


def test_metric_csv_prefixes_rows_with_split():
    csv = sample_record().metric_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "metric,value,seed"
    assert all(line.startswith("test.") for line in lines[1:])
    assert all(line.endswith(",10") for line in lines[1:])
    assert any(line.startswith("test.accuracy,") for line in lines[1:])


def test_record_text_is_pinned_byte_for_byte():
    assert sample_record().to_text() == (
        "[config]\narchitecture=cardiocaps\nlr=0.001\n[seed]\nseed=10\n[epochs]\n"
        "epoch,train_total,train_classification,train_regression,train_reconstruction,val_total\n"
        "1,0.5,0.4,0.05,0.05,0.6\nbest_epoch=1\n[metrics test]\n"
        "accuracy=0.5\nf1=0.5\nroc_auc=0.75\npr_auc=0.8333333333333333\n"
        "tp=1\nfp=1\ntn=1\nfn=1\nn_samples=4\n[timings]\ntrain_seconds=12.500000\n"
    )


def test_metric_csv_is_pinned_byte_for_byte():
    assert sample_record().metric_csv() == (
        "metric,value,seed\ntest.accuracy,0.5,10\ntest.f1,0.5,10\ntest.roc_auc,0.75,10\n"
        "test.pr_auc,0.8333333333333333,10\ntest.tp,1,10\ntest.fp,1,10\ntest.tn,1,10\n"
        "test.fn,1,10\ntest.n_samples,4,10\n"
    )


def test_lambda_table_is_pinned_byte_for_byte():
    one_class = sample_record()
    one_class.metrics["test"] = MetricsReport.from_predictions(
        np.array([0, 1, 0]), np.array([0.1, 0.7, 0.3]), np.array([0, 0, 0])
    )
    table = lambda_table([(0.01, sample_record()), (0.5, one_class)])
    assert table == (
        "lambda,accuracy,f1,roc_auc,pr_auc\n"
        "0.01,0.5,0.5,0.75,0.8333333333333333\n"
        "0.5,0.6666666666666666,0.0,undefined,undefined\n"
    )
