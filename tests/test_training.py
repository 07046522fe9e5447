"""Model assembly, the training loop, checkpointing, and run records."""

import os
import subprocess
import sys
import tracemalloc
import weakref
import zipfile
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import capsroute
from capsroute import blas
from capsroute import (
    CapsrouteError,
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
from capsroute.tensor import no_grad, vector_norm
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


@pytest.mark.parametrize("seed,message", [(-1, "seed must be >= 0, got -1"),
                                          (1.5, "seed must be an integer, got 1.5")])
def test_build_model_rejects_a_seed_that_is_not_a_non_negative_integer(seed, message):
    with pytest.raises(ConfigurationError, match=message):
        tiny_model(seed=seed)


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
def test_predict_frees_the_stem_output_before_the_votes(overrides):
    # Without a graph nothing else holds the stem's activations, so once the
    # primary capsules are formed they must not outlive the call.
    model = tiny_model(**overrides)
    images = Tensor(np.random.default_rng(4).uniform(size=(5, 1, 20, 20)))
    primary, affine, stem = model.primary, model.affine, []

    def primary_noting_its_input(features):
        stem.append(weakref.ref(features.data))
        return primary(features)

    def affine_checking_the_stem_is_freed(bank):
        assert stem[0]() is None, "the stem's output is held through the votes"
        return affine(bank)

    model.primary, model.affine = primary_noting_its_input, affine_checking_the_stem_is_freed
    with no_grad():
        model.predict(images)
    assert len(stem) == 1


@CAPSULE_VARIANTS
def test_training_step_leaves_gradients_on_parameters_only(overrides):
    model = tiny_model(**overrides)
    images = Tensor(np.random.default_rng(5).uniform(size=(4, 1, 20, 20)))
    loss, _ = model.training_loss(images, np.array([0, 1, 0, 1]), np.full(4, 0.5))
    loss.backward()
    graph = loss._topological_order()
    ops = [node for node in graph if node._parents]
    assert ops and all(node.grad is None for node in ops)
    params = dict(model.parameters())
    leaves = {id(node) for node in graph if node.requires_grad and not node._parents}
    assert leaves == {id(p) for p in params.values()}
    for name, p in params.items():
        assert p.grad.shape == p.data.shape and np.all(np.isfinite(p.grad)), name
        assert np.any(p.grad != 0.0), name


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"routing": RoutingSpec(softmax_axis="output_caps", scale_by_sqrt_d=True)},
        {"routing": RoutingSpec(method="dynamic")},
        {"affine_kind": "conv"},
        {"affine_kind": "constant"},
        {"architecture": "cnn1"},
        {"architecture": "cnn2"},
    ],
    ids=["attention-input", "attention-output-scaled", "dynamic", "conv", "constant", "cnn1", "cnn2"],
)
def test_every_parameter_gets_a_gradient_above_rounding_noise(overrides):
    # A parameter the loss cannot see still collects ~1e-17 of rounding noise,
    # which a non-zero check passes and Adam then turns into real steps.
    model = tiny_model(**overrides)
    rng = np.random.default_rng(15)
    images = Tensor(rng.uniform(size=(4, 1, 20, 20)))
    loss, _ = model.training_loss(images, np.array([0, 1, 0, 1]), rng.uniform(size=4))
    loss.backward()
    largest = {name: float(np.abs(p.grad).max()) for name, p in model.parameters()}
    floor = 1e-12 * max(largest.values())
    assert [name for name, g in largest.items() if g < floor] == []


def test_building_the_default_model_holds_no_gradient_memory():
    # 983,121 parameters at 3x32x32; a gradient array waits for its first read.
    def build():
        return build_model(ModelConfig(), (3, 32, 32), MarginLossParams(),
                           WeightedLossParams(class_proportions=(0.5, 0.5)), seed=3)

    build()  # the first build's lazy imports are not the model's memory
    tracemalloc.start()
    try:
        model = build()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    param_bytes = sum(p.data.nbytes for _, p in model.parameters())
    assert param_bytes <= held <= 1.1 * param_bytes


def test_capsule_grid_matches_conv_arithmetic():
    # 20 -> conv9 -> 12 -> primary conv9 stride2 -> grid 2x2, two capsules per cell
    assert tiny_model(affine_kind="conv").affine.grid == (2, 2)
    model = tiny_model()
    assert model.primary(Tensor(np.zeros((1, 16, 12, 12)))).activations.shape == (1, 2 * 2 * 2, 8)
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
        ({}, CAPSULE_HEAD + ["votes.weight", "routing.weight"] + CAPSULE_TAIL),
        (
            {"affine_kind": "conv", "routing": RoutingSpec(method="dynamic")},
            CAPSULE_HEAD + ["votes.weight", "votes.bias"] + CAPSULE_TAIL,
        ),
        ({"affine_kind": "constant"}, CAPSULE_HEAD + ["routing.weight"] + CAPSULE_TAIL),
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


@pytest.mark.parametrize("architecture,affine_kind,key", [
    ("cnn1", "shared", "hidden_dim"), ("cnn2", "shared", "hidden_dim"),
    ("cardiocaps", "conv", "hidden_dim"), ("cardiocaps", "constant", "d_digit"),
])
def test_build_model_rejects_a_weight_numpy_cannot_index_naming_the_key(architecture, affine_kind, key):
    # Past numpy's limit nothing is allocated; a large width it can index would be.
    with pytest.raises(ConfigurationError, match=rf"set by .*\b{key}\b"):
        tiny_model(architecture=architecture, affine_kind=affine_kind, **{key: 2**70})


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
    data, grad = model.p.data, model.p.grad
    tc = TrainConfig(lr=0.05, batch_size=2, max_epochs=10, patience=1, seed=0)
    record = train(model, constant_dataset(1), constant_dataset(0), tc)
    # the restore after epoch 2's steps writes into the parameter's own arrays
    assert model.p.data is data and model.p.grad is grad
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
        record = train(model, train_set, val_set, tc)
        record.config = snapshot
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


# The same training settings for the two models whose GEMMs OpenBLAS splits
# by thread count, so that only training at one pinned BLAS thread keeps them
# identical: cnn2 on 3-channel images, and cardiocaps at hidden_dim=16 (16
# primary-capsule output channels). Prints both canonical records and saves
# every parameter to the .npz path in argv[1].
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


def test_thread_sensitive_models_are_identical_across_blas_thread_counts(tmp_path):
    records, params = [], []
    for threads in (1, 2, 1, 2):
        path = tmp_path / f"run{len(records)}-threads{threads}.npz"
        records.append(_run_in_process(_THREAD_SENSITIVE_RUN, threads, str(path)))
        with np.load(path) as saved:
            params.append(dict(saved))
    assert records[0].count("[epochs]") == 2  # both records were printed
    for record, saved in zip(records[1:], params[1:]):
        assert record == records[0]
        assert saved.keys() == params[0].keys()
        for name, value in saved.items():
            assert_array_equal(value, params[0][name], err_msg=name)


class _ThreadProbe:
    """A model whose losses and predictions record the BLAS thread count they ran at."""

    def __init__(self, model, get_threads):
        self.model, self.get_threads, self.seen = model, get_threads, []

    def parameters(self):
        return self.model.parameters()

    def training_loss(self, *batch):
        self.seen.append(self.get_threads())
        return self.model.training_loss(*batch)

    def predict(self, images):
        self.seen.append(self.get_threads())
        return self.model.predict(images)


def test_training_and_evaluation_pin_one_blas_thread_and_restore_the_callers():
    lib = blas._openblas()
    if lib is None:
        pytest.skip("numpy's BLAS exports no thread-count functions")
    get_threads, set_threads = lib
    train_set, val_set, _ = tiny_splits()
    tc = TrainConfig(lr=3e-3, batch_size=8, max_epochs=1, patience=1, seed=11)
    prior = get_threads()
    set_threads(2)
    try:
        probe = _ThreadProbe(tiny_model(), get_threads)
        train(probe, train_set, val_set, tc)
        assert get_threads() == 2
        evaluate(probe, val_set)
        assert get_threads() == 2
        assert len(probe.seen) > 2 and set(probe.seen) == {1}

        def fail(*batch):
            raise FloatingPointError("loss diverged")

        probe.training_loss = fail
        with pytest.raises(FloatingPointError):
            train(probe, train_set, val_set, tc)
        assert get_threads() == 2
    finally:
        set_threads(prior)


def test_blas_pin_warns_and_does_nothing_without_thread_functions(monkeypatch):
    # An extension that links no BLAS exports neither function.
    with pytest.warns(UserWarning, match="not pinned"):
        assert blas._load(np.random._philox.__file__) is None
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    train_set, val_set, _ = tiny_splits()
    tc = TrainConfig(lr=3e-3, batch_size=8, max_epochs=1, patience=1, seed=11)
    assert len(train(tiny_model(), train_set, val_set, tc).epochs) == 1


@pytest.mark.parametrize(
    "field, value",
    [("lr", 0.0), ("lr", -0.01), ("lr", float("nan")), ("lr", float("inf")), ("seed", -1)],
)
def test_train_config_rejects_values_outside_their_range(field, value):
    with pytest.raises(ConfigurationError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("widths", [(6, 7, 9), (6,), ()])
def test_model_config_rejects_a_decoder_that_is_not_two_widths(widths):
    with pytest.raises(ConfigurationError, match="decoder_hidden must be two widths"):
        ModelConfig(decoder_hidden=widths)


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


def test_validation_loss_rejects_empty_dataset():
    empty = EchoDataset(
        np.zeros((0, 1, 20, 20), dtype=np.float32),
        np.zeros(0, dtype=np.uint8),
        np.zeros(0, dtype=np.float32),
    )
    with pytest.raises(ConfigurationError, match="non-empty"):
        validation_loss(tiny_model(), empty)


@pytest.mark.parametrize("fn", [evaluate, validation_loss])
@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluation_rejects_a_non_positive_batch_size(fn, batch_size):
    train_set, _, _ = tiny_splits()
    with pytest.raises(ConfigurationError, match=f"batch_size >= 1, got {batch_size}"):
        fn(tiny_model(), train_set, batch_size)


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


def test_train_and_load_params_write_into_the_parameters_own_arrays(tmp_path):
    train_set, val_set, _ = tiny_splits()
    model = tiny_model()
    arrays = [(p.data, p.grad) for _, p in model.parameters()]

    def same_arrays():
        return all(p.data is data and p.grad is grad
                   for (_, p), (data, grad) in zip(model.parameters(), arrays))

    train(model, train_set, val_set, TrainConfig(lr=3e-3, batch_size=8, max_epochs=2, seed=7))
    assert same_arrays()
    path = tmp_path / "model.npz"
    save_params(tiny_model(seed=4), path)
    load_params(model, path)
    assert same_arrays()
    with np.load(path) as stored:
        for name, p in model.parameters():
            assert_array_equal(p.data, stored[name], err_msg=name)


def test_build_load_and_evaluate_allocate_no_gradient_array(tmp_path):
    _, _, test_set = tiny_splits()
    path = tmp_path / "model.npz"
    save_params(tiny_model(seed=4), path)
    model = tiny_model()
    load_params(model, path)
    evaluate(model, test_set)
    assert [name for name, p in model.parameters() if p._grad is not None] == []


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
    # routing.bias is in attention checkpoints saved before that bias was dropped.
    for extra in ("rogue.weight", "routing.bias"):
        stored = {name: p.data for name, p in model.parameters()}
        stored[extra] = np.zeros(3)
        path = tmp_path / "extra.npz"
        np.savez(path, **stored)
        with pytest.raises(ConfigurationError) as err:
            load_params(model, path)
        assert extra in str(err.value)


def test_load_rejects_a_non_real_parameter_before_writing_any(tmp_path):
    model = tiny_model()
    stored = {name: p.data + 1.0 for name, p in model.parameters()}
    names = list(stored)
    stored[names[-1]] = stored[names[-1]].astype(np.complex128)
    path = tmp_path / "complex.npz"
    np.savez(path, **stored)
    before = [p.data.copy() for _, p in model.parameters()]
    with pytest.raises(ConfigurationError, match=f"{names[-1]}.*complex128"):
        load_params(model, path)
    assert all(np.array_equal(b, p.data) for b, (_, p) in zip(before, model.parameters()))


_UNREADABLE = {"empty": b"", "garbage": b"garbage", "truncated-zip": b"PK\x03\x04" + bytes(60)}


@pytest.mark.parametrize("content", [*_UNREADABLE, "plain-npy"])
def test_load_rejects_an_unreadable_checkpoint_before_writing_any(tmp_path, content):
    model = tiny_model()
    path = tmp_path / "model.npz"
    if content in _UNREADABLE:
        path.write_bytes(_UNREADABLE[content])
    else:
        with open(path, "wb") as fh:  # np.save(path) would append ".npy" to the name
            np.save(fh, np.zeros(3))
    before = [p.data.copy() for _, p in model.parameters()]
    with pytest.raises(ConfigurationError, match="model.npz"):
        load_params(model, path)
    assert all(np.array_equal(b, p.data) for b, (_, p) in zip(before, model.parameters()))


def test_load_reports_a_missing_checkpoint_as_open_does(tmp_path):
    with pytest.raises(FileNotFoundError, match="absent.npz"):
        load_params(tiny_model(), tmp_path / "absent.npz")


def small_checkpoint_model(seed):
    cfg = ModelConfig(hidden_dim=8, d_primary=4, d_digit=4, conv_kernel=3, affine_kind="conv",
                      decoder_hidden=(4, 8))
    return build_model(cfg, (1, 12, 12), MarginLossParams(),
                       WeightedLossParams(class_proportions=(0.5, 0.5)), seed=seed)


def test_load_rejects_or_restores_exactly_under_single_bit_flips(tmp_path):
    # Every bit of the largest member's zip and .npy headers, then one seeded bit at each
    # of 400 seeded positions of a ~30 KB checkpoint. zipfile reads ahead 4 KiB, so only
    # a larger member can stop short of its end, where its CRC is checked: a flip that
    # shortened its .npy header length used to load shifted values unchecked.
    source = small_checkpoint_model(seed=3)
    path = tmp_path / "model.npz"
    save_params(source, path)
    blob = path.read_bytes()
    with zipfile.ZipFile(path) as archive:
        largest = max(archive.infolist(), key=lambda info: info.file_size).header_offset
    want = [p.data.tobytes() for _, p in source.parameters()]
    model = small_checkpoint_model(seed=4)
    before = [p.data.copy() for _, p in model.parameters()]
    untouched = [b.tobytes() for b in before]
    rng = np.random.default_rng(21)
    flips = [(pos, bit) for pos in range(largest, largest + 256) for bit in range(8)]
    flips += [(int(pos), int(rng.integers(8))) for pos in rng.choice(len(blob), 400, replace=False)]
    damaged = tmp_path / "damaged.npz"
    loaded = 0
    for pos, bit in flips:
        data = bytearray(blob)
        data[pos] ^= 1 << bit
        damaged.write_bytes(data)
        try:
            load_params(model, damaged)
        except CapsrouteError:
            expected = untouched
        else:
            expected, loaded = want, loaded + 1
        assert [p.data.tobytes() for _, p in model.parameters()] == expected, (pos, bit)
        for b, (_, p) in zip(before, model.parameters()):
            np.copyto(p.data, b)
    assert 0 < loaded < len(flips)  # both outcomes occur


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
