"""The benchmark's view of the library: what ``capsbench/`` calls must keep working.

capsbench imports its helpers as top-level modules from its own directory, so
this puts that directory on ``sys.path`` and runs the calls it makes on a small
model, for both routing methods. Nothing under ``capsbench/`` is written.
"""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from capsroute import (
    MarginLossParams,
    ModelConfig,
    RoutingSpec,
    SynthConfig,
    Tensor,
    TrainConfig,
    WeightedLossParams,
    build_model,
    generate,
    split,
    train,
)
from capsroute.tensor import conv2d, no_grad

CAPSBENCH = Path(__file__).resolve().parent.parent / "capsbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(CAPSBENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def _model(spec):
    return build_model(
        ModelConfig(hidden_dim=8, routing=spec),
        image_size=(1, 20, 20),
        margin=MarginLossParams(),
        weighted=WeightedLossParams(class_proportions=(0.5, 0.5)),
        seed=3,
    )


@pytest.mark.parametrize("method", ["attention", "dynamic"])
def test_capsbench_runs_on_the_library(bench, method):
    tracing, workloads = bench
    spec = RoutingSpec(method=method)
    data = generate(SynthConfig(
        n_samples=24, image_size=(1, 20, 20), positive_ratio=0.5,
        width_normal=(3.0, 3.0), width_dilated=(5.0, 5.0), translation_range=0.0, seed=5,
    ))
    train_set, val_set, _ = split(data, (0.75, 0.25, 0.0), seed=5)
    batch = 8

    model = _model(spec)
    images = Tensor(train_set.images[:batch].astype(np.float64))
    fns = tracing.stage_fns(model, images, train_set.labels[:batch], train_set.reg_targets[:batch])
    for name, fn in fns.items():
        assert np.all(np.isfinite(fn().data)), name
    # tensor.graph_nodes walks the graph through each node's parent tuple.
    loss, _ = model.training_loss(images, train_set.labels[:batch], train_set.reg_targets[:batch])
    assert tracing.count_nodes(loss) == len(loss._topological_order())

    with tracing.Tracer(model) as tracer:
        train(model, train_set, val_set, TrainConfig(lr=0.003, batch_size=batch, max_epochs=1, patience=1))
    assert len(tracer.steps()) == math.ceil(len(train_set) / batch)
    assert workloads.all_params_moved(model, _model(spec))

    votes = Tensor(np.random.default_rng(6).normal(size=(2, 5, 2, 16)))
    assert tracing.make_routing(spec, 16)(votes)[0].activations.shape == (2, 2, 16)


def test_capsbench_stem_is_the_models_fused_stem(bench):
    # The traced stages feed capsules.primary what the model's own stem computes.
    tracing, _ = bench
    model = _model(RoutingSpec())
    images = Tensor(np.random.default_rng(7).normal(size=(4, 1, 20, 20)))
    with no_grad():
        traced = tracing._stem(model, images)
        fused = conv2d(images, model.conv_weight, model.conv_bias, relu=True)
        staged = model.routing(model.affine(model.primary(traced)))[0].activations
        whole = model.digit_caps(images)
    assert np.signbit(traced.data).any()  # -0.0 from negative pre-activations
    assert traced.data.tobytes() == fused.data.tobytes()
    assert staged.data.tobytes() == whole.data.tobytes()
