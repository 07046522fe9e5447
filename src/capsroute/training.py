"""Training loop with early stopping, deterministic records, and evaluation.

Determinism contract: given identical data, configuration, seed and BLAS
thread count, two runs, in one process or in two, produce identical parameters
and an identical ``canonical_text()`` record. Wall-clock timings are recorded
but live outside the canonical serialization, since they are the one field
that legitimately differs between runs. Training is single-threaded by
design; parallel speed-ups would reorder float accumulation and break the
contract. A multi-threaded BLAS can do that inside a GEMM: across 1 and 2
OpenBLAS threads, ``cnn2`` (on 1 or 3 channels) and ``cardiocaps`` at
``hidden_dim=16`` train to parameters that agree only to about 1e-11, while
``cardiocaps`` at the default ``hidden_dim=32`` and ``cnn1`` stay bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

import numpy as np

from .data import EchoDataset
from .errors import ConfigurationError
from .metrics import MetricsReport, format_value
from .optim import Adam
from .tensor import Tensor, no_grad

__all__ = ["TrainConfig", "EpochStats", "ExperimentRecord", "train", "evaluate", "validation_loss"]


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 8
    max_epochs: int = 100
    patience: int = 5
    seed: int = 10

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigurationError("batch_size and max_epochs must be >= 1")
        if self.patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {self.patience}")
        if not self.lr > 0:
            raise ConfigurationError(f"Adam needs lr > 0, got lr={self.lr}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochStats:
    epoch: int
    train_total: float
    train_classification: float
    train_regression: float
    train_reconstruction: float
    val_total: float

    def line(self) -> str:
        return ",".join(format_value(getattr(self, f.name)) for f in fields(self))


@dataclass
class ExperimentRecord:
    """Everything needed to describe (and re-run) one training run."""

    config: dict[str, str]
    seed: int
    epochs: list[EpochStats] = field(default_factory=list)
    metrics: dict[str, MetricsReport] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    best_epoch: int = 0

    def config_text(self) -> str:
        """The ``key=value`` config block, sorted by key: ``config.txt`` and ``[config]``."""
        return "".join(f"{k}={v}\n" for k, v in sorted(self.config.items()))

    def to_text(self, include_timings: bool = True) -> str:
        lines = ["[seed]", f"seed={self.seed}", "[epochs]",
                 ",".join(f.name for f in fields(EpochStats))]
        lines += [e.line() for e in self.epochs]
        lines.append(f"best_epoch={self.best_epoch}")
        for split_name in sorted(self.metrics):
            lines.append(f"[metrics {split_name}]")
            lines.append(self.metrics[split_name].to_text())
        if include_timings:
            lines.append("[timings]")  # volatile: excluded from canonical_text()
            lines += [f"{k}={v:.6f}" for k, v in sorted(self.timings.items())]
        return "[config]\n" + self.config_text() + "\n".join(lines) + "\n"

    def canonical_text(self) -> str:
        """Deterministic serialization: identical runs compare equal as strings."""
        return self.to_text(include_timings=False)

    def metric_csv(self) -> str:
        rows = ["metric,value,seed"]
        for split_name in sorted(self.metrics):
            rows += [f"{split_name}.{r}" for r in self.metrics[split_name].csv_rows(self.seed)]
        return "\n".join(rows) + "\n"


def _batches(dataset: EchoDataset, batch_size: int, order: np.ndarray | None = None):
    """Yield (float64 images, labels, regression targets) per batch, in ``order``
    or else in dataset order."""
    for start in range(0, len(dataset), batch_size):
        idx = slice(start, start + batch_size) if order is None else order[start : start + batch_size]
        images = Tensor(dataset.images[idx].astype(np.float64))
        yield images, dataset.labels[idx], dataset.reg_targets[idx]


def validation_loss(model, dataset: EchoDataset, batch_size: int = 64) -> float:
    """Sample-weighted mean training objective over a dataset, without gradients."""
    total = 0.0
    with no_grad():
        for images, labels, targets in _batches(dataset, batch_size):
            loss, _ = model.training_loss(images, labels, targets)
            total += loss.item() * len(labels)
    return total / len(dataset)


def train(
    model,
    train_set: EchoDataset,
    val_set: EchoDataset,
    tc: TrainConfig,
    config_snapshot: dict[str, str] | None = None,
) -> ExperimentRecord:
    """Optimize ``model`` with Adam and patience-based early stopping.

    Validation total loss is monitored once per epoch; an epoch counts against
    the patience budget unless it strictly improves on the best value seen.
    When the budget runs out (or max_epochs is hit) the parameters snapshot
    from the best epoch is restored.
    """
    if len(train_set) == 0 or len(val_set) == 0:
        raise ConfigurationError(
            f"train() needs non-empty splits, got {len(train_set)} train / {len(val_set)} val"
        )
    record = ExperimentRecord(config=dict(config_snapshot or {}), seed=tc.seed)
    params = model.parameters()
    optimizer = Adam(params, lr=tc.lr)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(tc.seed, spawn_key=(1,)))

    best_val = np.inf
    best_state = {name: p.data.copy() for name, p in params}
    bad_epochs = 0
    started = time.perf_counter()

    for epoch in range(1, tc.max_epochs + 1):
        sums: dict[str, float] = {}
        perm = shuffle_rng.permutation(len(train_set))
        for images, labels, targets in _batches(train_set, tc.batch_size, perm):
            loss, parts = model.training_loss(images, labels, targets)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            for key, value in parts.items():
                sums[key] = sums.get(key, 0.0) + value * len(labels)

        n = len(train_set)
        val_total = validation_loss(model, val_set, tc.batch_size)
        record.epochs.append(
            EpochStats(epoch, **{f"train_{k}": v / n for k, v in sums.items()}, val_total=val_total)
        )
        if val_total < best_val:
            best_val = val_total
            best_state = {name: p.data.copy() for name, p in params}
            record.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= tc.patience:
                break

    for name, p in params:
        p.data = best_state[name]
    record.timings["train_seconds"] = time.perf_counter() - started
    return record


def evaluate(model, dataset: EchoDataset, batch_size: int = 64) -> MetricsReport:
    """Run the model over a dataset in order and summarize the predictions."""
    if len(dataset) == 0:
        raise ConfigurationError("evaluate() needs a non-empty dataset")
    preds, scores = [], []
    with no_grad():
        for images, _, _ in _batches(dataset, batch_size):
            p, s = model.predict(images)
            preds.append(p)
            scores.append(s)
    return MetricsReport.from_predictions(
        np.concatenate(preds), np.concatenate(scores), dataset.labels.astype(np.int64)
    )
