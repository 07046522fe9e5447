"""End-to-end experiment orchestration shared by the CLI and the test suite.

``run_experiment`` turns one resolved configuration into data, a model, a
training run, and per-split metrics; ``save_run`` writes them to a run
directory and ``load_run`` restores the model from it. ``sweep_lambda``
repeats a run across a grid of auxiliary-loss multipliers on fixed data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from . import config as cfg_mod
from .data import EchoDataset, check_split, class_proportions, generate, load, split
from .errors import ConfigurationError
from .losses import MarginLossParams, WeightedLossParams
from .metrics import format_value
from .models import ModelConfig, build_model, load_params, save_params
from .training import ExperimentRecord, evaluate, train

__all__ = ["prepare_splits", "build_configured_model", "run_experiment", "save_run", "load_run",
           "sweep_lambda", "lambda_table"]


def _load_for(cfg: dict[str, Any], data_path) -> EchoDataset:
    """Load an ECAP file whose images must have the configured ``image_size``."""
    dataset = load(data_path)
    found, wanted = dataset.images.shape[1:], tuple(cfg["image_size"])
    if found != wanted:
        raise ConfigurationError(
            f"{data_path} holds {'x'.join(map(str, found))} images, "
            f"but image_size is {'x'.join(map(str, wanted))}"
        )
    return dataset


def prepare_splits(cfg: dict[str, Any], data_path=None) -> tuple[EchoDataset, EchoDataset, EchoDataset]:
    """Split the ECAP file at ``data_path``, or else generate and split a
    dataset as the configuration describes.

    With ``rotation_shift_test`` enabled, the test split is rendered
    separately from ``rotation_range_test`` using sample indices disjoint from
    the pool, so train/val geometry statistics stay untouched. A data file has
    no such split, so that setting is rejected with one. Training needs both a
    train and a validation split, so a zero share for either is rejected
    before any data work.
    """
    fractions = tuple(cfg["split_fractions"])
    check_split(fractions, cfg["split_seed"])
    if min(fractions[:2]) == 0:
        raise ConfigurationError(
            f"split_fractions needs a non-zero train and validation share, got {fractions}"
        )
    if data_path is not None:
        if cfg["rotation_shift_test"]:
            raise ConfigurationError("rotation_shift_test=true renders its own test split; "
                                     "it cannot be used with a data file")
        return split(_load_for(cfg, data_path), fractions, cfg["split_seed"])
    synth = cfg_mod.synth_config_from(cfg)
    if not cfg["rotation_shift_test"]:
        pool = generate(synth)
        return split(pool, fractions, cfg["split_seed"])

    test_share = fractions[2]
    n_test = int(round(synth.n_samples * test_share))
    n_pool = synth.n_samples - n_test
    pool = generate(replace(synth, n_samples=n_pool))
    remainder = fractions[0] + fractions[1]
    train_set, val_set, _ = split(
        pool, (fractions[0] / remainder, fractions[1] / remainder, 0.0), cfg["split_seed"]
    )
    test_set = generate(
        replace(synth, n_samples=n_test),
        rotation_range=synth.rotation_range_test,
        index_offset=n_pool,
    )
    return train_set, val_set, test_set


@dataclass(frozen=True)
class _ModelSpec:
    """The dataclasses a configured model is built from, each built once."""

    config: ModelConfig
    margin: MarginLossParams
    weighted: WeightedLossParams  # default class proportions until build() sees the labels
    image_size: tuple[int, int, int]
    seed: int

    @classmethod
    def of(cls, cfg: dict[str, Any]) -> "_ModelSpec":
        return cls(cfg_mod.model_config_from(cfg), cfg_mod.margin_params_from(cfg),
                   cfg_mod.weighted_params_from(cfg), cfg["image_size"], cfg["seed"])

    def build(self, labels: np.ndarray):
        weighted = replace(self.weighted, class_proportions=class_proportions(labels))
        return build_model(self.config, self.image_size, self.margin, weighted, seed=self.seed)


def build_configured_model(cfg: dict[str, Any], labels: np.ndarray):
    """Build the configured model, weighting its loss by the class mix of ``labels``."""
    return _ModelSpec.of(cfg).build(labels)


def run_experiment(
    cfg: dict[str, Any],
    splits: tuple[EchoDataset, EchoDataset, EchoDataset] | None = None,
    data_path=None,
):
    """Train one model per the config and evaluate it on every split.

    The splits are ``splits`` if given, else ``prepare_splits(cfg, data_path)``.
    The model and training dataclasses are built before them, so a value out
    of range fails before any data work. Returns (model, record); the record
    embeds the full config snapshot, so a rerun from that snapshot reproduces
    it bit for bit (timings aside).
    """
    spec, train_config = _ModelSpec.of(cfg), cfg_mod.train_config_from(cfg)
    train_set, val_set, test_set = splits if splits is not None else prepare_splits(cfg, data_path)
    model = spec.build(train_set.labels)
    record = train(model, train_set, val_set, train_config, cfg_mod.config_snapshot(cfg))
    record.metrics["train"] = evaluate(model, train_set)
    record.metrics["val"] = evaluate(model, val_set)
    if len(test_set):
        record.metrics["test"] = evaluate(model, test_set)
    return model, record


def save_run(run_dir, model, record: ExperimentRecord) -> None:
    """Write a run directory: ``record.txt``, ``config.txt``, ``metrics.csv``,
    ``confusion.txt`` (test split, else val) and the ``model.npz`` weights."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    report = record.metrics.get("test") or record.metrics["val"]
    for name, text in (("record.txt", record.to_text()), ("config.txt", record.config_text()),
                       ("metrics.csv", record.metric_csv()),
                       ("confusion.txt", report.confusion_table() + "\n")):
        (run_dir / name).write_text(text, encoding="utf-8")
    save_params(model, run_dir / "model.npz")


def load_run(run_dir, data_path) -> tuple[Any, EchoDataset]:
    """Restore a trained run's model from its ``config.txt`` and ``model.npz``.

    Returns the model and the ECAP dataset at ``data_path``, whose class mix
    weights the model's loss. The run directory is checked before the data is
    read, and the data's image shape before the model is built.
    """
    run_dir = Path(run_dir)
    if not (run_dir / "config.txt").is_file():
        raise ConfigurationError(f"{run_dir} is not a run directory (no config.txt)")
    cfg = cfg_mod.resolve(cfg_mod.parse_config_file(run_dir / "config.txt"))
    dataset = _load_for(cfg, data_path)
    model = build_configured_model(cfg, dataset.labels)
    load_params(model, run_dir / "model.npz")
    return model, dataset


DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.5)


def sweep_lambda(
    cfg: dict[str, Any], grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
) -> list[tuple[float, ExperimentRecord]]:
    """Retrain on fixed data for each auxiliary multiplier in ``grid``.

    Data is generated once so every run sees identical splits; only
    ``lambda_reg`` varies.
    """
    splits = prepare_splits(cfg)
    results = []
    for lam in grid:
        run_cfg = dict(cfg)
        run_cfg["lambda_reg"] = float(lam)
        _, record = run_experiment(run_cfg, splits=splits)
        results.append((float(lam), record))
    return results


def lambda_table(results: list[tuple[float, ExperimentRecord]], split_name: str = "test") -> str:
    """CSV of ranking metrics per lambda, one row per grid point."""
    rows = ["lambda,accuracy,f1,roc_auc,pr_auc"]
    for lam, record in results:
        m = record.metrics[split_name]
        rows.append(",".join(map(format_value, (lam, m.accuracy, m.f1, m.roc_auc, m.pr_auc))))
    return "\n".join(rows) + "\n"
