"""Workload definitions and the untraced (end-to-end) measurement loops.

Every workload draws its data, split and model initialisation from the
benchmark seed; the library receives only the generated data and configs.
Each timed call into the library is one operation. An operation fails when it
raises a library error, returns a non-finite loss or score, or fails an output
check: a stable ``canonical_text()`` or report digest across repeats, every
parameter array moved by ``train()``, in the pipeline also data regenerated
bit-identically and the ECAP and parameter round trips, and once per run a
round at the reference seed whose losses, scores and data sums must match the
committed ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from capsroute import (
    MarginLossParams,
    ModelConfig,
    RoutingSpec,
    SynthConfig,
    TrainConfig,
    WeightedLossParams,
    build_model,
    class_proportions,
    evaluate,
    generate,
    load,
    load_params,
    save,
    save_params,
    split,
    train,
)
from capsroute.errors import CapsrouteError

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 1
# Legitimate reordering of float sums moves these values by about 1e-15;
# a skipped or broken computation moves them by far more.
REFERENCE_RTOL = 1e-6
FRACTIONS = (0.6, 0.1, 0.3)  # train, val, test
EVAL_BATCH = 64  # evaluate() default, and the batch `capsroute eval` scores at
MIN_ROUNDS = 3
# On a shared machine the same round runs up to 1.5x slower for a minute or
# more at a time, so a 40-second run often sits wholly in one state and no
# statistic of its own rounds can tell which. A fixed numpy kernel timed
# between rounds slows with them. Each round's throughput is multiplied by
# probe time / PROBE_REFERENCE_S, so throughputs read as at the machine speed
# where the probe takes PROBE_REFERENCE_S; the raw figures are kept as well.
PROBE_REFERENCE_S = 0.010


class Probe:
    """A fixed kernel shaped like the library's work: two mid-sized matrix
    products, as the conv layers run, and elementwise passes and a reduction
    over a 1.2 MB activation. Writing into preallocated outputs
    keeps it free of allocations, whose cost depends on what the process did
    before."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(8, 32, 24, 24))
        self.buf = np.empty_like(self.x)
        self.a, self.b = rng.normal(size=(192, 729)), rng.normal(size=(729, 256))
        self.c = np.empty((192, 256))

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(2):
            np.matmul(self.a, self.b, out=self.c)
        for _ in range(20):
            np.multiply(self.x, 0.5, out=self.buf)
            np.add(self.buf, 0.1, out=self.buf)
            np.maximum(self.buf, 0.0, out=self.buf)
            self.buf.sum(axis=(2, 3))
        return time.perf_counter() - t0

    def slowdown(self, repeats: int = 1) -> float:
        """Median probe time over the reference: above 1 on a slow machine."""
        return statistics.median(self.seconds() for _ in range(repeats)) / PROBE_REFERENCE_S


@dataclass(frozen=True)
class Workload:
    name: str
    channels: int
    n_samples: int
    model: dict  # ModelConfig overrides
    batch_size: int  # training batch; also the batch the traced stages run at
    epochs: int  # patience equals epochs, so every train() runs exactly this many
    # gen-data + eval pipeline instead of training; its data are rendered over
    # the test rotation range, as `capsroute gen-data` does for an eval file
    pipeline: bool
    # The train and validation splits are cut to these sizes. 8 validation
    # samples per 64 training samples keep the 0.125 ratio of the default
    # split (0.8/0.1/0.1), so validation weighs as much as in a default train().
    train_samples: int = 64
    val_samples: int = 8


WORKLOADS = {
    # Default cardiocaps: the primary-capsule conv dominates the step.
    "train-conv": Workload("train-conv", 1, 200, {}, 8, 1, False),
    # 3x3 kernels and 4-d primaries give 784 input capsules; dynamic r=3
    # routing dominates the step.
    "train-routing": Workload(
        "train-routing", 1, 200,
        {"conv_kernel": 3, "hidden_dim": 16, "d_primary": 4,
         "routing": RoutingSpec(method="dynamic", iterations=3)},
        8, 1, False,
    ),
    # Forward only: generate, ECAP round trip, parameter round trip, evaluate.
    # 512 samples keep the two model builds and the parameter round trip to
    # about a twentieth of the round (see README).
    "eval-pipeline": Workload("eval-pipeline", 3, 512, {}, 64, 2, True),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def record_finite(record) -> bool:
    return all(
        math.isfinite(v)
        for e in record.epochs
        for v in (e.train_total, e.train_classification, e.train_regression,
                  e.train_reconstruction, e.val_total)
    )


def report_finite(report) -> bool:
    values = (report.accuracy, report.f1, report.roc_auc, report.pr_auc)
    return all(v is None or math.isfinite(v) for v in values)


def report_values(report) -> dict[str, float]:
    values = {"accuracy": report.accuracy, "f1": report.f1, "roc_auc": report.roc_auc,
              "pr_auc": report.pr_auc}
    return {f"eval.{k}": float(v) for k, v in values.items() if v is not None}


def same_params(a, b) -> bool:
    return all(
        na == nb and np.array_equal(pa.data, pb.data)
        for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters())
    )


def all_params_moved(trained, initial) -> bool:
    """Every parameter array differs from its initial value after training."""
    return all(
        not np.array_equal(pa.data, pb.data)
        for (_, pa), (_, pb) in zip(trained.parameters(), initial.parameters())
    )


class Ledger:
    """Operation counts, output checks, digests and timing samples of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.digests: dict[str, str] = {}
        self.samples: dict[str, tuple[list[float], str, str]] = {}
        self.errors: list[str] = []
        self.reference: dict = {}

    def op(self, *checks: tuple[str, bool]) -> bool:
        """Count one operation; it fails if any of its named checks fails."""
        ok = True
        for name, passed in checks:
            self.checks[name] = self.checks.get(name, True) and bool(passed)
            ok = ok and bool(passed)
        self.attempted += 1
        self.failed += not ok
        return ok

    def error(self, err: CapsrouteError) -> None:
        self.errors.append(f"{type(err).__name__}: {err}")
        self.op(("no_library_errors", False))

    def same_digest(self, name: str, text: str) -> bool:
        """Record the digest on first use; later uses must reproduce it."""
        return self.digests.setdefault(name, digest(text)) == digest(text)

    def add(self, name: str, value: float, unit: str, stat: str = "median") -> None:
        self.samples.setdefault(name, ([], unit, stat))[0].append(value)

    def rate(self, name: str, per_s: float, slowdown: float) -> None:
        """A throughput at the reference machine speed, and as measured."""
        self.add(name, per_s * slowdown, "samples/s")
        self.add(f"raw.{name}", per_s, "samples/s")

    def result(self) -> dict:
        self.checks.setdefault("no_library_errors", not self.errors)
        return {
            "correct": self.failed == 0 and all(self.checks.values()),
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": self.checks,
            "digests": self.digests,
            "errors": self.errors[:10],
            "reference": self.reference,
            "samples": self.samples,
        }


@dataclass
class Context:
    """Everything set up before the first timed call."""

    wl: Workload
    seed: int
    scratch: str
    synth: SynthConfig
    rotation: tuple[float, float] | None
    pool: object
    train_set: object
    val_set: object
    test_set: object
    tc: TrainConfig
    model_cfg: ModelConfig
    weighted: WeightedLossParams
    model: object = None

    @property
    def eval_set(self):
        return self.pool if self.wl.pipeline else self.test_set

    def build(self, offset: int = 0):
        return build_model(self.model_cfg, self.synth.image_size, MarginLossParams(),
                           self.weighted, seed=self.seed + offset)

    def generate(self):
        return generate(self.synth, rotation_range=self.rotation)


def prepare(wl: Workload, seed: int, scratch: str) -> Context:
    """Generate and split the workload's data and build its model."""
    synth = SynthConfig(n_samples=wl.n_samples, image_size=(wl.channels, 32, 32),
                        positive_ratio=0.2, seed=seed)
    rotation = synth.rotation_range_test if wl.pipeline else None
    pool = generate(synth, rotation_range=rotation)
    train_set, val_set, test_set = split(pool, FRACTIONS, seed)
    train_set = train_set.subset(np.arange(wl.train_samples))
    val_set = val_set.subset(np.arange(wl.val_samples))
    # The pipeline scores a whole file, as `capsroute eval` does, and weights
    # the loss by that file's class proportions.
    labels = pool.labels if wl.pipeline else train_set.labels
    ctx = Context(
        wl=wl, seed=seed, scratch=scratch, synth=synth, rotation=rotation, pool=pool,
        train_set=train_set, val_set=val_set, test_set=test_set,
        tc=TrainConfig(batch_size=wl.batch_size, max_epochs=wl.epochs, patience=wl.epochs,
                       seed=seed),
        model_cfg=ModelConfig(**wl.model),
        weighted=WeightedLossParams(class_proportions(labels)),
    )
    ctx.model = ctx.build()
    return ctx


def _train_round(ctx: Context, ledger: Ledger) -> tuple[dict[str, float], dict[str, float]]:
    """train() then evaluate(); returns the values the reference pins and the
    round's throughputs."""
    model = ctx.build()
    record, t = timed(train, model, ctx.train_set, ctx.val_set, ctx.tc)
    ledger.op(
        ("losses_finite", record_finite(record)),
        ("epoch_count_fixed", len(record.epochs) == ctx.tc.max_epochs),
        ("train_moves_every_parameter", all_params_moved(model, ctx.model)),
        ("canonical_digest_stable", ledger.same_digest("canonical_text", record.canonical_text())),
    )
    rates = {"samples_per_s": len(ctx.train_set) * len(record.epochs) / t}

    report, t = timed(evaluate, model, ctx.test_set, EVAL_BATCH)
    ledger.op(
        ("eval_scores_finite", report_finite(report)),
        ("report_digest_stable", ledger.same_digest("report", report.to_text())),
    )
    rates["eval_samples_per_s"] = len(ctx.test_set) / t
    last = record.epochs[-1]
    return {
        "train_total": last.train_total, "train_classification": last.train_classification,
        "train_regression": last.train_regression,
        "train_reconstruction": last.train_reconstruction, "val_total": last.val_total,
        **report_values(report),
    }, rates


def _pipeline_round(ctx: Context, ledger: Ledger) -> tuple[dict[str, float], dict[str, float]]:
    """gen-data + eval; returns the values the reference pins and the round's
    throughputs."""
    ecap = os.path.join(ctx.scratch, "data.ecap")
    params = os.path.join(ctx.scratch, "model.npz")
    n = len(ctx.pool)

    data, t_gen = timed(ctx.generate)
    ledger.op(("data_regenerated_identically", data.same_as(ctx.pool)))
    _, t_save = timed(save, data, ecap)
    ledger.op()
    loaded, t_load = timed(load, ecap)
    ledger.op(("ecap_round_trip", loaded.same_as(data)))

    model, t_build = timed(ctx.build)
    ledger.op(("model_built_identically", same_params(model, ctx.model)))
    _, t_save_params = timed(save_params, model, params)
    ledger.op()
    # `capsroute eval` rebuilds the model, then loads the saved weights over it.
    fresh, t_rebuild = timed(ctx.build, 1)
    ledger.op(("rebuilt_model_differs", not same_params(fresh, model)))
    _, t_load_params = timed(load_params, fresh, params)
    ledger.op(("params_round_trip", same_params(fresh, model)))

    report, t_eval = timed(evaluate, fresh, loaded, EVAL_BATCH)
    ledger.op(
        ("eval_scores_finite", report_finite(report)),
        ("report_digest_stable", ledger.same_digest("report", report.to_text())),
    )
    total = t_gen + t_save + t_load + t_build + t_save_params + t_rebuild + t_load_params + t_eval
    return {
        "data.image_sum": float(loaded.images.sum(dtype=np.float64)),
        "data.reg_target_sum": float(loaded.reg_targets.sum(dtype=np.float64)),
        "data.positives": float(loaded.labels.sum()),
        **report_values(report),
    }, {"samples_per_s": n / total, "eval_samples_per_s": n / t_eval}


def reference_round(wl: Workload, scratch: str) -> tuple[dict[str, float], Ledger]:
    """One untimed round of the workload at the reference seed."""
    ctx = prepare(wl, REFERENCE_SEED, scratch)
    ledger = Ledger()
    values, _ = (_pipeline_round if wl.pipeline else _train_round)(ctx, ledger)
    return values, ledger


def check_reference(wl: Workload, ledger: Ledger, scratch: str) -> None:
    """Compare a reference-seed round with the committed values, so that
    arithmetic that is deterministic but wrong still fails the run."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        expected = json.load(fh)[wl.name]
    try:
        values, ref = reference_round(wl, scratch)
    except CapsrouteError as err:
        ledger.error(err)
        return
    close = expected.keys() == values.keys() and all(
        math.isclose(values[k], v, rel_tol=REFERENCE_RTOL, abs_tol=1e-12)
        for k, v in expected.items()
    )
    ledger.reference = {"seed": REFERENCE_SEED, "expected": expected, "got": values}
    ledger.op(("reference_round_checks", ref.failed == 0 and all(ref.checks.values())),
              ("matches_reference_values", close))


def measure(ctx: Context, seconds: float) -> dict:
    """Closed loop: repeat the workload's round until ``seconds`` have passed.

    The first round warms caches and lazy set-up; its timings are dropped.
    A probe runs between rounds, and each round is scaled by the mean of the
    probes on either side of it."""
    ledger = Ledger()
    probe = Probe()
    round_fn = _pipeline_round if ctx.wl.pipeline else _train_round
    end = time.perf_counter() + seconds
    rounds = 0
    before = probe.slowdown()
    while rounds < MIN_ROUNDS or time.perf_counter() < end:
        try:
            _, rates = round_fn(ctx, ledger)
        except CapsrouteError as err:
            ledger.error(err)
            rates = {}
        after = probe.slowdown()
        slowdown = 0.5 * (before + after)
        if rounds > 0:  # the warm-up round is checked, not timed
            ledger.add("raw.probe_ms", 1e3 * PROBE_REFERENCE_S * slowdown, "ms")
            for name, per_s in rates.items():
                ledger.rate(name, per_s, slowdown)
        before = after
        rounds += 1
    check_reference(ctx.wl, ledger, ctx.scratch)
    return ledger.result()
