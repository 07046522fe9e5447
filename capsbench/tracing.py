"""Per-layer (traced) run: where one workload's time goes, layer by layer.

Spans are recorded from outside the library. While a traced call runs, the
public functions that ``train()`` and ``evaluate()`` go through are wrapped
with timers and restored afterwards: ``model.training_loss``,
``model.predict``, ``training.validation_loss``, ``Tensor.backward``,
and ``Adam.zero_grad``/``step``. The same call is also made untraced, and both must give the same ``canonical_text()``
(training) and report (evaluation) digests.

The model's stage objects (stem conv, ``primary``, ``affine``, ``routing``,
``decoder``, ``reg_head``) and the loss are also timed in isolation on the
workload's own captured activations, with gradient recording on for the
training workloads and off for the forward-only pipeline. ``bwd_ms`` times
``Tensor.backward`` from a fixed upstream gradient through that stage alone.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

import capsroute.training as training_mod
from capsroute import (
    Adam,
    MetricsReport,
    RoutingSpec,
    Tensor,
    evaluate,
    load,
    no_grad,
    one_hot,
    parameter_count,
    save,
    split,
    train,
    weighted_capsule_loss,
)
from capsroute.capsules import make_routing
from capsroute.tensor import conv2d, relu, vector_norm
from workloads import (
    EVAL_BATCH,
    FRACTIONS,
    Ledger,
    all_params_moved,
    check_reference,
    digest,
    record_finite,
    report_finite,
    timed,
)

SWEEP_N_IN = (128, 512, 1152)
SWEEP_SPECS = {
    "dynamic_r1": RoutingSpec(method="dynamic", iterations=1),
    "dynamic_r2": RoutingSpec(method="dynamic", iterations=2),
    "dynamic_r3": RoutingSpec(method="dynamic", iterations=3),
    "attention": RoutingSpec(method="attention"),
}
SWEEP_BATCH, SWEEP_N_OUT, SWEEP_D_OUT = 8, 2, 16
# A step the isolated stages and the optimizer explain less of than this
# leaves a later change no way to show where its saving sits.
MIN_ATTRIBUTED_PCT = 100.0 * 2.0 / 3.0
_MISSING = object()


def repeat(fn, budget_s: float, min_reps: int = 5, max_reps: int = 200) -> list[float]:
    """Seconds per call of ``fn`` after one warm-up call, within a time budget."""
    fn()
    times: list[float] = []
    end = time.perf_counter() + budget_s
    while len(times) < min_reps or (len(times) < max_reps and time.perf_counter() < end):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def ms(values) -> list[float]:
    return [1e3 * v for v in values]


class Tracer:
    """Wraps the library's public entry points with timers inside a with-block."""

    def __init__(self, model):
        self.model = model
        self.spans: list = []  # (name, start, end, parent span index or -1), in call order
        self.predictions: list = []  # what model.predict returned, batch by batch
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, sink=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if sink is not None:
                sink.append(out)
            return out

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def __enter__(self):
        m = self.model
        self._patch(m, "training_loss", self._wrap("forward", m.training_loss))
        self._patch(m, "predict", self._wrap("predict", m.predict, self.predictions))
        self._patch(training_mod, "validation_loss",
                    self._wrap("validation", training_mod.validation_loss))
        self._patch(Tensor, "backward", self._wrap("backward", Tensor.backward))
        self._patch(Adam, "zero_grad", self._wrap("zero_grad", Adam.zero_grad))
        self._patch(Adam, "step", self._wrap("adam_step", Adam.step))
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self._undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    def steps(self) -> list[dict[str, float]]:
        """Seconds per training step: from training_loss to the end of Adam.step."""
        out, cur = [], None
        for name, start, end, parent in self.spans:
            if parent != -1:
                continue  # training_loss inside validation_loss
            if name == "forward":
                cur = {"start": start, "forward": end - start}
            elif cur is not None and name in ("zero_grad", "backward", "adam_step"):
                cur[name] = end - start
                if name == "adam_step":
                    cur["step"] = end - cur.pop("start")
                    out.append(cur)
                    cur = None
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def span_log(self) -> list:
        base = self.spans[0][1] if self.spans else 0.0
        return [[n, round(1e3 * (s - base), 4), round(1e3 * (e - base), 4), p]
                for n, s, e, p in self.spans]


def count_nodes(root: Tensor) -> int:
    """Graph nodes reachable from ``root``. The tensor API has no public graph
    walk, so this reads each node's parent tuple."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def _root(out: Tensor, rng) -> Tensor:
    """Scalar whose gradient with respect to ``out`` is a fixed random tensor."""
    return out if out.size == 1 else (out * Tensor(rng.normal(size=out.shape))).sum()


def _stem(model, images):
    return relu(conv2d(images, model.conv_weight) + model.conv_bias.reshape((1, -1, 1, 1)))


def stage_fns(model, images: Tensor, labels, regs) -> dict:
    """One callable per stage, each fed leaves of the captured activations."""
    with no_grad():
        x = _stem(model, images)
        bank = model.primary(x)
        votes = model.affine(bank)
        v = model.routing(votes)[0].activations
        norms, reg, recon = vector_norm(v), model.reg_head(v), model.decoder(v)

    def leaf(t: Tensor) -> Tensor:
        return Tensor(t.data, requires_grad=True)

    x_in, bank_in, votes_in = leaf(x), replace(bank, activations=leaf(bank.activations)), leaf(votes)
    v_dec, v_reg = leaf(v), leaf(v)
    norms_in, reg_in, recon_in = leaf(norms), leaf(reg), leaf(recon)
    targets = one_hot(labels, model.cfg.n_classes)
    flat = images.data.reshape(images.shape[0], -1)
    return {
        "models.stem": lambda: _stem(model, images),
        "capsules.primary": lambda: model.primary(x_in).activations,
        "capsules.votes": lambda: model.affine(bank_in),
        "capsules.routing": lambda: model.routing(votes_in)[0].activations,
        "capsules.decoder": lambda: model.decoder(v_dec),
        "capsules.reg_head": lambda: model.reg_head(v_reg),
        "losses.capsule_loss": lambda: weighted_capsule_loss(
            norms_in, targets, reg_in, regs, recon_in, flat, model.margin, model.weighted
        )[0],
    }


class StageTimer:
    """Times every stage's forward and backward in round-robin rounds, so all
    stages sample the same stretches of time as the training steps."""

    def __init__(self, ctx, model, grad: bool):
        ds = ctx.eval_set if ctx.wl.pipeline else ctx.train_set
        idx = np.arange(ctx.wl.batch_size)
        images = Tensor(ds.images[idx].astype(np.float64))
        labels, regs = ds.labels[idx], ds.reg_targets[idx]
        self.fns = stage_fns(model, images, labels, regs)
        rng = np.random.default_rng(ctx.seed)
        self.roots = {name: _root(fn(), rng) for name, fn in self.fns.items()}
        for root in self.roots.values():
            root.backward()  # warm-up
        self.recording = nullcontext if grad else no_grad
        self.fwd = {name: [] for name in self.fns}
        self.bwd = {name: [] for name in self.fns}
        loss, _ = model.training_loss(images, labels, regs)
        self.graph_nodes = count_nodes(loss)

    def run(self, budget_s: float) -> None:
        end = time.perf_counter() + budget_s
        while True:
            for name, fn in self.fns.items():
                with self.recording():
                    t0 = time.perf_counter()
                    fn()
                    self.fwd[name].append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                self.roots[name].backward()
                self.bwd[name].append(time.perf_counter() - t0)
            if time.perf_counter() >= end:
                return

    def totals_ms(self) -> dict[str, float]:
        """Median forward plus median backward milliseconds per stage."""
        return {name: 1e3 * (statistics.median(self.fwd[name]) + statistics.median(self.bwd[name]))
                for name in self.fns}


def _train_pairs(ctx, ledger, stages, budget_s):
    """Alternate untraced and traced train() on fresh, identical models; after
    each pair, time the isolated stages for half as long as the pair took.
    Also returns, per traced call, the shares of its wall time spent in
    validation and outside steps and validation (fixed per-call costs)."""
    walls = {"untraced": [], "traced": []}
    steps, validation, models, tracer = [], [], {}, None
    shares = {"validation": [], "fixed": []}
    end = time.perf_counter() + budget_s
    pair = 0
    while pair < 2 or time.perf_counter() < end:
        pair_start = time.perf_counter()
        order = ("untraced", "traced") if pair % 2 == 0 else ("traced", "untraced")
        for kind in order:
            model = ctx.build()
            if kind == "traced":
                with Tracer(model) as tracer:
                    record, wall = timed(train, model, ctx.train_set, ctx.val_set, ctx.tc)
                call_steps = sum(s["step"] for s in tracer.steps())
                call_validation = tracer.durations("validation")
                shares["validation"].append(sum(call_validation) / wall)
                shares["fixed"].append((wall - call_steps - sum(call_validation)) / wall)
                steps += tracer.steps()
                validation += call_validation
            else:
                record, wall = timed(train, model, ctx.train_set, ctx.val_set, ctx.tc)
            ledger.op(
                ("losses_finite", record_finite(record)),
                ("epoch_count_fixed", len(record.epochs) == ctx.tc.max_epochs),
                ("train_moves_every_parameter", all_params_moved(model, ctx.model)),
                ("traced_record_matches_untraced",
                 ledger.same_digest("canonical_text", record.canonical_text())),
            )
            walls[kind].append(wall)
            models[kind] = model
        stages.run(0.5 * (time.perf_counter() - pair_start))
        pair += 1
    return walls, steps, validation, models, tracer, shares


def _evaluation(ctx, ledger, untraced_model, traced_model, samples, budget_s):
    labels = ctx.eval_set.labels.astype(np.int64)
    untraced = repeat(lambda: evaluate(untraced_model, ctx.eval_set, EVAL_BATCH), budget_s, 3)
    samples["training.evaluate_ms"] = [ms(untraced), "ms"]
    report = evaluate(untraced_model, ctx.eval_set, EVAL_BATCH)
    ledger.op(("eval_scores_finite", report_finite(report)),
              ("report_digest_stable", ledger.same_digest("report", report.to_text())))
    with Tracer(traced_model) as tracer:
        traced = evaluate(traced_model, ctx.eval_set, EVAL_BATCH)
    ledger.op(("traced_report_matches_untraced", ledger.same_digest("report", traced.to_text())))
    preds = np.concatenate([p for p, _ in tracer.predictions])
    scores = np.concatenate([s for _, s in tracer.predictions])
    ledger.digests["predictions"] = digest(preds.tobytes().hex() + scores.tobytes().hex())
    samples["metrics.report_ms"] = [
        ms(repeat(lambda: MetricsReport.from_predictions(preds, scores, labels), budget_s)), "ms"]


def _data(ctx, ledger, samples, budget_s):
    path = os.path.join(ctx.scratch, "data.ecap")
    n = len(ctx.pool)
    samples["data.generate_ms_per_sample"] = [
        [1e3 * t / n for t in repeat(ctx.generate, budget_s, 3)], "ms"]
    samples["data.split_ms"] = [ms(repeat(lambda: split(ctx.pool, FRACTIONS, ctx.seed), budget_s)), "ms"]
    samples["data.save_ms"] = [ms(repeat(lambda: save(ctx.pool, path), budget_s)), "ms"]
    samples["data.load_ms"] = [ms(repeat(lambda: load(path), budget_s)), "ms"]
    samples["data.file_mb"] = [[os.path.getsize(path) / 2**20], "MB"]
    ledger.op(("ecap_round_trip", load(path).same_as(ctx.pool)))


def _routing_sweep(seed, samples, budget_s):
    """Routing alone on random votes [8, n_in, 2, 16], with and without gradients."""
    rng = np.random.default_rng(seed)
    for n_in in SWEEP_N_IN:
        shape = (SWEEP_BATCH, n_in, SWEEP_N_OUT, SWEEP_D_OUT)
        data = rng.normal(0.0, 0.5, size=shape)
        upstream = Tensor(rng.normal(size=(SWEEP_BATCH, SWEEP_N_OUT, SWEEP_D_OUT)))
        for label, spec in SWEEP_SPECS.items():
            router = make_routing(spec, SWEEP_D_OUT)
            constant, leaf = Tensor(data), Tensor(data, requires_grad=True)
            with no_grad():
                fwd = repeat(lambda: router(constant), budget_s)

            def fwdbwd():
                (router(leaf)[0].activations * upstream).sum().backward()

            key = f"capsules.routing_sweep.{label}.n{n_in}"
            samples[f"{key}.fwd_ms"] = [ms(fwd), "ms"]
            samples[f"{key}.fwdbwd_ms"] = [ms(repeat(fwdbwd, budget_s)), "ms"]


def traced_run(ctx, seconds: float) -> dict:
    ledger = Ledger()
    samples: dict = {}
    stages = StageTimer(ctx, ctx.build(), grad=not ctx.wl.pipeline)
    walls, steps, validation, models, tracer, call_shares = _train_pairs(
        ctx, ledger, stages, 0.75 * seconds)
    # The pipeline scores its freshly built model, as its untraced run does.
    eval_untraced = ctx.model if ctx.wl.pipeline else models["untraced"]
    eval_traced = ctx.model if ctx.wl.pipeline else models["traced"]
    _evaluation(ctx, ledger, eval_untraced, eval_traced, samples, 0.05 * seconds)

    step_ms = [1e3 * s["step"] for s in steps]
    samples["training.step_ms.p50"] = [step_ms, "ms"]
    samples["training.step_ms.p90"] = [step_ms, "ms", "p90"]
    samples["training.forward_ms"] = [[1e3 * s["forward"] for s in steps], "ms"]
    samples["training.backward_ms"] = [[1e3 * s["backward"] for s in steps], "ms"]
    samples["training.optimizer_ms"] = [[1e3 * (s["zero_grad"] + s["adam_step"]) for s in steps], "ms"]
    samples["training.validation_ms"] = [ms(validation), "ms"]
    samples["optim.adam_step_ms"] = [[1e3 * s["adam_step"] for s in steps], "ms"]
    samples["optim.zero_grad_ms"] = [[1e3 * s["zero_grad"] for s in steps], "ms"]
    samples["optim.param_elems"] = [[parameter_count(ctx.model)], "count"]

    for name in stages.fns:
        samples[f"{name}.fwd_ms"] = [ms(stages.fwd[name]), "ms"]
        samples[f"{name}.bwd_ms"] = [ms(stages.bwd[name]), "ms"]
    samples["tensor.graph_nodes"] = [[stages.graph_nodes], "count"]
    totals = stages.totals_ms()
    _data(ctx, ledger, samples, 0.01 * seconds)
    _routing_sweep(ctx.seed, samples, 0.008 * seconds)

    step = statistics.median(step_ms)
    optimizer = statistics.median(samples["training.optimizer_ms"][0])
    attributed = sum(totals.values()) + optimizer
    samples["trace.attributed_pct"] = [[100.0 * attributed / step], "%"]
    overhead = statistics.median(walls["traced"]) / statistics.median(walls["untraced"]) - 1.0
    # These two can fall on either side of zero, so they are reported for
    # reading, not as per-layer metrics to compare between runs.
    diagnostics = {
        "training.unattributed_ms": step - attributed,
        "trace.overhead_pct": 100.0 * overhead,
        "training.validation_pct_of_train_call": 100.0 * statistics.median(call_shares["validation"]),
        "training.fixed_pct_of_train_call": 100.0 * statistics.median(call_shares["fixed"]),
    }

    shares = {name: total / step for name, total in totals.items()}
    shares["optim"] = optimizer / step
    flags = []
    if 100.0 * attributed / step < MIN_ATTRIBUTED_PCT:
        flags.append(f"isolated stages plus optimizer explain only {100.0 * attributed / step:.1f}% "
                     f"of the {step:.2f} ms step")
    check_reference(ctx.wl, ledger, ctx.scratch)
    result = ledger.result()
    result["samples"] = samples
    result["diagnostics"] = diagnostics
    result["stage_shares"] = dict(sorted(shares.items(), key=lambda kv: -kv[1]))
    result["largest_stage"] = max(totals, key=totals.get)
    result["flags"] = flags
    result["spans"] = tracer.span_log()
    return result
