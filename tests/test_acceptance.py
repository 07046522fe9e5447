"""Acceptance gate: eleven checks covering gradients, routing oracles, squash
and normalization invariants, metric oracles, training sanity, the three
comparative directions, determinism, and the lambda sweep.

Each check prints one ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s``
or in captured output) before asserting, so a red run still reports every
criterion it reached.
"""

import time

import numpy as np
import pytest

from capsroute import (
    Tensor,
    attention_routing,
    dynamic_routing,
    pr_auc,
    roc_auc,
    squash,
)
from capsroute.bench import bench_routing
from capsroute.config import resolve
from capsroute.data import load, save
from capsroute.experiment import prepare_splits, run_experiment, sweep_lambda, lambda_table
from capsroute.gradcheck import standard_suite


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion:2d}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ----------------------------------------------------------- reference oracles


def _squash_vec(v, eps=1e-12):
    n = np.sqrt(np.sum(np.asarray(v, dtype=np.float64) ** 2) + eps)
    return np.asarray(v) * n / (1.0 + n * n)


def _dynamic_oracle(votes: np.ndarray, iterations: int):
    """Per-sample routing with explicit Python loops over capsules."""
    bsz, n_in, n_out, d_out = votes.shape
    out = np.zeros((bsz, n_out, d_out))
    for b in range(bsz):
        logits = np.zeros((n_in, n_out))
        for _ in range(iterations):
            c = np.exp(logits - logits.max(axis=1, keepdims=True))
            c /= c.sum(axis=1, keepdims=True)
            v = np.zeros((n_out, d_out))
            for j in range(n_out):
                s = np.zeros(d_out)
                for i in range(n_in):
                    s += c[i, j] * votes[b, i, j]
                v[j] = _squash_vec(s)
            for i in range(n_in):
                for j in range(n_out):
                    logits[i, j] += float(votes[b, i, j] @ v[j])
        out[b] = v
    return out


def _attention_oracle(votes: np.ndarray, weight: np.ndarray, bias: float):
    bsz, n_in, n_out, d_out = votes.shape
    logits = votes.reshape(-1, d_out) @ weight.reshape(d_out)
    logits = logits.reshape(bsz, n_in, n_out) + bias
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    out = np.zeros((bsz, n_out, d_out))
    for b in range(bsz):
        for j in range(n_out):
            s = np.zeros(d_out)
            for i in range(n_in):
                s += att[b, i, j] * votes[b, i, j]
            out[b, j] = _squash_vec(s)
    return out


def _roc_pair_oracle(scores, labels):
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            wins += 1.0 if p > n else (0.5 if p == n else 0.0)
    return wins / (len(pos) * len(neg))


def _pr_threshold_oracle(scores, labels):
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    n_pos = int((labels == 1).sum())
    area, prev_recall = 0.0, 0.0
    for t in sorted(set(scores.tolist()), reverse=True):
        picked = scores >= t
        tp = int(((labels == 1) & picked).sum())
        precision = tp / int(picked.sum())
        recall = tp / n_pos
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


# ------------------------------------------------------------------- criteria


def test_criterion_01_gradient_suite():
    started = time.perf_counter()
    results = standard_suite(seed=7)
    elapsed = time.perf_counter() - started
    failed = [r.name for r in results if not r.ok]
    op_tols = {r.tolerance for r in results if r.name.startswith("op.")}
    e2e = [r for r in results if r.name.startswith("end_to_end.")]
    ok = (
        not failed
        and op_tols == {1e-6}
        and len(e2e) == 1
        and e2e[0].tolerance == 1e-4
        and elapsed < 120.0
    )
    _report(1, ok, f"{len(results)} gradient checks, worst tier tolerances "
                   f"(ops 1e-6, end-to-end 1e-4), {elapsed:.1f}s < 120s, failures: {failed}")


def test_criterion_02_routing_oracles():
    rng = np.random.default_rng(2024)
    worst_dyn = 0.0
    for _ in range(20):
        b, n_in, n_out, d_out = rng.integers(1, 4), rng.integers(1, 17), rng.integers(1, 5), rng.integers(1, 9)
        r = int(rng.integers(1, 5))
        votes = rng.normal(0.0, 1.0, size=(b, n_in, n_out, d_out))
        got = dynamic_routing(Tensor(votes), r)[0].activations.data
        worst_dyn = max(worst_dyn, float(np.abs(got - _dynamic_oracle(votes, r)).max()))
    worst_att = 0.0
    for _ in range(20):
        b, n_in, n_out, d_out = rng.integers(1, 4), rng.integers(1, 17), rng.integers(1, 5), rng.integers(1, 9)
        votes = rng.normal(0.0, 1.0, size=(b, n_in, n_out, d_out))
        weight = rng.normal(0.0, 0.7, size=(d_out, 1))
        bias = float(rng.normal(0.0, 0.3))  # the oracle's logit bias, which its softmax cancels
        got = attention_routing(Tensor(votes), Tensor(weight))[0].activations.data
        worst_att = max(worst_att, float(np.abs(got - _attention_oracle(votes, weight, bias)).max()))
    ok = worst_dyn < 1e-10 and worst_att < 1e-12
    _report(2, ok, f"20+20 cases: dynamic max err {worst_dyn:.2e} < 1e-10, "
                   f"attention max err {worst_att:.2e} < 1e-12")


def test_criterion_03_squash_invariants():
    rng = np.random.default_rng(3)
    vecs = rng.normal(0.0, 2.0, size=(1000, 8))
    out = squash(Tensor(vecs)).data
    norms_in = np.linalg.norm(vecs, axis=1)
    norms_out = np.linalg.norm(out, axis=1)
    norm_err = float(np.abs(norms_out - norms_in**2 / (1.0 + norms_in**2)).max())
    dir_err = float(np.abs(out / norms_out[:, None] - vecs / norms_in[:, None]).max())
    zero = squash(Tensor(np.zeros((1, 8)))).data
    ok = norm_err < 1e-9 and dir_err < 1e-9 and np.all(zero == 0.0)
    _report(3, ok, f"1000 vectors: norm-law err {norm_err:.2e}, direction err {dir_err:.2e}, zero maps to zero")


def test_criterion_04_normalization_invariants():
    rng = np.random.default_rng(4)
    votes = Tensor(rng.normal(0.0, 1.0, size=(3, 10, 4, 6)))
    _, state = dynamic_routing(votes, 4)
    worst_dyn = max(
        float(np.abs(c.sum(axis=2) - 1.0).max()) for c in state.coefficients
    )
    weight = Tensor(rng.normal(0.0, 0.5, size=(6, 1)))
    _, att_state = attention_routing(votes, weight)
    worst_att = float(np.abs(att_state.coefficients[0].sum(axis=1) - 1.0).max())
    ok = worst_dyn < 1e-9 and worst_att < 1e-9
    _report(4, ok, f"coupling sums: dynamic per-iteration err {worst_dyn:.2e}, "
                   f"attention per-output err {worst_att:.2e} (both < 1e-9)")


def test_criterion_05_metric_oracles():
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 21))
        scores = rng.choice([0.1, 0.25, 0.5, 0.5, 0.75, 0.9], size=n)
        labels = np.zeros(n, dtype=np.int64)
        labels[0], labels[1 % n] = 1, 0
        labels[2:] = rng.integers(0, 2, size=max(n - 2, 0))
        perm = rng.permutation(n)
        scores, labels = scores[perm], labels[perm]
        if roc_auc(scores, labels) != _roc_pair_oracle(scores, labels):
            mismatches += 1
        if pr_auc(scores, labels) != _pr_threshold_oracle(scores, labels):
            mismatches += 1
    hand_ok = (
        roc_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == 0.75
        and roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5
        and pr_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == 0.5 + (2.0 / 3.0) * 0.5
        and pr_auc([0.9, 0.8, 0.7, 0.6], [0, 0, 0, 1]) == 0.25
    )
    ok = mismatches == 0 and hand_ok
    _report(5, ok, f"200 randomized cases bit-equal to pair/threshold oracles "
                   f"({mismatches} mismatches), hand cases exact: {hand_ok}")


TRAIN_SANITY = {
    "n_samples": 2000,
    "positive_ratio": 0.5,
    "hidden_dim": 16,
    "lr": 3e-3,
    "batch_size": 8,
    "max_epochs": 20,
    "patience": 20,
    "seed": 10,
}


def test_criterion_06_training_sanity():
    cfg = resolve()
    cfg.update(TRAIN_SANITY)
    started = time.perf_counter()
    _, record = run_experiment(cfg)
    elapsed = time.perf_counter() - started
    acc = record.metrics["train"].accuracy
    ok = acc >= 0.95 and len(record.epochs) <= 20 and elapsed < 600.0
    _report(6, ok, f"balanced 2000-sample run: train accuracy {acc:.4f} >= 0.95 "
                   f"in {len(record.epochs)} epochs, {elapsed:.0f}s < 600s")


IMBALANCE_BENCH = {
    "n_samples": 2000,
    "positive_ratio": 0.2,
    "hidden_dim": 16,
    "width_normal": (6.0, 9.0),
    "width_dilated": (9.5, 12.5),
    "noise_sigma": 0.6,
    "split_fractions": (0.5, 0.1, 0.4),
    "lr": 3e-4,
    "batch_size": 8,
    "max_epochs": 3,
    "patience": 3,
}


def test_criterion_07_imbalance_direction():
    gaps = []
    for seed in (10, 11, 12):
        base = resolve()
        base.update(IMBALANCE_BENCH)
        base["seed"] = seed
        plain = dict(base, weight_mode="uniform", lambda_reg=0.0, lambda_recon=0.0)
        _, plain_rec = run_experiment(plain)
        _, weighted_rec = run_experiment(base)
        gaps.append(weighted_rec.metrics["test"].pr_auc - plain_rec.metrics["test"].pr_auc)
    mean_gap = float(np.mean(gaps))
    ok = mean_gap >= 0.05
    _report(7, ok, "weighted+auxiliary test PR AUC minus plain margin: "
                   + ", ".join(f"{g:+.4f}" for g in gaps)
                   + f"; mean {mean_gap:+.4f} >= +0.05")


def test_criterion_08_routing_efficiency():
    rows = bench_routing(repeats=15)
    med = {(r.method, r.n_in, r.iterations): r.median_seconds for r in rows}
    faster, monotone = [], []
    for n_in in (128, 512, 1152):
        faster.append(med[("attention", n_in, 1)] < med[("dynamic", n_in, 3)])
        monotone.append(
            med[("dynamic", n_in, 1)] < med[("dynamic", n_in, 2)] < med[("dynamic", n_in, 3)]
        )
    ok = all(faster) and all(monotone)
    ratios = [med[("dynamic", n, 3)] / med[("attention", n, 1)] for n in (128, 512, 1152)]
    _report(8, ok, "attention faster than dynamic r=3 at n_in 128/512/1152 "
                   f"(speedups {', '.join(f'{r:.1f}x' for r in ratios)}); "
                   f"dynamic monotone in r: {all(monotone)}")


ROTATION_BENCH = {
    "n_samples": 1000,
    "positive_ratio": 0.5,
    "hidden_dim": 16,
    "noise_sigma": 0.15,
    "rotation_shift_test": True,
    "lr": 1e-3,
    "batch_size": 8,
    "max_epochs": 6,
    "patience": 6,
}


def test_criterion_09_affine_ablation_direction():
    diffs = []
    for seed in (10, 11, 12):
        base = resolve()
        base.update(ROTATION_BENCH)
        base["seed"] = seed
        shared = dict(base, affine_kind="shared")
        constant = dict(base, affine_kind="constant")
        _, shared_rec = run_experiment(shared)
        _, constant_rec = run_experiment(constant)
        diffs.append(
            shared_rec.metrics["test"].accuracy - constant_rec.metrics["test"].accuracy
        )
    mean_diff = float(np.mean(diffs))
    ok = mean_diff >= 0.0
    _report(9, ok, "shared minus constant affine test accuracy on rotation-shifted split: "
                   + ", ".join(f"{d:+.4f}" for d in diffs) + f"; mean {mean_diff:+.4f} >= 0")


def test_criterion_10_determinism(tmp_path):
    cfg = resolve()
    cfg.update(
        {
            "n_samples": 200,
            "positive_ratio": 0.2,
            "hidden_dim": 16,
            "lr": 1e-3,
            "batch_size": 8,
            "max_epochs": 2,
            "patience": 2,
            "seed": 10,
        }
    )
    _, rec_a = run_experiment(cfg)
    _, rec_b = run_experiment(cfg)
    records_equal = rec_a.canonical_text() == rec_b.canonical_text()

    splits = prepare_splits(cfg)
    path_a, path_b = tmp_path / "a.ecap", tmp_path / "b.ecap"
    save(splits[0], path_a)
    save(load(path_a), path_b)
    bytes_equal = path_a.read_bytes() == path_b.read_bytes()
    ok = records_equal and bytes_equal
    _report(10, ok, f"seed-10 reruns bit-identical: {records_equal}; "
                    f"dataset file round-trip byte-identical: {bytes_equal}")


LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.5)


def test_criterion_11_lambda_sweep():
    cfg = resolve()
    cfg.update(
        {
            "n_samples": 400,
            "positive_ratio": 0.2,
            "hidden_dim": 16,
            "lr": 1e-3,
            "batch_size": 8,
            "max_epochs": 2,
            "patience": 2,
            "seed": 10,
        }
    )
    results = sweep_lambda(cfg, LAMBDA_GRID)
    table = lambda_table(results)
    lines = table.strip().split("\n")
    header_ok = lines[0] == "lambda,accuracy,f1,roc_auc,pr_auc"
    lams, parse_ok = [], True
    for line in lines[1:]:
        cells = line.split(",")
        lams.append(float(cells[0]))
        for cell in cells[1:]:
            if cell != "undefined":
                try:
                    float(cell)
                except ValueError:
                    parse_ok = False
    grid_ok = tuple(lams) == LAMBDA_GRID and all(a < b for a, b in zip(lams, lams[1:]))
    ok = header_ok and parse_ok and grid_ok and len(lines) == 1 + len(LAMBDA_GRID)
    _report(11, ok, f"sweep over {LAMBDA_GRID} completed; table has {len(lines) - 1} "
                    f"parseable rows in ascending lambda order")
