"""Ranking metrics against brute-force oracles, exactly — no tolerance."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from capsroute.errors import ContractError, UndefinedMetricError
from capsroute.metrics import (
    MetricsReport,
    accuracy_score,
    confusion_counts,
    f1_score,
    pr_auc,
    roc_auc,
)


def roc_pair_oracle(scores, labels):
    """Probability a random positive outranks a random negative, ties = 1/2,
    counted over every (positive, negative) pair."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def pr_threshold_oracle(scores, labels):
    """Average precision by walking every distinct score as a threshold, from
    the definition: AP = sum over thresholds of (R_t - R_{t-1}) * P_t."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    thresholds = sorted(set(scores.tolist()), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        picked = scores >= t
        tp = int(((labels == 1) & picked).sum())
        fp = int(((labels == 0) & picked).sum())
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


# ----------------------------------------------------------------- hand cases


def test_confusion_enumeration():
    tp, fp, tn, fn = confusion_counts([1, 1, 0, 0], [1, 0, 1, 0])
    assert (tp, fp, tn, fn) == (1, 1, 1, 1)


def test_confusion_perfect_and_inverted():
    labels = [1, 0, 1, 1, 0]
    assert confusion_counts(labels, labels)[1] == 0  # FP
    assert confusion_counts(labels, labels)[3] == 0  # FN
    flipped = [1 - y for y in labels]
    tp, fp, tn, fn = confusion_counts(flipped, labels)
    assert tp == 0 and tn == 0


def test_f1_hand_values():
    assert f1_score([1, 1, 0], [1, 1, 0]) == 1.0
    assert f1_score([1, 1, 0, 0], [1, 0, 1, 0]) == 0.5  # TP=1, FP=1, FN=1
    assert f1_score([0, 0], [0, 0]) == 0.0  # degenerate: no positives anywhere


def test_accuracy():
    assert accuracy_score([1, 0, 1, 0], [1, 0, 0, 0]) == 0.75


def test_roc_perfectly_separated():
    assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_roc_all_ties_is_half():
    assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_roc_hand_case():
    assert roc_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == 0.75


def test_pr_perfectly_separated():
    assert pr_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_pr_hand_case():
    got = pr_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
    assert got == 1.0 * 0.5 + (2.0 / 3.0) * 0.5


def test_pr_single_positive_ranked_last():
    assert pr_auc([0.9, 0.8, 0.7, 0.6], [0, 0, 0, 1]) == 0.25


def test_undefined_cases_raise():
    with pytest.raises(UndefinedMetricError):
        roc_auc([0.1, 0.2], [1, 1])
    with pytest.raises(UndefinedMetricError):
        roc_auc([0.1, 0.2], [0, 0])
    with pytest.raises(UndefinedMetricError):
        pr_auc([0.1, 0.2], [0, 0])


@pytest.mark.parametrize("metric", [roc_auc, pr_auc])
def test_non_finite_scores_are_rejected(metric):
    # NaN never equals itself, so tie grouping would never advance past it.
    scores = [0.2, np.nan, 0.7, np.inf, 0.1]
    labels = [0, 1, 1, 0, 1]
    with pytest.raises(ContractError, match="2 non-finite"):
        metric(scores, labels)


def test_shape_mismatch_rejected():
    with pytest.raises(ContractError):
        roc_auc([0.1, 0.2, 0.3], [1, 0])


# ------------------------------------------------------------ oracle equality


def random_case(rng):
    """Scores drawn from a coarse grid so ties are common; both classes present."""
    n = int(rng.integers(2, 21))
    scores = rng.choice([0.1, 0.25, 0.5, 0.5, 0.75, 0.9], size=n)
    labels = rng.integers(0, 2, size=n)
    labels[0] = 1
    labels[1] = 0
    return scores, rng.permutation(labels)


def many_score_case(rng):
    """100 to 400 scores from 2,000 levels, so most are distinct: PR AUC then
    adds hundreds of terms, and their order of addition shows in the last bits."""
    n = int(rng.integers(100, 401))
    scores = rng.integers(0, 2000, size=n) / 2000.0
    labels = (rng.random(n) < 0.3).astype(int)
    labels[0] = 1
    labels[1] = 0
    return scores, rng.permutation(labels)


def oracle_cases(seed):
    """180 coarse cases with many ties, then 20 with many distinct scores."""
    rng = np.random.default_rng(seed)
    for case in range(200):
        yield case, *(random_case(rng) if case < 180 else many_score_case(rng))


def test_roc_matches_pair_oracle_exactly_on_200_cases():
    for case, scores, labels in oracle_cases(100):
        assert roc_auc(scores, labels) == roc_pair_oracle(scores, labels), (
            case, scores.tolist(), labels.tolist())


def test_pr_matches_threshold_oracle_exactly_on_200_cases():
    for case, scores, labels in oracle_cases(101):
        assert pr_auc(scores, labels) == pr_threshold_oracle(scores, labels), (
            case, scores.tolist(), labels.tolist())


def test_aucs_invariant_under_monotone_transform():
    rng = np.random.default_rng(102)
    for _ in range(20):
        scores, labels = random_case(rng)
        warped = np.exp(3.0 * scores) + 1.0  # strictly increasing, tie-preserving
        assert roc_auc(scores, labels) == roc_auc(warped, labels)
        assert pr_auc(scores, labels) == pr_auc(warped, labels)


def test_roc_of_negated_scores_complements_without_ties():
    rng = np.random.default_rng(103)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        scores = rng.permutation(n) / n  # all distinct
        labels = np.zeros(n, dtype=int)
        labels[rng.choice(n, size=max(1, n // 2), replace=False)] = 1
        if labels.sum() == n:
            labels[0] = 0
        assert_allclose(roc_auc(scores, labels) + roc_auc(-scores, labels), 1.0, atol=1e-12)


# --------------------------------------------------------------------- report


def test_report_marks_undefined_metrics():
    report = MetricsReport.from_predictions([1, 1], [0.9, 0.8], [1, 1])
    assert report.roc_auc is None
    assert report.pr_auc is not None
    text = report.to_text()
    assert "roc_auc=undefined" in text
    assert "accuracy=1.0" in text


def test_report_round_numbers():
    report = MetricsReport.from_predictions(
        [1, 1, 0, 0], [0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]
    )
    assert report.accuracy == 0.5
    assert report.tp == 1 and report.fp == 1 and report.tn == 1 and report.fn == 1
    assert report.n_samples == 4
    assert report.roc_auc == 0.75


def test_report_csv_and_table_shape():
    report = MetricsReport.from_predictions([1, 0], [0.9, 0.1], [1, 0])
    rows = report.csv_rows(seed=10)
    assert rows[0] == "accuracy,1.0,10"
    assert len(rows) == 9
    table = report.confusion_table()
    assert table.splitlines()[0].split() == ["true_1", "true_0"]
    assert len(table.splitlines()) == 3
