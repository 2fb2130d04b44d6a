"""Classifier evaluation: confusion matrix, per-class metrics,
one-vs-rest ROC curves, and the exact k-nearest-neighbor baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import LABELS, SampleSet, write_csv
from .errors import DataError


def confusion(predicted, truth) -> np.ndarray:
    """The 5x5 counts: ``counts[p][t]`` is the number of samples predicted
    as class p with ground truth t (rows are predictions, columns are
    truth)."""
    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ValueError(
            f"predicted and truth must be equal-length 1-D sequences, "
            f"got {predicted.shape} and {truth.shape}"
        )
    labels = np.asarray(LABELS)
    p_hit = predicted[:, None] == labels
    t_hit = truth[:, None] == labels
    outside = ~(p_hit.any(axis=1) & t_hit.any(axis=1))
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(
            f"label pair ({predicted[i]}, {truth[i]}) outside {list(LABELS)}"
        )
    n = len(labels)
    return np.bincount(
        p_hit.argmax(axis=1) * n + t_hit.argmax(axis=1), minlength=n * n
    ).reshape(n, n)


@dataclass
class ClassMetrics:
    """Per-class precision/recall/F1, their unweighted means, and overall
    accuracy.

    Precision divides the diagonal by the prediction-row total, recall
    by the ground-truth column total; a zero denominator yields 0.
    """

    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float


def metrics(counts) -> ClassMetrics:
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise DataError("confusion matrix is empty")
    diag = np.diag(counts)
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)

    precision = np.zeros(len(diag))
    recall = np.zeros(len(diag))
    f1 = np.zeros(len(diag))
    for c in range(len(diag)):
        if row_sums[c] > 0:
            precision[c] = diag[c] / row_sums[c]
        if col_sums[c] > 0:
            recall[c] = diag[c] / col_sums[c]
        if precision[c] + recall[c] > 0:
            f1[c] = 2 * precision[c] * recall[c] / (precision[c] + recall[c])

    return ClassMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=float(diag.sum() / total),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
    )


@dataclass
class RocCurve:
    """Threshold-sweep operating points for one class against the rest.

    ``points`` is an ordered (false-positive rate, true-positive rate)
    array from (0,0) to (1,1); ``auc`` is the exact rank statistic
    P(score_pos > score_neg) + 0.5 * P(tie).
    """

    points: np.ndarray
    auc: float


def roc_auc(scores, truth, class_label: int) -> RocCurve:
    """One-vs-rest ROC for ``class_label`` from per-sample score vectors."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != truth.shape[0]:
        raise ValueError(
            f"scores {scores.shape} and truth {truth.shape} do not align"
        )
    column = LABELS.index(class_label)
    s = scores[:, column]
    positive = truth == class_label
    n_pos = int(positive.sum())
    n_neg = int((~positive).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError(
            f"AUC undefined for class {class_label}: "
            f"{n_pos} positives, {n_neg} negatives"
        )

    # Sweep thresholds from high to low; each distinct score value is one
    # operating point.
    order = np.argsort(-s, kind="stable")
    sorted_pos = positive[order]
    tps = np.cumsum(sorted_pos)
    fps = np.cumsum(~sorted_pos)
    distinct = np.nonzero(np.diff(s[order]))[0]
    keep = np.concatenate([distinct, [len(s) - 1]])
    tpr = tps[keep] / n_pos
    fpr = fps[keep] / n_neg
    points = np.vstack(
        [np.concatenate([[0.0], fpr]), np.concatenate([[0.0], tpr])]
    ).T

    # Exact rank-based AUC via midranks: handles ties without pair loops.
    ranks = _midranks(s)
    pos_rank_sum = ranks[positive].sum()
    auc = (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return RocCurve(points=points, auc=float(auc))


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    # a run of c ties ending at rank e holds ranks e-c+1..e, mean e-(c-1)/2
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def save_roc(curve: RocCurve, path) -> None:
    """CSV operating points with both linear and log10 FPR columns."""
    fpr, tpr = curve.points.T
    log_fpr = np.log10(fpr, out=np.full_like(fpr, -np.inf), where=fpr > 0)
    write_csv(path, ("fpr", "log10_fpr", "tpr"),
              np.column_stack((fpr, log_fpr, tpr)))


# ---------------------------------------------------------------------------
# k-nearest-neighbor baseline: exact search in the raw 64-channel space

# Bytes per block of query-to-training distances. Each block allocates one
# array of this size, and blocks this small stay below glibc's mmap threshold
# (at most 32 MiB), so later blocks reuse the pages of earlier ones instead
# of faulting in fresh ones.
KNN_BLOCK_BYTES = 16 << 20


def knn_classify(train: SampleSet, test_features, k: int = 3) -> np.ndarray:
    """Majority vote among the k nearest training samples (Euclidean).

    Exactness contract: neighbours are ordered by the direct float64 sum
    of (x - y)^2 over the channels, and equal sums by lower training
    index. A vote tie goes to the tied label whose nearest member ranks
    first. Queries that are not (m, training width), non-finite queries,
    and features whose squared distances would overflow float64, raise
    :class:`DataError`.
    """
    if len(train) == 0:
        raise DataError("empty training set")
    if not 1 <= k <= len(train):
        raise DataError(f"k must be in 1..{len(train)}, got {k}")
    X = train.features
    test_features = np.asarray(test_features, dtype=np.float64)
    if test_features.ndim != 2 or test_features.shape[1] != X.shape[1]:
        raise DataError(
            f"knn queries must be (m, {X.shape[1]}) to match the training "
            f"features {X.shape}, got {test_features.shape}"
        )

    y = train.labels
    sq_train = np.einsum("ij,ij->i", X, X)
    sq_test = np.einsum("ij,ij->i", test_features, test_features)
    max_sq_train = sq_train.max()
    # Every term below is at most 4 (|q|^2 + max|x|^2) in magnitude, so this
    # keeps both distance forms finite; NaN and infinite queries fail it too.
    if not np.isfinite(4.0 * (sq_test.max(initial=0.0) + max_sq_train)):
        raise DataError(
            "knn features are non-finite or too large: squared distances "
            "overflow float64"
        )
    # Candidate slack. Rows are ranked by e = |x|^2 - 2 q.x, the squared
    # distance less |q|^2, which is the same along a query's row. With d
    # channels, S = |q|^2 + max|x|^2 and u = eps/2, scaling q by -2 is exact,
    # the dot product and |x|^2 each carry the gamma_d = d u summation bound
    # (2|q.x| <= S) and the one addition adds u times a sum below 2S, so e is
    # off by at most about (2d + 2) u S. The direct sum of (x - q)^2 is off by
    # at most (d + 2) u times a distance below 2S. So both errors together
    # are E <= (2d + 3) eps S. Let t be any value with k rows at e <= t:
    # their direct distances are at most t + |q|^2 + E, so each of the k
    # nearest rows has e <= t + 2E, and a row above that cannot be one of
    # them. 4 (d + 3) eps S covers 2E with room for the second-order terms.
    bound = 4.0 * (X.shape[1] + 3) * np.finfo(np.float64).eps
    # t is the k-th smallest of the minima of strided groups of rows (group g
    # holds rows g, g + groups, ...): k group minima are k distinct rows. The
    # tail rows past span fall in no group but stay in the candidate test.
    # About sqrt(n) groups keep the partition short and the candidates few
    # (about 3 per query for k = 3 against 21,000 EEG samples).
    groups = max(k, math.isqrt(len(train)))
    span = groups * (len(train) // groups)
    chunk = max(1, KNN_BLOCK_BYTES // (8 * len(train)))
    out = np.empty(test_features.shape[0], dtype=np.int64)

    for lo in range(0, test_features.shape[0], chunk):
        block = test_features[lo : lo + chunk]
        e = (-2.0 * block) @ X.T
        e += sq_train
        minima = e[:, :span].reshape(len(block), -1, groups).min(axis=1)
        t = np.partition(minima, k - 1, axis=1)[:, k - 1]
        limit = t + bound * (sq_test[lo : lo + chunk] + max_sq_train)
        for row, q in enumerate(block):
            cand = np.flatnonzero(e[row] <= limit[row])
            exact = np.square(X[cand] - q).sum(axis=1)
            top = y[cand[np.lexsort((cand, exact))[:k]]]
            votes = np.bincount(top)
            out[lo + row] = top[np.argmax(votes[top] == votes.max())]
    return out


# ---------------------------------------------------------------------------
# report writer: counts grid with per-class metric columns, a totals row,
# an averages row, and one machine-readable accuracy line

def save_report(counts, m: ClassMetrics, auc, macro_auc, path) -> None:
    """``auc`` holds one AUC per class, None where it is undefined."""
    blanks = [None] * len(LABELS)
    header = ("predicted", *(f"truth_{t}" for t in LABELS),
              "precision", "recall", "f1", "auc")
    write_csv(path, header, [
        *((label, *map(int, counts[i]), m.precision[i], m.recall[i], m.f1[i],
           auc[i]) for i, label in enumerate(LABELS)),
        ("total", *map(int, counts.sum(axis=0)), None, None, None, None),
        ("average", *blanks, m.macro_precision, m.macro_recall, m.macro_f1,
         macro_auc),
        ("accuracy", m.accuracy),
    ])
