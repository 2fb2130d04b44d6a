"""Classifier evaluation: confusion matrix, per-class metrics,
one-vs-rest ROC curves, and the exact k-nearest-neighbor baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SampleSet
from .errors import DataError

N_CLASSES = 5


@dataclass
class ConfusionMatrix:
    """counts[p][t] = number of samples predicted as class p with ground
    truth t (rows are predictions, columns are truth)."""

    counts: np.ndarray
    class_labels: tuple = (1, 2, 3, 4, 5)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(predicted, truth, class_labels=(1, 2, 3, 4, 5)) -> ConfusionMatrix:
    predicted = np.asarray(predicted, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if predicted.shape != truth.shape or predicted.ndim != 1:
        raise ValueError(
            f"predicted and truth must be equal-length 1-D sequences, "
            f"got {predicted.shape} and {truth.shape}"
        )
    labels = np.asarray(class_labels, dtype=np.int64)
    p_hit = predicted[:, None] == labels
    t_hit = truth[:, None] == labels
    outside = ~(p_hit.any(axis=1) & t_hit.any(axis=1))
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(
            f"label pair ({predicted[i]}, {truth[i]}) outside {list(class_labels)}"
        )
    n = len(labels)
    counts = np.bincount(
        p_hit.argmax(axis=1) * n + t_hit.argmax(axis=1), minlength=n * n
    ).reshape(n, n)
    return ConfusionMatrix(counts=counts, class_labels=tuple(class_labels))


@dataclass
class ClassMetrics:
    """Per-class precision/recall/F1 (and AUC when scores are supplied),
    their unweighted means, and overall accuracy.

    Precision divides the diagonal by the prediction-row total, recall
    by the ground-truth column total; a zero denominator yields 0 and is
    flagged in ``degenerate``.
    """

    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    auc: np.ndarray | None = None
    macro_auc: float | None = None
    degenerate: tuple = ()


def metrics(cm: ConfusionMatrix) -> ClassMetrics:
    counts = cm.counts.astype(np.float64)
    total = counts.sum()
    if total <= 0:
        raise DataError("confusion matrix is empty")
    diag = np.diag(counts)
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)

    degenerate = []
    precision = np.zeros(len(diag))
    recall = np.zeros(len(diag))
    f1 = np.zeros(len(diag))
    for c in range(len(diag)):
        if row_sums[c] > 0:
            precision[c] = diag[c] / row_sums[c]
        else:
            degenerate.append((cm.class_labels[c], "precision"))
        if col_sums[c] > 0:
            recall[c] = diag[c] / col_sums[c]
        else:
            degenerate.append((cm.class_labels[c], "recall"))
        if precision[c] + recall[c] > 0:
            f1[c] = 2 * precision[c] * recall[c] / (precision[c] + recall[c])
        else:
            degenerate.append((cm.class_labels[c], "f1"))

    return ClassMetrics(
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=float(diag.sum() / total),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        degenerate=tuple(degenerate),
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
    class_label: int


def roc_auc(scores, truth, class_label: int,
            class_labels=(1, 2, 3, 4, 5)) -> RocCurve:
    """One-vs-rest ROC for ``class_label`` from per-sample score vectors."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != truth.shape[0]:
        raise ValueError(
            f"scores {scores.shape} and truth {truth.shape} do not align"
        )
    column = list(class_labels).index(class_label)
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
    return RocCurve(points=points, auc=float(auc), class_label=class_label)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    # a run of c ties ending at rank e holds ranks e-c+1..e, mean e-(c-1)/2
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def save_roc(curve: RocCurve, path) -> None:
    """CSV operating points with both linear and log10 FPR columns."""
    with open(path, "w", newline="\n") as fh:
        fh.write("fpr,log10_fpr,tpr\n")
        for fpr, tpr in curve.points:
            log_fpr = repr(float(np.log10(fpr))) if fpr > 0 else "-inf"
            fh.write(f"{repr(float(fpr))},{log_fpr},{repr(float(tpr))}\n")


# ---------------------------------------------------------------------------
# k-nearest-neighbor baseline: exact search in the raw 64-channel space

# Bytes per block of query-to-training distances. Blocks this small stay
# below glibc's mmap threshold (at most 32 MiB), so later blocks reuse the
# pages of earlier ones instead of faulting in fresh ones.
KNN_BLOCK_BYTES = 16 << 20


def knn_classify(train: SampleSet, test_features, k: int = 3) -> np.ndarray:
    """Majority vote among the k nearest training samples (Euclidean).

    Exactness contract: neighbours are ordered by the direct float64 sum
    of (x - y)^2 over the channels, and equal sums by lower training
    index. A vote tie goes to the tied label whose nearest member ranks
    first. Non-finite queries, and features whose squared distances
    would overflow float64, raise :class:`DataError`.
    """
    if len(train) == 0:
        raise ValueError("empty training set")
    if not 1 <= k <= len(train):
        raise ValueError(f"k must be in 1..{len(train)}, got {k}")
    test_features = np.asarray(test_features, dtype=np.float64)
    if test_features.ndim == 1:
        test_features = test_features[None, :]

    X = train.features
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
    # Candidate slack. With d channels, S = |q|^2 + max|x|^2 and u = eps/2,
    # the expanded form |q|^2 + |x|^2 - 2 q.x is off from the true squared
    # distance by at most about (2d + 4) u S: each norm and the dot product
    # carry the gamma_d = d u summation bound (2|q.x| <= S), and the two
    # additions add u times partial sums below 2S. The direct sum of
    # (x - q)^2 is off by at most (d + 2) u times a distance below 2S. So
    # both errors together are E <= 2 (d + 2) eps S. A row whose expanded
    # value exceeds the k-th smallest expanded value by more than 2E has a
    # direct distance strictly above k rows that do not, and cannot be one
    # of the k nearest. 4 (d + 3) eps S covers 2E with room for the
    # second-order terms.
    bound = 4.0 * (X.shape[1] + 3) * np.finfo(np.float64).eps
    chunk = max(1, KNN_BLOCK_BYTES // (8 * len(train)))
    out = np.empty(test_features.shape[0], dtype=np.int64)

    for lo in range(0, test_features.shape[0], chunk):
        block = test_features[lo : lo + chunk]
        sq_block = sq_test[lo : lo + chunk]
        d2 = block @ X.T
        d2 *= -2.0
        d2 += sq_block[:, None]
        d2 += sq_train
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
        limit = kth + bound * (sq_block + max_sq_train)
        for row, q in enumerate(block):
            cand = np.flatnonzero(d2[row] <= limit[row])
            exact = np.square(X[cand] - q).sum(axis=1)
            top = y[cand[np.lexsort((cand, exact))[:k]]]
            votes = np.bincount(top)
            out[lo + row] = top[np.argmax(votes[top] == votes.max())]
    return out


# ---------------------------------------------------------------------------
# report writer: counts grid with per-class metric columns, a totals row,
# an averages row, and one machine-readable accuracy line

def save_report(cm: ConfusionMatrix, m: ClassMetrics, path) -> None:
    labels = cm.class_labels
    with open(path, "w", newline="\n") as fh:
        truth_cols = ",".join(f"truth_{t}" for t in labels)
        fh.write(f"predicted,{truth_cols},precision,recall,f1,auc\n")
        for i, label in enumerate(labels):
            row = ",".join(str(int(v)) for v in cm.counts[i])
            auc = ""
            if m.auc is not None and np.isfinite(m.auc[i]):
                auc = repr(float(m.auc[i]))
            fh.write(
                f"{label},{row},{repr(float(m.precision[i]))},"
                f"{repr(float(m.recall[i]))},{repr(float(m.f1[i]))},{auc}\n"
            )
        totals = ",".join(str(int(v)) for v in cm.counts.sum(axis=0))
        fh.write(f"total,{totals},,,,\n")
        macro_auc = repr(float(m.macro_auc)) if m.macro_auc is not None else ""
        fh.write(
            f"average,,,,,,{repr(float(m.macro_precision))},"
            f"{repr(float(m.macro_recall))},{repr(float(m.macro_f1))},"
            f"{macro_auc}\n"
        )
        fh.write(f"accuracy,{repr(float(m.accuracy))}\n")
