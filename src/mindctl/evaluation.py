"""Classifier evaluation: confusion matrix, per-class metrics,
one-vs-rest ROC curves, and the exact k-nearest-neighbor baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import LABELS, SampleSet, write_csv
from .errors import DataError
from .model import check_int


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
    # LABELS are consecutive: a label's offset from the first is its index
    n = len(LABELS)
    p, t = predicted - LABELS[0], truth - LABELS[0]
    outside = (p < 0) | (p >= n) | (t < 0) | (t >= n)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(
            f"label pair ({predicted[i]}, {truth[i]}) outside {list(LABELS)}"
        )
    return np.bincount(p * n + t, minlength=n * n).reshape(n, n)


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
    rows, cols = counts.sum(axis=1), counts.sum(axis=0)
    precision = np.divide(diag, rows, out=np.zeros(len(diag)), where=rows > 0)
    recall = np.divide(diag, cols, out=np.zeros(len(diag)), where=cols > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=np.zeros(len(diag)),
                   where=both > 0)
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
    array of the curve's corners from (0,0) to (1,1); ``auc`` is the exact
    rank statistic P(score_pos > score_neg) + 0.5 * P(tie).
    """

    points: np.ndarray
    auc: float


def roc_auc(scores, truth, class_label: int) -> RocCurve:
    """One-vs-rest ROC for ``class_label`` from per-sample score vectors."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
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
    # operating point, and (0, 0) comes first.
    order = np.argsort(-s, kind="stable")
    sorted_pos = positive[order]
    keep = np.append(np.nonzero(np.diff(s[order]))[0], len(s) - 1)
    tps = np.append(0, np.cumsum(sorted_pos)[keep])
    fps = np.append(0, np.cumsum(~sorted_pos)[keep])
    # Only corners stay. A point strictly inside a run of horizontal steps
    # (no new positive) or vertical ones (no new negative) goes, which keeps
    # the trapezoid sum below; one between collinear mixed steps stays, as
    # they bend on a log10 FPR axis.
    dt, df = np.diff(tps) > 0, np.diff(fps) > 0
    corner = np.r_[True, (dt[:-1] | dt[1:]) & (df[:-1] | df[1:]), True]
    tps, fps = tps[corner], fps[corner]
    points = np.column_stack((fps / n_neg, tps / n_pos))

    # A step from (fp, tp) to (fp + dn, tp + dp) has trapezoid dn (2 tp + dp)
    # in counts: twice the pairs its dn negatives lose to the tp positives
    # above them, plus the dn dp pairs tied at its threshold. The steps sum
    # to 2U (U: the pairs a positive wins plus half the tied ones), so the
    # exact quotient below is rounded once.
    twice_u = int(np.dot(np.diff(fps), tps[1:] + tps[:-1]))
    return RocCurve(points=points, auc=twice_u / (2 * n_pos * n_neg))


def save_roc(curve: RocCurve, path) -> None:
    """CSV operating points with both linear and log10 FPR columns."""
    fpr, tpr = curve.points.T
    log_fpr = np.log10(fpr, out=np.full_like(fpr, -np.inf), where=fpr > 0)
    write_csv(path, ("fpr", "log10_fpr", "tpr"),
              zip(fpr.tolist(), log_fpr.tolist(), tpr.tolist()))


# ---------------------------------------------------------------------------
# the one majority vote, over KNN's neighbours and replay's windows

def vote(groups, labels, ranks, n_groups: int) -> np.ndarray:
    """The winning label of each of ``n_groups`` groups, where member i
    votes for ``labels[i]`` in group ``groups[i]`` with rank ``ranks[i]``.

    The label with the most members wins, and a tie goes to the tied
    label whose best-ranked member ranks first (has the smallest rank;
    then the smaller label).
    """
    slots = LABELS[-1] + 1
    key = groups * slots + labels
    votes = np.bincount(key, minlength=n_groups * slots)
    last = int(ranks.max(initial=0)) + 1
    first = np.full(n_groups * slots, last)
    np.minimum.at(first, key, ranks)
    # one vote outweighs any difference of first ranks
    return (votes * (last + 1) - first).reshape(n_groups, slots).argmax(axis=1)


# ---------------------------------------------------------------------------
# k-nearest-neighbor baseline: exact search in the raw 64-channel space

# Bytes per block of float32 query-to-training screen values: every block
# of a call is screened into one array of this size.
KNN_BLOCK_BYTES = 16 << 20


def knn_classify(train: SampleSet, test_features, k: int = 3) -> np.ndarray:
    """Majority vote among the k nearest training samples (Euclidean).

    Exactness contract: neighbours are ordered by the direct float64 sum
    of (x - y)^2 over the channels, and equal sums by lower training
    index. A vote tie goes to the tied label whose nearest member ranks
    first. A k that is not an integer in 1..len(train), queries that are
    not (m, training width), non-finite queries, and features whose
    squared distances would overflow float64, raise :class:`DataError`.
    """
    if len(train) == 0:
        raise DataError("empty training set")
    check_int("k", k, 1)
    if k > len(train):
        raise DataError(f"k must be in 1..{len(train)}, got {k}")
    X = train.features
    test_features = np.asarray(test_features, dtype=np.float64)
    if test_features.ndim != 2 or test_features.shape[1] != X.shape[1]:
        raise DataError(
            f"knn queries must be (m, {X.shape[1]}) to match the training "
            f"features {X.shape}, got {test_features.shape}"
        )

    y = train.labels
    n, d = X.shape
    sq_train = np.einsum("ij,ij->i", X, X)
    sq_test = np.einsum("ij,ij->i", test_features, test_features)
    # Every term below is at most 4 (|q|^2 + max|x|^2) in magnitude, so this
    # keeps both distance forms finite; NaN and infinite queries fail it too.
    if not np.isfinite(4.0 * (sq_test.max(initial=0.0) + sq_train.max())):
        raise DataError(
            "knn features are non-finite or too large: squared distances "
            "overflow float64"
        )
    # Rows are screened by e = |x|^2 - 2 q.x, the squared distance less |q|^2,
    # which is the same along a query's row. Both are first moved by the
    # training rows' mean: distances do not change, and an offset that every
    # row shares no longer sets the screen's rounding. The screen is one
    # float32 product of a = [-2 s q, 1] and b = [s x, s^2 |x|^2]. With
    # S = max|q|^2 + max|x|^2 over the moved rows, the power of two s puts
    # S' = s^2 S in [1/4, 1), so the scaling is exact, no term can overflow,
    # and the product is s^2 e.
    centre = X.mean(axis=0)
    Xc, Qc = X - centre, test_features - centre
    sq_xc = np.einsum("ij,ij->i", Xc, Xc)
    S = np.einsum("ij,ij->i", Qc, Qc).max(initial=0.0) + sq_xc.max()
    s = math.ldexp(1.0, -math.frexp(S)[1] // 2)
    # t is the k-th smallest of the minima of strided groups of rows (group g
    # holds rows g, g + groups, ...): k group minima are k distinct rows. Only
    # groups whose minimum passes the limit are scanned. About sqrt(n) groups
    # keep the partition short and the candidates few (about 3 per query for
    # k = 3 against 21,000 EEG samples). Padded rows fill the last stride and
    # screen at 4, above any real row (below 2 S' < 2) and so the limit, as
    # every group holds a real row (groups <= n).
    groups = max(k, math.isqrt(n))
    padded = groups * -(-n // groups)
    B = np.zeros((padded, d + 1), dtype=np.float32)
    np.multiply(Xc, s, out=B[:n, :d], casting="same_kind")
    B[:n, d] = sq_xc * s * s
    B[n:, d] = 4.0
    A = np.empty((len(test_features), d + 1), dtype=np.float32)
    np.multiply(Qc, -2.0 * s, out=A[:, :d], casting="same_kind")
    A[:, d] = 1.0
    del Xc, Qc
    # Candidate slack, in units of s^2. Let u = 2^-24 and u64 = 2^-53 be the
    # unit roundoffs, and mu = 2^-126 and mu64 = 2^-1022 bound what one
    # underflow loses, also where subnormals flush to zero. Each of the d
    # terms 2 s q_i * s x_i is off by 2u relative (both inputs are rounded),
    # and they sum to at most 2 s^2 |q||x| <= S'; s^2 |x|^2 is off by u plus
    # the d u64 of its float64 sum; the float32 accumulation of d + 1 terms
    # whose magnitudes sum below 2 S' adds (d + 1) u 2 S'; rounding the moved
    # coordinates moves e by at most 4 u64 S'. Every input is below 2, so
    # underflow adds at most 6 (d + 1) mu in float32 and 5 d mu64 s^2 in
    # float64 (what s < 1 leaves of the latter is below mu). The screen is
    # therefore off by E32 <= (2d + 6) u S' + 6 (d + 1) mu + 5 d mu64 s^2,
    # where one u S' covers the second-order terms and (d + 4) u64 S' for d
    # up to about 2^11. The direct sum of (x - q)^2 is off by E64 <= (d + 3)
    # u64 times a distance below 2 S', plus 3 d mu64 s^2. Let t be any value
    # with k rows at a screened value <= t: their direct distances are at
    # most t + s^2 |q|^2 + E32 + E64, so each of the k nearest rows has a
    # screened value of at most t + 2 E32 + 2 E64, and a row above that
    # cannot be one of them. The limit is rounded up to float32.
    u, u64 = 2.0**-24, 2.0**-53
    slack = (4 * (d + 3) * (u + u64) * (S * s * s) + 12 * (d + 1) * 2.0**-126
             + 16 * d * 2.0**-1022 * s * s)
    rows = max(1, KNN_BLOCK_BYTES // (4 * padded))
    # The exact sums take the candidates in passes of whole queries whose
    # pairs start within one window of `pairs`: each (pairs, d) float64
    # temporary of a pass fills about half a block, more only for a query
    # with that many candidates of its own.
    pairs = max(1, KNN_BLOCK_BYTES // (16 * d))
    screen = np.empty((min(rows, len(test_features)), padded), dtype=np.float32)
    out = np.empty(len(test_features), dtype=np.int64)

    for lo in range(0, len(test_features), rows):
        block = test_features[lo : lo + rows]
        e = np.matmul(A[lo : lo + rows], B.T, out=screen[: len(block)])
        grouped = e.reshape(len(block), -1, groups)
        minima = grouped.min(axis=1)
        t = np.partition(minima, k - 1, axis=1)[:, k - 1]
        limit = np.nextafter((t.astype(np.float64) + slack).astype(np.float32),
                             np.float32(np.inf))
        gq, gg = np.nonzero(minima <= limit[:, None])
        hit = grouped[gq, :, gg] <= limit[gq, None]
        count = np.bincount(gq, hit.sum(axis=1), len(block))
        window = (np.cumsum(count) - count) // pairs
        starts = np.flatnonzero(np.diff(window, prepend=-1))
        for a, z in zip(starts, [*starts[1:], len(block)]):
            g0, g1 = np.searchsorted(gq, (a, z))
            pi, j = np.nonzero(hit[g0:g1])
            qi = gq[g0 + pi] - a
            ri = j * groups + gg[g0 + pi]
            diff = X[ri] - block[a + qi]
            exact = np.square(diff, out=diff).sum(axis=1)
            # each query's candidates nearest first; the first k are its
            # neighbours
            order = np.lexsort((ri, exact, qi))
            qs = qi[order]
            rank = np.arange(len(qs)) - np.searchsorted(qs, qs)
            near = rank < k
            out[lo + a : lo + z] = vote(qs[near], y[ri[order[near]]],
                                        rank[near], z - a)
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
