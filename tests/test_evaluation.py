"""Confusion matrix, metrics, ROC/AUC, and KNN baseline tests.

The 5x5 count grid used as a regression fixture is a known evaluation
outcome with known per-class precisions and overall accuracy; its
printed recalls are inconsistent with its own counts, so recall is
asserted against the standard column-total definition instead.
"""

import itertools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_confusion
from mindctl.dataset import LABELS, SampleSet
from mindctl.errors import DataError
from mindctl.evaluation import (
    confusion,
    knn_classify,
    metrics,
    roc_auc,
    save_report,
    save_roc,
    vote,
)

KNOWN_COUNTS = np.array(
    [
        [2062, 19, 23, 18, 22],
        [17, 1120, 19, 15, 20],
        [13, 13, 1146, 14, 11],
        [10, 5, 7, 1162, 10],
        [18, 21, 15, 23, 1197],
    ]
)


# ---------------------------------------------------------------------------
# confusion

def test_confusion_identity_diagonal():
    counts = confusion([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
    assert np.array_equal(counts, np.eye(5, dtype=int))


def test_known_grid_column_totals():
    assert list(KNOWN_COUNTS.sum(axis=0)) == [2120, 1178, 1210, 1232, 1260]
    assert KNOWN_COUNTS.sum() == 7000


def test_confusion_matches_counting_oracle():
    rng = np.random.default_rng(6)
    predicted = rng.integers(1, 6, size=300)
    truth = rng.integers(1, 6, size=300)
    counts = confusion(predicted, truth)
    for p in range(1, 6):
        for t in range(1, 6):
            expected = sum(
                1 for a, b in zip(predicted, truth) if a == p and b == t
            )
            assert counts[p - 1, t - 1] == expected


def test_confusion_rejects_bad_input():
    with pytest.raises(ValueError, match="equal-length"):
        confusion([1, 2], [1])
    with pytest.raises(ValueError, match=r"\(9, 2\) outside \[1, 2, 3, 4, 5\]"):
        confusion([1, 9], [1, 2])
    with pytest.raises(ValueError, match=r"\(1, 0\) outside \[1, 2, 3, 4, 5\]"):
        confusion([1, 2, 1], [2, 1, 0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_confusion_and_auc_match_loop_references(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 60))
    labels = rng.permutation(LABELS)[:3]  # two classes stay empty
    predicted = rng.choice(labels, size=n)
    truth = rng.choice(labels, size=n)
    assert np.array_equal(confusion(predicted, truth),
                          reference_confusion(predicted, truth))
    # integer scores from a narrow range: most pairs are tied, and the AUC
    # is the exact quotient of the pair counts, rounded once
    scores = np.zeros((n, len(LABELS)))
    scores[:, labels[0] - 1] = rng.integers(-3, 4, size=n)
    pos = scores[truth == labels[0], labels[0] - 1]
    neg = scores[truth != labels[0], labels[0] - 1]
    if not (len(pos) and len(neg)):
        with pytest.raises(DataError, match="undefined"):
            roc_auc(scores, truth, labels[0])
        return
    twice_u = sum(2 * (p > q) + (p == q) for p in pos for q in neg)
    auc = roc_auc(scores, truth, labels[0]).auc
    assert auc == twice_u / (2 * len(pos) * len(neg))


# ---------------------------------------------------------------------------
# metrics

def test_metrics_known_grid():
    m = metrics(KNOWN_COUNTS)
    assert np.allclose(
        m.precision, [0.9618, 0.9404, 0.9574, 0.9732, 0.9396], atol=1e-4
    )
    assert m.accuracy == pytest.approx(6687 / 7000, abs=1e-12)
    assert m.accuracy == pytest.approx(0.9553, abs=1e-4)
    # standard recall for the first class: diagonal over column total
    assert m.recall[0] == pytest.approx(2062 / 2120, abs=1e-12)
    assert m.recall[0] == pytest.approx(0.9726, abs=1e-4)


def test_perfect_diagonal_all_ones():
    m = metrics(np.diag([3, 1, 4, 1, 5]))
    assert np.all(m.precision == 1.0)
    assert np.all(m.recall == 1.0)
    assert np.all(m.f1 == 1.0)
    assert m.accuracy == 1.0


def test_metrics_match_hand_formula_oracle():
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 30, size=(5, 5))
    counts[np.diag_indices(5)] += 1  # avoid fully-degenerate rows/cols
    m = metrics(counts)
    for c in range(5):
        precision = counts[c, c] / counts[c, :].sum()
        recall = counts[c, c] / counts[:, c].sum()
        f1 = 2 * precision * recall / (precision + recall)
        assert m.precision[c] == pytest.approx(precision, abs=1e-12)
        assert m.recall[c] == pytest.approx(recall, abs=1e-12)
        assert m.f1[c] == pytest.approx(f1, abs=1e-12)
    assert m.accuracy == pytest.approx(np.trace(counts) / counts.sum(), abs=1e-12)
    assert m.macro_precision == pytest.approx(m.precision.mean(), abs=1e-15)
    assert m.macro_recall == pytest.approx(m.recall.mean(), abs=1e-15)
    assert m.macro_f1 == pytest.approx(m.f1.mean(), abs=1e-15)


def test_zero_denominator_flagged():
    counts = np.zeros((5, 5), dtype=int)
    counts[0, 0] = 10
    m = metrics(counts)
    assert m.precision[1] == 0.0


def test_f1_is_harmonic_mean_of_own_precision_recall():
    rng = np.random.default_rng(12)
    counts = rng.integers(1, 40, size=(5, 5))
    m = metrics(counts)
    for c in range(5):
        harmonic = 2 / (1 / m.precision[c] + 1 / m.recall[c])
        assert m.f1[c] == pytest.approx(harmonic, abs=1e-12)


# ---------------------------------------------------------------------------
# ROC / AUC

def _scores_for(labels, positive_scores):
    """5-column score matrix with the class-1 column set explicitly."""
    scores = np.full((len(labels), 5), 0.1)
    scores[:, 0] = positive_scores
    return scores


def test_auc_perfect_separation():
    labels = np.array([1, 1, 2, 3])
    scores = _scores_for(labels, [0.9, 0.8, 0.2, 0.1])
    curve = roc_auc(scores, labels, 1)
    assert curve.auc == 1.0


def test_auc_all_ties_is_half():
    labels = np.array([1, 1, 2, 3, 4])
    scores = _scores_for(labels, [0.5] * 5)
    curve = roc_auc(scores, labels, 1)
    assert curve.auc == 0.5


def test_auc_matches_pair_counting_oracle():
    labels = np.array([1, 2, 1, 5, 1, 3])
    values = np.array([0.9, 0.6, 0.6, 0.4, 0.3, 0.1])
    curve = roc_auc(_scores_for(labels, values), labels, 1)

    positives = values[labels == 1]
    negatives = values[labels != 1]
    wins = ties = 0
    for p, n in itertools.product(positives, negatives):
        if p > n:
            wins += 1
        elif p == n:
            ties += 1
    expected = (wins + 0.5 * ties) / (len(positives) * len(negatives))
    assert curve.auc == pytest.approx(expected, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_auc_randomized_pair_counting(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    labels = rng.integers(1, 6, size=n)
    if not ((labels == 2).any() and (labels != 2).any()):
        labels[0], labels[1] = 2, 1
    values = np.round(rng.uniform(0, 1, size=n), 2)  # induce ties
    scores = np.full((n, 5), 0.0)
    scores[:, 1] = values
    curve = roc_auc(scores, labels, 2)

    positives = values[labels == 2]
    negatives = values[labels != 2]
    wins = sum(1 for p, n_ in itertools.product(positives, negatives) if p > n_)
    ties = sum(1 for p, n_ in itertools.product(positives, negatives) if p == n_)
    expected = (wins + 0.5 * ties) / (len(positives) * len(negatives))
    assert curve.auc == pytest.approx(expected, abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    labels = np.array([1, 2, 1, 3, 1, 4, 5])
    values = np.array([0.9, 0.55, 0.6, 0.4, 0.35, 0.2, 0.05])
    base = roc_auc(_scores_for(labels, values), labels, 1).auc
    squashed = roc_auc(_scores_for(labels, np.tanh(3 * values)), labels, 1).auc
    assert base == pytest.approx(squashed, abs=1e-15)


def test_roc_curve_endpoints_and_monotonicity():
    rng = np.random.default_rng(3)
    labels = rng.integers(1, 6, size=40)
    labels[:2] = [1, 2]
    scores = _scores_for(labels, rng.uniform(0, 1, size=40))
    curve = roc_auc(scores, labels, 1)
    assert tuple(curve.points[0]) == (0.0, 0.0)
    assert tuple(curve.points[-1]) == (1.0, 1.0)
    diffs = np.diff(curve.points, axis=0)
    assert np.all(diffs >= -1e-15)


def _roc_corners_loop(values, positive):
    """(fp, tp) counts at (0, 0) and at each distinct threshold from high
    to low, less every point strictly inside a horizontal or vertical run."""
    points = [(0, 0)]
    for threshold in sorted(set(values), reverse=True):
        above = [p for v, p in zip(values, positive) if v >= threshold]
        points.append((above.count(False), above.count(True)))
    corners = [points[0]]
    for (f0, t0), (f1, t1), (f2, t2) in zip(points, points[1:], points[2:]):
        if not (t0 == t1 == t2 or f0 == f1 == f2):
            corners.append((f1, t1))
    return corners + [points[-1]]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 1000).flatmap(lambda r: st.lists(
    st.tuples(st.integers(-r, r), st.booleans()), min_size=2, max_size=80)))
def test_roc_points_are_the_sweeps_corners(draw):
    # narrow ranges tie most scores, wide ones almost none; the corners
    # keep every point between two mixed steps, collinear or not
    values, positive = map(list, zip(*draw))
    n_pos, n_neg = positive.count(True), positive.count(False)
    if not (n_pos and n_neg):
        return
    labels = np.where(positive, 1, 2)
    curve = roc_auc(_scores_for(labels, values), labels, 1)
    want = [[fp / n_neg, tp / n_pos] for fp, tp in _roc_corners_loop(values, positive)]
    assert curve.points.tolist() == want
    pos = [v for v, p in draw if p]
    neg = [v for v, p in draw if not p]
    twice_u = sum(2 * (p > q) + (p == q) for p in pos for q in neg)
    assert curve.auc == twice_u / (2 * n_pos * n_neg)


def test_auc_degenerate_class_rejected():
    labels = np.array([2, 2, 3])
    scores = np.full((3, 5), 0.2)
    with pytest.raises(DataError, match="undefined"):
        roc_auc(scores, labels, 1)


def test_save_roc_has_log_column(tmp_path):
    labels = np.array([1, 2, 1, 3])
    curve = roc_auc(_scores_for(labels, [0.9, 0.4, 0.8, 0.2]), labels, 1)
    path = tmp_path / "roc.csv"
    save_roc(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "fpr,log10_fpr,tpr"
    assert lines[1].split(",")[1] == "-inf"  # fpr = 0 at the origin


# ---------------------------------------------------------------------------
# KNN baseline

def _embed(points):
    """Place low-dimensional integer points in the 64-wide feature space."""
    points = np.asarray(points, dtype=np.float64)
    out = np.zeros((len(points), 64))
    out[:, : points.shape[1]] = points
    return out


def _knn_oracle(features, labels, q, k):
    """Direct (q - t)^2 sums per training row, sorted with the row index."""
    dists = sorted(
        (float(((q - t) ** 2).sum()), i) for i, t in enumerate(features)
    )
    top = [int(labels[i]) for _, i in dists[:k]]
    counts = {lbl: top.count(lbl) for lbl in set(top)}
    best_count = max(counts.values())
    tied = {lbl for lbl, c in counts.items() if c == best_count}
    for lbl in top:  # nearest-first order breaks vote ties
        if lbl in tied:
            return lbl


def test_knn_exact_match_k1():
    train = SampleSet(_embed([[0, 0], [5, 5], [9, 1]]), [1, 2, 3])
    got = knn_classify(train, _embed([[5, 5]]), k=1)
    assert list(got) == [2]


def test_knn_toy_matches_exhaustive_oracle():
    points = [[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]]
    labels = [1, 1, 2, 3, 3, 2]
    train = SampleSet(_embed(points), labels)
    tests = _embed([[0.4, 0.4], [5.2, 5.2], [3, 3]])
    expected = [_knn_oracle(train.features, labels, q, 3) for q in tests]
    got = knn_classify(train, tests, k=3)
    assert list(got) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_knn_property_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_train = int(rng.integers(5, 201))
    n_test = int(rng.integers(1, 10))
    k = int(rng.integers(1, min(n_train, 7) + 1))
    # integer grid so both distance computations are exact and ties real
    train_pts = rng.integers(0, 4, size=(n_train, 3))
    test_pts = rng.integers(0, 4, size=(n_test, 3))
    labels = rng.integers(1, 6, size=n_train)
    train = SampleSet(_embed(train_pts), labels)
    queries = _embed(test_pts)
    expected = [_knn_oracle(train.features, labels, q, k) for q in queries]
    assert list(knn_classify(train, queries, k=k)) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(0)  # the expanded |a|^2+|b|^2-2ab form misorders ties here
def test_knn_ties_on_offset_float_grid_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_train = int(rng.integers(5, 201))
    n_test = int(rng.integers(1, 10))
    k = int(rng.integers(1, min(n_train, 7) + 1))
    scale = 10.0 ** int(rng.integers(-3, 4))
    # a 0.1-step grid offset by 7.3 is not exact in binary, so equal
    # distances come out unequal in the expanded form
    train_pts = (7.3 + 0.1 * rng.integers(0, 4, size=(n_train, 3))) * scale
    test_pts = (7.3 + 0.1 * rng.integers(0, 4, size=(n_test, 3))) * scale
    labels = rng.integers(1, 6, size=n_train)
    train = SampleSet(_embed(train_pts), labels)
    queries = _embed(test_pts)
    expected = [_knn_oracle(train.features, labels, q, k) for q in queries]
    assert list(knn_classify(train, queries, k=k)) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["root", "above_root", "all"]),
       st.booleans())
@example(seed=0, k_draw="above_root", offset=True)
@example(seed=0, k_draw="all", offset=False)
def test_knn_group_bound_on_large_sets_matches_brute_force(seed, k_draw, offset):
    # up to 2,000 rows, so isqrt(n) strided groups leave tail rows past the
    # last full stride, which padding completes, and k may exceed isqrt(n)
    # (then k groups) or be n
    rng = np.random.default_rng(seed)
    n_train = int(rng.integers(5, 41 if k_draw == "all" else 2001))
    root = math.isqrt(n_train)
    k = {"root": int(rng.integers(1, min(root, 7) + 1)),
         "above_root": int(rng.integers(root + 1, 2 * root + 1)),
         "all": n_train}[k_draw]
    n_test = int(rng.integers(1, 4))
    train_pts = rng.integers(0, 4, size=(n_train, 3)).astype(np.float64)
    test_pts = rng.integers(0, 4, size=(n_test, 3)).astype(np.float64)
    if offset:  # the inexact offset grid of the test above
        scale = 10.0 ** int(rng.integers(-3, 4))
        train_pts = (7.3 + 0.1 * train_pts) * scale
        test_pts = (7.3 + 0.1 * test_pts) * scale
    labels = rng.integers(1, 6, size=n_train)
    train = SampleSet(_embed(train_pts), labels)
    queries = _embed(test_pts)
    expected = [_knn_oracle(train.features, labels, q, k) for q in queries]
    assert list(knn_classify(train, queries, k=k)) == expected


@pytest.mark.parametrize("tail", [False, True])
def test_knn_nearest_rows_in_one_strided_group_or_the_tail(tail):
    # 1,000 rows form isqrt(1000) = 31 strided groups (group g holds rows
    # g, g + 31, ...), padded to 33 rows each: the 8 tail rows past 992
    # are the last real members of groups 0..7, and padding fills the
    # other 23 groups. The three nearest rows share group 5 (with tail
    # row 997 as one of them), while every other row lies farther out,
    # one distance per row. Losing the first or last of them turns the
    # vote from 2 to 4.
    n, groups, k = 1000, 31, 3
    near = [5, 5 + groups, 997 if tail else 5 + 2 * groups]
    points = np.zeros((n, 2))
    points[:, 0] = 10.0 + np.arange(n) / n
    points[near, 0] = [0.5, 0.25, 0.75]
    labels = np.full(n, 3)
    labels[near] = [2, 4, 2]
    train = SampleSet(_embed(points), labels)
    query = _embed([[0.0, 0.0]])
    assert _knn_oracle(train.features, labels, query[0], k) == 2
    assert list(knn_classify(train, query, k=k)) == [2]


def test_knn_all_tied_full_vote_goes_to_lowest_index():
    # every training row is the same point: all distances tie, and with
    # k = len(train) labels 3 and 2 tie on votes; row 0 ranks first
    labels = [3, 2, 2, 3, 1]
    train = SampleSet(_embed([[1.5, -2.0]] * 5), labels)
    assert list(knn_classify(train, _embed([[0.25, 4.0]]), k=5)) == [3]
    train = SampleSet(_embed([[1.5, -2.0]] * 5), [2, 3, 3, 2, 1])
    assert list(knn_classify(train, _embed([[0.25, 4.0]]), k=5)) == [2]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.tuples(st.sampled_from(LABELS), st.integers(0, 9)),
                         min_size=1, max_size=8), max_size=6))
def test_vote_matches_the_per_group_loop(groups):
    # most members first, then the best-ranked member, then the smaller label
    expected = []
    for members in groups:
        tally = {}
        for label, rank in members:
            count, first = tally.get(label, (0, rank))
            tally[label] = (count + 1, min(first, rank))
        expected.append(max(tally, key=lambda lbl: (tally[lbl][0],
                                                    -tally[lbl][1], -lbl)))
    flat = [(g, *member) for g, members in enumerate(groups) for member in members]
    g, labels, ranks = np.array(flat, dtype=np.int64).reshape(-1, 3).T
    assert vote(g, labels, ranks, len(groups)).tolist() == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1e4))
@example(seed=0, offset=1e4)
def test_knn_candidates_per_query_stay_few_under_a_shared_offset(seed, offset):
    # Centring on the training mean keeps an offset that every row shares
    # out of the float32 screen's rounding: without it, every row passes the
    # screen at offset 1e4. The candidates are the rows the exact pass sorts.
    rng = np.random.default_rng(seed)
    train = SampleSet(offset + rng.normal(size=(2000, 64)),
                      rng.integers(1, 6, size=2000))
    queries = offset + rng.normal(size=(50, 64))
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as ranked:
        knn_classify(train, queries, k=3)
    candidates = sum(len(call.args[0][0]) for call in ranked.call_args_list)
    assert candidates <= 2 * 3 * len(queries)


def test_knn_argument_errors():
    train = SampleSet(_embed([[0, 0]]), [1])
    with pytest.raises(DataError, match="k must be"):
        knn_classify(train, _embed([[1, 1]]), k=2)
    with pytest.raises(DataError, match="empty"):
        empty = SampleSet(np.empty((0, 64)), np.empty(0))
        knn_classify(empty, _embed([[1, 1]]), k=1)


@pytest.mark.parametrize("k", [2.5, True, "3", 0, -1], ids=repr)
def test_knn_k_that_is_not_an_integer_of_at_least_one_is_a_data_error(k):
    train = SampleSet(_embed([[0, 0], [1, 1], [2, 2]]), [1, 2, 3])
    with pytest.raises(DataError, match=f"k must be an integer >= 1, got {k!r}"):
        knn_classify(train, _embed([[1, 1]]), k=k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([-110, 110]))
@example(seed=0, exponent=110)
def test_knn_near_ties_below_float32_resolution_match_brute_force(seed, exponent):
    # The training rows lie on a sphere around the query, at radii
    # 1 + j 1e-11 in shuffled order, offset by 50 in every channel: their
    # screened values differ far below float32 resolution, so only the
    # float32 rounding slack keeps the nearest rows among the candidates.
    # Scaled by 2^110 the squared norms would overflow float32 and by
    # 2^-110 underflow it, unless the screen rescales them.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 301))
    k = int(rng.integers(1, min(n, 7) + 1))
    directions = rng.normal(size=(n, 64))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = 1.0 + rng.permutation(n) * 1e-11
    scale = 2.0**exponent
    train_pts = (50.0 + radii[:, None] * directions) * scale
    queries = np.full((1, 64), 50.0 * scale)
    labels = rng.integers(1, 6, size=n)
    train = SampleSet(train_pts, labels)
    expected = [_knn_oracle(train.features, labels, q, k) for q in queries]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = list(knn_classify(train, queries, k=k))
    assert [str(w.message) for w in caught] == []  # nothing overflows
    assert got == expected


def test_knn_queries_across_blocks_match_one_query_at_a_time(monkeypatch):
    # blocks of 3 queries, and exact passes of about 5 candidate pairs, so the
    # 20 queries span seven blocks (the last one short) and a block makes
    # several exact passes; tied distances on the integer grid included
    rng = np.random.default_rng(8)
    train = SampleSet(_embed(rng.integers(0, 4, size=(500, 3))),
                      rng.integers(1, 6, size=500))
    queries = _embed(rng.integers(0, 4, size=(20, 3)))
    for k in (1, 3, 8):
        one_at_a_time = [int(knn_classify(train, q[None], k=k)[0])
                         for q in queries]
        with monkeypatch.context() as patch:
            patch.setattr("mindctl.evaluation.KNN_BLOCK_BYTES", 3 * 4 * 500)
            assert list(knn_classify(train, queries, k=k)) == one_at_a_time


@pytest.mark.parametrize("queries", [np.zeros(64), np.zeros((2, 63))],
                         ids=["one_dimensional", "narrow"])
def test_knn_rejects_queries_not_shaped_like_the_training_rows(queries):
    train = SampleSet(_embed([[0, 0], [1, 1]]), [1, 2])
    shapes = rf"\(2, 64\), got {re.escape(str(queries.shape))}"
    with pytest.raises(DataError, match=shapes):
        knn_classify(train, queries, k=1)


def test_knn_of_no_queries_is_empty():
    train = SampleSet(_embed([[0, 0], [1, 1]]), [1, 2])
    got = knn_classify(train, np.zeros((0, 64)), k=1)
    assert got.shape == (0,) and got.dtype == np.int64


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_knn_rejects_non_finite_or_overflowing_features(bad):
    train = SampleSet(_embed([[0, 0], [1, 1]]), [1, 2])
    queries = _embed([[0, 0], [1, 1]])
    queries[1, 5] = bad
    with pytest.raises(DataError, match="non-finite or too large"):
        knn_classify(train, queries, k=1)
    # 1e200 squared overflows: the expanded form turned the true nearest
    # row's distance into NaN and silently voted for the other row
    if np.isfinite(bad):
        with pytest.raises(DataError, match="overflow"):
            knn_classify(SampleSet(queries, [1, 2]), queries[1:2], k=1)


# ---------------------------------------------------------------------------
# report writer

def test_save_report_layout(tmp_path):
    auc = [0.99, 0.98, 0.97, 0.96, 0.95]
    path = tmp_path / "report.csv"
    save_report(KNOWN_COUNTS, metrics(KNOWN_COUNTS), auc, float(np.mean(auc)), path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("predicted,truth_1")
    assert len(lines) == 1 + 5 + 3  # header, classes, total, average, accuracy
    assert lines[-1].startswith("accuracy,")
    assert float(lines[-1].split(",")[1]) == pytest.approx(6687 / 7000)
    total_row = lines[6].split(",")
    assert total_row[0] == "total"
    assert [int(v) for v in total_row[1:6]] == [2120, 1178, 1210, 1232, 1260]
