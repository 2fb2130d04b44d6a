"""Independent reference computations the benchmark checks outputs against.

Each oracle recomputes a result from its definition, by a different
method than the program uses, so a faster implementation that changes
results is caught in the same run that times it.
"""

from __future__ import annotations

import numpy as np

# Absolute tolerance on softmax scores between the program's forward
# pass and the straight-line reference below (both float64).
SCORE_TOL = 1e-9
# AUC from midranks versus an explicit pair count.
AUC_TOL = 1e-12


def knn_direct(train_x, train_y, queries, k: int):
    """Exact KNN labels from direct (x - y)^2 sums.

    Neighbours rank by distance, then by lower training index; the vote
    goes to the most frequent label, and a vote tie to the tied label
    whose nearest member ranks first.
    """
    index = np.arange(len(train_x))
    out = np.empty(len(queries), dtype=np.int64)
    for row, q in enumerate(queries):
        d = np.square(train_x - q).sum(axis=1)
        nearest = np.lexsort((index, d))[:k]
        votes = {}
        for rank, t in enumerate(nearest):
            count, first = votes.get(int(train_y[t]), (0, rank))
            votes[int(train_y[t])] = (count + 1, first)
        out[row] = max(votes, key=lambda lbl: (votes[lbl][0], -votes[lbl][1]))
    return out


def auc_pairwise(score, positive) -> float:
    """P(score_pos > score_neg) + 0.5 P(tie), by counting every pair."""
    pos, neg = score[positive], score[~positive]
    wins = 0.0
    for lo in range(0, len(pos), 256):
        block = pos[lo : lo + 256, None]
        wins += np.count_nonzero(block > neg) + 0.5 * np.count_nonzero(block == neg)
    return wins / (len(pos) * len(neg))


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def reference_scores(layers, features):
    """Softmax scores of a dense/LSTM stack, one plain step at a time.

    LSTM gate blocks are ordered input, forget, output, modulation; state
    starts at zero at the first row.
    """
    a = np.asarray(features, dtype=np.float64)
    for layer in layers:
        if hasattr(layer, "W_rec"):
            w = layer.W_rec.shape[0]
            h, c = np.zeros(w), np.zeros(w)
            out = np.empty((len(a), w))
            for t in range(len(a)):
                z = a[t] @ layer.W_in + h @ layer.W_rec + layer.b
                gi, gf, go = (_sigmoid(z[j * w : (j + 1) * w]) for j in range(3))
                c = gf * c + gi * np.tanh(z[3 * w :])
                h = go * np.tanh(c)
                out[t] = h
            a = out
        else:
            a = a @ layer.W + layer.b
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def range_sums(rows, levels):
    """Per-factor level sums and best values of a 16-run sweep.

    ``rows`` are (factor values tuple, accuracy); ``levels`` lists each
    factor's candidate values in level order. Ties pick the lowest level.
    """
    sums = []
    best = []
    for f, values in enumerate(levels):
        s = [sum(acc for vals, acc in rows if float(vals[f]) == float(v))
             for v in values]
        sums.append(s)
        best.append(values[max(range(len(s)), key=lambda i: (s[i], -i))])
    return sums, best
