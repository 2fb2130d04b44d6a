import numpy as np
from hypothesis import strategies as st

from mindctl.dataset import LABELS, TABLE_HEADER, SampleSet
from mindctl.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    DenseParams,
    LstmParams,
    forward_sequence,
    sequence_gradients,
)


def make_toy_samples(n=200, seed=7, spread=2.0, n_classes=2):
    """Displaced 64-dimensional Gaussians, one cluster per label.

    Two classes sit at +-spread along every dimension; with more classes
    each label gets its own 12-wide block of shifted dimensions.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, n_classes + 1, size=n)
    features = rng.normal(size=(n, 64))
    if n_classes == 2:
        features += np.where(labels[:, None] == 1, spread, -spread)
    else:
        for c in range(1, n_classes + 1):
            block = slice((c - 1) * 12, c * 12)
            features[labels == c, block] += 1.5 * spread
    return SampleSet(features, labels)


def gradients(layers, X, labels, l2=0.0, window=None):
    """``(loss, grads)`` of one 2-D sequence: its forward with caches, then
    the backward on that forward."""
    forward = forward_sequence(layers, X, keep_caches=True)
    return sequence_gradients(layers, forward, labels, l2, window)


# ---------------------------------------------------------------------------
# straight-line LSTM reference: four separate gate slices per step and
# the backward pass written step by step. The sigmoid is a parameter: the
# masked exp form by default, or the tanh form the fused kernel uses.

def reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh_sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def reference_forward(layers, X, sigmoid=reference_sigmoid):
    """Logits and per-layer caches of a DenseParams/LstmParams stack."""
    A = np.asarray(X, dtype=np.float64)
    caches = []
    for layer in layers:
        if isinstance(layer, DenseParams):
            caches.append({"input": A})
            A = A @ layer.W + layer.b
            continue
        n, w = A.shape[0], layer.width
        cache = {"input": A}
        for key in ("i", "f", "o", "m", "c", "h"):
            cache[key] = np.empty((n, w))
        z_in = A @ layer.W_in + layer.b
        h, c = np.zeros(w), np.zeros(w)
        for t in range(n):
            z = z_in[t] + h @ layer.W_rec
            gi = sigmoid(z[:w])
            gf = sigmoid(z[w : 2 * w])
            go = sigmoid(z[2 * w : 3 * w])
            gm = np.tanh(z[3 * w :])
            c = gf * c + gi * gm
            h = go * np.tanh(c)
            cache["i"][t], cache["f"][t], cache["o"][t] = gi, gf, go
            cache["m"][t], cache["c"][t], cache["h"][t] = gm, c, h
        caches.append(cache)
        A = cache["h"]
    return A, caches


def _reference_lstm_backward(layer, cache, d_out, window):
    n, w = d_out.shape
    gi, gf, go, gm = cache["i"], cache["f"], cache["o"], cache["m"]
    cells, outs = cache["c"], cache["h"]
    tanh_c = np.tanh(cells)
    dZ = np.zeros((n, 4 * w))
    for start in reversed(range(0, n, window)):
        dh_next, dc_next = np.zeros(w), np.zeros(w)
        for t in range(min(start + window, n) - 1, start - 1, -1):
            dh = d_out[t] + dh_next
            dc = dh * go[t] * (1.0 - tanh_c[t] ** 2) + dc_next
            c_prev = cells[t - 1] if t > 0 else 0.0
            dZ[t, :w] = dc * gm[t] * gi[t] * (1.0 - gi[t])
            dZ[t, w : 2 * w] = dc * c_prev * gf[t] * (1.0 - gf[t])
            dZ[t, 2 * w : 3 * w] = dh * tanh_c[t] * go[t] * (1.0 - go[t])
            dZ[t, 3 * w :] = dc * gi[t] * (1.0 - gm[t] ** 2)
            dc_next = dc * gf[t]
            dh_next = dZ[t] @ layer.W_rec.T
    h_prev = np.vstack([np.zeros((1, w)), outs[:-1]])
    grad = LstmParams(W_in=cache["input"].T @ dZ, W_rec=h_prev.T @ dZ,
                      b=dZ.sum(axis=0))
    return grad, dZ @ layer.W_in.T


def reference_gradients(layers, X, labels, l2, window,
                        sigmoid=reference_sigmoid):
    """(logits, grads) of the mean softmax cross-entropy plus l2 penalty."""
    logits, caches = reference_forward(layers, X, sigmoid)
    n = len(labels)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    d_out = e / e.sum(axis=1, keepdims=True)
    d_out[np.arange(n), np.asarray(labels) - 1] -= 1.0
    d_out /= n
    grads = [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        layer, cache = layers[k], caches[k]
        if isinstance(layer, DenseParams):
            grads[k] = DenseParams(
                W=cache["input"].T @ d_out + 2.0 * l2 * layer.W,
                b=d_out.sum(axis=0),
            )
            d_out = d_out @ layer.W.T
        else:
            grads[k], d_out = _reference_lstm_backward(layer, cache, d_out,
                                                       window)
            grads[k].W_in += 2.0 * l2 * layer.W_in
            grads[k].W_rec += 2.0 * l2 * layer.W_rec
    return logits, grads


# ---------------------------------------------------------------------------
# per-array Adam: the moments and the update taken one array at a time,
# with the moments held as records that mirror the layers

def _per_array(fn, *records):
    cls = type(records[0])
    return cls(**{name: fn(*(getattr(r, name) for r in records))
                  for name in cls.names()})


def reference_adam_init(layers):
    return AdamState(m=[_per_array(np.zeros_like, layer) for layer in layers],
                     v=[_per_array(np.zeros_like, layer) for layer in layers])


def reference_adam_step(layers, grads, state, lr):
    t = state.t + 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t

    def first_moment(m, g):
        return b1 * m + (1.0 - b1) * g

    def second_moment(v, g):
        return b2 * v + (1.0 - b2) * np.square(g)

    def update(p, m, v):
        return p - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

    m = [_per_array(first_moment, *pair) for pair in zip(state.m, grads)]
    v = [_per_array(second_moment, *pair) for pair in zip(state.v, grads)]
    new_layers = [_per_array(update, *triple) for triple in zip(layers, m, v)]
    return new_layers, AdamState(m=m, v=v, t=t)


# ---------------------------------------------------------------------------
# straight-loop evaluation references: one count per pair and one walk
# over each run of tied values

def reference_confusion(predicted, truth):
    labels = list(LABELS)
    index = {label: i for i, label in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for p, t in zip(predicted, truth):
        if int(p) not in index or int(t) not in index:
            raise ValueError(f"label pair ({p}, {t}) outside {labels}")
        counts[index[int(p)], index[int(t)]] += 1
    return counts


def reference_midranks(values):
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


# ---------------------------------------------------------------------------
# straight-loop majority vote: one count dict per window

def reference_majority_votes(labels, cadence):
    votes = []
    for start in range(0, len(labels), cadence):
        counts = {}
        for lbl in labels[start : start + cadence]:
            counts[int(lbl)] = counts.get(int(lbl), 0) + 1
        votes.append(max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0])
    return votes


# ---------------------------------------------------------------------------
# straight-loop table writer: one repr per cell

def reference_save_table(samples, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(TABLE_HEADER + "\n")
        for row, label in zip(samples.features, samples.labels):
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write(f",{int(label)}\n")


# ---------------------------------------------------------------------------
# byte-level fuzzing

@st.composite
def mutated_bytes(draw, base: bytes):
    """``base`` with 1 to 4 of its bytes overwritten by arbitrary values."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)
