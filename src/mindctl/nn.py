"""Numerical core: affine layers, LSTM cells, softmax cross-entropy with
an l2 penalty, exact sequence gradients, and Adam updates.

Everything here is float64 and purely functional; a batch of samples is
treated as one time-ordered sequence for the recurrent layers. The
backward pass is hand-derived for exactly this layer vocabulary (affine
chains feeding a stack of LSTM layers) rather than a generic autodiff
graph, and is validated against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError

# Concatenated gate block layout in LSTM weight matrices and biases.
# Fixed so checkpoints are unambiguous.
GATE_ORDER = ("input", "forget", "output", "modulation")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class _Layer:
    """Walks shared by the parameter records.

    Each record class declares ``layout(fan_in, width)``: its array
    names and shapes, in checkpoint order. Every walk over a record's
    arrays follows that order, and the 2-D arrays are the weight
    matrices that take the l2 penalty; the 1-D arrays are biases.
    """

    @classmethod
    def names(cls):
        return tuple(cls.layout(1, 1))

    def arrays(self):
        return [(name, getattr(self, name)) for name in self.names()]

    def weight_matrices(self):
        return [arr for _, arr in self.arrays() if arr.ndim == 2]


def map_layer(fn, *layers):
    """A record of the first layer's class holding ``fn`` of the
    same-named arrays of ``layers``, one call per array in layout order.
    """
    cls = type(layers[0])
    return cls(**{
        name: fn(*(getattr(layer, name) for layer in layers))
        for name in cls.names()
    })


@dataclass
class DenseParams(_Layer):
    """Affine layer: out = in @ W + b. W is (fan_in, fan_out)."""

    W: np.ndarray
    b: np.ndarray

    @staticmethod
    def layout(fan_in: int, width: int) -> dict:
        return {"W": (fan_in, width), "b": (width,)}


@dataclass
class LstmParams(_Layer):
    """One LSTM layer's parameters.

    ``W_in`` is (fan_in, 4*width), ``W_rec`` is (width, 4*width) and
    ``b`` is (4*width,); columns hold the four gate blocks in
    ``GATE_ORDER``.
    """

    W_in: np.ndarray
    W_rec: np.ndarray
    b: np.ndarray

    @staticmethod
    def layout(fan_in: int, width: int) -> dict:
        return {
            "W_in": (fan_in, 4 * width),
            "W_rec": (width, 4 * width),
            "b": (4 * width,),
        }

    @property
    def width(self) -> int:
        return self.W_rec.shape[0]


def glorot_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform draw in +-sqrt(6/(fan_in+fan_out)) for a (fan_in, fan_out)
    matrix."""
    fan_in, fan_out = shape
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# forward primitives

def affine(X, params: DenseParams):
    """Affine map over rows: X @ W + b.

    ``X`` is (n, fan_in) or a lockstep stack (n, k, fan_in). The layer
    connection is purely affine by design; nonlinearity enters through
    the LSTM layers.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim not in (2, 3) or X.shape[-1] != params.W.shape[0]:
        raise DataError(
            f"affine input {X.shape} incompatible with weights "
            f"{params.W.shape}"
        )
    return _matmul_rows(X, params.W) + params.b


def _matmul_rows(X, W):
    """``X @ W`` over the last axis of ``X`` as one 2-D product; numpy
    would take one product per time step of a lockstep stack."""
    return (X.reshape(-1, X.shape[-1]) @ W).reshape(X.shape[:-1] + W.shape[1:])


def _lstm_layer(A, layer: LstmParams, start=None):
    """Run one LSTM layer over the rows of ``A``, from ``start`` or zero.

    This is the one implementation of the cell: the gates of step t
    activate ``A[t] @ W_in + h_prev @ W_rec + b`` (sigmoid for input,
    forget and output, tanh for modulation), the cell memory becomes
    ``forget * c_prev + input * modulation`` and the output
    ``output * tanh(c)``. ``A @ W_in + b`` is built as one block of
    rows, with the three sigmoid blocks halved; the recurrent weights
    are a copy of ``W_rec`` halved the same way. Halving is exact, so
    each step computes ``x/2`` for every sigmoid pre-activation ``x``. A
    step adds ``h_prev @ W_rec`` to its row, takes one tanh over the
    whole row and maps the sigmoid blocks through sigmoid(x) =
    (1 + tanh(x/2)) / 2, all in place: no branch, no mask and no
    overflow.

    A row of ``A`` is one sample ``(fan_in,)`` or a lockstep stack
    ``(k, fan_in)``: the same step of k sequences that share the
    weights, which then take one (k, width) @ (width, 4*width) product
    per step. ``start`` is the ``(c, h)`` state before the first row.

    Returns ``(gates, cells, out)``: the activated gate block in
    ``GATE_ORDER`` and the per-step cell memory and hidden output, each
    shaped like ``A`` with its last axis replaced.
    """
    n = A.shape[0]
    width = layer.width
    sig = slice(0, 3 * width)
    gates = _matmul_rows(A, layer.W_in)
    gates += layer.b
    gates[..., sig] *= 0.5
    W_rec = layer.W_rec.copy()
    W_rec[:, sig] *= 0.5
    state_shape = A.shape[1:-1] + (width,)
    cells = np.empty((n,) + state_shape)
    out = np.empty((n,) + state_shape)
    rec = np.empty(gates.shape[1:])
    im = np.empty(state_shape)
    c, h = start if start is not None else (np.zeros(state_shape),) * 2
    # per step, the four gate blocks as leading axis: (4, width) or (4, k, width)
    blocks = np.moveaxis(gates.reshape(gates.shape[:-1] + (4, width)), -2, 1)
    rows = zip(gates, gates[..., sig], blocks, cells, out)
    for g, s, (gi, gf, go, gm), c_t, h_t in rows:
        np.dot(h, W_rec, out=rec)
        g += rec
        np.tanh(g, out=g)
        s *= 0.5
        s += 0.5
        np.multiply(gf, c, out=c_t)
        np.multiply(gi, gm, out=im)
        c_t += im
        np.tanh(c_t, out=h_t)
        h_t *= go
        c, h = c_t, h_t
    return gates, cells, out


def softmax(logits):
    """Row-wise softmax of 2-D logits, with max-subtraction for overflow
    safety."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# loss

_PROB_FLOOR = 1e-12


def cross_entropy_loss(probs, labels, weight_matrices=(), l2: float = 0.0):
    """Mean negative log-probability of the true class, plus the l2 term.

    ``labels`` are 1-based class ids indexing ``probs`` columns. The
    penalty is ``l2 * sum(W**2)`` over weight matrices only, never
    biases. Probabilities below 1e-12 are clamped to it so the loss is
    never infinite.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or labels.shape != (probs.shape[0],):
        raise DataError(
            f"probs {probs.shape} and labels {labels.shape} do not align"
        )
    if labels.min() < 1 or labels.max() > probs.shape[1]:
        raise DataError(
            f"labels outside 1..{probs.shape[1]}"
        )
    picked = np.maximum(probs[np.arange(len(labels)), labels - 1],
                        _PROB_FLOOR)
    loss = -np.log(picked).mean()
    for W in weight_matrices:
        loss += l2 * float(np.sum(np.square(W)))
    return float(loss)


# ---------------------------------------------------------------------------
# sequence forward/backward
#
# A layer stack is a list of DenseParams/LstmParams; the input matrix X
# is (n, width_in) with row t the sample at time step t. LSTM state is
# zero at t = 0 and carries forward across truncation windows; gradients
# do not cross window boundaries.

def forward_sequence(layers, X, keep_caches: bool = False, state=None):
    """Run the stack over a sequence. Returns (output, caches).

    ``X`` is (n, width_in), or (n, k, width_in) for k equal-length
    sequences run in lockstep; every output keeps the leading axes. The
    output is the last layer's (the input itself for an empty stack).
    Caches hold the per-layer intermediates the backward pass needs and
    are None unless requested: ``{"input"}`` for an affine layer and
    ``{"input", "gates", "c", "h"}`` for an LSTM layer, where ``gates``
    is the (n, 4*width) block of activated gates in ``GATE_ORDER`` and
    ``c``/``h`` are the per-step cell memory and output. The sigmoid gates are computed as (1 + tanh(x/2)) / 2, which
    agrees with 1 / (1 + exp(-x)) to about one ulp.

    ``state``, for a forward-only walk of a sequence in pieces, maps an
    LSTM layer's stack position to its ``(c, h)``: a layer starts from
    its entry (zero if absent), which the call replaces with the state
    after the last row.
    """
    A = np.asarray(X, dtype=np.float64)
    if A.ndim not in (2, 3):
        raise DataError(f"sequence input must be 2-D or 3-D, got {A.shape}")
    caches = [] if keep_caches else None
    for index, layer in enumerate(layers):
        if isinstance(layer, DenseParams):
            out = affine(A, layer)
            if keep_caches:
                caches.append({"input": A})
        else:
            if A.shape[-1] != layer.W_in.shape[0]:
                raise DataError(
                    f"lstm input width {A.shape[-1]} incompatible with "
                    f"W_in {layer.W_in.shape}"
                )
            start = None if state is None else state.get(index)
            gates, cells, out = _lstm_layer(A, layer, start)
            if state is not None:
                state[index] = (cells[-1].copy(), out[-1].copy())
            if keep_caches:
                caches.append(
                    {"input": A, "gates": gates, "c": cells, "h": out}
                )
        A = out
    return A, caches


def _lstm_backward(layer: LstmParams, cache, d_out, window: int):
    """Backpropagate one LSTM layer over the sequence, truncated.

    ``d_out`` is the loss gradient w.r.t. this layer's per-step outputs.
    Recurrent gradient flow stops at window boundaries; the forward
    state values crossing those boundaries are treated as constants.

    Each gate pre-activation gradient is a per-step multiplier, which
    depends only on forward values, times the step's cell gradient dc
    (output gate: output gradient dh). The multipliers fill ``dZ`` for
    all steps at once:

    - input: ``gm * gi * (1 - gi)``
    - forget: ``c_prev * gf * (1 - gf)``
    - output: ``tanh(c) * go * (1 - go)``
    - modulation: ``gi * (1 - gm**2)``

    The step loop then scales the rows of ``dZ`` in place and multiplies
    them by ``W_rec.T``. It runs window-major: the windows are
    independent recurrences, so step j takes row j of every window at
    once, the strided rows ``j, j + window, j + 2*window, ...``, as one
    (m, 4*width) @ (4*width, width) product, for j from the last row of
    a full window down to 0. That is at most ``window`` steps per call.
    The running ``dh``/``dc`` hold one row per window; a short last
    window has no row at the top steps, so its state stays zero until
    its last row comes up. The result differs from walking the rows
    one at a time only in summation order (1e-15 relative or less).
    """
    n, width = d_out.shape
    A, cells, outs = cache["input"], cache["c"], cache["h"]
    gi, gf, go, gm = np.split(cache["gates"], 4, axis=1)

    dZ = np.empty((n, 4 * width))
    zi, zf, zo, zm = np.split(dZ, 4, axis=1)
    np.subtract(1.0, gi, out=zi)
    zi *= gi
    zi *= gm
    zf[0] = 0.0
    np.subtract(1.0, gf[1:], out=zf[1:])
    zf[1:] *= gf[1:]
    zf[1:] *= cells[:-1]
    tanh_c = np.tanh(cells)
    np.subtract(1.0, go, out=zo)
    zo *= go
    zo *= tanh_c
    np.square(gm, out=zm)
    np.subtract(1.0, zm, out=zm)
    zm *= gi
    # dh to dc through h = go * tanh(c), reusing the tanh(c) buffer
    dc_from_dh = np.square(tanh_c, out=tanh_c)
    np.subtract(1.0, dc_from_dh, out=dc_from_dh)
    dc_from_dh *= go

    zif = dZ[:, : 2 * width].reshape(n, 2, width)
    W_rec_T = layer.W_rec.T
    # one row per window: dh and dc flowing into the step from the next
    windows = -(-n // window)
    dh_all = np.zeros((windows, width))
    dc_all = np.zeros((windows, width))
    for j in reversed(range(min(window, n))):
        rows = slice(j, None, window)
        m = len(range(j, n, window))
        dh, dc = dh_all[:m], dc_all[:m]
        dh += d_out[rows]
        dc += dh * dc_from_dh[rows]
        zif[rows] *= dc[:, None, :]
        zo[rows] *= dh
        zm[rows] *= dc
        dc *= gf[rows]
        np.dot(dZ[rows], W_rec_T, out=dh)

    grad = LstmParams(
        W_in=A.T @ dZ,
        W_rec=outs[:-1].T @ dZ[1:],
        b=dZ.sum(axis=0),
    )
    d_in = dZ @ layer.W_in.T
    return grad, d_in


def sequence_gradients(layers, X, labels, l2: float = 0.0, window=None):
    """Loss and exact analytic gradients for one sequence.

    The batch is one time-ordered sequence; per-step softmax
    cross-entropy is averaged over steps and the l2 penalty (weight
    matrices only) is added. ``window`` truncates recurrent gradient
    flow; None unrolls the full sequence.

    Returns ``(loss, grads)`` with ``grads`` mirroring ``layers``.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2:
        raise DataError(f"sequence input must be 2-D, got {X.shape}")
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if window is None:
        window = n
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    logits, caches = forward_sequence(layers, X, keep_caches=True)
    probs = softmax(logits)
    weight_matrices = [W for layer in layers for W in layer.weight_matrices()]
    loss = cross_entropy_loss(probs, labels, weight_matrices, l2)

    d_out = probs  # the loss is taken, so the gradient reuses the buffer
    d_out[np.arange(n), labels - 1] -= 1.0
    d_out /= n

    grads = [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        layer, cache = layers[k], caches[k]
        if isinstance(layer, DenseParams):
            grads[k] = DenseParams(
                W=cache["input"].T @ d_out,
                b=d_out.sum(axis=0),
            )
            d_out = d_out @ layer.W.T
        else:
            grads[k], d_out = _lstm_backward(layer, cache, d_out, window)

    if l2 != 0.0:
        for layer, grad in zip(layers, grads):
            for W, dW in zip(layer.weight_matrices(), grad.weight_matrices()):
                dW += 2.0 * l2 * W

    return loss, grads


def sequence_loss(layers, X, labels, l2: float = 0.0):
    """Forward-only loss; the reference point for finite differences."""
    logits, _ = forward_sequence(layers, X)
    probs = softmax(logits)
    weight_matrices = [W for layer in layers for W in layer.weight_matrices()]
    return cross_entropy_loss(probs, labels, weight_matrices, l2)


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    """First/second moment estimates plus the step counter."""

    m: list
    v: list
    t: int = 0


def adam_init(layers) -> AdamState:
    return AdamState(
        m=[map_layer(np.zeros_like, layer) for layer in layers],
        v=[map_layer(np.zeros_like, layer) for layer in layers],
    )


def adam_step(layers, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update. Returns (new_layers, new_state).

    A non-finite gradient anywhere rejects the whole update: the inputs
    are left untouched and a NumericError describes the offending array.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    for k, grad in enumerate(grads):
        for name, arr in grad.arrays():
            if not np.all(np.isfinite(arr)):
                raise NumericError(
                    f"non-finite gradient in layer {k} array {name}; "
                    f"update rejected"
                )

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

    m = [map_layer(first_moment, *pair) for pair in zip(state.m, grads)]
    v = [map_layer(second_moment, *pair) for pair in zip(state.v, grads)]
    new_layers = [map_layer(update, *triple) for triple in zip(layers, m, v)]
    return new_layers, AdamState(m=m, v=v, t=t)


# ---------------------------------------------------------------------------
# gradient verification

def finite_difference_gradients(layers, X, labels, l2: float = 0.0,
                                step: float = 1e-5):
    """Central-difference gradients of the full-sequence loss."""
    grads = [map_layer(np.zeros_like, layer) for layer in layers]
    for layer, grad in zip(layers, grads):
        for (_, arr), (_, out) in zip(layer.arrays(), grad.arrays()):
            flat = arr.reshape(-1)
            flat_out = out.reshape(-1)
            for idx in range(flat.size):
                original = flat[idx]
                flat[idx] = original + step
                hi = sequence_loss(layers, X, labels, l2)
                flat[idx] = original - step
                lo = sequence_loss(layers, X, labels, l2)
                flat[idx] = original
                flat_out[idx] = (hi - lo) / (2.0 * step)
    return grads


def gradient_check(layers, X, labels, l2: float = 0.0, step: float = 1e-5):
    """Max discrepancy between analytic and finite-difference gradients.

    Per entry: |a - f| / max(1, |a|, |f|), i.e. relative error for
    gradients above unit magnitude and absolute error below it (the
    difference quotient itself is only accurate to ~1e-10, so a pure
    ratio would be noise for near-zero entries).
    """
    _, analytic = sequence_gradients(layers, X, labels, l2)
    numeric = finite_difference_gradients(layers, X, labels, l2, step)
    worst = 0.0
    for a_layer, n_layer in zip(analytic, numeric):
        for (_, a), (_, f) in zip(a_layer.arrays(), n_layer.arrays()):
            denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
            worst = max(worst, float((np.abs(a - f) / denom).max()))
    return worst
