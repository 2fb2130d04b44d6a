"""Numerical core: affine layers, LSTM cells, softmax cross-entropy with
an l2 penalty, exact sequence gradients, and Adam updates.

Everything here is float64 and purely functional; a batch of samples is
treated as one time-ordered sequence for the recurrent layers. Stacked
LSTM layers of one width step together in one loop, each a lag of rows
behind the one below, with outputs bit-identical to a layer-at-a-time
walk at even widths (``_lstm_run``). A gradient comes in two halves:
``forward_sequence`` with caches, then ``sequence_gradients`` on that
forward, so a forward run for another purpose (a lockstep stack, walked
in chunks, whose caches are its first sequence's) can feed the
backward. The backward pass is hand-derived for exactly this layer
vocabulary (affine chains feeding a stack of LSTM layers) rather than a
generic autodiff graph, and is validated against central finite
differences.
"""

from __future__ import annotations

import math
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


def flat(layers):
    """Every array of ``layers``, in layout order, as one new vector: the
    order of the checkpoint payload."""
    return np.concatenate(
        [arr.reshape(-1) for layer in layers for _, arr in layer.arrays()]
    )


def unflat(vector, layouts):
    """Records of ``layouts``' ``(class, {name: shape})`` entries whose
    arrays are views of ``vector``, taken in ``flat`` order."""
    shapes = [shape for _, layout in layouts for shape in layout.values()]
    cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    pieces = iter(np.split(vector, cuts))
    return [
        cls(**{name: next(pieces).reshape(shape) for name, shape in layout.items()})
        for cls, layout in layouts
    ]


def _layouts(layers):
    """``unflat``'s layouts for records shaped like ``layers``."""
    return [(type(layer), {name: arr.shape for name, arr in layer.arrays()})
            for layer in layers]


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


def _runs(layers):
    """The stack as runs of layers that step together: each dense layer
    alone, and each stretch of consecutive LSTM layers of one width, each
    taking the previous one's output as its input."""
    runs = []
    for layer in layers:
        last = runs[-1][-1] if runs else None
        if (isinstance(layer, LstmParams) and isinstance(last, LstmParams)
                and layer.W_in.shape[0] == last.width == layer.width):
            runs[-1].append(layer)
        else:
            runs.append([layer])
    return runs


def _lag(n):
    """Rows by which each layer of a run trails the one before it in an
    n-row sequence: about a sixteenth of it, from 2 to 256 rows, and
    never leaving a last block of one row unless the sequence is one
    row. A BLAS takes a 1-row product as gemv, which rounds differently
    from a row of a larger product."""
    lag = max(2, min(256, n // 16))
    while n > 1 and n % lag == 1:
        lag += 1
    return lag


def _lstm_run(A, run, starts, caches):
    """Run a run of LSTM layers (see ``_runs``) over the rows of ``A``.

    This is the one implementation of the cell: the gates of step t
    activate ``x[t] @ W_in + h_prev @ W_rec + b`` (sigmoid for input,
    forget and output, tanh for modulation), the cell memory becomes
    ``forget * c_prev + input * modulation`` and the output
    ``output * tanh(c)``. The run works on copies of ``W_in``, ``W_rec``
    and ``b`` with the three sigmoid blocks halved. Halving is exact
    (away from the subnormal range), so each step computes ``x/2`` for
    every sigmoid pre-activation ``x``. A step adds ``h_prev @ W_rec``
    to its row, takes one tanh over the whole row and maps the sigmoid
    blocks through sigmoid(x) = (1 + tanh(x/2)) / 2, all in place: no
    branch, no mask and no overflow.

    All layers of the run step in one loop, layer j+1 running ``lag``
    rows (see ``_lag``) behind layer j. The rows go in blocks of
    ``lag``; before a block, each layer's ``x @ W_in + b`` is one
    product over its block, whose rows the layer before it has just
    finished. A step row is laid out gate-major, ``(6, layers, k,
    width)``: the four gates, then ``c`` and ``h``, of every layer. So
    one add, tanh, sigmoid or cell call covers every layer while each
    takes its own ``h_prev @ W_rec`` product. Every layer steps every
    row of the loop, also before its first block and after its last, on
    finite values that nothing reads. The step rows live in a ring of
    two blocks, and each finished block is copied out before its rows
    are reused. Every per-element operation is that of a layer-at-a-time
    walk, so the outputs are bit-identical to it wherever the BLAS
    rounds a product row the same at any row count of 2 or more.
    OpenBLAS 0.3.31 does so when 4 * width is a multiple of 8; at an odd
    width, the walk's whole-sequence input product switches kernels
    above about a million multiply-adds, and outputs differ from it in
    the last bit.

    A row of ``A`` is one sample ``(fan_in,)`` or a lockstep stack
    ``(k, fan_in)``: the same step of k sequences that share the
    weights, which then take one (k, width) @ (width, 4*width) product
    per step. ``starts`` holds each layer's ``(c, h)`` before the first
    row, or None for zero. ``caches``, unless None, holds each layer's
    ``{"gates", "c", "h"}`` arrays of ``A``'s rows (see ``_caches``),
    which the run fills with the first sequence's values.

    Returns ``(out, finals)``: the last layer's output, shaped like
    ``A`` with its last axis replaced, and each layer's ``(c, h)`` after
    the last row. A 2-D run's output is its last cached ``h`` itself.
    """
    shape = A.shape[1:-1] + (run[0].width,)  # one step of one layer
    A = A[:, None] if A.ndim == 2 else A  # a 2-D run as a stack of one
    (n, k, _), width, depth = A.shape, run[0].width, len(run)
    lag = _lag(n)
    blocks = -(-n // lag)
    ring = np.zeros((2 * lag, 6, depth, k, width))
    # the gate rows seen as product rows, (2 * lag, layers, k, 4, width)
    products = ring[:, :4].transpose(0, 2, 3, 1, 4)
    halves = np.full(4 * width, 0.5)
    halves[3 * width :] = 1.0
    W_in = [layer.W_in * halves for layer in run]
    W_rec = [layer.W_rec * halves for layer in run]
    biases = [(layer.b * halves).reshape(4, width) for layer in run]
    rec = np.empty((depth, k, 4 * width))
    rec_gates = rec.reshape(depth, k, 4, width).transpose(2, 0, 1, 3)
    dots = list(zip(W_rec, rec))
    im = np.empty((depth, k, width))
    half = np.array(0.5)

    into_h = caches is not None and len(shape) == 1
    out = caches[-1]["h"] if into_h else np.empty((n,) + shape)
    copies = [[] for _ in run]  # (destination, ring view, slot) per layer
    if caches is not None:
        first = ring[:, :, :, 0]
        for cache, dests in zip(caches, copies):
            dests += [(cache["gates"].reshape(n, 4, width), first, slice(0, 4)),
                      (cache["c"], first, 4), (cache["h"], first, 5)]
    if not into_h:
        copies[-1].append((out.reshape(n, k, width), ring, 5))
    finals = list(starts)

    for B in range(blocks + depth - 1 if n else 0):
        # layer j is on its block B - j; only the lowest layer's can be
        # the last, shorter one
        lo, hi = max(0, B - blocks + 1), min(depth, B + 1)
        r0, r_prev = B % 2 * lag, (B + 1) % 2 * lag
        if B < depth:  # layer B starts: its state goes in the row before
            before = ring[r0 - 1, 4:, B]
            before[0], before[1] = (0.0, 0.0) if starts[B] is None else starts[B]
        for j in range(lo, hi):
            t0 = (B - j) * lag
            m = min(lag, n - t0)
            x = A[t0 : t0 + m] if j == 0 else ring[r_prev : r_prev + m, 5, j - 1]
            z = products[r0 : r0 + m, j]
            np.add(_matmul_rows(x, W_in[j]).reshape(z.shape), biases[j], z)
        m = lag if hi - lo > 1 else min(lag, n - (B - lo) * lag)
        _cell_steps(ring[r0 : r0 + m], ring[r0 - 1], dots, rec_gates, im, half)
        for j in range(lo, hi):
            t0 = (B - j) * lag
            m = min(lag, n - t0)
            for dest, src, slot in copies[j]:
                dest[t0 : t0 + m] = src[r0 : r0 + m, slot, j]
            if t0 + m == n:
                last = ring[r0 + m - 1, 4:, j].reshape((2,) + shape)
                finals[j] = tuple(last.copy())
    return out, finals


def _cell_steps(rows, prev, dots, rec, im, half):
    """Step every layer of a run over consecutive step rows.

    ``prev`` is the step row before the first; ``dots`` pairs each
    layer's halved ``W_rec`` with its slot of the product buffer, which
    ``rec`` sees gate-major.
    """
    c, hs = prev[4], prev[5]
    for g, s, gi, gf, go, gm, c_t, h_t in zip(
        rows[:, :4], rows[:, :3], rows[:, 0], rows[:, 1], rows[:, 2],
        rows[:, 3], rows[:, 4], rows[:, 5],
    ):
        for h, (W, r) in zip(hs, dots):
            np.dot(h, W, r)
        np.add(g, rec, g)
        np.tanh(g, g)
        np.multiply(s, half, s)
        np.add(s, half, s)
        np.multiply(gf, c, c_t)
        np.multiply(gi, gm, im)
        np.add(c_t, im, c_t)
        np.tanh(c_t, h_t)
        np.multiply(h_t, go, h_t)
        c, hs = c_t, h_t


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

def forward_sequence(layers, X, keep_caches: bool = False):
    """Run the stack over a sequence. Returns (output, caches).

    ``X`` is (n, width_in), or (n, k, width_in) for k equal-length
    sequences run in lockstep; every output keeps the leading axes. The
    output is the last layer's (the input itself for an empty stack).

    Consecutive LSTM layers of one width form a run (``_runs``), which
    steps all its layers in one loop, each a lag of rows behind the one
    before it (``_lstm_run``); any other LSTM layer is a run of one. A
    run keeps its step rows in a ring of about two blocks of lag rows,
    so a forward without caches holds no layer's gates or cells, only
    the ring and the run's output. Outputs are bit-identical to walking
    the layers one at a time (at an odd width, see ``_lstm_run``).

    A stack is walked in chunks of ceil(n/4k) rows with each LSTM
    layer's state carried (``_walk``), so a chunk's temporaries take a
    quarter of one sequence's samples; a 2-D sequence is one chunk.

    Caches hold the per-layer intermediates the backward pass needs and
    are None unless requested: ``{"input"}`` for an affine layer and
    ``{"input", "gates", "c", "h"}`` for an LSTM layer, where ``gates``
    is the (n, 4*width) block of activated gates in ``GATE_ORDER`` and
    ``c``/``h`` are the per-step cell memory and output. A stack's
    caches are its first sequence's, so they feed ``sequence_gradients``
    as a 2-D run's would. They are laid out whole before the first chunk
    (``_caches``) and each chunk fills its rows of them.

    The sigmoid gates are computed as (1 + tanh(x/2)) / 2, which agrees
    with 1 / (1 + exp(-x)) to about one ulp.
    """
    A = np.asarray(X, dtype=np.float64)
    if A.ndim not in (2, 3):
        raise DataError(f"sequence input must be 2-D or 3-D, got {A.shape}")
    # The caches are made before any chunk's temporaries: made after the
    # first chunk, they left the benchmark's score-actuate peak RSS up to
    # 14 MB higher in about half of its runs, as the allocator keeps the
    # heap the chunks fragment.
    caches = _caches(layers, A) if keep_caches else None
    n, k = len(A), A.shape[1] if A.ndim == 3 else 0
    rows = max(1, -(-n // (4 * k)) if k else n)
    state, parts = {}, []
    for lo in range(0, max(n, 1), rows):
        chunk = None if caches is None else [
            {name: arr[lo : lo + rows] for name, arr in cache.items()}
            for cache in caches
        ]
        parts.append(_walk(layers, A[lo : lo + rows], state, chunk))
    return (parts[0] if len(parts) == 1 else np.concatenate(parts)), caches


def _caches(layers, A):
    """Empty caches for the forward of ``A`` through ``layers`` (a
    stack's are its first sequence's): the first input is that sequence
    (a stack's column 0, copied unless contiguous), an LSTM layer's
    ``h`` is the next layer's ``input``, one array, and an affine
    layer's output gets its own array."""
    n, caches = len(A), []
    kept = np.ascontiguousarray(A[:, 0]) if A.ndim == 3 else A
    for layer in layers:
        if kept is None:
            kept = np.empty((n, layer.weight_matrices()[0].shape[0]))
        cache, kept = {"input": kept}, None
        if isinstance(layer, LstmParams):
            width = layer.width
            cache.update(gates=np.empty((n, 4 * width)),
                         c=np.empty((n, width)), h=np.empty((n, width)))
            kept = cache["h"]
        caches.append(cache)
    return caches


def _walk(layers, A, state, caches):
    """One chunk of ``forward_sequence``: the stack over the rows of
    ``A``, returning the last layer's output. An LSTM layer starts from
    ``state[position]``, its ``(c, h)`` (zero if absent), which is
    replaced by its state after the last row. ``caches``, unless None,
    are the chunk's rows of ``_caches``' arrays, to be filled: an affine
    layer writes its output (a stack's column 0) into the next input."""
    index = 0
    for run in _runs(layers):
        if isinstance(run[0], DenseParams):
            A = affine(A, run[0])
            if caches is not None and index + 1 < len(layers):
                caches[index + 1]["input"][...] = A[:, 0] if A.ndim == 3 else A
        else:
            if A.shape[-1] != run[0].W_in.shape[0]:
                raise DataError(
                    f"lstm input width {A.shape[-1]} incompatible with "
                    f"W_in {run[0].W_in.shape}"
                )
            positions = range(index, index + len(run))
            A, finals = _lstm_run(
                A, run, [state.get(i) for i in positions],
                None if caches is None else caches[index : index + len(run)],
            )
            state.update(zip(positions, finals))
        index += len(run)
    return A


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


def sequence_gradients(layers, forward, labels, l2: float = 0.0, window=None):
    """Loss and exact analytic gradients for one sequence: the backward
    half of a gradient.

    ``forward`` is the ``(output, caches)`` that ``forward_sequence(layers,
    X, keep_caches=True)`` returns for one 2-D sequence ``X``; the caches
    of a lockstep stack's first sequence serve with that sequence's 2-D
    output. The batch is one time-ordered sequence; per-step softmax
    cross-entropy is averaged over steps and the l2 penalty (weight
    matrices only) is added. ``window`` truncates recurrent gradient
    flow; None unrolls the full sequence.

    Returns ``(loss, grads)`` with ``grads`` mirroring ``layers``.
    """
    logits, caches = forward
    labels = np.asarray(labels, dtype=np.int64)
    if caches is None or len(caches) != len(layers):
        raise DataError(
            "sequence_gradients needs the forward's caches for every layer: "
            "run forward_sequence with keep_caches=True"
        )
    if np.ndim(logits) != 2:
        raise DataError(
            f"forward output must be 2-D (one sequence), got {np.shape(logits)}"
        )
    n = logits.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if window is None:
        window = n
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

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
    """First/second moment estimates, as vectors in ``flat`` order, plus
    the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(layers) -> AdamState:
    zeros = np.zeros_like(flat(layers))
    return AdamState(m=zeros, v=zeros.copy())


def adam_step(layers, grads, state: AdamState, lr: float):
    """One bias-corrected Adam update. Returns (new_layers, new_state).

    The update runs once over the ``flat`` vectors of the parameters and
    gradients, and the new layers are views of one new vector. A
    non-finite gradient anywhere rejects the whole update: the inputs
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
    g = flat(grads)
    m = b1 * state.m + (1.0 - b1) * g
    v = b2 * state.v + (1.0 - b2) * np.square(g)
    p = flat(layers) - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return unflat(p, _layouts(layers)), AdamState(m=m, v=v, t=t)


# ---------------------------------------------------------------------------
# gradient verification

def finite_difference_gradients(layers, X, labels, l2: float = 0.0,
                                step: float = 1e-5):
    """Central-difference gradients of the full-sequence loss, as one
    vector in ``flat`` order: each entry from two losses with that entry
    of the ``flat`` parameters moved."""
    params = flat(layers)
    probe = unflat(params, _layouts(layers))
    out = np.empty_like(params)
    for idx in range(params.size):
        original = params[idx]
        params[idx] = original + step
        hi = sequence_loss(probe, X, labels, l2)
        params[idx] = original - step
        lo = sequence_loss(probe, X, labels, l2)
        params[idx] = original
        out[idx] = (hi - lo) / (2.0 * step)
    return out


def gradient_check(layers, X, labels, l2: float = 0.0, step: float = 1e-5):
    """Max discrepancy between analytic and finite-difference gradients.

    Per entry: |a - f| / max(1, |a|, |f|), i.e. relative error for
    gradients above unit magnitude and absolute error below it (the
    difference quotient itself is only accurate to ~1e-10, so a pure
    ratio would be noise for near-zero entries).
    """
    forward = forward_sequence(layers, X, keep_caches=True)
    _, analytic = sequence_gradients(layers, forward, labels, l2)
    a = flat(analytic)
    f = finite_difference_gradients(layers, X, labels, l2, step)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
    return float((np.abs(a - f) / denom).max())
