"""Numerical core: affine layers, LSTM cells, softmax cross-entropy with
an l2 penalty, exact sequence gradients, and Adam updates.

Everything here is float64 and purely functional; a batch of samples is
treated as one time-ordered sequence for the recurrent layers. Stacked
LSTM layers of one width step together in one loop, each a lag of rows
behind the one below, and the affine layers take the rows a block at a
time, with outputs bit-identical to a layer-at-a-time walk at widths
that are multiples of 8 (``_lstm_run``). A gradient comes in two
halves: ``forward_sequence`` with caches, then ``sequence_gradients``
on that forward, so a forward run for another purpose (a lockstep
stack, whose caches are its first sequence's) can feed the backward.
The backward computes in the forward's caches, so a forward feeds one
gradient.
The backward pass is hand-derived for exactly this layer vocabulary
(affine chains feeding a stack of LSTM layers) rather than a generic
autodiff graph, and is validated against central finite differences.
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
    names and shapes, in checkpoint order, and ``names``, the tuple of
    those names, is set once per class. Every walk over a record's
    arrays follows that order, and the 2-D arrays are the weight
    matrices that take the l2 penalty; the 1-D arrays are biases.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.names = tuple(cls.layout(1, 1))

    def arrays(self):
        return [(name, getattr(self, name)) for name in self.names]

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

def _lag(n, k=1):
    """Rows by which each LSTM layer trails the one before it in a
    forward of n rows of k sequences: about n / 16k², from 2 to 256 rows,
    and never leaving a last block of one row unless the sequence is one
    row. A 2-D sequence (k = 1) lags by about a sixteenth of it, and a
    stack's ring, 2 * lag * k step rows per layer, holds about a k-th
    of the ring of one of its sequences alone. A BLAS takes a 1-row
    product as gemv, which rounds differently from a row of a larger
    product."""
    lag = max(2, min(256, n // (16 * max(k, 1) ** 2)))
    while n > 1 and n % lag == 1:
        lag += 1
    return lag


def _lstm_span(layers, fan_in):
    """Positions ``(first, stop)`` of the LSTM layers in ``layers``, a
    stack fed rows of ``fan_in`` values; ``first == stop`` when there are
    none. A stack is affine layers, then at most one run of LSTM layers
    of one width, each fed by the one before, then affine layers. A layer
    that breaks this, or whose input width does not fit, is a DataError
    that names it."""
    first = stop = None
    for index, layer in enumerate(layers):
        lstm = isinstance(layer, LstmParams)
        W = layer.W_in if lstm else layer.W
        if W.shape[0] != fan_in:
            raise DataError(f"layer {index}: {'lstm' if lstm else 'affine'} input "
                            f"width {fan_in} incompatible with weights {W.shape}")
        if lstm and stop is not None and (stop < index or layer.width != fan_in):
            raise DataError(f"layer {index}: a stack's LSTM layers must be one "
                            f"run of one width")
        if lstm:
            first, stop = index if first is None else first, index + 1
        fan_in = layer.width if lstm else W.shape[1]
    return (len(layers),) * 2 if first is None else (first, stop)


def _lstm_run(A, layers, first, stop, caches):
    """The stack ``layers``, whose LSTM layers are ``layers[first:stop]``
    (see ``_lstm_span``), over the rows of ``A``: returns its output.

    This is the one implementation of the cell: the gates of step t
    activate ``x[t] @ W_in + h_prev @ W_rec + b`` (sigmoid for input,
    forget and output, tanh for modulation), the cell memory becomes
    ``forget * c_prev + input * modulation`` and the output
    ``output * tanh(c)``. The call's copies of ``W_in``, ``W_rec`` and
    ``b`` have the three sigmoid blocks halved. Halving is exact (away
    from the subnormal range), so each step computes ``x/2`` for every
    sigmoid pre-activation ``x``. A step adds ``h_prev @ W_rec`` to its
    row, takes one tanh over the whole row and maps the sigmoid blocks
    through sigmoid(x) = (1 + tanh(x/2)) / 2, all in place: no branch,
    no mask and no overflow.

    All LSTM layers step in one loop from zero state, layer j+1 running
    ``lag`` rows (see ``_lag``) behind layer j. The rows go in blocks of
    ``lag``; before a block, each LSTM layer's ``x @ W_in + b`` is one
    product over its block, whose rows the layer before it has just
    finished. The affine layers take a group of k blocks at once (or
    every block, if fewer), about n/16 samples, where a 2-D sequence's
    take one block: before each group of the lowest LSTM layer, the
    group's rows go through the affine layers before the run, and the
    last LSTM layer's output is gathered a group at a time for the
    affine layers after the run, which write the output
    (``_affine_group``). A step row is laid out
    gate-major, ``(6, layers, k, width)``: the four gates, then ``c`` and
    ``h``, of every layer. So one add, tanh, sigmoid or cell call covers
    every layer while each takes its own ``h_prev @ W_rec`` product.
    Every layer steps every row of the loop, also before its first block
    and after its last, on finite values that nothing reads. The step
    rows live in a ring of two blocks, and each finished block is copied
    out before its rows are reused. The views a step works on are made
    once per ring row and call, not once per step (``_cell_steps``).
    Every per-element operation is that of a layer-at-a-time walk, so the
    outputs are bit-identical to it wherever the BLAS rounds a product
    row the same at any row count of 2 or more. OpenBLAS 0.3.31 does so
    at widths that are multiples of 8, every width ``tune`` tries. At
    other widths (odd ones, and 2, 4, 10, 12 or 18, say) a product of
    more than about a million multiply-adds takes another kernel than
    its blocks', and outputs differ from the walk in the last bit.

    A row of ``A`` is one sample ``(fan_in,)`` or a lockstep stack
    ``(k, fan_in)``: the same step of k sequences that share the
    weights, which then take one (k, width) @ (width, 4*width) product
    per step. ``caches``, unless None, are ``_caches``' arrays for
    ``A``'s rows, which the call fills with the first sequence's values.
    """
    lead = A.shape[1:-1]
    A = A[:, None] if A.ndim == 2 else A  # a 2-D sequence as a stack of one
    (n, k, _), run = A.shape, layers[first:stop]
    width, depth = run[0].width, len(run)
    lag = _lag(n, k)
    blocks = -(-n // lag)
    halves = np.full(4 * width, 0.5)
    halves[3 * width :] = 1.0
    W_in = [layer.W_in * halves for layer in run]
    W_rec = [layer.W_rec * halves for layer in run]
    biases = [(layer.b * halves).reshape(4, width) for layer in run]
    # each layer's h_prev @ W_rec, and that seen gate-major
    slots = np.empty((depth, k, 4 * width))
    rec = slots.reshape(depth, k, 4, width).transpose(2, 0, 1, 3)
    im, half = np.empty((depth, k, width)), np.array(0.5)
    inputs = np.empty((lag * k, 4 * width))  # a block's x @ W_in
    inputs4 = inputs.reshape(lag, k, 4, width)
    ring = np.zeros((2 * lag, 6, depth, k, width))
    # the gate rows seen as product rows, (2 * lag, layers, k, 4, width)
    products = ring[:, :4].transpose(0, 2, 3, 1, 4)
    # per ring row, in _cell_steps' order: its gates, sigmoid blocks,
    # each gate, the c before it and its c and h, and each layer's
    # (h before it, W_rec, product slot); row 0 follows the ring's last
    c, h = list(ring[:, 4]), list(ring[:, 5])
    steps = list(zip(
        ring[:, :4], ring[:, :3], ring[:, 0], ring[:, 1], ring[:, 2],
        ring[:, 3], c[-1:] + c[:-1], c, h,
        [list(zip(hs, W_rec, slots)) for hs in h[-1:] + h[:-1]],
    ))
    out = np.empty((n, k, layers[-1].b.shape[0] if stop < len(layers) else width))
    flat_out = out.reshape(n * k, out.shape[-1])
    group = max(1, min(k, blocks))  # blocks the affine layers take at once
    above = np.empty((group * lag, k, width))  # the run's output, gathered
    dense = _affine_chain(layers, caches, group * lag * k)

    copies = [[] for _ in run]  # (destination, ring view, slot) per layer
    if caches is not None:
        column = ring[:, :, :, 0]
        for cache, dests in zip(caches[first:stop], copies):
            dests += [(cache["gates"].reshape(n, 4, width), column, slice(0, 4)),
                      (cache["c"], column, 4), (cache["h"], column, 5)]
    if stop == len(layers):
        copies[-1].append((out, ring, 5))

    for B in range(blocks + depth - 1 if n else 0):
        # layer j is on its block B - j; only the lowest layer's can be
        # the last, shorter one
        lo, hi = max(0, B - blocks + 1), min(depth, B + 1)
        r0, r_prev = B % 2 * lag, (B + 1) % 2 * lag
        if B < depth:  # layer B starts from zero state
            ring[r0 - 1, 4:, B] = 0.0
        for j in range(lo, hi):
            t0 = (B - j) * lag
            m = min(lag, n - t0)
            if j == 0:
                if B % group == 0:  # the next group through the layers below
                    below = _affine_group(A[t0 : t0 + group * lag], dense[:first],
                                          flat_out, t0)
                x = below[B % group * lag * k :][: m * k]
            else:
                x = ring[r_prev : r_prev + m, 5, j - 1].reshape(m * k, width)
            np.matmul(x, W_in[j], out=inputs[: m * k])
            np.add(inputs4[:m], biases[j], products[r0 : r0 + m, j])
        m = lag if hi - lo > 1 else min(lag, n - (B - lo) * lag)
        _cell_steps(steps[r0 : r0 + m], rec, im, half)
        for j in range(lo, hi):
            t0 = (B - j) * lag
            m = min(lag, n - t0)
            for dest, src, slot in copies[j]:
                dest[t0 : t0 + m] = src[r0 : r0 + m, slot, j]
            if j == depth - 1 and stop < len(layers):
                g0 = (B - j) % group * lag  # the block's rows in its group
                above[g0 : g0 + m] = ring[r0 : r0 + m, 5, j]
                if g0 + lag == group * lag or t0 + m == n:  # a whole group
                    _affine_group(above[: g0 + m], dense[stop:], flat_out, t0 - g0)
    return out.reshape((n,) + lead + out.shape[-1:])


def _affine_chain(layers, caches, rows):
    """``_affine_group``'s entry per layer of ``layers`` (None for an LSTM
    layer): its W, b, a buffer of ``rows`` rows (None for the output
    layer, which writes its rows of the stack's output) and, unless
    None, the cached input its output is."""
    return [None if isinstance(layer, LstmParams) else (
        layer.W, layer.b,
        None if i + 1 == len(layers) else np.empty((rows, len(layer.b))),
        None if caches is None or i + 1 == len(layers) else caches[i + 1]["input"],
    ) for i, layer in enumerate(layers)]


def _affine_group(x, chain, flat_out, t0):
    """The rows ``x``, ``(m, k, fan_in)`` from row t0 on, through the
    affine layers of ``chain`` (``_affine_chain``'s entries): returns the
    last one's (m * k, width) output. The connection is purely affine by
    design; nonlinearity enters through the LSTM layers. A layer's output
    is one product into its buffer and its bias added in place, the two
    operations of ``X @ W + b``; the output layer writes its rows of
    ``flat_out``, the stack's output as (n * k, width). A cache takes each
    k-th row, its first sequence's."""
    m, k = x.shape[:2]
    x = x.reshape(m * k, x.shape[-1])
    for W, b, y, cached in chain:
        y = flat_out[t0 * k : (t0 + m) * k] if y is None else y[: m * k]
        np.matmul(x, W, out=y)
        y += b
        if cached is not None:
            cached[t0 : t0 + m] = y[::k]
        x = y
    return x


def _cell_steps(steps, rec, im, half):
    """Step every layer of a run over consecutive step rows, given as
    ``_lstm_run``'s tuples of views: the step makes no view of its own.
    ``rec`` sees the product slots gate-major, and ``im`` holds
    ``input * modulation``."""
    for g, s, gi, gf, go, gm, c_prev, c, h, dots in steps:
        for h_prev, W, r in dots:
            np.dot(h_prev, W, r)
        np.add(g, rec, g)
        np.tanh(g, g)
        np.multiply(s, half, s)
        np.add(s, half, s)
        np.multiply(gf, c_prev, c)
        np.multiply(gi, gm, im)
        np.add(c, im, c)
        np.tanh(c, h)
        np.multiply(h, go, h)


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


def cross_entropy_loss(probs, labels, layers=(), l2: float = 0.0):
    """Mean negative log-probability of the true class, plus the l2 term.

    ``labels`` are 1-based class ids indexing ``probs`` columns. The
    penalty is ``l2 * sum(W**2)`` over the weight matrices of
    ``layers``, never their biases. Probabilities below 1e-12 are
    clamped to it so the loss is never infinite.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    picked = np.maximum(probs[np.arange(len(labels)), labels - 1],
                        _PROB_FLOOR)
    loss = -np.log(picked).mean()
    for layer in layers:
        for W in layer.weight_matrices():
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

    The stack is affine layers, then at most one run of LSTM layers of
    one width, each fed by the one before, then affine layers
    (``_lstm_span``); any other stack is a DataError before any array is
    made. A stack without LSTM layers takes all its rows as one group
    through its affine layers (``_affine_group``). Otherwise one walk
    (``_lstm_run``) steps every LSTM layer in one loop, each a lag of
    rows behind the one before it, and takes the rows through the
    affine layers a few blocks of lag rows at a time. Its step rows live
    in a ring of two blocks, so a forward without caches holds no
    layer's gates or cells and no whole-sequence temporary, only the
    ring, the affine layers' buffers and the output. Outputs are
    bit-identical to walking the layers one at a time at widths that are
    multiples of 8 (at others, see ``_lstm_run``).

    Caches hold the per-layer intermediates the backward pass needs and
    are None unless requested: ``{"input"}`` for an affine layer and
    ``{"input", "gates", "c", "h"}`` for an LSTM layer, where ``gates``
    is the (n, 4*width) block of activated gates in ``GATE_ORDER`` and
    ``c``/``h`` are the per-step cell memory and output. A stack's
    caches are its first sequence's, so they feed ``sequence_gradients``
    as a 2-D run's would; caches of a stack of no sequences are a
    DataError. They are laid out whole before the walk
    (``_caches``) and each block fills its rows of them. They feed one
    gradient: ``sequence_gradients`` computes in them and empties the
    list.

    The sigmoid gates are computed as (1 + tanh(x/2)) / 2, which agrees
    with 1 / (1 + exp(-x)) to about one ulp.
    """
    A = np.asarray(X, dtype=np.float64)
    if keep_caches and A.ndim == 3 and A.shape[1] == 0:
        raise DataError(f"a stack of no sequences, {A.shape}, has no first "
                        f"sequence to cache")
    first, stop = _lstm_span(layers, A.shape[-1])
    # The caches are made before the walk's temporaries: made after them,
    # they left the benchmark's score-actuate peak RSS up to 14 MB higher
    # in about half of its runs, as the allocator keeps the heap those
    # temporaries fragment.
    caches = _caches(layers, A) if keep_caches else None
    if first < stop:
        return _lstm_run(A, layers, first, stop, caches), caches
    if layers:  # an affine chain: every row in one group
        S = A[:, None] if A.ndim == 2 else A
        n, k = S.shape[:2]
        A = np.empty(A.shape[:-1] + layers[-1].b.shape)
        flat_out = A.reshape(n * k, A.shape[-1])
        _affine_group(S, _affine_chain(layers, caches, n * k), flat_out, 0)
    return A, caches


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

    The backward computes in the forward's caches, which it reads once:
    ``dZ`` is ``cache["gates"]``, each multiplier written over its own
    gate's columns once nothing else reads that gate, and ``cache["c"]``
    becomes ``tanh(c)`` and then ``dc_from_dh``. A copy of the forget
    gates serves the step loop, and one scratch array holds the input
    and output multipliers while their gates are still read. ``input``,
    ``h`` and ``d_out`` are left as they are. Every value comes from the
    same operations in the same order as in separate arrays, so the
    result is bit-identical to them.

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
    dZ = cache["gates"]  # each gate's columns come to hold its multiplier
    gi, gf, go, gm = zi, zf, zo, zm = np.split(dZ, 4, axis=1)
    gf = gf.copy()  # the step loop's forget gates

    scratch = np.subtract(1.0, gi)
    scratch *= gi
    scratch *= gm
    np.square(gm, out=zm)
    np.subtract(1.0, zm, out=zm)
    zm *= gi
    zi[:] = scratch
    zf[0] = 0.0
    np.subtract(1.0, gf[1:], out=zf[1:])
    zf[1:] *= gf[1:]
    zf[1:] *= cells[:-1]
    tanh_c = np.tanh(cells, out=cells)
    np.subtract(1.0, go, out=scratch)
    scratch *= go
    scratch *= tanh_c
    # dh to dc through h = go * tanh(c), in the tanh(c) buffer
    dc_from_dh = np.square(tanh_c, out=tanh_c)
    np.subtract(1.0, dc_from_dh, out=dc_from_dh)
    dc_from_dh *= go
    zo[:] = scratch
    del scratch  # freed before the step loop and d_in

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

    It consumes ``forward``: the backward computes in its caches
    (``_lstm_backward``) and empties their list, so a second call on it
    is a DataError.

    Returns ``(loss, grads)`` with ``grads`` mirroring ``layers``.
    """
    logits, given = forward
    labels = np.asarray(labels, dtype=np.int64)
    if given is None or len(given) != len(layers):
        raise DataError(
            "sequence_gradients needs the forward's caches for every layer: "
            "run forward_sequence with keep_caches=True; a forward feeds one "
            "gradient"
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
    caches = tuple(given)
    given.clear()  # the backward computes in them: the forward is spent

    probs = softmax(logits)
    loss = cross_entropy_loss(probs, labels, layers, l2)

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
            if k > 0:  # the gradient with respect to the input goes unread
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
    return cross_entropy_loss(softmax(logits), labels, layers, l2)


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
    gradients, and the new layers are views of one new vector. ``lr`` is
    positive (``model.HyperParams`` checks it). A non-finite gradient
    anywhere rejects the whole update: the inputs are left untouched and
    a NumericError describes the offending array.
    """
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
