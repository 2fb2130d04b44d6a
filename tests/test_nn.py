"""Numerical-core tests: every derived expectation is computed by an
independent oracle (naive loops, straight-line equation evaluation, or
hand-stepped updates) before being compared to the implementation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mindctl.errors import DataError, NumericError
from mindctl.model import build, HyperParams
from mindctl.nn import (
    DenseParams,
    LstmParams,
    _lag,
    _lstm_backward,
    adam_init,
    adam_step,
    cross_entropy_loss,
    flat,
    forward_sequence,
    gradient_check,
    sequence_gradients,
    sequence_loss,
    softmax,
)
from helpers import (
    _reference_lstm_backward,
    gradients,
    reference_adam_init,
    reference_adam_step,
    reference_gradients,
    reference_sigmoid,
    tanh_sigmoid,
)


# ---------------------------------------------------------------------------
# parameter layout

@pytest.mark.parametrize("cls, names", [
    (DenseParams, ["W", "b"]),
    (LstmParams, ["W_in", "W_rec", "b"]),
])
def test_arrays_follow_declared_layout(cls, names):
    # fan_in != width so a swapped shape cannot pass for the right one
    layout = cls.layout(3, 2)
    assert list(layout) == names
    layer = cls(**{name: np.zeros(shape) for name, shape in layout.items()})
    assert [name for name, _ in layer.arrays()] == names
    assert [a.shape for _, a in layer.arrays()] == list(layout.values())
    assert [W.shape for W in layer.weight_matrices()] == [
        shape for shape in layout.values() if len(shape) == 2
    ]


# ---------------------------------------------------------------------------
# affine

def _affine(X, params):
    """One affine layer's forward, the path every affine layer takes."""
    out, _ = forward_sequence([params], X)
    return out


def test_affine_identity():
    X = np.random.default_rng(0).normal(size=(4, 3))
    params = DenseParams(W=np.eye(3), b=np.zeros(3))
    assert np.array_equal(_affine(X, params), X)


def test_affine_forced_example():
    params = DenseParams(W=np.array([[1.0, 0.0], [0.0, 1.0]]),
                         b=np.array([3.0, 4.0]))
    assert np.array_equal(_affine(np.array([[1.0, 2.0]]), params),
                          np.array([[4.0, 6.0]]))


def test_affine_matches_triple_loop_oracle():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(5, 8))
    W = rng.normal(size=(8, 3))
    b = rng.normal(size=3)
    expected = np.zeros((5, 3))
    for r in range(5):
        for c in range(3):
            acc = 0.0
            for k in range(8):
                acc += X[r, k] * W[k, c]
            expected[r, c] = acc + b[c]
    got = _affine(X, DenseParams(W=W, b=b))
    assert np.max(np.abs(got - expected)) < 1e-12


def test_affine_shape_error_names_shapes():
    params = DenseParams(W=np.zeros((3, 2)), b=np.zeros(2))
    with pytest.raises(DataError, match=r"layer 0: affine input width 4 "
                                        r"incompatible with weights \(3, 2\)"):
        _affine(np.zeros((2, 4)), params)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    k=st.one_of(st.none(), st.integers(1, 4)),  # None: a 2-D sequence
    widths=st.lists(st.sampled_from([1, 3, 8, 10, 16, 64]), min_size=1,
                    max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=40, k=3, widths=[64, 10, 5], seed=0)
def test_affine_chain_matches_per_layer_oracle(n, k, widths, seed):
    # depth 1-3: each layer X @ W + b over the stack's rows as one 2-D
    # product, bit for bit; the caches hold column 0 of each layer's input
    rng = np.random.default_rng(seed)
    fan_ins = [64] + widths[:-1]
    layers = [DenseParams(W=rng.normal(size=(f, w)), b=rng.normal(size=w))
              for f, w in zip(fan_ins, widths)]
    X = rng.normal(size=(n, 64) if k is None else (n, k, 64))
    out, caches = forward_sequence(layers, X, keep_caches=True)
    A, inputs = X, []
    for layer in layers:
        inputs.append(A[:, 0] if A.ndim == 3 else A)
        A = (A.reshape(-1, A.shape[-1]) @ layer.W).reshape(
            A.shape[:-1] + (layer.W.shape[1],)) + layer.b
    assert out.shape == A.shape and np.array_equal(out, A)
    assert [cache["input"].shape for cache in caches] == [
        (n, f) for f in fan_ins]
    for cache, expected in zip(caches, inputs):
        assert np.array_equal(cache["input"], expected)


# ---------------------------------------------------------------------------
# lstm cell

def _zero_lstm(width, fan_in):
    return LstmParams(
        W_in=np.zeros((fan_in, 4 * width)),
        W_rec=np.zeros((width, 4 * width)),
        b=np.zeros(4 * width),
    )


def _lstm_layer(A, layer):
    """``(gates, c, h)`` of one LSTM layer over the rows of ``A``."""
    _, (cache,) = forward_sequence([layer], A, keep_caches=True)
    return cache["gates"], cache["c"], cache["h"]


def test_lstm_step_all_zero():
    _, cells, out = _lstm_layer(np.zeros((3, 2)), _zero_lstm(3, 2))
    assert np.array_equal(cells, np.zeros((3, 3)))
    assert np.array_equal(out, np.zeros((3, 3)))


def test_lstm_step_unit_cell_memory():
    # step 1 saturates the input and modulation gates, so c = 1; step 2
    # has zero weights in effect: all sigmoid gates 0.5, modulation 0,
    # so c = 0.5 * 1 and h = 0.5 * tanh(0.5)
    params = _zero_lstm(3, 2)
    params.W_in[0, 0:3] = params.W_in[0, 9:12] = 40.0
    _, cells, out = _lstm_layer(np.array([[1.0, 0.0], [0.0, 0.0]]), params)
    assert np.allclose(cells[0], 1.0, atol=1e-15)
    assert np.allclose(cells[1], 0.5, atol=1e-15)
    assert np.allclose(out[1], 0.5 * np.tanh(0.5), atol=1e-15)
    assert abs(out[1][0] - 0.23105857863000487) < 1e-12


def test_lstm_step_matches_straight_line_oracle():
    rng = np.random.default_rng(2)
    width, fan_in = 3, 4
    params = LstmParams(
        W_in=rng.normal(scale=0.3, size=(fan_in, 4 * width)),
        W_rec=rng.normal(scale=0.3, size=(width, 4 * width)),
        b=rng.normal(scale=0.3, size=4 * width),
    )
    X = rng.normal(size=(3, fan_in))
    _, cells, out = _lstm_layer(X, params)

    # straight-line evaluation of the six cell equations, step by step;
    # from step 2 on, the carried state is not zero
    c, h = np.zeros(width), np.zeros(width)
    for t, x in enumerate(X):
        z = x @ params.W_in + h @ params.W_rec + params.b
        f_i = 1.0 / (1.0 + np.exp(-z[0:3]))
        f_f = 1.0 / (1.0 + np.exp(-z[3:6]))
        f_o = 1.0 / (1.0 + np.exp(-z[6:9]))
        f_m = np.tanh(z[9:12])
        c = f_f * c + f_i * f_m
        h = f_o * np.tanh(c)
        assert np.max(np.abs(out[t] - h)) < 1e-12
        assert np.max(np.abs(cells[t] - c)) < 1e-12


# float64 tanh rounds to exactly +-1 beyond |x| of about 19.06, and the
# sigmoid (1 + tanh(x/2)) / 2 reaches 0 or 1 only further out, so open
# intervals hold only for pre-activations this far from saturation
_RESOLVABLE = 18.0


@example(137)  # modulation pre-activation -21.65: tanh is exactly -1.0
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lstm_gate_ranges(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 6))
    fan_in = int(rng.integers(1, 6))
    params = LstmParams(
        W_in=rng.normal(scale=2.0, size=(fan_in, 4 * width)),
        W_rec=rng.normal(scale=2.0, size=(width, 4 * width)),
        b=rng.normal(scale=2.0, size=4 * width),
    )
    X = rng.normal(size=(3, fan_in))
    gates, cells, out = _lstm_layer(X, params)

    sig, mod = gates[:, : 3 * width], gates[:, 3 * width :]
    assert np.all((sig >= 0.0) & (sig <= 1.0))
    assert np.all(np.abs(mod) <= 1.0)
    assert np.all(np.abs(out) <= 1.0)  # sigmoid * tanh, both inside [-1, 1]
    assert np.all(np.isfinite(cells))

    h_prev = np.vstack([np.zeros(width), out[:-1]])
    z = X @ params.W_in + h_prev @ params.W_rec + params.b
    resolvable = np.abs(z) < _RESOLVABLE
    inner = sig[resolvable[:, : 3 * width]]
    assert np.all((inner > 0.0) & (inner < 1.0))
    assert np.all(np.abs(mod[resolvable[:, 3 * width :]]) < 1.0)
    # a strictly sub-unit output gate keeps |h| strictly below 1
    assert np.all(np.abs(out[resolvable[:, 2 * width : 3 * width]]) < 1.0)


def test_lstm_step_shape_error():
    with pytest.raises(DataError, match="lstm input width 5 incompatible"):
        forward_sequence([_zero_lstm(3, 2)], np.zeros((4, 5)))


# ---------------------------------------------------------------------------
# softmax

def test_softmax_uniform():
    assert np.allclose(softmax(np.zeros((1, 5))), 0.2, atol=1e-15)


def test_softmax_no_overflow():
    (out,) = softmax(np.array([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out))
    assert out[0] > 1 - 1e-12 and out[1] < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=6),
    st.floats(-100, 100),
)
def test_softmax_shift_invariance(logits, shift):
    logits = np.asarray([logits])
    a = softmax(logits)
    b = softmax(logits + shift)
    assert np.max(np.abs(a - b)) < 1e-12
    assert abs(a.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# loss

def test_loss_perfect_predictions_zero():
    probs = np.eye(5)[[0, 3, 4]]
    labels = np.array([1, 4, 5])
    assert cross_entropy_loss(probs, labels) == 0.0


def test_loss_uniform_is_log5():
    probs = np.full((7, 5), 0.2)
    labels = np.ones(7, dtype=int)
    assert abs(cross_entropy_loss(probs, labels) - np.log(5)) < 1e-12


def test_loss_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    raw = rng.uniform(0.05, 1.0, size=(6, 5))
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(1, 6, size=6)
    layers = [DenseParams(W=rng.normal(size=(3, 2)), b=rng.normal(size=2)),
              DenseParams(W=rng.normal(size=(4, 4)), b=rng.normal(size=4))]
    lam = 0.37

    total = 0.0
    for i in range(6):
        total += -np.log(probs[i, labels[i] - 1])
    expected = total / 6
    for layer in layers:  # the weight matrices only, never the biases
        for value in layer.W.reshape(-1):
            expected += lam * value * value

    got = cross_entropy_loss(probs, labels, layers, lam)
    assert abs(got - expected) < 1e-12


def test_loss_clamps_zero_probability_and_counts():
    probs = np.array([[1.0, 0.0, 0.0, 0.0, 0.0]])
    loss = cross_entropy_loss(probs, np.array([2]))
    assert np.isfinite(loss)
    assert loss == pytest.approx(-np.log(1e-12))


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_leaves_parameters():
    layers = [DenseParams(W=np.ones((2, 2)), b=np.ones(2))]
    grads = [DenseParams(W=np.zeros((2, 2)), b=np.zeros(2))]
    state = adam_init(layers)
    new_layers, new_state = adam_step(layers, grads, state, lr=0.1)
    assert np.array_equal(new_layers[0].W, layers[0].W)
    assert np.array_equal(new_layers[0].b, layers[0].b)
    assert new_state.t == 1


def test_adam_first_step_is_signed_learning_rate():
    layers = [DenseParams(W=np.array([[1.0]]), b=np.array([0.0]))]
    grads = [DenseParams(W=np.array([[0.3]]), b=np.array([-2.0]))]
    new_layers, _ = adam_step(layers, grads, adam_init(layers), lr=0.1)
    # bias-corrected m_hat = g and v_hat = g^2, so step ~ lr * sign(g)
    assert new_layers[0].W[0, 0] == pytest.approx(1.0 - 0.1, abs=1e-7)
    assert new_layers[0].b[0] == pytest.approx(0.0 + 0.1, abs=1e-7)


def test_adam_quadratic_descent_matches_hand_stepped_oracle():
    # minimize f(w) = w^2 from w = 1 with lr = 0.1
    layers = [DenseParams(W=np.array([[1.0]]), b=np.zeros(1))]
    state = adam_init(layers)

    w, m, v, t = 1.0, 0.0, 0.0, 0
    trajectory = []
    for _ in range(10):
        g = 2.0 * w
        t += 1
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        w = w - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        trajectory.append(w)

    values = []
    for _ in range(10):
        g = 2.0 * layers[0].W[0, 0]
        grads = [DenseParams(W=np.array([[g]]), b=np.zeros(1))]
        layers, state = adam_step(layers, grads, state, lr=0.1)
        values.append(layers[0].W[0, 0])

    assert np.allclose(values, trajectory, atol=1e-12)
    assert all(b < a for a, b in zip(values, values[1:]))  # strictly decreasing
    assert values[-1] < 1.0


def test_adam_rejects_non_finite_gradient():
    layers = [DenseParams(W=np.ones((2, 2)), b=np.ones(2))]
    grads = [DenseParams(W=np.full((2, 2), np.nan), b=np.zeros(2))]
    state = adam_init(layers)
    with pytest.raises(NumericError, match="non-finite gradient"):
        adam_step(layers, grads, state, lr=0.1)
    # inputs untouched
    assert state.t == 0
    assert np.array_equal(layers[0].W, np.ones((2, 2)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.booleans(), st.integers(1, 4), st.integers(1, 4)),
             min_size=1, max_size=3),
    st.integers(1, 5),
    st.sampled_from([1e-3, 0.01, 0.3]),
    st.integers(0, 2**32 - 1),
)
def test_adam_step_matches_per_array_reference_bit_for_bit(shapes, steps, lr, seed):
    # the vector update against one taken array by array, in the layers
    # and in both moments, over gradients of mixed scales
    rng = np.random.default_rng(seed)
    layers = []
    for lstm, fan_in, width in shapes:
        cls = LstmParams if lstm else DenseParams
        layers.append(cls(**{name: rng.normal(size=shape)
                             for name, shape in cls.layout(fan_in, width).items()}))
    ref_layers, ref_state = layers, reference_adam_init(layers)
    state = adam_init(layers)
    for _ in range(steps):
        grads = [type(layer)(**{name: rng.normal(size=arr.shape)
                                * 10.0 ** rng.integers(-6, 3, size=arr.shape)
                                for name, arr in layer.arrays()})
                 for layer in layers]
        layers, state = adam_step(layers, grads, state, lr)
        ref_layers, ref_state = reference_adam_step(ref_layers, grads, ref_state, lr)
        assert state.t == ref_state.t
        for got, ref in ((flat(layers), flat(ref_layers)), (state.m, flat(ref_state.m)),
                         (state.v, flat(ref_state.v))):
            assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# sequence gradients

def _small_model(width=4, layers=5, seed=0):
    hp = HyperParams(l2=0.01, lr=0.01, width=width, layers=layers, batches=1)
    return build(hp, seed=seed)


def test_gradients_zero_l2_degenerate_regularizer():
    model = _small_model()
    X = np.zeros((3, 64))
    y = np.array([1, 2, 3])
    loss0, grads0 = gradients(model.layers, X, y, 0.0)
    # with l2 = 0 the regularizer contributes nothing to the loss
    logits, _ = forward_sequence(model.layers, X)
    assert loss0 == pytest.approx(
        cross_entropy_loss(softmax(logits), y), abs=1e-15
    )


def test_doubling_l2_doubles_regularizer_gradient():
    model = _small_model(seed=3)
    rng = np.random.default_rng(5)
    X = rng.normal(size=(5, 64))
    y = rng.integers(1, 6, size=5)
    _, g0 = gradients(model.layers, X, y, 0.0)
    _, g1 = gradients(model.layers, X, y, 0.01)
    _, g2 = gradients(model.layers, X, y, 0.02)
    for a, b, c in zip(g0, g1, g2):
        for (_, ga), (_, gb), (_, gc) in zip(a.arrays(), b.arrays(), c.arrays()):
            reg1 = gb - ga
            reg2 = gc - ga
            assert np.max(np.abs(reg2 - 2.0 * reg1)) < 1e-9


def test_gradient_check_small_instance():
    model = _small_model(width=4, layers=5, seed=9)
    rng = np.random.default_rng(9)
    X = rng.normal(size=(6, 64))
    y = rng.integers(1, 6, size=6)
    assert gradient_check(model.layers, X, y, l2=0.01) < 1e-4


def test_full_window_equals_unbounded_window():
    model = _small_model(width=3, layers=6, seed=2)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(7, 64))
    y = rng.integers(1, 6, size=7)
    loss_a, grads_a = gradients(model.layers, X, y, 0.02, window=None)
    loss_b, grads_b = gradients(model.layers, X, y, 0.02, window=7)
    assert loss_a == loss_b
    for a, b in zip(grads_a, grads_b):
        for (_, ga), (_, gb) in zip(a.arrays(), b.arrays()):
            assert np.array_equal(ga, gb)


def test_truncated_window_keeps_loss_and_changes_only_flow():
    model = _small_model(width=3, layers=5, seed=4)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(8, 64))
    y = rng.integers(1, 6, size=8)
    loss_full, _ = gradients(model.layers, X, y, 0.0)
    loss_trunc, _ = gradients(model.layers, X, y, 0.0, window=3)
    # truncation is a backward-pass concept: forward results are identical
    assert loss_full == loss_trunc
    logits, _ = forward_sequence(model.layers, X)
    assert loss_full == cross_entropy_loss(softmax(logits), y)


def test_empty_batch_rejected():
    model = _small_model()
    with pytest.raises(ValueError, match="empty batch"):
        gradients(model.layers, np.zeros((0, 64)), np.zeros(0), 0.0)


def test_gradients_take_a_two_dimensional_forward_with_caches():
    model = _small_model()
    rng = np.random.default_rng(6)
    X = rng.normal(size=(5, 64))
    y = rng.integers(1, 6, size=5)
    with pytest.raises(DataError, match="keep_caches=True"):
        sequence_gradients(model.layers, forward_sequence(model.layers, X), y)
    short = forward_sequence(model.layers[1:], X @ model.layers[0].W,
                             keep_caches=True)
    with pytest.raises(DataError, match="keep_caches=True"):
        sequence_gradients(model.layers, short, y)
    stack = forward_sequence(model.layers, np.stack([X, X], axis=1),
                             keep_caches=True)
    with pytest.raises(DataError, match=r"must be 2-D .*\(5, 2, 5\)"):
        sequence_gradients(model.layers, stack, y)
    forward = forward_sequence(model.layers, X, keep_caches=True)
    with pytest.raises(ValueError, match="window must be >= 1, got 0"):
        sequence_gradients(model.layers, forward, y, window=0)


def test_training_steps_are_bit_reproducible():
    def run():
        model = _small_model(width=4, layers=5, seed=11)
        layers = model.layers
        state = adam_init(layers)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 64))
        y = rng.integers(1, 6, size=10)
        for _ in range(5):
            _, grads = gradients(layers, X, y, 0.01)
            layers, state = adam_step(layers, grads, state, lr=0.01)
        return layers

    a, b = run(), run()
    for la, lb in zip(a, b):
        for (_, xa), (_, xb) in zip(la.arrays(), lb.arrays()):
            assert np.array_equal(xa, xb)


def test_two_hundred_adam_steps_reduce_loss():
    # fixed random 100-sample toy: loss after 200 steps is below the start
    model = _small_model(width=6, layers=6, seed=13)
    rng = np.random.default_rng(13)
    X = rng.normal(size=(100, 64))
    y = rng.integers(1, 6, size=100)
    layers = model.layers
    state = adam_init(layers)
    initial = sequence_loss(layers, X, y, 0.001)
    for _ in range(200):
        _, grads = gradients(layers, X, y, 0.001, window=50)
        layers, state = adam_step(layers, grads, state, lr=0.005)
    assert sequence_loss(layers, X, y, 0.001) < initial


def _max_scaled_gap(got, ref):
    return float(np.max(np.abs(got - ref)) / max(1.0, float(np.max(np.abs(ref)))))


def test_fused_gates_match_exp_sigmoid():
    # identity input weights put x straight into every gate block
    width = 50
    x = np.concatenate([
        np.linspace(-800.0, 800.0, 4001),
        np.random.default_rng(3).normal(scale=10.0, size=4000),
        [-1e300, -745.0, -40.0, -37.5, 0.0, 37.5, 40.0, 745.0, 1e300],
    ])
    rows = len(x) // (4 * width) + 1
    A = np.resize(x, rows * 4 * width).reshape(rows, 4 * width)
    layer = LstmParams(W_in=np.eye(4 * width),
                       W_rec=np.zeros((width, 4 * width)),
                       b=np.zeros(4 * width))
    with np.errstate(over="raise", invalid="raise"):
        gates, _, _ = _lstm_layer(A, layer)
    sig = gates[:, : 3 * width]
    assert np.max(np.abs(sig - reference_sigmoid(A[:, : 3 * width]))) <= 2.0**-52
    assert np.all((sig >= 0.0) & (sig <= 1.0))
    assert np.array_equal(gates[:, 3 * width :], np.tanh(A[:, 3 * width :]))


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 8),
    n=st.integers(1, 40),
    window=st.sampled_from([1, 3, 7, None]),
    scale=st.one_of(st.floats(0.05, 2.0), st.floats(2.0, 50.0)),
    seed=st.integers(0, 2**32 - 1),
)
# a dense W gradient 3.2e-12 from the exp-sigmoid reference, 1.1e-15
# from the tanh-sigmoid one
@example(width=7, n=26, window=None, scale=1.8957351194890115, seed=27)
def test_fused_lstm_matches_straight_line_reference(width, n, window, scale, seed):
    # the fused kernel against the four-slice reference, with weights up
    # to scale 50 so that many gates saturate
    rng = np.random.default_rng(seed)
    fan_in = int(rng.integers(1, 6))

    def lstm(fan):
        return LstmParams(
            W_in=rng.normal(scale=scale, size=(fan, 4 * width)),
            W_rec=rng.normal(scale=scale, size=(width, 4 * width)),
            b=rng.normal(scale=scale, size=4 * width),
        )

    layers = [
        DenseParams(W=rng.normal(size=(fan_in, width)), b=rng.normal(size=width)),
        lstm(width),
        lstm(width),
        DenseParams(W=rng.normal(size=(width, 5)), b=rng.normal(size=5)),
    ]
    X = rng.normal(size=(n, fan_in))
    y = rng.integers(1, 6, size=n)
    window = n if window is None else window
    # With the same sigmoid formula the two paths differ only in rounding
    # order. The exp-based sigmoid differs by up to one ulp per gate,
    # which large recurrent weights amplify (to about 1e-8 at scale 50,
    # and past 1e-12 already below scale 2), so that comparison runs on
    # Glorot-sized weights only: scale 1 or less, where 1,500 draws
    # stayed within 2e-15.
    sigmoids = [tanh_sigmoid] + ([reference_sigmoid] if scale <= 1.0 else [])
    with np.errstate(over="raise", invalid="raise"):
        logits, _ = forward_sequence(layers, X)
        _, grads = gradients(layers, X, y, 0.01, window)
        for sigmoid in sigmoids:
            ref_logits, ref_grads = reference_gradients(layers, X, y, 0.01,
                                                        window, sigmoid)
            assert _max_scaled_gap(logits, ref_logits) < 1e-12
            for got, ref in zip(grads, ref_grads):
                for (name, a), (_, r) in zip(got.arrays(), ref.arrays()):
                    assert _max_scaled_gap(a, r) < 1e-12, name


@pytest.mark.parametrize("n, window", [
    (1013, 100),  # many windows and a short last one
    (100, 100),
    (99, 100),    # one window, shorter than the truncation
    (250, 7),
    (7, 1),
])
def test_window_major_backward_matches_step_major_reference(n, window):
    # the same forward values through both backward walks. The window-major
    # loop computes in the cache's gates and cells, so the reference takes
    # copies of them. It writes through strided views, so the input, the
    # outputs and d_out must come back intact
    rng = np.random.default_rng(n + window)
    fan_in, width = 5, 6
    layer = LstmParams(
        W_in=rng.normal(scale=0.5, size=(fan_in, 4 * width)),
        W_rec=rng.normal(scale=0.5, size=(width, 4 * width)),
        b=rng.normal(scale=0.5, size=4 * width),
    )
    A = rng.normal(size=(n, fan_in))
    gates, cells, out = _lstm_layer(A, layer)
    cache = {"input": A, "gates": gates, "c": cells, "h": out}
    d_out = rng.normal(size=(n, width)) / n
    kept = {name: cache[name].copy() for name in ("input", "h")}
    kept_d_out = d_out.copy()
    gi, gf, go, gm = np.split(gates.copy(), 4, axis=1)
    ref_cache = {"input": A, "i": gi, "f": gf, "o": go, "m": gm,
                 "c": cells.copy(), "h": out}

    grad, d_in = _lstm_backward(layer, cache, d_out, window)
    ref_grad, ref_d_in = _reference_lstm_backward(layer, ref_cache, d_out, window)
    for (name, a), (_, r) in zip(grad.arrays(), ref_grad.arrays()):
        assert _max_scaled_gap(a, r) < 1e-12, name
    assert _max_scaled_gap(d_in, ref_d_in) < 1e-12
    assert np.array_equal(d_out, kept_d_out)
    for name, a in kept.items():
        assert np.array_equal(cache[name], a), name


# ---------------------------------------------------------------------------
# lockstep stacks and carried state

def _random_stack(rng, fan_in=3, width=4):
    def lstm(fan):
        return LstmParams(
            W_in=rng.normal(scale=0.5, size=(fan, 4 * width)),
            W_rec=rng.normal(scale=0.5, size=(width, 4 * width)),
            b=rng.normal(scale=0.5, size=4 * width),
        )

    return [
        DenseParams(W=rng.normal(size=(fan_in, width)), b=rng.normal(size=width)),
        lstm(width),
        lstm(width),
        DenseParams(W=rng.normal(size=(width, 5)), b=rng.normal(size=5)),
    ]


@pytest.mark.parametrize("n, k, view", [
    pytest.param(n, k, view, id=f"{n}-{k}" + ("-view" if view else ""))
    for view in (False, True) for n in (2, 7, 12, 70, 300) for k in (1, 2, 3, 5)
])
def test_lockstep_stack_in_chunks_matches_separate_sequences(n, k, view):
    # forward_sequence walks the stack in blocks of _lag(n, k) rows: 2
    # rows here but for (7, k) in blocks of 4 and 3 (a lag of 2 or 3
    # would leave a 1-row last block), (70, 1) of 4, the last one 2,
    # (300, 1) of 18, the last one 12, and (300, 2) of 4. (2, 3) and
    # (2, 5) have fewer rows than k. ``view`` passes the sequences as a
    # transposed (strided) view, as model.train does; its outputs and
    # caches are bit-identical to a contiguous stack's.
    rng = np.random.default_rng(10 * k + n)
    layers = _random_stack(rng)
    seqs = rng.normal(size=(k, n, 3))
    stack = np.stack(seqs, axis=1)
    given = seqs.transpose(1, 0, 2) if view else stack
    stacked, caches = forward_sequence(layers, given, keep_caches=True)
    assert stacked.shape == (n, k, 5)
    for j, X in enumerate(seqs):
        logits, _ = forward_sequence(layers, X)
        assert np.max(np.abs(stacked[:, j] - logits)) < 1e-12
    ref, ref_caches = forward_sequence(layers, stack, keep_caches=True)
    assert np.array_equal(stacked, ref)
    for cache, own in zip(caches, ref_caches):
        assert list(cache) == list(own)
        for name, arr in cache.items():
            assert np.array_equal(arr, own[name]), name


# n = 1 is shorter than its lag of 2; 2 and 48 are multiples of theirs
# (2 and 3); 3, 33, 49, 65 and 97 are one more than a multiple of n // 16
# or 2, which would leave a 1-row last block, so their lag moves up
_RUN_LENGTHS = [1, 2, 3, 5, 31, 32, 33, 47, 48, 49, 64, 65, 97, 161]


def _no_one_row_block(lag, n):
    """``lag`` moved up, as ``_lag`` moves its own, until n rows leave no
    last block of one row (unless n is 1)."""
    while n > 1 and n % lag == 1:
        lag += 1
    return lag


@settings(max_examples=30, deadline=None)
@given(
    n=st.one_of(st.sampled_from(_RUN_LENGTHS), st.integers(1, 400)),
    k=st.sampled_from([1, 2, 4, 14]),
    width=st.sampled_from([8, 16, 24, 32]),
    layers=st.integers(4, 7),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=33, k=1, width=8, layers=5, seed=0)  # the rule moves lag 2 to 3
@example(n=700, k=4, width=16, layers=7, seed=1)  # the memory tests' stack
def test_stack_outputs_and_caches_do_not_depend_on_the_lag(n, k, width,
                                                           layers, seed):
    # A model-shaped stack walked in blocks of 2 rows (moved up as _lag
    # moves its own), of _lag's rows or in one block of n gives the same
    # outputs and caches, bit for bit, at widths that are multiples of 8
    # (tune's 16 to 64 among them): there every product row rounds as it
    # would in a product of any other row count of 2 or more, so no
    # choice of lag changes a byte. At width 4, n 280 and k 14 the
    # first affine layer's (3920, 64) @ (64, 4) product takes another
    # kernel than its blocks' and rounds differently.
    hp = HyperParams(l2=0.0, lr=0.01, width=width, layers=layers, batches=3)
    model_layers = build(hp, seed=seed).layers
    stack = np.random.default_rng(seed).normal(size=(n, k, 64))
    walks = []
    for lag in (_no_one_row_block(2, n), _lag(n, k), n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("mindctl.nn._lag", lambda n, k, lag=lag: lag)
            walks.append(forward_sequence(model_layers, stack, keep_caches=True))
    out, caches = walks[-1]
    for other, other_caches in walks[:-1]:
        assert np.array_equal(out, other)
        for cache, own in zip(caches, other_caches):
            for name, arr in cache.items():
                assert np.array_equal(arr, own[name]), name


@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (0, 2, 3), (1, 2, 3),
                                   (4, 0, 3)], ids=str)
def test_empty_and_one_row_forwards_keep_their_shapes(shape):
    # n = 0 and n = 1 rows, and a stack of k = 0 sequences, which has no
    # first sequence to cache
    layers = _random_stack(np.random.default_rng(len(shape)))
    X = np.random.default_rng(0).normal(size=shape)
    n, keep = shape[0], shape[1:-1] != (0,)
    out, caches = forward_sequence(layers, X, keep_caches=keep)
    assert out.shape == shape[:-1] + (5,)
    if keep:
        assert [{name: arr.shape for name, arr in cache.items()}
                for cache in caches] == [
            {"input": (n, 3)},
            {"input": (n, 4), "gates": (n, 16), "c": (n, 4), "h": (n, 4)},
            {"input": (n, 4), "gates": (n, 16), "c": (n, 4), "h": (n, 4)},
            {"input": (n, 4)},
        ]


def test_caches_of_a_stack_of_no_sequences_are_a_data_error(monkeypatch):
    # a (4, 0, 3) stack has no first sequence to cache: the call fails
    # naming the shape before any array is made, while the same call
    # without caches keeps its (4, 0, 5) output (the test above)
    layers = _random_stack(np.random.default_rng(5))

    def no_arrays(*args):
        raise AssertionError("caches laid out for a stack of no sequences")

    monkeypatch.setattr("mindctl.nn._caches", no_arrays)
    with pytest.raises(DataError, match=r"no sequences, \(4, 0, 3\)"):
        forward_sequence(layers, np.zeros((4, 0, 3)), keep_caches=True)


def test_stack_outside_the_family_is_a_data_error(monkeypatch):
    # one run of equal-width LSTM layers between affine chains: an affine
    # layer between LSTM layers, or LSTM layers of unequal width, fails
    # naming the layer before any array is made
    rng = np.random.default_rng(3)
    dense, lstm1, lstm2, output = _random_stack(rng)
    between = DenseParams(W=rng.normal(size=(4, 4)), b=rng.normal(size=4))
    wider = LstmParams(W_in=rng.normal(size=(4, 20)),
                       W_rec=rng.normal(size=(5, 20)), b=rng.normal(size=20))

    def no_arrays(*args):
        raise AssertionError("caches laid out before the stack was checked")

    monkeypatch.setattr("mindctl.nn._caches", no_arrays)
    for layers, message in [
        ([dense, lstm1, between, lstm2, output], "layer 3: a stack's LSTM"),
        ([dense, lstm1, wider], "layer 2: a stack's LSTM"),
    ]:
        for X in (np.zeros((6, 3)), np.zeros((6, 2, 3))):
            with pytest.raises(DataError, match=message):
                forward_sequence(layers, X, keep_caches=True)


@pytest.mark.parametrize("k", [1, 3])
def test_stack_caches_are_its_first_sequence(k):
    # contiguous 2-D copies of column 0, equal to that sequence's own
    # caches, with each LSTM output shared as the next layer's input
    rng = np.random.default_rng(k)
    layers = _random_stack(rng)
    stack = rng.normal(size=(9, k, 3))
    _, caches = forward_sequence(layers, stack, keep_caches=True)
    _, own = forward_sequence(layers, stack[:, 0].copy(), keep_caches=True)
    for index, (cache, ref) in enumerate(zip(caches, own)):
        assert list(cache) == list(ref)
        for name, arr in cache.items():
            assert arr.shape == ref[name].shape and arr.flags.c_contiguous
            assert _max_scaled_gap(arr, ref[name]) < 1e-12, (index, name)
    assert caches[2]["input"] is caches[1]["h"]
    assert caches[3]["input"] is caches[2]["h"]


def test_lstm_layer_keeps_two_dimensional_shapes():
    layer = _random_stack(np.random.default_rng(4))[1]
    gates, cells, out = _lstm_layer(np.ones((6, 4)), layer)
    assert (gates.shape, cells.shape, out.shape) == ((6, 16), (6, 4), (6, 4))


# ---------------------------------------------------------------------------
# runs: consecutive LSTM layers stepped in one loop

def _layer_at_a_time(A, layer):
    """``(gates, c, h)`` of one LSTM layer over the rows of ``A``, walked
    as a straight loop with the input product over the whole sequence:
    the per-layer walk whose outputs a run reproduces bit for bit."""
    n, width = A.shape[0], layer.width
    sig = slice(0, 3 * width)
    gates = (A.reshape(-1, A.shape[-1]) @ layer.W_in).reshape(
        A.shape[:-1] + (4 * width,))
    gates += layer.b
    gates[..., sig] *= 0.5
    W_rec = layer.W_rec.copy()
    W_rec[:, sig] *= 0.5
    shape = A.shape[1:-1] + (width,)
    c, h = np.zeros(shape), np.zeros(shape)
    cells, out = np.empty((n,) + shape), np.empty((n,) + shape)
    for t, g in enumerate(gates):
        g += np.dot(h, W_rec)
        np.tanh(g, out=g)
        g[..., sig] *= 0.5
        g[..., sig] += 0.5
        gi, gf, go, gm = np.split(g, 4, axis=-1)
        c = gf * c + gi * gm
        h = np.tanh(c) * go
        cells[t], out[t] = c, h
    return gates, cells, out


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(st.sampled_from(_RUN_LENGTHS), st.integers(1, 300)),
    k=st.sampled_from([None, 1, 2, 4]),
    width=st.integers(1, 6),
    second=st.one_of(st.none(), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_run_of_two_layers_matches_two_runs_of_one(n, k, width, second, seed):
    # Two LSTM layers of one width step as one run, layer 2 a lag behind.
    # Run alone, layer 2 on layer 1's output, each gives the same gates,
    # cells and outputs bit for bit, and so does the straight per-layer
    # walk. ``second`` may give layer 2 another width: no stack.
    rng = np.random.default_rng(seed)
    fan_in, widths = int(rng.integers(1, 6)), (width, second or width)

    def lstm(fan, w):
        return LstmParams(W_in=rng.normal(size=(fan, 4 * w)),
                          W_rec=rng.normal(size=(w, 4 * w)),
                          b=rng.normal(size=4 * w))

    layers = [lstm(fan_in, widths[0]), lstm(widths[0], widths[1])]
    lead = () if k is None else (k,)
    X = rng.normal(size=(n,) + lead + (fan_in,))
    if widths[1] != width:
        with pytest.raises(DataError, match="layer 1: a stack's LSTM layers"):
            forward_sequence(layers, X)
        return

    out, caches = forward_sequence(layers, X, keep_caches=True)
    assert caches[1]["input"] is caches[0]["h"]
    A = X
    for index, (layer, cache) in enumerate(zip(layers, caches)):
        alone, (own,) = forward_sequence([layer], A, keep_caches=True)
        gates, cells, outs = _layer_at_a_time(A, layer)
        for name, whole in (("gates", gates), ("c", cells), ("h", outs)):
            assert np.array_equal(cache[name], own[name]), (index, name)
            column = whole if k is None else whole[:, 0]
            assert np.array_equal(cache[name], column), (index, name)
        assert np.array_equal(alone, outs)
        A = alone
    assert np.array_equal(out, A)
    # no input product but a 1-row sequence's own has one row
    lag = _lag(n, k or 1)
    assert n == 1 or n % lag != 1
