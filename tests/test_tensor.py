import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duetdiff.nn import Conv2dLayer, LayerNormAffine, Linear
from duetdiff.rng import Rng
from duetdiff.tensor import (
    GradTape,
    NonFiniteError,
    ShapeError,
    TapeError,
    Tensor,
    add,
    attention,
    concat,
    conv2d,
    conv2d_nhwc,
    layer_norm,
    linear,
    matmul,
    mul,
    norm_silu_conv2d,
    reshape,
    scale,
    silu,
    silu_mlp,
    softmax,
    sub,
    tmean,
    transpose,
    tsum,
    upsample2x,
)
from duetdiff.tensor import _col_sum, _row_max, _row_sum, _row_windows, _softmax_rows

from fdcheck import max_rel_err, numeric_grad


def _rand(rng, shape):
    return rng.gaussian(shape, dtype=np.float64)


# ---------------------------------------------------------------------------
# forward semantics


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(matmul(a, eye).data, a.data)


def test_matmul_column_pick():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[5.0], [7.0]])
    assert np.array_equal(matmul(a, b).data, [[5.0], [7.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_softmax_uniform():
    out = softmax(Tensor(np.zeros(4)))
    assert np.allclose(out.data, 0.25)


@pytest.mark.parametrize("shape", [(5,), (4, 3), (2, 4, 3)], ids=["1-d", "2-d", "3-d"])
def test_softmax_over_the_trailing_axis_matches_numpy(shape):
    x = _rand(Rng(40), shape)
    out = softmax(Tensor(x)).data
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert out.shape == shape
    assert np.allclose(out, e / e.sum(axis=-1, keepdims=True), rtol=1e-14, atol=0.0)


_REDUCED_LENGTHS = [1, 3, 16, 24, 33, 64, 65]
_SUM_RTOL = {np.float32: 1e-6, np.float64: 1e-14}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("length", _REDUCED_LENGTHS)
def test_row_and_column_sums_match_numpy(dtype, length):
    # the error is relative to the sum of magnitudes, so cancellation in a
    # row does not make an exact-enough sum look wrong
    x = _rand(Rng(41 + length), (3, 5, length)).astype(dtype)
    rows = _row_sum(x)
    assert rows.shape == (3, 5, 1) and rows.dtype == dtype
    scale = np.abs(x).sum(axis=-1, keepdims=True)
    assert np.all(np.abs(rows - x.sum(axis=-1, keepdims=True)) <= _SUM_RTOL[dtype] * scale)
    cols_in = x.reshape(-1, length).T.copy()  # ``length`` rows of 15 columns
    cols = _col_sum(cols_in)
    assert cols.shape == (15,) and cols.dtype == dtype
    scale = np.abs(cols_in).sum(axis=0)
    assert np.all(np.abs(cols - cols_in.sum(axis=0)) <= _SUM_RTOL[dtype] * scale)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("length", _REDUCED_LENGTHS)
def test_row_max_is_bitwise_numpy_max(dtype, length):
    x = _rand(Rng(42 + length), (3, 5, length)).astype(dtype)
    got = _row_max(x)
    assert got.dtype == dtype and np.array_equal(got, x.max(axis=-1, keepdims=True))
    assert np.array_equal(_row_max(x[0, 0]), x[0, 0].max(keepdims=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("length", _REDUCED_LENGTHS)
def test_softmax_rows_given_its_stats_rebuilds_its_weights_bit_for_bit(dtype, length):
    # how the attention backward rebuilds its weights. The rows are shifted
    # off 0, so the saved max does work, and rows longer than 32 take the
    # halving path of _row_max
    x = (_rand(Rng(43 + length), (3, 5, length)) + 5.0).astype(dtype)
    first, stats = _softmax_rows(x, None, None)
    assert first.dtype == dtype and np.all(stats[0] != 0)
    again, same = _softmax_rows(x, None, stats)
    assert np.array_equal(again, first) and same[0] is stats[0] and same[1] is stats[1]
    in_place = x.copy()
    _softmax_rows(in_place, in_place, stats)
    assert np.array_equal(in_place, first)


def test_silu_zero():
    assert silu(Tensor([0.0])).data[0] == 0.0


def _silu_expression(x, g):
    """silu's output and vjp as whole-array expressions."""
    sig = 0.5 * np.tanh(0.5 * x) + 0.5
    return x * sig, g * (sig * (1.0 + x * (1.0 - sig)))


def _layer_norm_expression(x, g, gain=None, bias=None):
    """layer_norm's output and gradients as whole-array expressions."""
    c = x.shape[-1]
    centered = x - _row_sum(x) / c
    inv = 1.0 / np.sqrt(_row_sum(centered * centered) / c + np.asarray(1e-5, dtype=x.dtype))
    xhat = centered * inv
    if gain is None:
        return xhat, inv * (g - _row_sum(g) / c - xhat * (_row_sum(g * xhat) / c))
    ones = np.ones(g.size // c, dtype=g.dtype)
    _, gx = _layer_norm_expression(x, g * gain)
    return xhat * gain + bias, gx, ones @ (g * xhat).reshape(-1, c), ones @ g.reshape(-1, c)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(2, 4, 4, 32), (3, 24)], ids=["nhwc", "rows"])
def test_silu_and_layer_norm_are_bitwise_their_whole_array_expressions(dtype, shape):
    # the vjps work in place in the same operand order. The four outputs feed
    # adds, whose vjps hand every operand the same gradient array, so a vjp
    # that wrote into its incoming gradient would change the others' results.
    # The plain layer_norm equals the one given ones and zeros, bit for bit
    rng = Rng(38)
    x, x2, x3, g = (_rand(rng, shape).astype(dtype) for _ in range(4))
    gain, bias = (_rand(rng, shape[-1:]).astype(dtype) for _ in range(2))
    ones, zeros = (Tensor(np.full(shape[-1:], v, dtype=dtype)) for v in (1, 0))
    leaves = [Tensor(a, requires_grad=True) for a in (x, gain, bias, x2, x3, x3)]
    with GradTape() as tape:
        outs = (layer_norm(*leaves[:3]), silu(leaves[3]), layer_norm(leaves[4]),
                layer_norm(leaves[5], ones, zeros))
        loss = tsum(mul(add(add(add(outs[0], outs[1]), outs[2]), outs[3]), Tensor(g)))
    grads = tape.backward(loss)
    ln_out, *ln_grads = _layer_norm_expression(x, g, gain, bias)
    silu_out, silu_gx = _silu_expression(x2, g)
    plain_out, plain_gx = _layer_norm_expression(x3, g)
    for got, want in zip(outs, (ln_out, silu_out, plain_out, plain_out)):
        assert np.array_equal(got.data, want)
    for leaf, want in zip(leaves, (*ln_grads, silu_gx, plain_gx, plain_gx)):
        assert grads[leaf].dtype == dtype and np.array_equal(grads[leaf], want)


def test_layer_norm_constant_vector_is_zero():
    out = layer_norm(Tensor(np.full(6, 3.7)))
    assert np.allclose(out.data, 0.0)


def test_add_trailing_broadcast():
    x = Tensor(np.ones((2, 3, 4)))
    b = Tensor(np.arange(4, dtype=np.float64))
    out = add(x, b)
    assert out.shape == (2, 3, 4)
    assert np.allclose(out.data[0, 0], 1.0 + np.arange(4))


def test_add_incompatible_shapes():
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))


@pytest.mark.parametrize("op", [add, sub, mul], ids=["add", "sub", "mul"])
def test_mixed_dtypes_rejected(op):
    with pytest.raises(TypeError, match="mixed dtypes"):
        op(Tensor(np.ones(3, np.float32)), Tensor(np.ones(3, np.float64)))


@pytest.mark.parametrize("op", [add, sub, mul], ids=["add", "sub", "mul"])
def test_a_non_tensor_operand_is_rejected_by_name(op):
    t32 = Tensor(np.array([1.0, 2.0], np.float32))
    for a, b in ((2.0, t32), (t32, 2.0), (t32, np.ones(2, np.float32))):
        with pytest.raises(TypeError, match=rf"^{op.__name__}: operands must be Tensors"):
            op(a, b)


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_output_raises():
    big = Tensor(np.full(4, 1e308))
    with pytest.raises(NonFiniteError):
        mul(big, big)


# the screen's sum of squares is NaN for a NaN and +Inf for an Inf of either
# sign; 1e20 squared overflows float32 but is finite, so it must not raise
@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("op, x, name", [
    (lambda t: matmul(t, Tensor([[1e308], [-1e308]])), [[1e308, 1e308]], "matmul"),
    (lambda t: scale(t, 10.0), [1.0, 1e308], "scale"),
    (lambda t: scale(t, -10.0), [1.0, 1e308], "scale"),
], ids=["nan", "+inf", "-inf"])
def test_a_nan_or_inf_op_output_raises_naming_the_op(op, x, name):
    with pytest.raises(NonFiniteError, match=rf"^{name} produced non-finite values$"):
        op(Tensor(x))


# the screen runs under pytest's filterwarnings = error, so a numpy whose
# vdot warned on overflow would fail here
def test_a_finite_output_whose_squares_overflow_does_not_raise():
    for values in ([1e20, -1.0], [3.0e38, -3.0e38, 1.0]):
        x = np.array(values, dtype=np.float32)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.dot(x, x))
        assert np.array_equal(scale(Tensor(x), 1.0).data, x)


def test_conv2d_identity_kernel():
    x = Tensor(np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3))
    w = Tensor(np.ones((1, 1, 1, 1)))
    assert np.array_equal(conv2d(x, w, stride=1, padding=0).data, x.data)


def test_conv2d_zero_kernel():
    x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 5, 5)))
    w = Tensor(np.zeros((3, 2, 3, 3)))
    assert np.all(conv2d(x, w, stride=1, padding=1).data == 0.0)


def test_conv2d_output_extent():
    x = Tensor(np.ones((1, 1, 16, 16)))
    w = Tensor(np.ones((4, 1, 4, 4)))
    out = conv2d(x, w, stride=2, padding=1)
    assert out.shape == (1, 4, 8, 8)


def test_conv2d_adapter_equals_nhwc_kernel_on_transposed_operands():
    rng = Rng(5)
    x = _rand(rng, (2, 3, 8, 8))
    w = _rand(rng, (4, 3, 4, 4))
    ref = conv2d(Tensor(x), Tensor(w), stride=2, padding=1).data
    out = conv2d_nhwc(Tensor(x.transpose(0, 2, 3, 1)), Tensor(w.transpose(2, 3, 1, 0)),
                      Tensor(np.zeros(4)), stride=2, padding=1).data
    assert np.array_equal(out.transpose(0, 3, 1, 2), ref)


def test_conv2d_rejects_unbatched_input():
    with pytest.raises(ShapeError, match=r"\(N, C, H, W\)"):
        conv2d(Tensor(np.ones((1, 5, 5))), Tensor(np.ones((1, 1, 3, 3))), stride=1, padding=0)


def test_conv2d_non_integral_extent_rejected():
    x = Tensor(np.ones((1, 1, 16, 16)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    with pytest.raises(ShapeError):
        conv2d(x, w, stride=2, padding=1)


@pytest.mark.parametrize("kwargs, message", [
    ({"padding": -1}, "padding must be >= 0, got -1"),
    ({"stride": 0}, "stride must be >= 1, got 0"),
    ({"stride": 1.5}, "stride must be an integer, got 1.5"),
    ({"padding": 1.0}, "padding must be an integer, got 1.0"),
], ids=["negative-padding", "zero-stride", "float-stride", "float-padding"])
def test_conv2d_rejects_bad_stride_and_padding(kwargs, message):
    x = Tensor(np.ones((1, 6, 6, 2)))
    w, b = Tensor(np.ones((3, 3, 2, 2))), Tensor(np.zeros(2))
    with pytest.raises(ShapeError, match=message):
        conv2d_nhwc(x, w, b, **{"stride": 1, "padding": 1, **kwargs})


@pytest.mark.parametrize("w_shape", [(0, 3, 2, 2), (3, 0, 2, 2), (3, 3, 2, 0)],
                         ids=["no-rows", "no-columns", "no-outputs"])
def test_conv2d_rejects_a_kernel_with_an_extent_of_0(w_shape):
    x, w, b = Tensor(np.ones((1, 4, 4, 2))), Tensor(np.ones(w_shape)), Tensor(np.zeros(w_shape[-1]))
    with pytest.raises(ShapeError, match=re.escape(f"conv2d: kernel {w_shape} has an extent of 0")):
        conv2d_nhwc(x, w, b, stride=1, padding=1)


def test_attention_singleton_key_returns_value():
    rng = Rng(3)
    q = Tensor(_rand(rng, (1, 5, 8)))
    k = Tensor(_rand(rng, (1, 1, 8)))
    v = Tensor(_rand(rng, (1, 1, 8)))
    out = attention(q, k, v, n_heads=2)
    assert np.allclose(out.data, np.broadcast_to(v.data, (1, 5, 8)), atol=1e-12)


def test_attention_weights_normalized():
    # rows of softmaxed scores must sum to 1; probe via constant values
    rng = Rng(4)
    q = Tensor(_rand(rng, (1, 4, 8)))
    k = Tensor(_rand(rng, (1, 6, 8)))
    v = Tensor(np.ones((1, 6, 8)))
    out = attention(q, k, v, n_heads=2)
    assert np.allclose(out.data, 1.0, atol=1e-6)


def test_attention_rejects_unbatched_input():
    t = Tensor(np.ones((2, 8)))
    with pytest.raises(ShapeError, match=r"\(B, L, d\)"):
        attention(t, t, t, n_heads=2)


def test_attention_head_divisibility():
    t = Tensor(np.ones((1, 2, 6)))
    with pytest.raises(ShapeError, match="not divisible"):
        attention(t, t, t, n_heads=4)


@pytest.mark.parametrize("n_heads", [0, -4])
def test_attention_rejects_non_positive_heads(n_heads):
    t = Tensor(np.ones((1, 4, 8)))
    with pytest.raises(ShapeError, match=f"n_heads must be an integer >= 1, got {n_heads}"):
        attention(t, t, t, n_heads=n_heads)


def test_attention_rejects_batch_mismatch():
    q = Tensor(np.ones((2, 4, 8)))
    kv = Tensor(np.ones((1, 4, 8)))
    with pytest.raises(ShapeError, match=r"batch sizes differ: \(2, 4, 8\), \(1, 4, 8\), \(1, 4, 8\)"):
        attention(q, kv, kv, n_heads=2)


@pytest.mark.filterwarnings("ignore:overflow")
def test_attention_names_itself_when_scores_overflow():
    # one score overflows to -inf; the softmax would silently give that key
    # weight 0, so only the check on the scores catches it
    q = Tensor(np.array([[[1e200, 0.0]]]))
    k = Tensor(np.array([[[-1e200, 0.0], [0.0, 1.0]]]))
    with pytest.raises(NonFiniteError, match="attention"):
        attention(q, k, k, n_heads=1)


def test_upsample2x_values():
    x = Tensor(np.array([[[1.0, 10.0], [2.0, 20.0]], [[3.0, 30.0], [4.0, 40.0]]]))
    out = upsample2x(x)
    assert out.shape == (4, 4, 2)
    assert np.array_equal(out.data[:2, :2, 0], [[1.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(out.data[2:, 2:, 1], [[40.0, 40.0], [40.0, 40.0]])


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), requires_grad=True)
    with GradTape() as tape:
        loss = tsum(x)
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], np.ones((3, 4)))


def test_backward_half_square_gives_x():
    x = Tensor(np.linspace(-2, 2, 10), requires_grad=True)
    with GradTape() as tape:
        loss = scale(tsum(mul(x, x)), 0.5)
    grads = tape.backward(loss)
    assert np.allclose(grads[x], x.data)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with GradTape() as tape:
        y = mul(x, x)
    with pytest.raises(TapeError):
        tape.backward(y)


def test_tape_single_use():
    x = Tensor(np.ones(3), requires_grad=True)
    with GradTape() as tape:
        loss = tsum(x)
    tape.backward(loss)
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_untracked_loss_rejected():
    x = Tensor(np.ones(3))
    with GradTape() as tape:
        loss = tsum(x)
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_a_second_tape_cannot_start_while_one_records():
    x = Tensor(np.ones(3), requires_grad=True)
    with GradTape() as outer:
        y = mul(x, x)
        with pytest.raises(TapeError, match="do not nest"):
            with GradTape():
                pass
        loss = tsum(y)  # the first tape keeps recording
    assert len(outer._records) == 2 and loss._tape is outer
    assert np.array_equal(outer.backward(loss)[x], np.full(3, 2.0))


def test_exiting_a_tape_that_is_not_recording_raises():
    tape = GradTape()
    with pytest.raises(TapeError, match="not recording"):
        tape.__exit__(None, None, None)
    with tape:
        pass
    with pytest.raises(TapeError, match="not recording"):
        tape.__exit__(None, None, None)


def test_an_exception_inside_a_tape_leaves_no_tape_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        with GradTape():
            reshape(mul(x, x), (2, 2))
    assert mul(x, x)._tape is None
    with GradTape() as tape:
        loss = tsum(mul(x, x))
    assert np.array_equal(tape.backward(loss)[x], np.full(3, 2.0))


def test_an_output_of_an_earlier_tape_is_not_live_on_a_new_one():
    x = Tensor(np.ones(3), requires_grad=True)
    with GradTape() as first:
        y = mul(x, x)
        first_loss = tsum(y)
    first.backward(first_loss)
    with GradTape() as second:
        z = tsum(y)
    assert z._tape is None and not second._records
    with pytest.raises(TapeError, match="not tracked"):
        second.backward(z)


def test_backward_returns_exactly_the_leaves_that_received_a_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    w = Tensor(np.full(3, 2.0), requires_grad=True)
    before = Tensor(np.ones(3), requires_grad=True)
    untracked = mul(before, before)  # made before the tape: not live on it
    unused = Tensor(np.ones(3), requires_grad=True)
    with GradTape() as tape:
        dead = mul(unused, unused)  # recorded, but the loss does not read it
        loss = tsum(mul(x, add(w, untracked)))
    assert dead._tape is tape
    grads = tape.backward(loss)
    assert set(grads) == {x, w}  # no other leaf, and no record index, is left
    assert np.array_equal(grads[x], w.data + 1.0) and np.array_equal(grads[w], x.data)


def test_a_loss_that_is_itself_a_leaf_has_gradient_one():
    loss = Tensor(np.asarray(3.0), requires_grad=True)
    with GradTape() as tape:
        pass
    grads = tape.backward(loss)
    assert list(grads) == [loss] and np.array_equal(grads[loss], np.ones(()))


def test_ops_outside_tape_record_nothing():
    x = Tensor(np.ones(3), requires_grad=True)
    y = mul(x, x)
    assert y._tape is None


def test_the_tape_frees_an_output_that_no_vjp_reads():
    x = Tensor(np.ones(3), requires_grad=True)
    with GradTape() as tape:
        h = add(x, x)
        out = add(h, x)
        alive = weakref.ref(h.data)
        del h
        assert alive() is None
        loss = tsum(out)
    assert np.array_equal(tape.backward(loss)[x], np.full(3, 3.0))


def test_a_long_chain_of_dropped_temporaries_matches_finite_differences():
    # every step makes and drops a requires-grad leaf and four op outputs;
    # the tape must keep each dropped leaf's gradient apart and x's exact
    steps = 200
    rng = Rng(39)
    x0 = _rand(rng, (3,))
    coefs = _rand(rng, (steps, 3))

    def build(x):
        y = x
        for c in coefs:
            y = add(y, scale(mul(Tensor(c, requires_grad=True), silu(y)), 0.01))
        return tsum(y)

    x = Tensor(x0, requires_grad=True)
    with GradTape() as tape:
        loss = build(x)
    grads = tape.backward(loss)
    assert len(grads) == 1 + steps
    numeric = numeric_grad(lambda: build(Tensor(x0)).item(), [x0])
    assert max_rel_err([grads[x]], numeric) < 1e-7


# ---------------------------------------------------------------------------
# finite-difference gradient checks (>= 20 random shapes per primitive)


def _grad_check(build, arrays, rel_tol, h=1e-5):
    """build(tensors) -> scalar Tensor; arrays are float64 leaves."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with GradTape() as tape:
        loss = build(leaves)
    grads = tape.backward(loss)
    analytic = [grads.get(leaf, np.zeros_like(a)) for leaf, a in zip(leaves, arrays)]

    def f():
        return build([Tensor(a) for a in arrays]).item()

    numeric = numeric_grad(f, arrays, h=h)
    return max_rel_err(analytic, numeric)


def _weighted(rng, t):
    # fixed random weighting makes the scalar loss sensitive everywhere
    w = Tensor(rng.gaussian(t.shape, dtype=np.float64))
    return tsum(mul(t, w))


@pytest.mark.parametrize("case", range(20))
def test_grad_matmul(case):
    rng = Rng(100 + case)
    m, k, n = [int(x) + 1 for x in rng.integers(3, 4)]
    a, b = _rand(rng, (m, k)), _rand(rng, (k, n))
    err = _grad_check(lambda ts: _weighted(rng.split("w"), matmul(ts[0], ts[1])), [a, b], 1e-5)
    assert err <= 1e-5


def test_grad_matmul_spec_case():
    rng = Rng(1)
    a, b = _rand(rng, (3, 4)), _rand(rng, (4, 2))
    err = _grad_check(lambda ts: _weighted(rng.split("w"), matmul(ts[0], ts[1])), [a, b], 1e-6)
    assert err <= 1e-6


@pytest.mark.parametrize("case", range(20))
def test_grad_matmul_batched(case):
    rng = Rng(200 + case)
    b, m, k, n = 2, *(int(x) + 1 for x in rng.integers(3, 3))
    a = _rand(rng, (b, m, k))
    w = _rand(rng, (k, n))
    err = _grad_check(lambda ts: _weighted(rng.split("w"), matmul(ts[0], ts[1])), [a, w], 1e-5)
    assert err <= 1e-5


@pytest.mark.parametrize("case", range(20))
def test_grad_elementwise(case):
    rng = Rng(300 + case)
    shape = tuple(int(x) + 1 for x in rng.integers(2, 4))
    a, b = _rand(rng, shape), _rand(rng, shape)

    def build(ts):
        return _weighted(rng.split("w"), silu(add(mul(ts[0], ts[1]), ts[1])))

    assert _grad_check(build, [a, b], 1e-5) <= 1e-5


@pytest.mark.parametrize("case", range(20))
def test_grad_broadcast_add(case):
    rng = Rng(400 + case)
    rows, cols = int(rng.integers(1, 5)[0]) + 2, int(rng.integers(1, 5)[0]) + 2
    a = _rand(rng, (rows, cols))
    bias = _rand(rng, (cols,))
    err = _grad_check(lambda ts: _weighted(rng.split("w"), add(ts[0], ts[1])), [a, bias], 1e-5)
    assert err <= 1e-5


@pytest.mark.parametrize("case", range(30))
def test_grad_layer_norm(case):
    # cases 20 on pass a gain and a bias
    rng = Rng(500 + case)
    shape = (int(rng.integers(1, 4)[0]) + 1, int(rng.integers(1, 6)[0]) + 2)
    arrays = [_rand(rng, shape)]
    if case >= 20:
        arrays += [_rand(rng, shape[-1:]), _rand(rng, shape[-1:])]
    err = _grad_check(lambda ts: _weighted(rng.split("w"), layer_norm(*ts)), arrays, 1e-5)
    assert err <= 1e-5


@pytest.mark.parametrize("case", range(20))
def test_grad_softmax(case):
    rng = Rng(600 + case)
    shape = (int(rng.integers(1, 4)[0]) + 1, int(rng.integers(1, 6)[0]) + 2)
    a = _rand(rng, shape)
    err = _grad_check(lambda ts: _weighted(rng.split("w"), softmax(ts[0])), [a], 1e-5)
    assert err <= 1e-5


# (kh, kw, stride, padding) of every conv the network runs, plus two
# non-square kernels at stride 1: one pads H and W differently, the other
# crops H where the stride-1 input gradient pads by kh - 1 - padding < 0
_NETWORK_CONVS = [(1, 1, 1, 0), (2, 2, 2, 0), (4, 4, 2, 1), (3, 3, 1, 1), (3, 3, 1, 2),
                  (2, 3, 1, 1), (2, 3, 1, 2)]


def _conv2d_nhwc_zero_bias(x, w, *, stride, padding):
    return conv2d_nhwc(x, w, Tensor(np.zeros(w.shape[-1])), stride=stride, padding=padding)


@pytest.mark.parametrize("case", range(28 + 2 * len(_NETWORK_CONVS)))
def test_grad_conv2d(case):
    # cases 0-19: the NCHW adapter; 20-27: the channels-last kernel with a
    # constant zero bias, with stride 2 in every other case; 28 on: the
    # channels-last kernel at each shape of _NETWORK_CONVS, on an input with
    # H != W, first with a constant zero bias and then with a tracked one
    rng = Rng(700 + case)
    arrays = []
    if case < 20:
        stride = 1 + int(rng.integers(1, 2)[0])
        pad = int(rng.integers(1, 2)[0])
        x = _rand(rng, (1, 2, 8, 8))
        kh = 3 if (8 + 2 * pad - 3) % stride == 0 else 2
        w = _rand(rng, (3, 2, kh, kh))
        op = conv2d
    elif case < 28:
        stride, pad = 1 + case % 2, int(rng.integers(1, 2)[0])
        x = _rand(rng, (2, 6, 6, 3))
        kh = 3 if (6 + 2 * pad - 3) % stride == 0 else 4
        w = _rand(rng, (kh, kh, 3, 2))
        op = _conv2d_nhwc_zero_bias
    else:
        kh, kw, stride, pad = _NETWORK_CONVS[(case - 28) % len(_NETWORK_CONVS)]
        x = _rand(rng, (2, 8, 6, 3))
        w = _rand(rng, (kh, kw, 3, 2))
        op = _conv2d_nhwc_zero_bias
        if case >= 28 + len(_NETWORK_CONVS):
            op, arrays = conv2d_nhwc, [_rand(rng, (2,))]

    def build(ts):
        return _weighted(rng.split("w"), op(*ts, stride=stride, padding=pad))

    assert _grad_check(build, [x, w, *arrays], 1e-5) <= 1e-5


def _im2col_reference(a, kh, kw, stride):
    win = np.lib.stride_tricks.sliding_window_view(a, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride]  # (N, OH, OW, C, kh, kw)
    n, oh, ow, c = win.shape[:4]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(n * oh * ow, kh * kw * c)


def _conv_reference(x, w, b, g, stride, pad):
    """Output and (gx, gw, gb) of a conv that keeps its im2col columns and
    scatters the input gradient back one kernel offset at a time."""
    n, h, wd, ci = x.shape
    kh, kw, _, co = w.shape
    oh, ow = g.shape[1:3]
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    cols = _im2col_reference(xp, kh, kw, stride)
    wmat, gmat = w.reshape(-1, co), g.reshape(-1, co)
    out = cols @ wmat
    out += b
    dcols = (gmat @ wmat.T).reshape(n, oh, ow, kh, kw, ci)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += dcols[:, :, :, i, j]
    gx = dxp[:, pad : pad + h, pad : pad + wd]
    return out.reshape(n, oh, ow, co), gx, (cols.T @ gmat).reshape(w.shape), _col_sum(gmat)


def _conv_outputs_and_grads(x, w, b, g, stride, pad):
    out, grads = _outputs_and_grads(
        lambda x, w, b: conv2d_nhwc(x, w, b, stride=stride, padding=pad), [x, w, b], g)
    return (out, *grads)


def _assert_within_the_rounding_bound(got, x, w, b, g, stride, pad):
    # a sum of k products, in any order, is within gamma_k = k u / (1 - k u)
    # times the sum of their magnitudes of the exact sum (Higham, "Accuracy
    # and Stability of Numerical Algorithms", section 3.1). The float64
    # reference carries such an error too, hence twice the bound: output (with
    # the bias) k = kh kw C_in + 1, input gradient kh kw C_out, weight and bias
    # gradients N OH OW.
    n, oh, ow, co = g.shape
    kh, kw, ci, _ = w.shape
    wide = [a.astype(np.float64) for a in (x, w, b, g)]
    want = _conv_reference(*wide, stride, pad)
    size = _conv_reference(*(np.abs(a) for a in wide), stride, pad)
    u = np.finfo(x.dtype).eps / 2
    terms = (kh * kw * ci + 1, kh * kw * co, n * oh * ow, n * oh * ow)
    for name, got_a, want_a, size_a, k in zip(("out", "gx", "gw", "gb"), got, want, size, terms):
        assert got_a.dtype == x.dtype and got_a.shape == want_a.shape, name
        bound = 2 * k * u / (1 - k * u) * size_a
        excess = np.abs(got_a - want_a) - bound
        assert excess.max() <= 0, f"{name}: error over the bound by {excess.max():.3g}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kh, kw, stride, pad", _NETWORK_CONVS)
def test_conv2d_matches_a_reference_that_keeps_its_columns(dtype, kh, kw, stride, pad):
    # the row-shifted GEMMs, on pixels or on s x s blocks, sum in another
    # order than the reference's one im2col GEMM, so they are held to the
    # rounding bound
    rng = Rng(36)
    x, w, b = (_rand(rng, shape).astype(dtype) for shape in ((2, 8, 6, 3), (kh, kw, 3, 2), (2,)))
    oh, ow = (8 + 2 * pad - kh) // stride + 1, (6 + 2 * pad - kw) // stride + 1
    g = _rand(rng, (2, oh, ow, 2)).astype(dtype)
    got = _conv_outputs_and_grads(x, w, b, g, stride, pad)
    _assert_within_the_rounding_bound(got, x, w, b, g, stride, pad)


def _nchw_as_nhwc(values, n, c, h, w):
    # an NCHW array seen as NHWC: at C = 1 it is flagged contiguous, yet its
    # size-1 channel axis has the stride of a whole plane
    return values[: n * c * h * w].reshape(n, c, h, w).transpose(0, 2, 3, 1)


@settings(max_examples=80, deadline=None)
@example(n=1, c=1, h=3, w=3, kw=2, ph=0, pw=0)
@example(n=1, c=1, h=3, w=3, kw=3, ph=1, pw=1)
@given(n=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 6), w=st.integers(1, 6),
       kw=st.integers(1, 4), ph=st.integers(0, 2), pw=st.integers(0, 2))
def test_row_windows_match_the_sliding_window_gather(n, c, h, w, kw, ph, pw):
    kw = min(kw, w + 2 * pw)
    x = _nchw_as_nhwc(np.arange(1, n * c * h * w + 1, dtype=np.float64), n, c, h, w)
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, kw, axis=2)  # (N, Hp, OW, C, kw)
    want = win.transpose(0, 1, 2, 4, 3).reshape(n, h + 2 * ph, w + 2 * pw - kw + 1, kw * c)
    got = _row_windows(x, kw, ph, pw)
    assert got.shape == want.shape and np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@example(n=1, c=1, h=3, w=3, kh=2, kw=2, pad=0, stride=1, dtype=np.float32)
@example(n=2, c=1, h=4, w=6, kh=2, kw=4, pad=1, stride=2, dtype=np.float32)
@example(n=1, c=2, h=5, w=5, kh=3, kw=3, pad=1, stride=2, dtype=np.float32)
@example(n=2, c=2, h=6, w=6, kh=5, kw=5, pad=1, stride=3, dtype=np.float64)
@given(n=st.integers(1, 3), c=st.integers(1, 3), h=st.integers(1, 6), w=st.integers(1, 6),
       kh=st.integers(1, 5), kw=st.integers(1, 5), pad=st.integers(0, 2),
       stride=st.integers(1, 3), dtype=st.sampled_from([np.float32, np.float64]))
def test_conv2d_stays_within_the_rounding_bound(n, c, h, w, kh, kw, pad, stride, dtype):
    # the kernel grows until the output extents divide, so at stride > 1 it
    # is often not a multiple of the stride
    hp, wp = h + 2 * pad, w + 2 * pad
    kh, kw = min(kh, hp), min(kw, wp)
    kh, kw = kh + (hp - kh) % stride, kw + (wp - kw) % stride
    oh, ow = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    values = np.sin(np.arange(3 * n * (h + 4) * (w + 4) + 256, dtype=np.float64)).astype(dtype)
    x = _nchw_as_nhwc(values, n, c, h, w)
    wk = values[-kh * kw * c * 2 :].reshape(kh, kw, c, 2)
    b, g = values[:2], _nchw_as_nhwc(values[3:], n, 2, oh, ow)
    got = _conv_outputs_and_grads(x, wk, b, g, stride, pad)
    _assert_within_the_rounding_bound(got, x, wk, b, g, stride, pad)


# transient peak of one level-0 conv forward and backward at B=16 (16 x 16
# input, 16 input channels, float32, with bias), by (kh, stride, padding,
# output channels). The 3 x 3 ResBlock conv: 5.85 MB while stride 1 padded
# its input and gathered kh x kw im2col columns, 2.28 MB with kw-wide row
# windows gathered from the unpadded input. The 4 x 4 stride-2 down conv:
# 2.96 MB with im2col columns and a scatter loop, 1.60 MB on 2 x 2 blocks
CONV_PEAK_BYTES_PINS = {(3, 1, 1, 16): 3.0e6, (4, 2, 1, 32): 2.2e6}


def test_the_peak_of_a_level_0_conv_forward_and_backward_stays_under_its_pin():
    for (kh, stride, padding, co), pin in CONV_PEAK_BYTES_PINS.items():
        rng = Rng(37)
        x, w, b = (Tensor(_rand(rng, shape).astype(np.float32), requires_grad=True)
                   for shape in ((16, 16, 16, 16), (kh, kh, 16, co), (co,)))
        g = Tensor(_rand(rng, (16, 16 // stride, 16 // stride, co)).astype(np.float32))

        def forward_and_backward():
            with GradTape() as tape:
                loss = tsum(mul(conv2d_nhwc(x, w, b, stride=stride, padding=padding), g))
            return tape.backward(loss)

        forward_and_backward()  # lazy set-up outside the count
        tracemalloc.start()
        try:
            grads = forward_and_backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grads[x].shape == x.shape and grads[w].shape == w.shape
        assert peak < pin, (
            f"a level-0 {kh}x{kh} stride-{stride} conv forward and backward peaks at "
            f"{peak / 1e6:.2f} MB, over the {pin / 1e6} MB pin: allocate less, or move "
            f"CONV_PEAK_BYTES_PINS in the same diff and say why in CHANGES.md")


# an attention record keeps q, k, v and two statistics per row, not its
# (B, H, L_q, L_k) softmax weights: at this float64 shape the weights are
# 262 KB against 98 KB of q, k and v, so a record that kept them again
# holds more than this pin (262 KB plus its 33 KB output while it did)
ATTENTION_SHAPE, ATTENTION_HEADS = (4, 64, 16), 2
ATTENTION_HELD_BYTES_PIN = 4 * ATTENTION_HEADS * 64 * 64 * 8  # (B, H, L_q, L_k) float64


def test_an_attention_record_holds_less_than_its_softmax_weights():
    rng = Rng(38)
    q, k, v = (Tensor(_rand(rng, ATTENTION_SHAPE), requires_grad=True) for _ in range(3))
    attention(q, k, v, ATTENTION_HEADS)  # lazy set-up outside the count
    tracemalloc.start()
    try:
        with GradTape() as tape:
            out = attention(q, k, v, ATTENTION_HEADS)
            held = tracemalloc.get_traced_memory()[0]
            loss = tsum(out)
    finally:
        tracemalloc.stop()
    grads = tape.backward(loss)
    assert grads[q].shape == grads[k].shape == grads[v].shape == ATTENTION_SHAPE
    assert held < ATTENTION_HELD_BYTES_PIN, (
        f"an attention forward under a tape leaves {held / 1e3:.0f} KB live, over the "
        f"{ATTENTION_HELD_BYTES_PIN / 1e3:.0f} KB its softmax weights take: rebuild them in "
        f"the backward, or move ATTENTION_HELD_BYTES_PIN in the same diff and say why in "
        f"CHANGES.md")


@pytest.mark.parametrize("case", range(20))
def test_grad_attention(case):
    rng = Rng(800 + case)
    q = _rand(rng, (1, 4, 8))
    k = _rand(rng, (1, 5, 8))
    v = _rand(rng, (1, 5, 8))

    def build(ts):
        return _weighted(rng.split("w"), attention(ts[0], ts[1], ts[2], n_heads=2))

    assert _grad_check(build, [q, k, v], 1e-4) <= 1e-4


def _composed_attention(q, k, v, n_heads):
    # the attention op as it was before fusion: 13 tape records
    b, lq, d = q.shape
    lk, dh = k.shape[1], d // n_heads

    def heads(t, length):
        return transpose(reshape(t, (b, length, n_heads, dh)), (0, 2, 1, 3))

    qh, kh, vh = heads(q, lq), heads(k, lk), heads(v, lk)
    scores = scale(matmul(qh, transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    out = matmul(softmax(scores), vh)
    return reshape(transpose(out, (0, 2, 1, 3)), (b, lq, d))


def _outputs_and_grads(op, arrays, weights):
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with GradTape() as tape:
        out = op(*leaves)
        loss = tsum(mul(out, Tensor(weights)))
    grads = tape.backward(loss)
    return out.data, [grads[leaf] for leaf in leaves]


def _max_rel_l2(got, want):
    return max(np.linalg.norm(g - r) / np.linalg.norm(r) for g, r in zip(got, want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lq, lk", [(6, 6), (6, 3)], ids=["self", "cross"])
def test_fused_attention_matches_the_composed_ops(dtype, lq, lk):
    rng = Rng(31)
    q = _rand(rng, (2, lq, 8)).astype(dtype)
    k = _rand(rng, (2, lk, 8)).astype(dtype)
    v = _rand(rng, (2, lk, 8)).astype(dtype)
    weights = _rand(rng, (2, lq, 8)).astype(dtype)
    out, grads = _outputs_and_grads(lambda *t: attention(*t, n_heads=2), [q, k, v], weights)
    ref_out, ref_grads = _outputs_and_grads(lambda *t: _composed_attention(*t, n_heads=2),
                                            [q, k, v], weights)
    assert out.dtype == ref_out.dtype and np.array_equal(out, ref_out)
    if dtype == np.float64:
        assert _max_rel_l2(grads, ref_grads) <= 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape", [(5, 4), (2, 5, 4)], ids=["rows", "batched"])
def test_linear_matches_matmul_plus_bias(dtype, x_shape):
    rng = Rng(32)
    x = _rand(rng, x_shape).astype(dtype)
    w = _rand(rng, (4, 3)).astype(dtype)
    b = _rand(rng, (3,)).astype(dtype)
    weights = _rand(rng, x_shape[:-1] + (3,)).astype(dtype)
    out, grads = _outputs_and_grads(linear, [x, w, b], weights)
    ref_out, ref_grads = _outputs_and_grads(lambda x, w, b: add(matmul(x, w), b), [x, w, b], weights)
    assert out.dtype == ref_out.dtype and np.array_equal(out, ref_out)
    if dtype == np.float64:
        assert _max_rel_l2(grads, ref_grads) <= 1e-12


@pytest.mark.parametrize("x_shape, w_shape, b_shape, message", [
    ((5,), (5, 3), (3,), "need x"),
    ((2, 5), (5, 3, 1), (3,), "need x"),
    ((2, 5), (5, 3), (5,), "need x"),
    ((2, 4), (5, 3), (3,), "inner extents"),
], ids=["1-d-input", "3-d-weight", "bias-extent", "inner-extent"])
def test_linear_rejects_mismatched_shapes(x_shape, w_shape, b_shape, message):
    with pytest.raises(ShapeError, match=message):
        linear(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)), Tensor(np.ones(b_shape)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 3, 4)], ids=["rows", "feature-map"])
def test_affine_layer_norm_matches_the_composed_ops(dtype, x_shape):
    rng = Rng(34)
    x = _rand(rng, x_shape).astype(dtype)
    gain = _rand(rng, (4,)).astype(dtype)
    bias = _rand(rng, (4,)).astype(dtype)
    weights = _rand(rng, x_shape).astype(dtype)
    out, grads = _outputs_and_grads(layer_norm, [x, gain, bias], weights)
    ref_out, ref_grads = _outputs_and_grads(lambda x, g, b: add(mul(layer_norm(x), g), b),
                                            [x, gain, bias], weights)
    assert out.dtype == ref_out.dtype and np.array_equal(out, ref_out)
    if dtype == np.float64:
        assert _max_rel_l2(grads, ref_grads) <= 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kh, stride, padding", [(3, 1, 1), (4, 2, 1), (3, 1, 0)],
                         ids=["3x3", "4x4-s2", "3x3-valid"])
def test_conv_bias_matches_conv_plus_add(dtype, kh, stride, padding):
    rng = Rng(35)
    x = _rand(rng, (2, 6, 6, 3)).astype(dtype)
    w = _rand(rng, (kh, kh, 3, 4)).astype(dtype)
    b = _rand(rng, (4,)).astype(dtype)
    oh = (6 + 2 * padding - kh) // stride + 1
    weights = _rand(rng, (2, oh, oh, 4)).astype(dtype)
    zero = Tensor(np.zeros(4, dtype=dtype))
    out, grads = _outputs_and_grads(
        lambda x, w, b: conv2d_nhwc(x, w, b, stride=stride, padding=padding), [x, w, b], weights)
    ref_out, ref_grads = _outputs_and_grads(
        lambda x, w, b: add(conv2d_nhwc(x, w, zero, stride=stride, padding=padding), b), [x, w, b], weights)
    assert out.dtype == ref_out.dtype and np.array_equal(out, ref_out)
    if dtype == np.float64:
        assert _max_rel_l2(grads, ref_grads) <= 1e-12


@pytest.mark.parametrize("gain, bias, message", [
    (np.ones(4), None, "both gain and bias"),
    (None, np.zeros(4), "both gain and bias"),
    (np.ones(3), np.zeros(4), r"must be \(4,\)"),
    (np.ones(4), np.zeros((1, 4)), r"must be \(4,\)"),
], ids=["gain-only", "bias-only", "gain-extent", "bias-rank"])
def test_layer_norm_rejects_a_partial_or_mis_shaped_affine(gain, bias, message):
    args = [None if a is None else Tensor(a) for a in (gain, bias)]
    with pytest.raises(ShapeError, match=message):
        layer_norm(Tensor(np.ones((2, 4))), *args)


def test_conv2d_rejects_a_mis_shaped_bias():
    x, w = Tensor(np.ones((1, 4, 4, 2))), Tensor(np.ones((3, 3, 2, 5)))
    with pytest.raises(ShapeError, match=r"bias must be \(5,\), got \(2,\)"):
        conv2d_nhwc(x, w, Tensor(np.ones(2)), stride=1, padding=1)


def test_attention_and_linear_each_add_one_tape_record():
    # and so do LayerNormAffine and Conv2dLayer, with their gain and bias
    rng = Rng(33)
    q = Tensor(_rand(rng, (2, 6, 8)), requires_grad=True)
    layer = Linear(rng, 8, 8)
    with GradTape() as tape:
        attention(q, q, q, n_heads=2)
        assert len(tape._records) == 1
        layer(q)
        assert len(tape._records) == 2
        LayerNormAffine(8)(q)
        assert len(tape._records) == 3
        Conv2dLayer(rng, 8, 4, 3, padding=1)(reshape(q, (2, 2, 3, 8)))
        assert len(tape._records) == 5  # the reshape, then the conv


# every differentiable op: its call, its operands' shapes, and which operands
# are tracked; an op with more than one operand leaves at least one untracked
VJP_CASES = {
    "add": (add, [(2, 3), (3,)], (True, False)),
    "sub": (sub, [(2, 3), (2, 3)], (False, True)),
    "mul": (mul, [(2, 1), (2, 3)], (True, False)),
    "scale": (lambda x: scale(x, 0.5), [(2, 3)], (True,)),
    "silu": (silu, [(2, 3)], (True,)),
    "layer_norm": (layer_norm, [(2, 3, 4), (4,), (4,)], (True, False, True)),
    "softmax": (softmax, [(2, 5)], (True,)),
    "matmul": (matmul, [(2, 3, 4), (4, 5)], (False, True)),
    "linear": (linear, [(2, 3, 4), (4, 5), (5,)], (True, True, False)),
    "silu_mlp": (silu_mlp, [(2, 4), (4, 8), (8,), (8, 4), (4,)], (False, True, False, True, False)),
    "conv2d_nhwc_stride1": (lambda x, w, b: conv2d_nhwc(x, w, b, stride=1, padding=1),
                            [(2, 5, 5, 3), (3, 3, 3, 4), (4,)], (False, True, True)),
    "conv2d_nhwc_stride2": (lambda x, w, b: conv2d_nhwc(x, w, b, stride=2, padding=1),
                            [(2, 6, 6, 3), (4, 4, 3, 4), (4,)], (True, False, False)),
    "norm_silu_conv2d": (lambda x, gain, bias, w, b: norm_silu_conv2d(x, gain, bias, w, b, padding=1),
                         [(2, 4, 4, 3), (3,), (3,), (3, 3, 3, 2), (2,)], (True, False, True, False, True)),
    "attention": (lambda q, k, v: attention(q, k, v, n_heads=2),
                  [(2, 3, 4), (2, 5, 4), (2, 5, 4)], (True, False, True)),
    "reshape": (lambda x: reshape(x, (3, 2)), [(2, 3)], (True,)),
    "transpose": (lambda x: transpose(x, (1, 0, 2)), [(2, 3, 4)], (True,)),
    "concat": (lambda a, b, c: concat([a, b, c], axis=1),
               [(2, 1, 3), (2, 2, 3), (2, 3, 3)], (True, False, True)),
    "tsum": (tsum, [(2, 3)], (True,)),
    "tmean": (tmean, [(2, 3)], (True,)),
    "upsample2x": (upsample2x, [(2, 3, 3, 4)], (True,)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("call, shapes, tracked", VJP_CASES.values(), ids=VJP_CASES.keys())
def test_a_vjp_returns_one_gradient_for_each_input_tracked_or_not(call, shapes, tracked, dtype):
    rng = Rng(34)
    inputs = [Tensor(rng.gaussian(shape, dtype=dtype), requires_grad=is_tracked)
              for shape, is_tracked in zip(shapes, tracked)]
    with GradTape() as tape:
        out = call(*inputs)
    assert len(tape._records) == 1
    _, vjp = tape._records[-1]
    grads = vjp(rng.gaussian(out.shape, dtype=dtype))
    assert len(grads) == len(inputs)
    for i, (g, t) in enumerate(zip(grads, inputs)):
        assert isinstance(g, np.ndarray), f"input {i}: {type(g).__name__}"
        assert g.shape == t.shape and g.dtype == t.dtype, f"input {i}: {g.shape} {g.dtype}"


@pytest.mark.parametrize("case", range(10))
def test_grad_shape_ops(case):
    rng = Rng(900 + case)
    x = _rand(rng, (3, 4, 2))

    def build(ts):
        t = transpose(ts[0], (1, 0, 2))
        t = reshape(t, (4, 6))
        t = concat([t, t], axis=1)
        t = upsample2x(reshape(t, (2, 6, 4)))
        # weights inside the full mean keep every element's gradient distinct
        return tmean(mul(t, Tensor(_rand(rng.split("w"), t.shape))))

    assert _grad_check(build, [x], 1e-5) <= 1e-5


def test_grad_composite_mlp():
    # two-layer network: full-graph check at the composite tolerance
    rng = Rng(1000)
    x = _rand(rng, (4, 6))
    w1 = _rand(rng, (6, 8))
    b1 = _rand(rng, (8,))
    w2 = _rand(rng, (8, 3))

    def build(ts):
        h = silu(add(matmul(ts[0], ts[1]), ts[2]))
        h = layer_norm(h)
        out = softmax(matmul(h, ts[3]))
        return _weighted(rng.split("w"), out)

    assert _grad_check(build, [x, w1, b1, w2], 1e-3) <= 1e-3


# ---------------------------------------------------------------------------
# operand contracts


@pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float16])
def test_a_tensor_of_a_non_float_dtype_raises_naming_it(dtype):
    name = np.dtype(dtype).name
    with pytest.raises(TypeError, match=rf"^Tensor: data must be float32 or float64, got {name}$"):
        Tensor(np.ones(3, dtype=dtype))


@pytest.mark.parametrize("missing", ["b", "stride", "padding"])
def test_conv2d_nhwc_takes_every_operand(missing):
    operands = {"x": Tensor(np.ones((1, 4, 4, 2))), "w": Tensor(np.ones((3, 3, 2, 2))),
                "b": Tensor(np.zeros(2)), "stride": 1, "padding": 1}
    del operands[missing]
    with pytest.raises(TypeError, match=rf"missing 1 required .*argument: '{missing}'"):
        conv2d_nhwc(**operands)


def _ones(shape, dtype=np.float64):
    return Tensor(np.ones(shape, dtype=dtype))


# each op whose operands one _check_dtypes call checks, with the last operand
# float32 and the rest float64
@pytest.mark.parametrize("name, call", [
    ("concat", lambda: concat([_ones((2, 3)), _ones((2, 3)), _ones((2, 3), np.float32)], axis=0)),
    ("linear", lambda: linear(_ones((2, 3)), _ones((3, 4)), _ones(4, np.float32))),
    ("linear", lambda: silu_mlp(_ones((2, 3)), _ones((3, 4)), _ones(4), _ones((4, 3)),
                                _ones(3, np.float32))),
    ("layer_norm", lambda: layer_norm(_ones((2, 3)), _ones(3), _ones(3, np.float32))),
    ("conv2d", lambda: conv2d_nhwc(_ones((1, 4, 4, 2)), _ones((3, 3, 2, 2)), _ones(2, np.float32),
                                   stride=1, padding=1)),
    ("conv2d", lambda: norm_silu_conv2d(_ones((1, 4, 4, 2)), _ones(2), _ones(2), _ones((3, 3, 2, 2)),
                                        _ones(2, np.float32), padding=1)),
    ("attention", lambda: attention(_ones((1, 2, 4)), _ones((1, 3, 4)), _ones((1, 3, 4), np.float32), 2)),
], ids=["concat", "linear", "silu_mlp", "layer_norm", "conv2d_nhwc", "norm_silu_conv2d", "attention"])
def test_a_mixed_dtype_in_any_operand_is_rejected_by_name(name, call):
    with pytest.raises(TypeError, match=rf"^{name}: mixed dtypes float64 and float32$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: layer_norm(_ones(())), r"layer_norm: input \(\) has no trailing axis"),
    (lambda: softmax(_ones(())), r"softmax: input \(\) has no trailing axis"),
    (lambda: layer_norm(_ones((3, 0))), r"layer_norm: input \(3, 0\) has no trailing axis"),
    (lambda: softmax(_ones((3, 0))), r"softmax: input \(3, 0\) has no trailing axis"),
    (lambda: attention(_ones((1, 2, 4)), _ones((1, 0, 4)), _ones((1, 0, 4)), 2), r"attention: .* got k \(1, 0, 4\)"),
    (lambda: attention(_ones((1, 2, 0)), _ones((1, 3, 0)), _ones((1, 3, 0)), 2), r"attention: .* got k \(1, 3, 0\)"),
    (lambda: tmean(_ones((2, 0))), r"tmean: input \(2, 0\) has no elements"),
], ids=["layer_norm-0d", "softmax-0d", "layer_norm-empty-axis", "softmax-empty-axis",
        "attention-no-keys", "attention-d-0", "tmean-empty"])
def test_an_empty_or_0d_input_is_rejected_by_name(call, message):
    with pytest.raises(ShapeError, match=message):
        call()


# ---------------------------------------------------------------------------
# purity / totality properties


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
)
def test_broadcast_totality(shape_a, shape_b):
    a = Tensor(np.ones(shape_a))
    b = Tensor(np.ones(shape_b))
    try:
        out = add(a, b)
    except ShapeError:
        return
    assert out.shape == np.broadcast_shapes(tuple(shape_a), tuple(shape_b))


def test_ops_are_pure():
    rng1, rng2 = Rng(77), Rng(77)
    x1 = Tensor(rng1.gaussian((3, 3)))
    x2 = Tensor(rng2.gaussian((3, 3)))
    out1 = softmax(silu(mul(x1, x1)))
    out2 = softmax(silu(mul(x2, x2)))
    assert np.array_equal(out1.data, out2.data)
