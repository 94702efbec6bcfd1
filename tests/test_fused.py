"""The fused tape records against the ops they stand for.

``norm_silu_conv2d`` is ``conv2d_nhwc(silu(layer_norm(x, gain, bias)), w, b)``
and ``silu_mlp`` is ``linear(silu(linear(x, w1, b1)), w2, b2)``. Each keeps
only its input and rebuilds its intermediates in the backward, so its output
and every gradient must equal the composed ops' bit for bit, for any subset
of live inputs, and a NaN made at any stage must name that stage.
"""

import numpy as np
import pytest

import duetdiff.tensor as tensor
from duetdiff.denoiser import ResBlock
from duetdiff.nn import Mlp, named_params
from duetdiff.rng import Rng
from duetdiff.tensor import (
    GradTape,
    NonFiniteError,
    Tensor,
    add,
    conv2d_nhwc,
    layer_norm,
    linear,
    mul,
    norm_silu_conv2d,
    reshape,
    silu,
    silu_mlp,
    tsum,
)

from fdcheck import max_rel_err, numeric_grad

DTYPES = [np.float32, np.float64]


def _composed_norm_silu_conv(x, gain, bias, w, b):
    return conv2d_nhwc(silu(layer_norm(x, gain, bias)), w, b, padding=1)


def _fused_norm_silu_conv(x, gain, bias, w, b):
    return norm_silu_conv2d(x, gain, bias, w, b, padding=1)


def _composed_mlp(x, w1, b1, w2, b2):
    return linear(silu(linear(x, w1, b1)), w2, b2)


def _norm_silu_conv_arrays(rng, c_in, c_out, dtype):
    return [a.astype(dtype) for a in (
        rng.gaussian((2, 6, 6, c_in)) * 3.0 + 1.0,
        1.0 + 0.2 * rng.gaussian((c_in,)),
        0.2 * rng.gaussian((c_in,)),
        0.2 * rng.gaussian((3, 3, c_in, c_out)),
        0.1 * rng.gaussian((c_out,)),
    )]


def _mlp_arrays(rng, lead, dim, hidden, dtype):
    return [a.astype(dtype) for a in (
        rng.gaussian((*lead, dim)),
        0.3 * rng.gaussian((dim, hidden)),
        0.1 * rng.gaussian((hidden,)),
        0.3 * rng.gaussian((hidden, dim)),
        0.1 * rng.gaussian((dim,)),
    )]


def _output_and_grads(op, arrays, live, rng):
    """``op``'s output and the gradients of every leaf, through a loss that
    adds a product recorded before ``op`` to its output: ``add`` hands both
    operands the same gradient array, and the product's vjp reads it after
    ``op``'s vjp has run, so a vjp that wrote its incoming gradient would
    change the product's gradients."""
    leaves = [Tensor(a, requires_grad=is_live) for a, is_live in zip(arrays, live)]
    shape = op(*[Tensor(a) for a in arrays]).shape
    u, v = (Tensor(rng.gaussian(shape).astype(arrays[0].dtype), requires_grad=True)
            for _ in range(2))
    weights = Tensor(rng.gaussian(shape).astype(arrays[0].dtype))
    with GradTape() as tape:
        product = mul(u, v)
        out = op(*leaves)
        loss = tsum(mul(add(out, product), weights))
    grads = tape.backward(loss)
    assert grads[u].tobytes() == (weights.data * v.data).tobytes(), \
        "a vjp wrote its incoming gradient"
    return out.data, [grads.get(t) for t in [*leaves, u, v]]


def _assert_bitwise_equal(got, want):
    out, grads = got
    ref_out, ref_grads = want
    assert out.dtype == ref_out.dtype and out.tobytes() == ref_out.tobytes()
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert (g is None) == (ref is None), f"input {i}: live mismatch"
        if g is not None:
            assert g.dtype == ref.dtype and g.shape == ref.shape, f"input {i}"
            assert g.tobytes() == ref.tobytes(), f"input {i}: gradients differ"


# which of the five inputs require a gradient
LIVE = {
    "all": (True, True, True, True, True),
    "input": (True, False, False, False, False),
    "params": (False, True, True, True, True),
    "input_and_kernel": (True, False, False, True, False),
    "norm_affine": (False, True, True, False, False),
    "kernel": (False, False, False, True, False),
    "last_bias": (False, False, False, False, True),
}


# (c_in, c_out): a block with c_in == c_out, and the 64->32 and 32->16 up
# blocks that take the concatenated skip
@pytest.mark.parametrize("channels", [(16, 16), (64, 32), (32, 16)], ids=str)
@pytest.mark.parametrize("live", LIVE.values(), ids=LIVE.keys())
@pytest.mark.parametrize("dtype", DTYPES)
def test_norm_silu_conv2d_equals_the_composed_ops_bit_for_bit(channels, live, dtype):
    arrays = _norm_silu_conv_arrays(Rng(sum(channels)), *channels, dtype)
    fused = _output_and_grads(_fused_norm_silu_conv, arrays, live, Rng(7))
    composed = _output_and_grads(_composed_norm_silu_conv, arrays, live, Rng(7))
    _assert_bitwise_equal(fused, composed)


@pytest.mark.parametrize("shape", [((2, 5), 8, 32), ((3,), 6, 24)], ids=["tokens", "rows"])
@pytest.mark.parametrize("live", LIVE.values(), ids=LIVE.keys())
@pytest.mark.parametrize("dtype", DTYPES)
def test_silu_mlp_equals_the_composed_ops_bit_for_bit(shape, live, dtype):
    arrays = _mlp_arrays(Rng(3), *shape, dtype)
    fused = _output_and_grads(silu_mlp, arrays, live, Rng(8))
    composed = _output_and_grads(_composed_mlp, arrays, live, Rng(8))
    _assert_bitwise_equal(fused, composed)


def test_each_fused_chain_is_one_record_that_keeps_its_input_and_row_stats():
    rng = Rng(4)
    for op, arrays in ((_fused_norm_silu_conv, _norm_silu_conv_arrays(rng, 4, 4, np.float64)),
                       (silu_mlp, _mlp_arrays(rng, (2, 5), 8, 32, np.float64))):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        with GradTape() as tape:
            op(*leaves)
        assert len(tape._records) == 1
        kept = []
        for cell in tape._records[0][2].__closure__:
            value = cell.cell_contents
            kept += value if isinstance(value, tuple) else [value]
        inputs = [leaf.data for leaf in leaves]
        for a in kept:
            if isinstance(a, np.ndarray):
                # an input's own data, or a per-row statistic
                assert any(a is d for d in inputs) or a.shape == arrays[0].shape[:-1] + (1,)


def _poison_call(monkeypatch, name, call):
    """Make call number ``call`` (from 1) of ``tensor.<name>`` return NaNs."""
    inner = getattr(tensor, name)
    calls = []

    def poisoned(*args):
        out = inner(*args)
        calls.append(None)
        if len(calls) == call:
            out = np.full_like(out, np.nan)
        return out

    monkeypatch.setattr(tensor, name, poisoned)


@pytest.mark.parametrize("helper, call, stage", [
    ("_ln_affine", 1, "layer_norm"), ("_silu", 1, "silu"), ("_conv", 1, "conv2d"),
], ids=["layer_norm", "silu", "conv2d"])
def test_a_nan_in_norm_silu_conv2d_names_its_stage(monkeypatch, helper, call, stage):
    arrays = _norm_silu_conv_arrays(Rng(5), 4, 4, np.float32)
    _poison_call(monkeypatch, helper, call)
    with pytest.raises(NonFiniteError, match=rf"^{stage} produced non-finite values$"):
        _fused_norm_silu_conv(*[Tensor(a) for a in arrays])


@pytest.mark.parametrize("helper, call, stage", [
    ("_linear", 1, "linear"), ("_silu", 1, "silu"), ("_linear", 2, "linear"),
], ids=["fc1", "silu", "fc2"])
def test_a_nan_in_silu_mlp_names_its_stage(monkeypatch, helper, call, stage):
    arrays = _mlp_arrays(Rng(5), (2, 5), 8, 32, np.float32)
    _poison_call(monkeypatch, helper, call)
    with pytest.raises(NonFiniteError, match=rf"^{stage} produced non-finite values$"):
        silu_mlp(*[Tensor(a) for a in arrays])


# ---------------------------------------------------------------------------
# the layers that call them


def _composed_res_block(block, x, temb):
    h = _composed_norm_silu_conv(x, block.norm1.gain, block.norm1.bias, block.conv1.w, block.conv1.b)
    t = block.time_proj(temb)
    h = add(h, reshape(t, (t.shape[0], 1, 1, t.shape[1])))
    h = _composed_norm_silu_conv(h, block.norm2.gain, block.norm2.bias, block.conv2.w, block.conv2.b)
    return add(h, x if block.skip is None else block.skip(x))


def _layer_output_and_grads(forward, params, x, weights):
    x = Tensor(x, requires_grad=True)
    with GradTape() as tape:
        out = forward(x)
        loss = tsum(mul(out, Tensor(weights)))
    grads = tape.backward(loss)
    return out.data, [grads[p] for p in [x, *params]]


def _redraw(layer, rng, dtype):
    """Draw every parameter of ``layer`` afresh at ``dtype``, gains about 1."""
    params = list(named_params(layer, "layer").items())
    for name, p in params:
        draw = 0.3 * rng.gaussian(p.shape)
        p.data = (1.0 + draw if name.endswith("gain") else draw).astype(dtype)
    return [p for _, p in params]


# the model's block shapes, and the concat blocks whose input the skip conv also keeps
@pytest.mark.parametrize("channels", [(16, 16), (64, 32), (32, 16)], ids=str)
@pytest.mark.parametrize("dtype", DTYPES)
def test_res_block_equals_its_composed_ops_bit_for_bit(channels, dtype):
    rng = Rng(6)
    block = ResBlock(rng.split("block"), *channels, 8)
    params = _redraw(block, rng, dtype)
    x = rng.gaussian((2, 4, 4, channels[0])).astype(dtype)
    temb = Tensor(rng.gaussian((2, 8)).astype(dtype))
    weights = rng.gaussian((2, 4, 4, channels[1])).astype(dtype)
    fused = _layer_output_and_grads(lambda t: block(t, temb), params, x, weights)
    composed = _layer_output_and_grads(lambda t: _composed_res_block(block, t, temb), params, x,
                                       weights)
    _assert_bitwise_equal(fused, composed)


@pytest.mark.parametrize("dtype", DTYPES)
def test_mlp_equals_its_composed_ops_bit_for_bit(dtype):
    rng = Rng(7)
    mlp = Mlp(rng.split("mlp"), 32, 128)
    params = _redraw(mlp, rng, dtype)
    x = rng.gaussian((2, 16, 32)).astype(dtype)
    weights = rng.gaussian((2, 16, 32)).astype(dtype)
    fused = _layer_output_and_grads(mlp, params, x, weights)
    composed = _layer_output_and_grads(lambda t: mlp.fc2(silu(mlp.fc1(t))), params, x, weights)
    _assert_bitwise_equal(fused, composed)


def _fd_check(forward, params, x, weights):
    analytic = _layer_output_and_grads(forward, params, x, weights)[1]
    arrays = [x, *(p.data for p in params)]
    numeric = numeric_grad(lambda: tsum(mul(forward(Tensor(x)), Tensor(weights))).item(), arrays)
    return max_rel_err(analytic, numeric)


def test_res_block_gradients_match_finite_differences():
    rng = Rng(8)
    block = ResBlock(rng.split("block"), 4, 6, 8)
    params = _redraw(block, rng, np.float64)
    temb = Tensor(rng.gaussian((2, 8)))
    x, weights = rng.gaussian((2, 4, 4, 4)), rng.gaussian((2, 4, 4, 6))
    assert _fd_check(lambda t: block(t, temb), params, x, weights) < 1e-6


def test_mlp_gradients_match_finite_differences():
    rng = Rng(9)
    mlp = Mlp(rng.split("mlp"), 6, 24)
    params = _redraw(mlp, rng, np.float64)
    x, weights = rng.gaussian((2, 5, 6)), rng.gaussian((2, 5, 6))
    assert _fd_check(mlp, params, x, weights) < 1e-6
