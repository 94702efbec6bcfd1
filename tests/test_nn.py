import numpy as np
import pytest

from duetdiff.denoiser import ResBlock, SpatialAttnBlock
from duetdiff.nn import (
    Attention,
    Conv2dLayer,
    LayerNormAffine,
    Linear,
    TransformerBlock,
    named_params,
    timestep_embedding,
    trunc_normal,
)
from duetdiff.rng import Rng
from duetdiff.tensor import GradTape, Tensor, attention, conv2d, linear, mul, tsum


def _rand(rng, shape):
    return rng.gaussian(shape, dtype=np.float64)


def test_trunc_normal_stays_within_two_std():
    out = trunc_normal(Rng(0), (4000,), dtype=np.float64)
    assert np.max(np.abs(out)) <= 0.04
    assert abs(out.std() - 0.02 * 0.88) < 0.0012  # std of N(0,1) truncated at 2 is 0.88


def test_conv_layer_draws_oihw_and_stores_channels_last():
    layer = Conv2dLayer(Rng(1), 3, 5, 4, stride=2, padding=1)
    oihw = trunc_normal(Rng(1), (5, 3, 4, 4), dtype=np.float64)
    assert layer.w.shape == (4, 4, 3, 5) and layer.b.shape == (5,)
    assert layer.w.data.flags.c_contiguous
    assert np.array_equal(layer.w.data, oihw.transpose(2, 3, 1, 0))
    zero = Conv2dLayer(Rng(1), 3, 5, 3, zero_init=True)
    assert zero.w.shape == (3, 3, 3, 5) and not zero.w.data.any()


def test_conv_layer_matches_the_nchw_reference():
    rng = Rng(2)
    layer = Conv2dLayer(rng.split("layer"), 3, 4, 4, stride=2, padding=1)
    layer.b.data[...] = _rand(rng, (4,))
    x = _rand(rng, (2, 3, 8, 8))
    w_oihw = layer.w.data.transpose(3, 2, 0, 1)
    ref = conv2d(Tensor(x), Tensor(w_oihw), stride=2, padding=1).data + layer.b.data[:, None, None]
    out = layer(Tensor(x.transpose(0, 2, 3, 1))).data
    np.testing.assert_allclose(out.transpose(0, 3, 1, 2), ref, rtol=0, atol=1e-13)


def test_layer_norm_acts_on_the_channel_axis():
    norm = LayerNormAffine(6)
    norm.gain.data[...] = 2.0
    norm.bias.data[...] = 1.0
    out = norm(Tensor(_rand(Rng(3), (2, 4, 4, 6)))).data
    np.testing.assert_allclose(out.mean(axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=-1), 2.0, rtol=1e-4)


def test_blocks_keep_channels_last_shapes():
    rng = Rng(4)
    x = Tensor(_rand(rng, (2, 6, 6, 4)))
    temb = Tensor(_rand(rng, (2, 8)))
    res = ResBlock(rng.split("res"), 4, 8, 8)
    assert res(x, temb).shape == (2, 6, 6, 8)
    attn = SpatialAttnBlock(rng.split("attn"), 4, 16, 2)
    assert attn(x, Tensor(_rand(rng, (2, 5, 16)))).shape == (2, 6, 6, 4)


def test_spatial_attention_tokens_are_pixels_in_row_major_order():
    # with every sub-layer's output zeroed the block is the identity, so the
    # HW-token reshape must invert exactly
    rng = Rng(5)
    attn = SpatialAttnBlock(rng, 4, 16, 2)
    for lin in (attn.self_attn.out, attn.cross_attn.out, attn.mlp.fc2):
        lin.w.data[...] = 0.0
    x = _rand(rng, (1, 3, 5, 4))
    assert np.array_equal(attn(Tensor(x), Tensor(_rand(rng, (1, 2, 16)))).data, x)


def _packed_self_attention(attn, x, weights):
    """Self-attention through one packed (d, 3d) projection cut into q, k, v.

    Returns the output and the gradients of sum(out * weights) with respect
    to x and every parameter of ``attn``, chained by hand through the cut.
    The keys have no bias, so the key third of the packed bias is 0 and its
    gradient is dropped.
    """
    w = Tensor(np.concatenate([attn.q.w.data, attn.k.data, attn.v.w.data], axis=1),
               requires_grad=True)
    b = Tensor(np.concatenate([attn.q.b.data, np.zeros_like(attn.q.b.data), attn.v.b.data]),
               requires_grad=True)
    qkv = linear(x, w, b).data
    q, k, v = (Tensor(part, requires_grad=True) for part in np.split(qkv, 3, axis=-1))
    with GradTape() as tape:
        out = attn.out(attention(q, k, v, attn.n_heads))
        loss = tsum(mul(out, weights))
    g_out = tape.backward(loss)
    g_qkv = Tensor(np.concatenate([g_out[q], g_out[k], g_out[v]], axis=-1))
    with GradTape() as tape:
        loss = tsum(mul(linear(x, w, b), g_qkv))
    g_in = tape.backward(loss)
    gq, gk, gv = np.split(g_in[w], 3, axis=1)
    gbq, _, gbv = np.split(g_in[b], 3)
    grads = {"x": g_in[x], "q.w": gq, "q.b": gbq, "k": gk, "v.w": gv, "v.b": gbv,
             "out.w": g_out[attn.out.w], "out.b": g_out[attn.out.b]}
    return out.data, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_self_attention_equals_the_packed_qkv_projection(dtype):
    rng = Rng(8)
    attn = Attention(rng.split("attn"), 32, 32, 4)
    params = named_params(attn, "attn")
    for p in params.values():
        if p.ndim == 1:
            p.data = _rand(rng, p.shape)
        p.data = p.data.astype(dtype)
    x = Tensor(_rand(rng, (2, 36, 32)).astype(dtype), requires_grad=True)
    weights = Tensor(_rand(rng, (2, 36, 32)).astype(dtype))
    with GradTape() as tape:
        out = attn(x, x)
        loss = tsum(mul(out, weights))
    got = tape.backward(loss)
    ref_out, ref = _packed_self_attention(attn, x, weights)
    assert out.dtype == dtype and np.array_equal(out.data, ref_out)
    if dtype != np.float64:
        return
    got = {"x": got[x], **{name[5:]: got[p] for name, p in params.items()}}
    assert list(got) == list(ref) == ["x", "q.w", "q.b", "k", "v.w", "v.b", "out.w", "out.b"]
    for name, g in got.items():
        assert np.linalg.norm(g - ref[name]) <= 1e-12 * np.linalg.norm(ref[name]), name


def test_timestep_embedding_is_sin_cos_pairs():
    emb = timestep_embedding(np.array([0, 7]), 8, dtype=np.float64)
    assert emb.shape == (2, 8)
    assert np.array_equal(emb[0], [0, 0, 0, 0, 1, 1, 1, 1])
    np.testing.assert_allclose(emb[1, :4] ** 2 + emb[1, 4:] ** 2, 1.0)
    with pytest.raises(ValueError):
        timestep_embedding(3, 5, dtype=np.float64)


class _Holder:
    """Stands in for a foreign object: the walk must not enter it."""

    def __init__(self, layer):
        self.layer = layer


def test_named_params_joins_attribute_paths_indices_and_keys():
    rng = Rng(6)
    block = TransformerBlock(rng, 8, 2, 16)
    assert list(named_params(block, "b")) == [
        "b.norm1.gain", "b.norm1.bias",
        "b.attn.q.w", "b.attn.q.b", "b.attn.k",
        "b.attn.v.w", "b.attn.v.b", "b.attn.out.w", "b.attn.out.b",
        "b.norm2.gain", "b.norm2.bias",
        "b.mlp.fc1.w", "b.mlp.fc1.b", "b.mlp.fc2.w", "b.mlp.fc2.b",
    ]
    lin = Linear(rng, 2, 3)
    tree = {"a": [lin, None], "b": (lin,), "foreign": _Holder(lin), "dtype": np.float32}
    got = named_params(tree, "t")
    assert list(got) == ["t.a.0.w", "t.a.0.b", "t.b.0.w", "t.b.0.b"]
    assert got["t.a.0.w"] is lin.w


def test_named_params_selects_leaves_by_kind():
    lin = Linear(Rng(7), 2, 3)
    lin.table = np.zeros(3)
    assert list(named_params(lin, "l")) == ["l.w", "l.b"]
