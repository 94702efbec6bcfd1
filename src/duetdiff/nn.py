"""Trainable layers assembled from tensor primitives.

Weights initialize to truncated normal (std 0.02, resampled outside two
standard deviations); biases and gains follow the usual zero/one
conventions. Feature maps are channels-last, (N, H, W, C), so per-channel
layers act on the trailing axis. Layers declare no registry of their own:
``named_params`` finds every Tensor by walking the attributes.

One ``Attention`` serves self- and cross-attention: self-attention passes
the stream as its own context. Its keys have no bias, since softmax ignores
a shift shared by every key.

Precision is not a layer's choice. Every layer builds its tensors at
float64, the precision of every draw, and the model that owns the layers
casts each registered tensor once (``model.DiffusionModel``). A layer that
needs a dtype at run time reads it from its own tensors.
"""

from __future__ import annotations

import numpy as np

from .rng import Rng
from .tensor import (
    Tensor,
    add,
    attention,
    conv2d_nhwc,
    layer_norm,
    linear,
    matmul,
    silu_mlp,
)

# the walk's own package root, so a copy imported under another name walks its own layers
_PACKAGE = __name__.partition(".")[0]


def trunc_normal(rng: Rng, shape, dtype=np.float64) -> np.ndarray:
    """Normal(0, 0.02) with values beyond 2 std redrawn."""
    out = rng.gaussian(shape, dtype=np.float64)
    for _ in range(16):
        bad = np.abs(out) > 2.0
        n_bad = int(bad.sum())
        if not n_bad:
            break
        out[bad] = rng.gaussian((n_bad,), dtype=np.float64)
    return (np.clip(out, -2.0, 2.0) * 0.02).astype(dtype, copy=False)


def _param(arr: np.ndarray) -> Tensor:
    return Tensor(arr, requires_grad=True)


class Linear:
    def __init__(self, rng: Rng, d_in: int, d_out: int):
        self.w = _param(trunc_normal(rng, (d_in, d_out)))
        self.b = _param(np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)


class Conv2dLayer:
    """Channels-last conv; ``w`` is (kh, kw, C_in, C_out), ``b`` is (C_out,)."""

    def __init__(self, rng: Rng, c_in: int, c_out: int, kernel: int,
                 stride: int = 1, padding: int = 0, zero_init: bool = False):
        if zero_init:
            w = np.zeros((kernel, kernel, c_in, c_out))
        else:
            # the seed stream fills (C_out, C_in, kh, kw) order; stored channels-last
            w = trunc_normal(rng, (c_out, c_in, kernel, kernel))
            w = np.ascontiguousarray(w.transpose(2, 3, 1, 0))
        self.w = _param(w)
        self.b = _param(np.zeros(c_out))
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d_nhwc(x, self.w, self.b, stride=self.stride, padding=self.padding)


class LayerNormAffine:
    """Trailing-axis normalization with learnable gain and bias."""

    def __init__(self, dim: int):
        self.gain = _param(np.ones(dim))
        self.bias = _param(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)


class Attention:
    """Queries from the stream, keys/values from a context sequence."""

    def __init__(self, rng: Rng, dim: int, context_dim: int, n_heads: int):
        self.n_heads = n_heads
        self.q = Linear(rng.split("q"), dim, dim)
        # a bare weight: softmax ignores a shift shared by every key, so a bias gets no gradient
        self.k = _param(trunc_normal(rng.split("k"), (context_dim, dim)))
        self.v = Linear(rng.split("v"), context_dim, dim)
        self.out = Linear(rng.split("out"), dim, dim)

    def __call__(self, x: Tensor, context: Tensor) -> Tensor:
        q = self.q(x)
        k = matmul(context, self.k)
        v = self.v(context)
        return self.out(attention(q, k, v, self.n_heads))


class Mlp:
    """fc1, SiLU, fc2 as one ``silu_mlp`` record, which keeps only its input
    and rebuilds the hidden state in the backward."""

    def __init__(self, rng: Rng, dim: int, hidden: int):
        self.fc1 = Linear(rng.split("fc1"), dim, hidden)
        self.fc2 = Linear(rng.split("fc2"), hidden, dim)

    def __call__(self, x: Tensor) -> Tensor:
        return silu_mlp(x, self.fc1.w, self.fc1.b, self.fc2.w, self.fc2.b)


class TransformerBlock:
    """Pre-norm block: self-attention then MLP, both residual."""

    def __init__(self, rng: Rng, dim: int, n_heads: int, hidden: int):
        self.norm1 = LayerNormAffine(dim)
        self.attn = Attention(rng.split("attn"), dim, dim, n_heads)
        self.norm2 = LayerNormAffine(dim)
        self.mlp = Mlp(rng.split("mlp"), dim, hidden)

    def __call__(self, x: Tensor) -> Tensor:
        normed = self.norm1(x)
        x = add(x, self.attn(normed, normed))
        return add(x, self.mlp(self.norm2(x)))


def timestep_embedding(t, dim: int, dtype) -> np.ndarray:
    """Sinusoidal features [sin(t*w_j), cos(t*w_j)], w_j = 10000^(-2j/dim).

    t is a 1-D array of N steps; the output is (N, dim). ``dim`` is even,
    which ``ModelConfig`` checks for ``temb_dim``.
    """
    half = dim // 2
    freqs = np.power(10000.0, -2.0 * np.arange(half, dtype=np.float64) / dim)
    t_arr = np.asarray(t, dtype=np.float64)
    angles = t_arr[..., None] * freqs
    emb = np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)
    return emb.astype(dtype, copy=False)


def named_params(obj, prefix: str) -> dict:
    """name -> Tensor leaf reachable from ``obj``, in attribute order.

    Names are attribute paths joined by dots; list indices and dict keys
    are path segments. The walk descends into objects of this package, lists,
    tuples and dicts only, and never into a Tensor. Tracked and untracked
    leaves alike are returned; ``requires_grad`` tells them apart.
    """
    if isinstance(obj, Tensor):
        return {prefix: obj}
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    elif type(obj).__module__.partition(".")[0] == _PACKAGE:
        items = vars(obj).items()
    else:
        return {}
    out = {}
    for key, value in items:
        out.update(named_params(value, f"{prefix}.{key}"))
    return out
