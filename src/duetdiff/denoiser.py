"""Noise-prediction network: a small conv U-Net with timestep embeddings
and cross-attention from spatial tokens to the joint condition embedding.

The condition enters only through cross-attention (never by concatenation
with the noisy input); timestep features are added inside every residual
block. The final convolution starts at zero so the initial prediction is 0.

Inputs and outputs are (N, C, H, W); inside, every feature map is
channels-last, (N, H, W, C), so the only layout changes are the transposes
where ``Denoiser.__call__`` starts and ends.

``Denoiser`` reads its sizes from the ``ModelConfig``: the canvas, the
image channels and the ``DenoiserConfig`` it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .nn import Attention, Conv2dLayer, LayerNormAffine, Linear, Mlp, timestep_embedding
from .rng import Rng
from .tensor import Tensor, add, concat, norm_silu_conv2d, reshape, silu, transpose, upsample2x

if TYPE_CHECKING:
    from .model import ModelConfig


@dataclass(frozen=True)
class DenoiserConfig:
    base_channels: int = 16
    channel_mult: tuple[int, ...] = (1, 2)
    res_blocks: int = 2
    attn_resolutions: tuple[int, ...] = (8,)
    temb_dim: int = 64
    cond_dim: int = 64
    n_heads: int = 4

    def channels(self) -> tuple[int, ...]:
        return tuple(self.base_channels * m for m in self.channel_mult)


class ResBlock:
    """norm-silu-conv twice, timestep features added between, residual skip.

    Each norm-silu-conv half is one ``norm_silu_conv2d`` record, which
    keeps only the half's input and its row statistics and rebuilds the
    normalized and activated maps in the backward. ``temb`` holds the
    activated time features of ``Denoiser.time_features``.
    """

    def __init__(self, rng: Rng, c_in: int, c_out: int, temb_dim: int):
        self.norm1 = LayerNormAffine(c_in)
        self.conv1 = Conv2dLayer(rng.split("conv1"), c_in, c_out, 3, padding=1)
        self.time_proj = Linear(rng.split("time"), temb_dim, c_out)
        self.norm2 = LayerNormAffine(c_out)
        self.conv2 = Conv2dLayer(rng.split("conv2"), c_out, c_out, 3, padding=1)
        self.skip = None if c_in == c_out else Conv2dLayer(rng.split("skip"), c_in, c_out, 1)

    def __call__(self, x: Tensor, temb: Tensor) -> Tensor:
        h = _norm_silu_conv(self.norm1, self.conv1, x)
        t = self.time_proj(temb)
        h = add(h, reshape(t, (t.shape[0], 1, 1, t.shape[1])))
        h = _norm_silu_conv(self.norm2, self.conv2, h)
        return add(h, x if self.skip is None else self.skip(x))


def _norm_silu_conv(norm: LayerNormAffine, conv: Conv2dLayer, x: Tensor) -> Tensor:
    return norm_silu_conv2d(x, norm.gain, norm.bias, conv.w, conv.b, padding=conv.padding)


class SpatialAttnBlock:
    """Self-attention, condition cross-attention, and MLP over HW tokens."""

    def __init__(self, rng: Rng, channels: int, cond_dim: int, n_heads: int):
        self.norm1 = LayerNormAffine(channels)
        self.self_attn = Attention(rng.split("self"), channels, channels, n_heads)
        self.norm2 = LayerNormAffine(channels)
        self.cross_attn = Attention(rng.split("cross"), channels, cond_dim, n_heads)
        self.norm3 = LayerNormAffine(channels)
        self.mlp = Mlp(rng.split("mlp"), channels, 4 * channels)

    def __call__(self, x: Tensor, cond: Tensor) -> Tensor:
        n, h, w, c = x.shape
        tokens = reshape(x, (n, h * w, c))
        normed = self.norm1(tokens)
        tokens = add(tokens, self.self_attn(normed, normed))
        tokens = add(tokens, self.cross_attn(self.norm2(tokens), cond))
        tokens = add(tokens, self.mlp(self.norm3(tokens)))
        return reshape(tokens, (n, h, w, c))


class Denoiser:
    """U-shaped eps-prediction network; output shape equals input shape."""

    def __init__(self, rng: Rng, config: ModelConfig):
        den = self.config = config.denoiser
        chans = den.channels()
        levels = len(chans)

        self.time_fc1 = Linear(rng.split("time_fc1"), den.temb_dim, den.temb_dim)
        self.time_fc2 = Linear(rng.split("time_fc2"), den.temb_dim, den.temb_dim)
        self.in_conv = Conv2dLayer(rng.split("in_conv"), config.image_channels, chans[0], 3,
                                   padding=1)

        attends = [config.canvas // 2**lvl in den.attn_resolutions for lvl in range(levels)]

        self.down = []
        for lvl, c in enumerate(chans):
            r = rng.split(f"down{lvl}")
            down_conv = None
            if lvl + 1 < levels:
                down_conv = Conv2dLayer(r.split("down"), c, chans[lvl + 1], 4, stride=2, padding=1)
            self.down.append({"blocks": self._blocks(r, c, c, attends[lvl]), "down": down_conv})

        r = rng.split("middle")
        c_mid = chans[-1]
        self.mid_res1 = ResBlock(r.split("res1"), c_mid, c_mid, den.temb_dim)
        self.mid_attn = SpatialAttnBlock(r.split("attn"), c_mid, den.cond_dim, den.n_heads)
        self.mid_res2 = ResBlock(r.split("res2"), c_mid, c_mid, den.temb_dim)

        self.up = []
        for lvl in reversed(range(levels)):
            r = rng.split(f"up{lvl}")
            c = chans[lvl]
            up_conv = None
            if lvl:
                up_conv = Conv2dLayer(r.split("up"), c, chans[lvl - 1], 3, padding=1)
            # the first block also takes the skip from the down half
            self.up.append({"blocks": self._blocks(r, 2 * c, c, attends[lvl]), "up": up_conv})

        self.out_norm = LayerNormAffine(chans[0])
        self.out_conv = Conv2dLayer(rng.split("out_conv"), chans[0], config.image_channels, 3,
                                    padding=1, zero_init=True)

    def _blocks(self, rng: Rng, c_in: int, c: int, attends: bool) -> list[dict]:
        """A level's entries {"res", and "attn" if it attends}; the first takes ``c_in``."""
        den = self.config
        blocks = []
        for b in range(den.res_blocks):
            entry = {"res": ResBlock(rng.split(f"res{b}"), c if b else c_in, c, den.temb_dim)}
            if attends:
                entry["attn"] = SpatialAttnBlock(rng.split(f"attn{b}"), c, den.cond_dim,
                                                 den.n_heads)
            blocks.append(entry)
        return blocks

    def time_features(self, t) -> Tensor:
        """Activated features silu(time_fc2(silu(time_fc1(emb)))) for every ResBlock."""
        emb = Tensor(timestep_embedding(t, self.config.temb_dim, dtype=self.time_fc1.w.dtype))
        return silu(self.time_fc2(silu(self.time_fc1(emb))))

    def __call__(self, x: Tensor, t, cond: Tensor) -> Tensor:
        """x is (N, C, H, W); t is an int (any 0-d value) or an (N,) array; cond is (N, L, d)."""
        t_arr = np.asarray(t)
        if t_arr.ndim == 0:
            t_arr = np.full(x.shape[0], t_arr, dtype=np.int64)
        if t_arr.shape != (x.shape[0],):
            raise ValueError(f"t batch {t_arr.shape} != input batch {x.shape[0]}")
        temb = self.time_features(t_arr)

        h = self.in_conv(transpose(x, (0, 2, 3, 1)))
        skips = []
        for stage in self.down:
            h = _run_blocks(stage["blocks"], h, temb, cond)
            skips.append(h)
            if stage["down"] is not None:
                h = stage["down"](h)

        h = self.mid_res1(h, temb)
        h = self.mid_attn(h, cond)
        h = self.mid_res2(h, temb)

        for stage in self.up:
            h = _run_blocks(stage["blocks"], concat([h, skips.pop()], axis=-1), temb, cond)
            if stage["up"] is not None:
                h = stage["up"](upsample2x(h))

        return transpose(self.out_conv(silu(self.out_norm(h))), (0, 3, 1, 2))


def _run_blocks(blocks: list[dict], h: Tensor, temb: Tensor, cond: Tensor) -> Tensor:
    for entry in blocks:
        h = entry["res"](h, temb)
        if "attn" in entry:
            h = entry["attn"](h, cond)
    return h
