"""Joint text+image conditioning: encoders, fusion, nulls, and dropout.

A frozen embedding table stands in for a pretrained text encoder: its rows
are the words ``synthdata`` writes into prompts, with PAD at id 0. A small
trainable conv stack summarizes the condition image into spatial tokens; a
fusion transformer maps the concatenated token sequence into one joint
embedding. Nulling either side (padded prompt, learnable empty-image
block) gives the unconditional variants used for guidance and for
train-time condition dropout.

``Conditioner`` reads its sizes from the ``ModelConfig``; the sublayers
take theirs as arguments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .nn import Conv2dLayer, LayerNormAffine, Linear, TransformerBlock, trunc_normal
from .rng import Rng
from .synthdata import COLOR_NAMES, SHAPES
from .tensor import Tensor, add, concat, mul, reshape, silu, transpose

if TYPE_CHECKING:
    from .model import ModelConfig


PAD_TOKEN = "<pad>"
TOKENS = (PAD_TOKEN, *COLOR_NAMES, *SHAPES)
_TOKEN_IDS = {tok: i for i, tok in enumerate(TOKENS)}


def frozen_orthogonal_table(rng: Rng, vocab_size: int, d_embed: int) -> np.ndarray:
    """Random table with orthonormal rows (modified Gram-Schmidt at 64-bit)."""
    if vocab_size > d_embed:
        raise ValueError("orthonormal rows need vocab_size <= d_embed")
    raw = rng.gaussian((vocab_size, d_embed), dtype=np.float64)
    for i in range(vocab_size):
        for j in range(i):
            raw[i] -= np.dot(raw[i], raw[j]) * raw[j]
        raw[i] /= np.linalg.norm(raw[i])
    return raw


class ImageEncoder:
    """Conv stack: stride-2 residual blocks, an output conv, a linear head.

    The cells of the final grid become the image tokens, one per cell.
    """

    def __init__(self, rng: Rng, in_channels: int, channels: tuple[int, ...], out_channels: int,
                 d_embed: int):
        self.blocks = []
        c_prev = in_channels
        for i, c in enumerate(channels):
            r = rng.split(f"block{i}")
            self.blocks.append({
                "conv1": Conv2dLayer(r.split("conv1"), c_prev, c, 4, stride=2, padding=1),
                "conv2": Conv2dLayer(r.split("conv2"), c, c, 3, stride=1, padding=1),
                "skip": Conv2dLayer(r.split("skip"), c_prev, c, 2, stride=2, padding=0),
            })
            c_prev = c
        self.out_layer = Conv2dLayer(rng.split("out_layer"), c_prev, out_channels, 3,
                                     stride=1, padding=1)
        self.proj = Linear(rng.split("proj"), out_channels, d_embed)

    def __call__(self, x: Tensor) -> Tensor:
        """(B, C, H, W) -> (B, tokens, d) spatially ordered row-major."""
        x = transpose(x, (0, 2, 3, 1))
        for blk in self.blocks:
            hidden = blk["conv2"](silu(blk["conv1"](x)))
            x = silu(add(hidden, blk["skip"](x)))
        x = self.out_layer(x)
        n, h, w, c = x.shape
        return self.proj(reshape(x, (n, h * w, c)))


class FusionTransformer:
    """Pre-norm transformer over the concatenated text+image tokens."""

    def __init__(self, rng: Rng, seq_len: int, d_embed: int, n_layers: int,
                 n_heads: int, d_hidden: int):
        self.seq_len = seq_len
        self.pos = Tensor(trunc_normal(rng.split("pos"), (seq_len, d_embed)), requires_grad=True)
        self.layers = [
            TransformerBlock(rng.split(f"layer{i}"), d_embed, n_heads, d_hidden)
            for i in range(n_layers)
        ]
        self.final_norm = LayerNormAffine(d_embed)

    def __call__(self, tokens: Tensor) -> Tensor:
        if tokens.shape[-2] != self.seq_len:
            raise ValueError(
                f"sequence length {tokens.shape[-2]} != positional embedding length {self.seq_len}"
            )
        x = add(tokens, self.pos)
        for layer in self.layers:
            x = layer(x)
        return self.final_norm(x)


class Conditioner:
    """Bundles the encoders, fusion transformer, and null embeddings."""

    def __init__(self, rng: Rng, config: ModelConfig):
        self.text_len = config.text_len
        self.image_shape = (config.cond_channels, config.canvas, config.canvas)
        self.prompt_table = Tensor(frozen_orthogonal_table(rng.split("prompt"), len(TOKENS),
                                                           config.d_embed))
        self.image_encoder = ImageEncoder(rng.split("image"), config.cond_channels,
                                          config.encoder_channels, config.encoder_out_channels,
                                          config.d_embed)
        # one token per cell of the encoder's last grid; each block halves the canvas
        image_tokens = (config.canvas // 2 ** len(config.encoder_channels)) ** 2
        self.fusion = FusionTransformer(rng.split("fusion"), self.text_len + image_tokens,
                                        config.d_embed, config.fusion_layers,
                                        config.fusion_heads, config.fusion_hidden)
        self.null_image = Tensor(
            trunc_normal(rng.split("null_image"), (image_tokens, config.d_embed)),
            requires_grad=True,
        )

    # -- encoders ---------------------------------------------------------

    def encode_prompt(self, prompts: list[list[str]]) -> Tensor:
        """(B, text_len, d) frozen table rows; each prompt is right-padded
        with PAD, so the empty prompt is all PAD (the text null)."""
        ids = np.zeros((len(prompts), self.text_len), dtype=np.int64)
        for row, prompt in zip(ids, prompts):
            if len(prompt) > self.text_len:
                raise ValueError(f"prompt longer than text_len={self.text_len}: {prompt}")
            for i, tok in enumerate(prompt):
                if tok not in _TOKEN_IDS:
                    raise KeyError(f"unknown token {tok!r}")
                row[i] = _TOKEN_IDS[tok]
        return Tensor(self.prompt_table.data[ids])

    def null_text(self, batch: int) -> Tensor:
        return self.encode_prompt([[]] * batch)

    def encode_image(self, images: Tensor) -> Tensor:
        """(B, cond_channels, canvas, canvas) silhouettes -> (B, image_tokens, d)."""
        if images.shape[1:] != self.image_shape:
            c, hw, _ = self.image_shape
            raise ValueError(f"encode_image: images shape {images.shape} != (N, {c}, {hw}, {hw})")
        if images.dtype != self.null_image.dtype:
            raise TypeError(
                f"encode_image: images dtype {images.dtype} != model dtype {self.null_image.dtype}"
            )
        return self.image_encoder(images)

    def null_image_batch(self, batch: int) -> Tensor:
        block = reshape(self.null_image, (1,) + self.null_image.shape)
        ones = Tensor(np.ones((batch, 1, 1), dtype=self.null_image.dtype))
        return mul(block, ones)

    # -- fusion -----------------------------------------------------------

    def fuse(self, text_emb: Tensor, image_emb: Tensor) -> Tensor:
        """(B, text_len, d) + (B, image_tokens, d) -> (B, text_len+image_tokens, d)."""
        return self.fusion(concat([text_emb, image_emb], axis=-2))

    def fuse_joint(self, prompts: list[list[str]], images: Tensor) -> Tensor:
        return self.fuse(self.encode_prompt(prompts), self.encode_image(images))

    def fuse_text_only(self, prompts: list[list[str]]) -> Tensor:
        return self.fuse(self.encode_prompt(prompts), self.null_image_batch(len(prompts)))

    def fuse_image_only(self, images: Tensor) -> Tensor:
        return self.fuse(self.null_text(images.shape[0]), self.encode_image(images))

    def fuse_null(self, batch: int) -> Tensor:
        """Fully unconditional embedding: padded prompt + empty-image block."""
        return self.fuse(self.null_text(batch), self.null_image_batch(batch))

    # -- train-time dropout -------------------------------------------------

    def apply_condition_dropout(self, text_emb: Tensor, image_emb: Tensor, rng: Rng,
                                drop_text: float, drop_image: float):
        """Independently null each condition per sample.

        Per sample two uniforms are drawn in order (text, image); a draw
        below the rate swaps in the corresponding null embedding. Returns
        (text_emb', image_emb', (text_dropped, image_dropped)) with boolean
        flag arrays.
        """
        if not (0.0 <= drop_text <= 1.0 and 0.0 <= drop_image <= 1.0):
            raise ValueError("dropout rates must lie in [0, 1]")
        batch = text_emb.shape[0]
        u = rng.uniform(2 * batch)
        text_dropped = u[0::2] < drop_text
        image_dropped = u[1::2] < drop_image
        text_out = _swap_rows(text_emb, self.null_text(batch), text_dropped)
        image_out = _swap_rows(image_emb, self.null_image_batch(batch), image_dropped)
        return text_out, image_out, (text_dropped, image_dropped)


def _swap_rows(emb: Tensor, null: Tensor, dropped: np.ndarray) -> Tensor:
    """emb with the rows flagged in ``dropped`` replaced by those of ``null``."""
    keep = Tensor((~dropped).astype(emb.dtype)[:, None, None])
    drop = Tensor(dropped.astype(emb.dtype)[:, None, None])
    return add(mul(emb, keep), mul(null, drop))
