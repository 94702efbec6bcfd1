"""The tiny model config the tests build.

It keeps the default topology (two U-Net levels of two res blocks,
attention on the lower level, two fusion layers) at a 12x12 canvas, so it
registers the same 300 parameter names as the default config.
"""

from duetdiff.denoiser import DenoiserConfig
from duetdiff.model import ModelConfig

TINY = ModelConfig(
    canvas=12, d_embed=16, fusion_heads=2, fusion_hidden=32,
    encoder_channels=(4, 8), encoder_out_channels=8,
    denoiser=DenoiserConfig(base_channels=4, attn_resolutions=(6,), temb_dim=16,
                            cond_dim=16, n_heads=2),
)
