"""The full generative bundle: schedule + conditioner + denoiser.

Everything the model holds is reachable through one named registry, so
the optimizer and the checkpoint format share a single source of truth.
``nn.named_params`` builds it by walking attributes: a name is the
attribute path under ``cond`` or ``denoiser``, with list indices and dict
keys as segments (``denoiser.down.1.blocks.0.attn.cross_attn.q.w``). Conv
kernels are stored channels-last, (kh, kw, C_in, C_out). Every leaf is a
Tensor: ``params()`` are the tracked leaves, the weights that train, and
``buffers()`` the untracked ones as arrays (the frozen prompt table).

Precision is decided here and nowhere else. The layers build every tensor
at float64, and ``DiffusionModel`` casts each registered tensor once to
its ``dtype``. The layers read any run-time dtype from those tensors, and
``predict_eps`` and ``Conditioner.encode_image`` reject input of another
dtype by name.

``ModelConfig`` holds every size, the noise schedule's included, and
rejects a bad one when it is built: every field has its annotated type,
every size is an int of at least 1, the betas lie in (0, 1) and do not
fall, and the sizes fit together.
``Conditioner``, ``Denoiser`` and ``NoiseSchedule`` take the config and
read the sizes they use from it, and each derived size (the image-token
count, the U-Net levels that attend, the betas) is worked out once, where
it is used. So the config alone rebuilds the model's shapes and its schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .conditioning import TOKENS, Conditioner
from .denoiser import Denoiser, DenoiserConfig
from .diffusion import NoiseSchedule
from .nn import named_params
from .rng import Rng
from .tensor import Tensor, check_entries


@dataclass(frozen=True)
class ModelConfig:
    canvas: int = 16
    image_channels: int = 3
    cond_channels: int = 1
    d_embed: int = 64
    text_len: int = 8
    fusion_layers: int = 2
    fusion_heads: int = 4
    fusion_hidden: int = 256
    encoder_channels: tuple[int, ...] = (16, 32)
    encoder_out_channels: int = 32
    denoiser: DenoiserConfig = field(default_factory=DenoiserConfig)
    total_steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02

    def __post_init__(self):
        """Reject a field of another type, or sizes that would build a model that
        fails later or drops layers."""
        # every field has its annotated type, the nested config included, and
        # every size, and every entry of a tuple of sizes, is an int of at least 1
        for cfg, prefix in ((self, ""), (self.denoiser, "denoiser.")):
            for f in fields(cfg):
                # annotations are strings here (postponed evaluation)
                value, is_int = getattr(cfg, f.name), f.type == "int"
                if f.type == "DenoiserConfig" and not isinstance(value, DenoiserConfig):
                    raise TypeError(f"{prefix}{f.name} must be a DenoiserConfig, got {value!r}")
                if f.type == "float" and type(value) not in (int, float):
                    raise TypeError(f"{prefix}{f.name} must be a number, got {value!r}")
                if not is_int and f.type != "tuple[int, ...]":
                    continue
                entries = (value,) if is_int else value
                if not (is_int or type(value) is tuple) or any(type(v) is not int for v in entries):
                    kind = "an int" if is_int else "a tuple of ints"
                    raise TypeError(f"{prefix}{f.name} must be {kind}, got {value!r}")
                if any(v < 1 for v in entries):
                    raise ValueError(f"{prefix}{f.name} must be at least 1, got {value}")
        if not 0.0 < self.beta_start <= self.beta_end < 1.0:
            raise ValueError(f"need 0 < beta_start <= beta_end < 1, got beta_start "
                             f"{self.beta_start} and beta_end {self.beta_end}")
        den = self.denoiser
        if not den.channel_mult:
            raise ValueError("denoiser.channel_mult must name at least one U-Net level")
        chans = den.channels()
        factor = 2 ** (len(chans) - 1)
        if self.canvas % factor:
            raise ValueError(f"canvas {self.canvas} not divisible by the denoiser's downsampling "
                             f"factor {factor} (denoiser.channel_mult)")
        stride = 2 ** len(self.encoder_channels)
        if self.canvas % stride:
            raise ValueError(f"canvas {self.canvas} not divisible by the image encoder's stride "
                             f"{stride} (encoder_channels)")
        resolutions = [self.canvas // 2**lvl for lvl in range(len(chans))]
        if not set(den.attn_resolutions) <= set(resolutions):
            raise ValueError(f"denoiser.attn_resolutions {den.attn_resolutions} must be U-Net "
                             f"resolutions of canvas {self.canvas}: {resolutions}")
        # the middle block attends at every configuration
        attn_chans = {c for c, res in zip(chans, resolutions) if res in den.attn_resolutions}
        attn_chans.add(chans[-1])
        if any(c % den.n_heads for c in attn_chans):
            raise ValueError(f"denoiser.n_heads {den.n_heads} must divide the attention "
                             f"channels {sorted(attn_chans)}")
        if den.temb_dim % 2:
            raise ValueError(f"denoiser.temb_dim must be even, got {den.temb_dim}")
        if den.cond_dim != self.d_embed:
            raise ValueError(f"denoiser.cond_dim {den.cond_dim} != d_embed {self.d_embed}")
        if self.d_embed < len(TOKENS):
            raise ValueError(f"d_embed {self.d_embed} must be at least the {len(TOKENS)} prompt "
                             f"tokens {TOKENS}: the frozen prompt table has one orthonormal row each")
        if self.d_embed % self.fusion_heads:
            raise ValueError(f"fusion_heads {self.fusion_heads} must divide d_embed {self.d_embed}")


class DiffusionModel:
    """Conditioned denoiser with its schedule and tensor registry."""

    def __init__(self, config: ModelConfig, rng: Rng | None = None, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise ValueError(f"model dtype must be float32 or float64, got {self.dtype}")
        self.schedule = NoiseSchedule(config)
        rng = rng or Rng(0)
        self.conditioner = Conditioner(rng.split("conditioner"), config)
        self.denoiser = Denoiser(rng.split("denoiser"), config)
        for t in self._tensors().values():
            t.data = t.data.astype(self.dtype, copy=False)

    # -- registries ---------------------------------------------------------

    def _tensors(self) -> dict[str, Tensor]:
        return {**named_params(self.conditioner, "cond"), **named_params(self.denoiser, "denoiser")}

    def params(self) -> dict[str, Tensor]:
        return {name: t for name, t in self._tensors().items() if t.requires_grad}

    def buffers(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self._tensors().items() if not t.requires_grad}

    def load_tensors(self, tensors: dict[str, np.ndarray]) -> None:
        """Copy named arrays into parameters and frozen buffers.

        Every entry is checked before any is copied: a missing, mis-shaped
        or non-finite entry raises with its name and leaves the model as it
        was. Names the model does not register are ignored.
        """
        targets = {name: t.data for name, t in self._tensors().items()}
        check_entries("load_tensors: entry", tensors, {name: dst.shape for name, dst in targets.items()})
        for name, dst in targets.items():
            dst[...] = tensors[name]

    # -- prediction ---------------------------------------------------------

    def predict_eps(self, x_t: Tensor, t, cond: Tensor) -> Tensor:
        """eps prediction for x_t (N, C, H, W) at step(s) t under cond (N, L, d).

        t is an int or a per-row int array in [1, T]; the schedule's ``per_row``
        hands the denoiser one step per row.
        """
        c, hw = self.config.image_channels, self.config.canvas
        if x_t.shape[1:] != (c, hw, hw):
            raise ValueError(f"x_t shape {x_t.shape} != (N, {c}, {hw}, {hw})")
        seq, d = self.conditioner.fusion.seq_len, self.config.d_embed
        if cond.shape != (x_t.shape[0], seq, d):
            raise ValueError(f"condition shape {cond.shape} != ({x_t.shape[0]}, {seq}, {d})")
        for arg, value in (("x_t", x_t), ("cond", cond)):
            if value.dtype != self.dtype:
                raise TypeError(f"predict_eps: {arg} dtype {value.dtype} != model dtype {self.dtype}")
        return self.denoiser(x_t, self.schedule.per_row(t, x_t.shape[0]), cond)
