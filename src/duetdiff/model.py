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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conditioning import Conditioner, PromptVocab
from .denoiser import Denoiser, DenoiserConfig
from .diffusion import NoiseSchedule, linear_schedule
from .nn import named_params
from .rng import Rng
from .tensor import Tensor


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


class DiffusionModel:
    """Conditioned denoiser with its schedule, vocab, and tensor registry."""

    def __init__(self, config: ModelConfig, rng: Rng | None = None, dtype=np.float32):
        self.config = config
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.float32, np.float64):
            raise ValueError(f"model dtype must be float32 or float64, got {self.dtype}")
        self.vocab = PromptVocab(text_len=config.text_len)
        self.schedule: NoiseSchedule = linear_schedule(
            config.total_steps, config.beta_start, config.beta_end
        )
        rng = rng or Rng(0)
        self.conditioner = Conditioner(
            rng.split("conditioner"),
            self.vocab,
            canvas=config.canvas,
            cond_channels=config.cond_channels,
            d_embed=config.d_embed,
            encoder_channels=config.encoder_channels,
            encoder_out_channels=config.encoder_out_channels,
            n_layers=config.fusion_layers,
            n_heads=config.fusion_heads,
            d_hidden=config.fusion_hidden,
        )
        if config.denoiser.cond_dim != config.d_embed:
            raise ValueError("denoiser cond_dim must equal d_embed")
        if config.denoiser.in_channels != config.image_channels:
            raise ValueError("denoiser in_channels must equal image_channels")
        self.denoiser = Denoiser(rng.split("denoiser"), config.denoiser, config.canvas)
        for t in self._tensors().values():
            t.data = t.data.astype(self.dtype, copy=False)

    # -- registries ---------------------------------------------------------

    def _tensors(self) -> dict[str, Tensor]:
        return {**named_params(self.conditioner, "cond"), **named_params(self.denoiser, "denoiser")}

    def params(self) -> dict[str, Tensor]:
        return {name: t for name, t in self._tensors().items() if t.requires_grad}

    def buffers(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self._tensors().items() if not t.requires_grad}

    def param_count(self) -> int:
        return sum(p.size for p in self.params().values())

    def load_tensors(self, tensors: dict[str, np.ndarray]) -> None:
        """Copy named arrays into parameters and frozen buffers.

        Every entry is checked before any is copied: a missing, mis-shaped
        or non-finite entry raises with its name and leaves the model as it
        was. Names the model does not register are ignored.
        """
        targets = {name: t.data for name, t in self._tensors().items()}
        for name, dst in targets.items():
            if name not in tensors:
                raise KeyError(f"checkpoint missing '{name}'")
            src = np.asarray(tensors[name])
            if src.shape != dst.shape:
                raise ValueError(f"shape mismatch for '{name}': {src.shape} vs {dst.shape}")
            if not np.all(np.isfinite(src)):
                raise ValueError(f"non-finite values in '{name}'")
        for name, dst in targets.items():
            dst[...] = tensors[name]

    # -- prediction ---------------------------------------------------------

    def predict_eps(self, x_t: Tensor, t, cond: Tensor) -> Tensor:
        """eps prediction for x_t (N, C, H, W) at step(s) t under cond (N, L, d).

        t is an int or a per-row int array in [1, T].
        """
        c, hw = self.config.image_channels, self.config.canvas
        if x_t.shape[1:] != (c, hw, hw):
            raise ValueError(f"x_t shape {x_t.shape} != (N, {c}, {hw}, {hw})")
        seq, d = self.vocab.text_len + self.conditioner.image_tokens, self.config.d_embed
        if cond.shape != (x_t.shape[0], seq, d):
            raise ValueError(f"condition shape {cond.shape} != ({x_t.shape[0]}, {seq}, {d})")
        for arg, value in (("x_t", x_t), ("cond", cond)):
            if value.dtype != self.dtype:
                raise TypeError(f"predict_eps: {arg} dtype {value.dtype} != model dtype {self.dtype}")
        self.schedule.check_t(t)
        return self.denoiser(x_t, t, cond)
