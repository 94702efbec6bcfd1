"""Trainer step and guided sampler composed from the library's public calls.

The library has no trainer or sampler yet, so the benchmark carries the
glue: the eps-MSE loss, the map from Tensor-keyed to name-keyed gradients,
and the two-scale guidance combination. Every call into a library layer
sits in a span named after that layer; with a ``NullTracer`` the spans
cost one attribute lookup each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from duetdiff.diffusion import ddim_step, forward_diffuse
from duetdiff.optim import clip_global_norm
from duetdiff.tensor import GradTape, Tensor, add, mul, scale, sub, tmean

DROP_TEXT = 0.1
DROP_IMAGE = 0.1
MAX_GRAD_NORM = 1.0
LEARNING_RATE = 2e-4
SAMPLE_STEPS = 20
S_IMG = 1.5
S_TXT = 7.5


@dataclass
class Batch:
    """Generated conditioning inputs; ``x0`` is only used for training."""

    prompts: list[list[str]]
    layouts: Tensor
    x0: Tensor | None = None

    def rows(self, start: int, stop: int) -> "Batch":
        x0 = None if self.x0 is None else Tensor(self.x0.data[start:stop])
        return Batch(self.prompts[start:stop], Tensor(self.layouts.data[start:stop]), x0)


def eps_mse(eps_hat: Tensor, eps: Tensor) -> Tensor:
    diff = sub(eps_hat, eps)
    return tmean(mul(diff, diff))


def loss_and_grads(model, params: dict, batch: Batch, rng, tracer):
    """Forward and backward of one eps-MSE step; returns (loss, name -> grad).

    Draw order from ``rng`` is fixed: t, noise, then the dropout uniforms.
    """
    cond = model.conditioner
    n = len(batch.prompts)
    with tracer.span("rng.draw"):
        t = rng.integers(n, model.schedule.total_steps) + 1
        eps = Tensor(rng.gaussian(batch.x0.shape, dtype=model.dtype))
    with GradTape() as tape:
        with tracer.span("conditioning.encode"):
            text = cond.encode_prompt(batch.prompts)
            image = cond.encode_image(batch.layouts)
        with tracer.span("conditioning.dropout"):
            text, image, _ = cond.apply_condition_dropout(text, image, rng, DROP_TEXT, DROP_IMAGE)
        with tracer.span("conditioning.fuse"):
            c = cond.fuse(text, image)
        with tracer.span("diffusion.forward_diffuse"):
            x_t = forward_diffuse(batch.x0, t, eps, model.schedule)
        with tracer.span("denoiser.forward", rows=n):
            eps_hat = model.predict_eps(x_t, t, c)
        loss = eps_mse(eps_hat, eps)
    with tracer.span("tensor.backward"):
        by_tensor = tape.backward(loss)
    grads = {name: by_tensor[p] for name, p in params.items() if p in by_tensor}
    return loss.item(), grads


def train_step(model, params: dict, opt, batch: Batch, rng, tracer) -> tuple[float, float]:
    """One optimizer step; returns (loss, pre-clip global grad norm)."""
    loss, grads = loss_and_grads(model, params, batch, rng, tracer)
    with tracer.span("optim.clip"):
        norm = clip_global_norm(grads, MAX_GRAD_NORM)
    with tracer.span("optim.adam"):
        opt.step(grads)
    return loss, norm


def step_times(total_steps: int, n_steps: int) -> list[int]:
    """Evenly spaced descending DDIM times, ending at step 0."""
    stride = total_steps // n_steps
    return list(range(total_steps, 0, -stride))[:n_steps] + [0]


def guide(eps_joint: Tensor, eps_img: Tensor, eps_null: Tensor) -> Tensor:
    """eps_null + s_img (eps_img - eps_null) + s_txt (eps_joint - eps_img)."""
    return add(eps_null, add(scale(sub(eps_img, eps_null), S_IMG),
                             scale(sub(eps_joint, eps_img), S_TXT)))


def sample(model, batch: Batch, x_T: np.ndarray, tracer, n_steps: int | None = None) -> np.ndarray:
    """Guided DDIM from noise ``x_T``; three denoiser calls per step.

    The condition embeddings are fused once per request. ``n_steps``
    defaults to ``SAMPLE_STEPS``, read at call time.
    """
    cond = model.conditioner
    n = len(batch.prompts)
    with tracer.span("conditioning.fuse_joint"):
        c_joint = cond.fuse_joint(batch.prompts, batch.layouts)
    with tracer.span("conditioning.fuse_image_only"):
        c_img = cond.fuse_image_only(batch.layouts)
    with tracer.span("conditioning.fuse_null"):
        c_null = cond.fuse_null(n)
    x = Tensor(x_T)
    times = step_times(model.schedule.total_steps, n_steps or SAMPLE_STEPS)
    for t, t_prev in zip(times, times[1:]):
        branches = []
        for c in (c_joint, c_img, c_null):
            with tracer.span("denoiser.forward", rows=n):
                branches.append(model.predict_eps(x, t, c))
        with tracer.span("sample.guidance"):
            eps = guide(*branches)
        with tracer.span("diffusion.ddim_step"):
            x = ddim_step(x, t, t_prev, eps, model.schedule)
    return x.data


def noise_shape(model, rows: int) -> tuple[int, int, int, int]:
    cfg = model.config
    return (rows, cfg.image_channels, cfg.canvas, cfg.canvas)


def sample_request(model, batch: Batch, rng, tracer) -> np.ndarray:
    """One sampling request: draw the starting noise, then run the sampler."""
    with tracer.span("rng.draw"):
        x_T = rng.gaussian(noise_shape(model, len(batch.prompts)), dtype=model.dtype)
    return sample(model, batch, x_T, tracer)
