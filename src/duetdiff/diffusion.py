"""The noise schedule, the forward corruption map, the deterministic DDIM
reverse step, and the SDEdit start of a truncated trajectory.

The schedule is a function of the ``ModelConfig``: ``NoiseSchedule(config)``
builds DDPM's linear betas (Ho et al., arXiv 2006.11239) from its
``total_steps``, ``beta_start`` and ``beta_end``, which the config checks.

Step-index contract: a step ``t`` is an int or a per-row int array in
[1, T], where T is the schedule's ``total_steps``. A reverse step's target
``t_prev`` may also be 0, the clean data, and ``alpha_bar(0) == 1``.
``NoiseSchedule.check_t`` holds this dtype and range check for every caller.
``NoiseSchedule.per_row`` is the one place a step becomes one step per row
of a batch: ``forward_diffuse`` and ``predict_eps`` take either form and
pass it on as an (N,) array. ``ddim_step`` takes one 0-d step for the whole
batch.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .rng import Rng
from .tensor import ShapeError, Tensor, add, mul, scale, sub

if TYPE_CHECKING:
    from .model import ModelConfig


class NoiseSchedule:
    """The DDPM linear schedule of a ``ModelConfig`` and its retention table.

    betas[t-1] is the variance added at step t, linearly interpolated from
    ``beta_start`` to ``beta_end`` inclusive over ``total_steps`` steps;
    ``alpha_bar(t)`` is the cumulative product of (1 - beta) up to t. Tables
    are float64. ``ModelConfig`` checks the three fields when it is built.
    """

    def __init__(self, config: ModelConfig):
        self.betas = np.linspace(config.beta_start, config.beta_end, config.total_steps,
                                 dtype=np.float64)
        self._alpha_bar_table = np.concatenate(([1.0], np.cumprod(1.0 - self.betas)))

    @property
    def total_steps(self) -> int:
        return self.betas.size

    def check_t(self, t, lo: int = 1) -> np.ndarray:
        """``t`` as an integer array, after checking every entry lies in [lo, T]."""
        t_arr = np.asarray(t)
        if not np.issubdtype(t_arr.dtype, np.integer):
            raise TypeError(f"t={t} has dtype {t_arr.dtype}; a step must be an integer")
        if np.any(t_arr < lo) or np.any(t_arr > self.total_steps):
            raise ValueError(f"t={t} outside schedule range [{lo}, {self.total_steps}]")
        return t_arr

    def per_row(self, t, n: int) -> np.ndarray:
        """The checked step ``t`` as an (n,) array: a 0-d step becomes n copies,
        an (n,) array passes through."""
        t_arr = self.check_t(t)
        if t_arr.ndim == 0:
            return np.full(n, t_arr)
        if t_arr.shape != (n,):
            raise ShapeError(f"t shape {t_arr.shape} != ({n},), one step per row")
        return t_arr

    def alpha_bar(self, t) -> float | np.ndarray:
        """Cumulative retention at step t, with alpha_bar(0) == 1."""
        return self._alpha_bar_table[self.check_t(t, lo=0)]


def forward_diffuse(x0: Tensor, t, eps: Tensor, sched: NoiseSchedule) -> Tensor:
    """Jump straight from clean data to the step-t corrupted sample.

    t may be an int (or 0-d array) for the whole batch, or an (N,) array
    with one step per row of an (N, ...) ``x0``; ``per_row`` decides which.
    """
    if eps.shape != x0.shape:
        raise ShapeError(f"forward_diffuse: eps shape {eps.shape} != x0 shape {x0.shape}")
    abar = sched.alpha_bar(sched.per_row(t, x0.shape[0]))
    # one coefficient per row
    shape = (-1,) + (1,) * (x0.ndim - 1)
    c_signal = np.sqrt(abar).reshape(shape).astype(x0.dtype)
    c_noise = np.sqrt(1.0 - abar).reshape(shape).astype(x0.dtype)
    return add(mul(x0, Tensor(c_signal)), mul(eps, Tensor(c_noise)))


def ddim_step(xt: Tensor, t: int, t_prev: int, eps_pred: Tensor, sched: NoiseSchedule) -> Tensor:
    """Deterministic reverse jump t -> t_prev (eta = 0).

    ``alpha_bar`` range-checks both steps, so with ``t_prev < t`` this
    accepts exactly 0 <= t_prev < t <= T.
    """
    # one step for the whole batch, never one per row
    for name, value in (("t", t), ("t_prev", t_prev)):
        if np.ndim(value):
            raise ShapeError(f"ddim_step: {name} must be a single step (0-d), "
                             f"got shape {np.shape(value)}")
    if not t_prev < t:
        raise ValueError(f"ddim_step: need t_prev < t, got ({t_prev}, {t})")
    if eps_pred.shape != xt.shape:
        raise ShapeError("ddim_step: eps_pred shape mismatch")
    abar_t = sched.alpha_bar(t)
    abar_prev = sched.alpha_bar(t_prev)
    x0_hat = scale(sub(xt, scale(eps_pred, math.sqrt(1.0 - abar_t))), 1.0 / math.sqrt(abar_t))
    return add(scale(x0_hat, math.sqrt(abar_prev)), scale(eps_pred, math.sqrt(1.0 - abar_prev)))


def sdedit_init(source: Tensor, strength: float, step_times: list[int],
                sched: NoiseSchedule, rng: Rng) -> tuple[Tensor, int]:
    """Partially noise the source image to start a truncated trajectory.

    ``source`` is the (N, image_channels, H, W) image being translated,
    not the 1-channel layout silhouette.
    Returns (x_start, start_index): sampling covers only the final
    ``start_index`` entries of the descending ``step_times`` list, and
    start_index = floor(strength * N). strength 0 skips denoising entirely;
    strength 1 starts from the noisiest sampler time.
    """
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must lie in [0, 1], got {strength}")
    n = len(step_times)
    # tiny epsilon guards against float-down (e.g. 0.7 * 50 -> 34.999...)
    start_index = int(math.floor(strength * n + 1e-9))
    if start_index == 0:
        return source, 0
    t_start = step_times[n - start_index]
    eps = Tensor(rng.gaussian(source.shape, dtype=source.data.dtype))
    return forward_diffuse(source, t_start, eps, sched), start_index
