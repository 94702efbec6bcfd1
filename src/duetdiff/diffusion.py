"""Noise schedules, the forward corruption map, and reverse-step rules.

Step-index contract: a step ``t`` is an int or a per-row int array in
[1, T], where T is the schedule's ``total_steps``. A reverse step's target
``t_prev`` may also be 0, the clean data, and ``alpha_bar(0) == 1``.
``NoiseSchedule.check_t`` holds this dtype and range check for every caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import Rng
from .tensor import ShapeError, Tensor, add, mul, scale, sub


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Per-step noise variances and the derived signal-retention table.

    betas[t-1] is the variance added at step t; alpha_bars[t-1] is the
    cumulative product of (1 - beta) up to t. Tables are float64.
    Equality and hashing are by identity; compare ``betas`` with
    ``np.array_equal`` for equal values.
    """

    betas: np.ndarray
    alpha_bars: np.ndarray = field(init=False)
    _alpha_bar_table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("betas must be a non-empty 1-D array")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValueError("betas must lie strictly inside (0, 1)")
        table = np.concatenate(([1.0], np.cumprod(1.0 - betas)))
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alpha_bars", table[1:])
        object.__setattr__(self, "_alpha_bar_table", table)

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

    def alpha_bar(self, t) -> float | np.ndarray:
        """Cumulative retention at step t, with alpha_bar(0) == 1."""
        out = self._alpha_bar_table[self.check_t(t, lo=0)]
        return out if isinstance(out, np.ndarray) else float(out)


def linear_schedule(total_steps: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    """Betas linearly interpolated between the endpoints, inclusive."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    return NoiseSchedule(np.linspace(beta_start, beta_end, total_steps, dtype=np.float64))


def forward_diffuse(x0: Tensor, t, eps: Tensor, sched: NoiseSchedule) -> Tensor:
    """Jump straight from clean data to the step-t corrupted sample.

    t may be an int (or 0-d array) for the whole batch, or an (N,) array
    with one step per row of an (N, ...) ``x0``.
    """
    if eps.shape != x0.shape:
        raise ShapeError(f"forward_diffuse: eps shape {eps.shape} != x0 shape {x0.shape}")
    t_arr = sched.check_t(t)
    if t_arr.ndim and t_arr.shape != x0.shape[:1]:
        raise ShapeError(f"forward_diffuse: t shape {t_arr.shape} != ({x0.shape[0]},), "
                         f"one step per row of x0")
    abar = sched.alpha_bar(t)
    # one coefficient per row; an int t gives one for the whole batch
    shape = (-1,) + (1,) * (x0.ndim - 1)
    c_signal = np.sqrt(abar).reshape(shape).astype(x0.dtype)
    c_noise = np.sqrt(1.0 - abar).reshape(shape).astype(x0.dtype)
    return add(mul(x0, Tensor(c_signal)), mul(eps, Tensor(c_noise)))


def ddpm_step(xt: Tensor, t: int, eps_pred: Tensor, noise: Tensor | None, sched: NoiseSchedule) -> Tensor:
    """One ancestral reverse step t -> t-1 with fixed variance beta_t.

    The injected noise is suppressed at t == 1 (the final step is the
    deterministic mean).
    """
    sched.check_t(t)
    if eps_pred.shape != xt.shape:
        raise ShapeError("ddpm_step: eps_pred shape mismatch")
    beta = float(sched.betas[t - 1])
    abar = sched.alpha_bar(t)
    mean = scale(sub(xt, scale(eps_pred, beta / math.sqrt(1.0 - abar))), 1.0 / math.sqrt(1.0 - beta))
    if t == 1 or noise is None:
        return mean
    if noise.shape != xt.shape:
        raise ShapeError("ddpm_step: noise shape mismatch")
    return add(mean, scale(noise, math.sqrt(beta)))


def ddim_step(xt: Tensor, t: int, t_prev: int, eps_pred: Tensor, sched: NoiseSchedule) -> Tensor:
    """Deterministic reverse jump t -> t_prev (eta = 0).

    ``alpha_bar`` range-checks both steps, so with ``t_prev < t`` this
    accepts exactly 0 <= t_prev < t <= T.
    """
    if not t_prev < t:
        raise ValueError(f"ddim_step: need t_prev < t, got ({t_prev}, {t})")
    if eps_pred.shape != xt.shape:
        raise ShapeError("ddim_step: eps_pred shape mismatch")
    abar_t = sched.alpha_bar(t)
    abar_prev = sched.alpha_bar(t_prev)
    x0_hat = scale(sub(xt, scale(eps_pred, math.sqrt(1.0 - abar_t))), 1.0 / math.sqrt(abar_t))
    return add(scale(x0_hat, math.sqrt(abar_prev)), scale(eps_pred, math.sqrt(1.0 - abar_prev)))


def sdedit_init(cond_image: Tensor, strength: float, step_times: list[int],
                sched: NoiseSchedule, rng: Rng) -> tuple[Tensor, int]:
    """Partially noise a condition image to start a truncated trajectory.

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
        return cond_image, 0
    t_start = step_times[n - start_index]
    eps = Tensor(rng.gaussian(cond_image.shape, dtype=cond_image.data.dtype))
    return forward_diffuse(cond_image, t_start, eps, sched), start_index
