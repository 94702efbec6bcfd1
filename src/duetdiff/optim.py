"""Adam with bias correction and constant betas and eps, plus global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .tensor import NonFiniteError, Tensor, check_entries

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def _check_positive(name: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


class Adam:
    """Standard Adam over a named parameter dict; state updates in place.

    The betas (0.9, 0.999) and eps (1e-8) are fixed; ``lr`` must be finite
    and positive.
    """

    def __init__(self, params: dict[str, Tensor], lr: float):
        _check_positive("lr", lr)
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update; ``grads`` holds one entry for every parameter.

        Every entry is checked before anything changes: its name must be a
        parameter's, its shape that parameter's and its values finite, and
        no parameter may lack one. A failure names the entries at fault and
        leaves the parameters, the moments and ``step_count`` as they were.
        """
        for name in grads:
            if name not in self.params:
                raise KeyError(f"adam: gradient for unknown parameter '{name}'")
        check_entries("adam: gradient", grads, {name: p.data.shape for name, p in self.params.items()})
        self.step_count += 1
        c1 = 1.0 - _BETA1 ** self.step_count
        c2 = 1.0 - _BETA2 ** self.step_count
        for name, param in self.params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            param.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + _EPS)

    def load_state(self, m: dict[str, np.ndarray], v: dict[str, np.ndarray], step_count: int) -> None:
        """Replace the moments and the step count.

        Every entry is checked before any is copied: each parameter needs an
        ``m`` and a ``v`` of its shape with finite values, each ``v`` must
        be >= 0, and ``step_count`` an integer >= 0. A failure names the
        entry and leaves the state as it was.
        """
        if not isinstance(step_count, (int, np.integer)) or step_count < 0:
            raise ValueError(f"adam: step_count must be an integer >= 0, got {step_count!r}")
        shapes = {name: p.data.shape for name, p in self.params.items()}
        check_entries("adam: m", m, shapes)
        check_entries("adam: v", v, shapes)
        for name in self.params:
            if np.any(np.asarray(v[name]) < 0):
                raise ValueError(f"adam: negative values in v for '{name}'")
        for name in self.params:
            self.m[name] = np.array(m[name], dtype=self.m[name].dtype)
            self.v[name] = np.array(v[name], dtype=self.v[name].dtype)
        self.step_count = int(step_count)


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    ``max_norm`` must be finite and positive. Returns the pre-clip norm;
    the dict entries are replaced when clipping.
    The squares are summed in float64, so finite float32 gradients cannot
    overflow the norm. A non-finite gradient raises ``NonFiniteError``
    naming the first such entry, and so does a float64 norm that overflows;
    nothing is scaled then.
    """
    _check_positive("max_norm", max_norm)
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite total raises below
        for g in grads.values():
            flat = g.astype(np.float64, copy=False).reshape(-1)
            total += float(flat @ flat)
    if not np.isfinite(total):
        check_entries("clip_global_norm: gradient", grads, {name: g.shape for name, g in grads.items()})
        raise NonFiniteError("clip_global_norm: the gradient norm overflows float64")
    norm = float(np.sqrt(total))
    if norm > max_norm:
        factor = max_norm / norm
        for name, g in grads.items():
            grads[name] = g * factor
    return norm
