"""Adam with bias correction, plus global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .tensor import NonFiniteError, ShapeError, Tensor


def _check_positive(name: str, value: float) -> None:
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


class Adam:
    """Standard Adam over a named parameter dict; state updates in place.

    ``lr`` and ``eps`` must be finite and positive, each beta in [0, 1).
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        _check_positive("lr", lr)
        _check_positive("eps", eps)
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {beta}")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for name, param in self.params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(param.data)
            if g.shape != param.data.shape:
                raise ShapeError(f"adam: gradient shape {g.shape} != param shape "
                                 f"{param.data.shape} for '{name}'")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            param.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def load_state(self, m: dict[str, np.ndarray], v: dict[str, np.ndarray], step_count: int) -> None:
        for name in self.params:
            if name not in m or name not in v:
                raise KeyError(f"adam: missing optimizer state for '{name}'")
            self.m[name] = m[name].astype(self.m[name].dtype, copy=True)
            self.v[name] = v[name].astype(self.v[name].dtype, copy=True)
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
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise NonFiniteError(f"clip_global_norm: gradient '{name}' has non-finite values")
        raise NonFiniteError("clip_global_norm: the gradient norm overflows float64")
    norm = float(np.sqrt(total))
    if norm > max_norm:
        factor = max_norm / norm
        for name, g in grads.items():
            grads[name] = g * factor
    return norm
