"""Adam with bias correction, plus global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor


class Adam:
    """Standard Adam over a named parameter dict; state updates in place."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
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

    Returns the pre-clip norm; the dict entries are replaced when clipping.
    """
    total = 0.0
    for g in grads.values():
        total += float(np.vdot(g, g))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for name, g in grads.items():
            grads[name] = g * factor
    return norm
