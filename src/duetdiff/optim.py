"""Adam with bias correction and constant betas and eps, plus global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .tensor import NonFiniteError, ShapeError, Tensor

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
        self.step_count += 1
        c1 = 1.0 - _BETA1 ** self.step_count
        c2 = 1.0 - _BETA2 ** self.step_count
        for name, param in self.params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(param.data)
            if g.shape != param.data.shape:
                raise ShapeError(f"adam: gradient shape {g.shape} != param shape "
                                 f"{param.data.shape} for '{name}'")
            m = self.m[name]
            v = self.v[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            param.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + _EPS)

    def load_state(self, m: dict[str, np.ndarray], v: dict[str, np.ndarray], step_count: int) -> None:
        """Replace the moments and the step count.

        Every entry is checked before any is copied: each ``m`` and ``v``
        must have its parameter's shape and finite values, each ``v`` must
        be >= 0, and ``step_count`` an integer >= 0. A failure names the
        entry and leaves the state as it was.
        """
        if not isinstance(step_count, (int, np.integer)) or step_count < 0:
            raise ValueError(f"adam: step_count must be an integer >= 0, got {step_count!r}")
        for name, param in self.params.items():
            for label, state in (("m", m), ("v", v)):
                if name not in state:
                    raise KeyError(f"adam: missing optimizer state {label} for '{name}'")
                arr = np.asarray(state[name])
                if arr.shape != param.data.shape:
                    raise ValueError(f"adam: {label} shape {arr.shape} != param shape "
                                     f"{param.data.shape} for '{name}'")
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"adam: non-finite values in {label} for '{name}'")
                if label == "v" and np.any(arr < 0):
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
