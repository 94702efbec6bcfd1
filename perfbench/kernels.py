"""Forward and backward time of the tensor primitives at the model's shapes.

Shapes follow the config at a given batch: the level-0 ResBlock conv, the
level-0 stride-2 down conv, the attention block's MLP matmul, attention
over the attention level's tokens, the level-0 channel norm and the
attention scores' softmax. Backward runs ``GradTape.backward`` on the sum
of the output, so it includes one broadcast of the seed gradient.

FLOPs count multiply and add separately. Elementwise kernels use the
per-element costs in ``_ELEMENTWISE_FLOPS``, read off the numpy expressions
in ``tensor.py``. Bytes are what the kernel must read and write once:
inputs plus output, at the array's item size.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from duetdiff.rng import Rng
from duetdiff.tensor import GradTape, Tensor, attention, conv2d, layer_norm, matmul, softmax, tsum

_ELEMENTWISE_FLOPS = {"layer_norm": 8, "softmax": 5}
_MIN_REPS = 5
_MIN_SECONDS = 0.15


def _median(sample) -> float:
    """Median of ``sample()`` (one timing in seconds) after one warm call."""
    sample()
    times = []
    start = perf_counter()
    while len(times) < _MIN_REPS or perf_counter() - start < _MIN_SECONDS:
        times.append(sample())
    return statistics.median(times)


def _timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def _cases(config, batch: int, rng: Rng, dtype):
    """(name, op, inputs, flops) per kernel, at the config's shapes."""
    den = config.denoiser
    chans = den.channels()
    h = config.canvas
    res = h // 2 ** (len(chans) - 1)
    c = chans[-1]
    tokens = res * res

    def arr(*shape, std=1.0):
        return Tensor(rng.gaussian(shape, dtype=dtype) * std, requires_grad=True)

    c0, c1 = chans[0], chans[min(1, len(chans) - 1)]
    cases = [
        ("conv2d_3x3", lambda x, w: conv2d(x, w, stride=1, padding=1),
         (arr(batch, c0, h, h), arr(c0, c0, 3, 3, std=0.1)),
         2 * batch * h * h * c0 * c0 * 9),
        ("conv2d_4x4_s2", lambda x, w: conv2d(x, w, stride=2, padding=1),
         (arr(batch, c0, h, h), arr(c1, c0, 4, 4, std=0.1)),
         2 * batch * (h // 2) ** 2 * c1 * c0 * 16),
        ("matmul", matmul, (arr(batch, tokens, c), arr(c, 4 * c, std=0.1)),
         2 * batch * tokens * c * 4 * c),
        ("attention", lambda q, k, v: attention(q, k, v, den.n_heads),
         (arr(batch, tokens, c), arr(batch, tokens, c), arr(batch, tokens, c)),
         4 * batch * tokens * tokens * c),
    ]
    x_ln = arr(batch, h, h, c0)
    x_sm = arr(batch, den.n_heads, tokens, tokens)
    cases.append(("layer_norm", layer_norm, (x_ln,), _ELEMENTWISE_FLOPS["layer_norm"] * x_ln.size))
    cases.append(("softmax", softmax, (x_sm,), _ELEMENTWISE_FLOPS["softmax"] * x_sm.size))
    return cases


def kernel_table(config, batch: int, dtype=np.float32) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every kernel, plus the Gaussian draw cost."""
    rng = Rng(0).split("kernels")
    out: dict[str, tuple[float, str]] = {}
    for name, op, inputs, flops in _cases(config, batch, rng, dtype):
        def backward():
            with GradTape() as tape:
                loss = tsum(op(*inputs))
            return _timed(lambda: tape.backward(loss))

        fwd = _median(lambda: _timed(lambda: op(*inputs)))
        bwd = _median(backward)
        nbytes = op(*inputs).data.nbytes + sum(t.data.nbytes for t in inputs)
        out[f"kernel.{name}.fwd_ms"] = (1e3 * fwd, "ms")
        out[f"kernel.{name}.bwd_ms"] = (1e3 * bwd, "ms")
        out[f"kernel.{name}.gflop"] = (flops / 1e9, "GFLOP")
        out[f"kernel.{name}.mbytes"] = (nbytes / 1e6, "MB")
        if name.startswith(("conv2d", "matmul")):
            out[f"kernel.{name}.fwd_gflops"] = (flops / 1e9 / fwd, "GFLOP/s")
            out[f"kernel.{name}.bwd_gflops"] = (2 * flops / 1e9 / bwd, "GFLOP/s")
    draws = batch * config.image_channels * config.canvas ** 2
    per_call = _median(lambda: _timed(lambda: rng.gaussian(draws)))
    out["rng.gaussian.ns_per_draw"] = (1e9 * per_call / draws, "ns")
    return out
