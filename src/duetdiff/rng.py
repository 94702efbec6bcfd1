"""Deterministic random streams: xoshiro256++ seeded by splitmix64 expansion.

One generator algorithm, fixed forever, so identical seeds reproduce identical
streams on every platform. Gaussians come from Box-Muller applied to
consecutive uniform draws; labelled ``split`` derives independent child
streams without advancing the parent.

There is one fill, ``_fill``: the xoshiro256++ recurrence as a loop on
python ints. It costs about 1.3-1.5 us per draw on one core of a 2-core
Xeon (ROADMAP item 3). ``test_fixed_seed_reference_vector`` pins its
stream and the state it leaves.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """splitmix64 finalizer: one full avalanche of a 64-bit word."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _seed_state(seed: int) -> tuple[int, int, int, int]:
    """Expand a 64-bit seed into the 256-bit state via splitmix64."""
    return tuple(_mix64((seed + k * _GOLDEN) & _MASK64) for k in range(4))


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


def _fill(state: np.ndarray, out: np.ndarray) -> None:
    """xoshiro256++ block fill on python ints; advances ``state`` in place."""
    s0, s1, s2, s3 = (int(state[i]) for i in range(4))
    n = out.shape[0]
    for i in range(n):
        tmp = (s0 + s3) & _MASK64
        out[i] = (((tmp << 23) | (tmp >> 41)) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
    state[0], state[1], state[2], state[3] = s0, s1, s2, s3



class Rng:
    """xoshiro256++ stream with deterministic labelled splitting."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = np.array(_seed_state(int(seed)), dtype=np.uint64)

    @classmethod
    def from_state(cls, words) -> "Rng":
        if len(words) != 4:
            raise ValueError("rng state must be 4 words")
        rng = cls.__new__(cls)
        rng._state = np.array([int(w) & _MASK64 for w in words], dtype=np.uint64)
        return rng

    @property
    def state(self) -> tuple[int, int, int, int]:
        return tuple(int(w) for w in self._state)

    def split(self, label: str) -> "Rng":
        """Child stream derived from (state, label); the parent is untouched.

        Same (state, label) always yields the same child, so splits are
        order-independent and safe to issue from parallel workers.
        """
        h = _fnv1a64(label.encode("utf-8"))
        x = h
        for w in self._state:
            x = _mix64(x ^ int(w))
        return Rng(x)

    def raw64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs; advances the stream."""
        out = np.empty(int(n), dtype=np.uint64)
        if n:
            _fill(self._state, out)
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
