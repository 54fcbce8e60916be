"""Seeded pseudorandom stream used by all synthetic fixtures.

The generator is splitmix64: from a 64-bit seed, the k-th output is

    s_k = (seed + k * 0x9E3779B97F4A7C15) mod 2^64
    z   = s_k
    z ^= z >> 30;  z = (z * 0xBF58476D1CE4E5B9) mod 2^64
    z ^= z >> 27;  z = (z * 0x94D049BB133111EB) mod 2^64
    z ^= z >> 31

Because the state advance is a pure counter, scalar draws and vectorized
array draws produce the identical stream, and any implementation of the
recipe above reproduces every fixture bit for bit.

Floats in [0, 1) take the top 53 bits: ``(z >> 11) * 2**-53``.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(z: int) -> int:
    z = (z ^ (z >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based 64-bit generator; deterministic per seed."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + int(self.random() * (hi - lo + 1))

    def fill_u64(self, n: int) -> np.ndarray:
        """Next n outputs as a uint64 array; same stream as scalar draws."""
        ks = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + ks * np.uint64(_GOLDEN)
        self._state = (self._state + n * _GOLDEN) & _MASK
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def random_array(self, shape: tuple[int, ...]) -> np.ndarray:
        """Uniform [0, 1) float64 array; same stream as scalar draws."""
        n = int(np.prod(shape)) if shape else 1
        z = self.fill_u64(n)
        out = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return out.reshape(shape)

    def normal_array(self, shape: tuple[int, ...]) -> np.ndarray:
        """Standard normal array via Box-Muller on paired uniform draws."""
        n = int(np.prod(shape)) if shape else 1
        u = self.random_array((2 * n,))
        u1 = np.maximum(u[0::2], 2.0**-53)
        u2 = u[1::2]
        out = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return out.reshape(shape)
