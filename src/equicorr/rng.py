"""Deterministic 64-bit PRNG for reproducible random test data.

Splitmix-style generator with fixed constants, so a seed produces the same
stream in any implementation of this interface:

    state' = state + 0x9E3779B97F4A7C15           (mod 2^64)
    z = state'
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9      (mod 2^64)
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB      (mod 2^64)
    output = z ^ (z >> 31)

Floats in [0, 1) take the top 53 bits of an output word.  Random sections,
filters, and group functions are all drawn through this generator, never
through an implementation-defined source.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        # top 53 bits -> [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53

    def uniforms(self, shape: tuple[int, ...] | int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        if isinstance(shape, int):
            shape = (shape,)
        n = int(np.prod(shape)) if shape else 1
        # the next n states in one step, then the output mix in uint64
        # arithmetic, which wraps mod 2^64 exactly like the scalar recurrence
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._state = (self._state + n * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        vals = (z >> np.uint64(11)).astype(float) * 2.0**-53
        return (lo + (hi - lo) * vals).reshape(shape)

    def integer(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection, bias-free."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (_MASK + 1) - ((_MASK + 1) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def sample_without_replacement(self, bound: int, k: int) -> list[int]:
        k = min(k, bound)
        chosen: list[int] = []
        seen = set()
        while len(chosen) < k:
            x = self.integer(bound)
            if x not in seen:
                seen.add(x)
                chosen.append(x)
        return chosen
