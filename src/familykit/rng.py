"""Splittable, counter-based random number generation.

Every source of randomness in familykit flows through `SplitRng`: a Philox
counter-based stream keyed by an explicit 64-bit seed. Child streams are
derived from (parent key, label) with a SplitMix64 hash, so the random
values drawn for one purpose ("init/backbone.0.w_q") never depend on how
many draws another purpose made. Gaussian samples use Box-Muller on the
stream's uniforms, which keeps initialization reproducible bit-for-bit
across runs and platforms.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One SplitMix64 step; the standard 64-bit avalanche mix."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _label_hash(label: str) -> int:
    h = 0xCBF29CE484222325  # FNV-1a 64-bit
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return h


class SplitRng:
    """Deterministic random stream with cheap, collision-resistant splits."""

    def __init__(self, seed: int, _key: int | None = None):
        if not 0 <= int(seed) <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = int(seed)
        self._key = self.seed if _key is None else _key
        self._gen = np.random.Generator(np.random.Philox(key=self._key))

    def split(self, label: str) -> "SplitRng":
        """Derive an independent child stream for `label`."""
        child_key = _splitmix64(self._key ^ _label_hash(label))
        return SplitRng(self.seed, _key=child_key)

    def uniform(self, shape) -> np.ndarray:
        """float64 uniforms in [0, 1)."""
        return self._gen.random(shape, dtype=np.float64)

    def gaussian(self, shape, std: float = 1.0, dtype=np.float32) -> np.ndarray:
        """Gaussian(0, std^2) via Box-Muller on this stream's uniforms."""
        n = int(np.prod(shape)) if np.ndim(shape) else int(shape)
        half = (n + 1) // 2
        u1 = 1.0 - self._gen.random(half, dtype=np.float64)  # (0, 1]
        u2 = self._gen.random(half, dtype=np.float64)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return (std * z).reshape(shape).astype(dtype)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int, shape) -> np.ndarray:
        return self._gen.integers(low, high, size=shape, dtype=np.int64)
