"""Seeded random stream with a fixed, documented draw pipeline.

Every stochastic operation in this package draws from an :class:`Rng`, so
a 64-bit seed fixes every draw on every machine:

* uniforms come from the PCG64 bit generator (53-bit doubles in [0, 1));
* standard normals come from the trigonometric Box-Muller transform
  (`_box_muller`) of two consecutive blocks of uniforms;
* integers come from uniforms by floor scaling (`indices_below`), and
  shuffles by Fisher-Yates over them.

The pipeline is pinned here, not left to library defaults, because runs are
compared bit for bit. One draw of n + m uniforms equals a draw of n then
one of m, so a caller that knows its draws ahead may take them in one block
and split it, as the training loop does.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Rng"]


class Rng:
    """Deterministic random source; one `Rng` drives one run."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._bits = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """`count` doubles in [0, 1) off the bit stream, or into `out`, C-contiguous float64."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if out is None:
            return self._bits.random(count)
        if out.size != count:
            raise ValueError(f"out has {out.size} entries, expected {count}")
        return self._bits.random(out.shape, out=out)

    def standard_normal(self, count: int) -> np.ndarray:
        """`count` N(0, 1) draws from ceil(count / 2) uniforms u1, then as many u2; no spare."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return np.empty(0)
        pairs = (count + 1) // 2
        u1 = self.uniform(pairs)
        u2 = self.uniform(pairs)
        draws = np.empty(2 * pairs)
        _box_muller(u1, u2, draws, np.empty(pairs))
        return draws[:count]

    def indices_below(self, n: int, count: int) -> np.ndarray:
        """`count` independent integers uniform on {0, ..., n-1}, each floor(u * n)."""
        if n <= 0:
            raise ValueError(f"n must be >= 1, got {n}")
        return (self.uniform(count) * n).astype(np.int64)

    def choose_without_replacement(self, n: int, count: int) -> np.ndarray:
        """First `count` positions of a Fisher-Yates shuffle of range(n), one uniform per step."""
        if not 0 <= count <= n:
            raise ValueError(f"need 0 <= count <= {n}, got {count}")
        perm = np.arange(n)
        for i in range(count):
            j = i + self.indices_below(n - i, 1)[0]
            perm[i], perm[j] = perm[j], perm[i]
        return perm[:count]


def _box_muller(u1: np.ndarray, u2: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """Box-Muller kernel: normals from uniform blocks of shape (..., pairs) into (..., 2 * pairs).

    ``out[..., 0::2]`` takes ``sqrt(-2 log(1 - u1)) * cos(2 pi u2)`` and
    ``out[..., 1::2]`` the sines. It overwrites `u1`, `u2` and `work`, shaped
    like them, and runs the transcendental functions on them, not on `out`'s
    strided halves, so each value has the bits of a contiguous block. Unchecked.
    """
    # 1 - u1 lies in (0, 1], keeping the log finite.
    np.negative(u1, out=u1)
    np.log1p(u1, out=u1)
    np.multiply(u1, -2.0, out=u1)
    np.sqrt(u1, out=u1)
    np.multiply(u2, 2.0 * np.pi, out=u2)
    np.cos(u2, out=work)
    np.multiply(u1, work, out=out[..., 0::2])
    np.sin(u2, out=work)
    np.multiply(u1, work, out=out[..., 1::2])
