"""Seeded random stream with a fixed, documented draw pipeline.

Every stochastic operation in this package goes through :class:`Rng` so that
a 64-bit seed fully determines the stream:

* uniforms come from the PCG64 bit generator (53-bit doubles in [0, 1)),
* standard normals are produced by the trigonometric Box-Muller transform
  (`_box_muller`) applied to two consecutive blocks of uniforms,
* integer draws and shuffles are derived from uniforms (floor scaling and
  Fisher-Yates), never from a separate integer path: `indices_below` is the
  one integer draw, and a single integer is ``indices_below(n, 1)[0]``.

The pipeline is pinned here, not left to library defaults, because replicated
experiments are compared across machines and must consume bitwise-identical
streams. Uniforms are drawn one at a time off the bit stream, so one draw of
n + m equals a draw of n followed by one of m. A caller that knows its draws
ahead can therefore take them in one block (``uniform(count, out=...)``) and
split it, and run `_box_muller` over many noise batches at once; the training
loop does this (see :mod:`oodlab.training`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Rng"]


class Rng:
    """Deterministic random source for data generation and training.

    Single-owner semantics: one `Rng` drives one run; concurrent runs get
    independent instances with their own seeds.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._bits = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """`count` doubles in [0, 1) straight off the bit stream.

        Given `out`, a C-contiguous float64 array of `count` entries, fills it
        in C order and returns it.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if out is None:
            return self._bits.random(count)
        if out.size != count:
            raise ValueError(f"out has {out.size} entries, expected {count}")
        return self._bits.random(out.shape, out=out)

    def standard_normal(self, count: int) -> np.ndarray:
        """`count` N(0, 1) draws via Box-Muller.

        Draws ceil(count / 2) uniforms u1, then as many u2; the odd spare from
        the last pair is discarded rather than cached, so consumption depends
        only on `count`.
        """
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
        """First `count` positions of a Fisher-Yates shuffle of range(n).

        Step i swaps position i with i + floor(u * (n - i)), one uniform per step.
        """
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
    ``out[..., 1::2]`` the matching sines. `u1`, `u2` and `work`, which is
    shaped like them, are overwritten; the transcendental functions run on
    them, not on `out`'s strided halves, so each value is computed as for one
    contiguous block. Unchecked.
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
