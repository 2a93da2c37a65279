"""Bulk replay of ``random.Random.random``.

The simulators draw their randomness from seeded ``random.Random``
streams, one ``random()`` at a time in their scalar reference paths.
:func:`random_draws` returns the same values, and leaves the stream in
the same state, from one ``getrandbits`` call.
"""

from __future__ import annotations

import random

import numpy as np

__all__ = ["random_draws"]


def random_draws(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` values of ``rng.random()``, drawn in bulk.

    ``random()`` is genrand_res53 over two successive MT19937 words
    ``a, b``: ``((a >> 5) * 2**26 + (b >> 6)) * 2**-53``.
    ``rng.getrandbits(64 * n)`` returns the next ``2 * n`` words, least
    significant first, and advances ``rng`` exactly as ``n`` ``random()``
    calls would.  The integer part is below 2**53, so its float64
    evaluation (and the power-of-two scale) is exact.
    """
    words = np.frombuffer(
        rng.getrandbits(64 * n).to_bytes(8 * n, "little"), dtype="<u4"
    ).reshape(n, 2)
    return (
        (words[:, 0] >> 5).astype(np.float64) * 67108864.0 + (words[:, 1] >> 6)
    ) * (1.0 / 9007199254740992.0)
