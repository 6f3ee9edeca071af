"""Seeding and substream derivation.

All randomness in the package flows through ``numpy.random.Generator``
(PCG64).  Reproducibility contract: a 64-bit master seed plus an integer
key tuple determines a substream, independent of how many worker
processes consume the replicate grid.  Replicate ``r`` of an experiment
with master seed ``s`` and semilength ``n`` uses ``substream(s, n, r)``.
"""

from __future__ import annotations

import numpy as np

from .errors import integer

_U64 = (1 << 64) - 1


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the deterministic generator for ``(seed, *key)``.

    The master seed is reduced mod 2**64; the key entries join it as
    additional SeedSequence entropy words, so distinct keys give
    statistically independent streams.
    """
    entropy = (integer(seed, "seed") & _U64,) + tuple(integer(k, "key") & _U64 for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def as_generator(seed) -> np.random.Generator:
    """Coerce an int seed or an existing Generator to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return substream(seed)
