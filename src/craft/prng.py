"""Project-wide deterministic random number generation.

Every randomized operation in the package draws from a PCG64 generator
seeded with an explicit 64-bit integer.  Derived seeds (per-trial,
per-position) are always :func:`trial_seed`, (base_seed + index) mod 2**64,
so that whole experiments replay bit for bit from one recorded seed.
"""

from __future__ import annotations

import numpy as np

SEED_MASK = (1 << 64) - 1


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a 64-bit seed (larger ints are wrapped)."""
    return np.random.Generator(np.random.PCG64(int(seed) & SEED_MASK))


def trial_seed(base_seed: int, index: int) -> int:
    """Seed for the index-th trial of an experiment."""
    return (int(base_seed) + int(index)) & SEED_MASK
