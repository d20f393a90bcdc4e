"""Seeded, platform-independent random number generation.

Every randomized operation in this package draws from numpy's PCG64 bit
generator, seeded through ``numpy.random.SeedSequence``.  Sub-streams are
derived from a base seed plus context values (a pair index, a document id)
so that per-item randomness is independent of processing order.  String
context is hashed with BLAKE2b, which is stable across platforms and runs,
unlike Python's builtin ``hash``.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

_MASK64 = (1 << 64) - 1


def _entropy_value(value) -> int:
    if isinstance(value, str):
        digest = hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    if isinstance(value, (int, np.integer)):
        return int(value) & _MASK64
    raise TypeError(f"cannot derive entropy from {type(value).__name__}")


def make_rng(seed: Optional[int], *context) -> np.random.Generator:
    """A PCG64 generator for ``seed`` (None draws as 0) plus context (ints or strings)."""
    entropy = [_entropy_value(0 if seed is None else seed)] + [_entropy_value(c) for c in context]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
