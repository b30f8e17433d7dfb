"""Deterministic random-stream derivation.

All stochastic code draws from numpy PCG64 generators created here.  A
stream is identified by a tuple of non-negative integers, e.g.
``(base_seed, path_index)``, so every simulation path is reproducible
bit-for-bit regardless of scheduling, process layout, or thread count.
"""
from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from .errors import ConfigurationError

SeedLike = Union[int, Iterable[int], np.random.Generator]


def as_rng(seed: SeedLike) -> np.random.Generator:
    """Coerce ``seed`` into a generator.

    Accepts an existing generator (returned unchanged), a single
    non-negative integer, or a sequence of them.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        keys = [int(seed)]
    else:
        try:
            keys = [int(k) for k in seed]  # type: ignore[union-attr]
        except TypeError as exc:
            raise ConfigurationError(f"cannot derive a random stream from {seed!r}") from exc
    if not keys or any(k < 0 for k in keys):
        raise ConfigurationError(f"seed keys must be non-negative integers, got {keys!r}")
    return np.random.default_rng(np.random.SeedSequence(keys))
