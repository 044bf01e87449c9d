"""Named, independent random streams derived from one experiment seed.

Every stochastic component (data generation, batching, composition, weight
init, split tie-breaking) pulls from its own stream so that disabling one
component never shifts the draws of another.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import InvalidConfig


def check_seed(seed: int) -> None:
    """Raise ``InvalidConfig`` for a seed that ``SeedSequence`` refuses."""
    if seed < 0:
        raise InvalidConfig("seed must be >= 0")


def stream(seed: int, name: str) -> np.random.Generator:
    """Return a generator for the given stream name, derived from ``seed``.

    The same (seed, name) pair always yields the same stream; different
    names yield statistically independent streams.
    """
    check_seed(seed)
    # crc32 keyed spawn; stable across platforms, unlike builtin hash()
    key = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))
