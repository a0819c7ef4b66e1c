"""Counter-based random streams.

Every random draw in the library comes from a Philox (counter-based,
64-bit) generator keyed by ``(seed, purpose tag, epoch)``. Distinct
purposes therefore consume independent streams: weight initialization
never shares state with epoch shuffling, so adding or removing draws in
one place cannot silently shift another. Runs are bit-reproducible for a
given seed on a given numpy version.
"""

from __future__ import annotations

import numpy as np

TAG_INIT = 1
TAG_SHUFFLE = 2
TAG_GRADCHECK = 3

_EPOCH_MASK = (1 << 48) - 1


def stream(seed: int, tag: int, epoch: int = 0) -> np.random.Generator:
    """Generator for one (seed, tag, epoch) stream; a seed outside [0, 2^64) raises OverflowError."""
    key = np.array(
        [seed, ((tag & 0xFFFF) << 48) | (epoch & _EPOCH_MASK)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))
