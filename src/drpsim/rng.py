"""Deterministic stream splitting for Monte Carlo runs.

All randomness in an experiment flows from one master seed. Independent
streams are derived by hashing the seed together with an integer path
(blake2b, 128-bit digest) and using the digest as a Philox key. Philox is
counter-based, so streams are independent by construction and stable
across platforms and numpy versions.

Stream layout used by the experiment harness:

    substream(seed, 0)        scenario generation (parameter draws)
    substream(seed, 1, r)     episode stream for replication r:
                              the slot-1 price's unit uniform first, then
                              per slot the online noise vector followed
                              by the counterfactual noise vector
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["substream"]


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return an independent Generator for (master_seed, *path).

    Args:
        master_seed: Experiment-level seed in [0, 2**64); any other
            raises ValueError instead of aliasing another seed's streams.
        path: Integers naming the stream, e.g. (1, r) for replication r.

    Returns:
        np.random.Generator backed by Philox keyed on the 128-bit
        blake2b digest of the seed and path.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed must be in [0, 2**64), got {master_seed}")
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<Q", master_seed))
    for p in path:
        h.update(struct.pack("<q", p))
    key = np.frombuffer(h.digest(), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
