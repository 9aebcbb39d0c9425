"""Named, independently seeded RNG streams.

Every source of randomness in a run is a named stream derived from
(master_seed, run_id, stream index).  Replications never share state, so
runs can execute in parallel and still reproduce bit-identically.
"""

from __future__ import annotations

import numpy as np

# Fixed registry: stream name -> spawn index.  Append only; reordering
# breaks bit-compatibility of recorded runs.
STREAM_NAMES = (
    "channel",
    "adversary",
    "outlier",
    "allocation",
    "activation",
    "task",
    "selection",
    "field",
)

_STREAM_INDEX = {name: i for i, name in enumerate(STREAM_NAMES)}


def stream_rng(master_seed: int, run_id: int, name: str) -> np.random.Generator:
    """Generator for one named stream of one replication."""
    try:
        idx = _STREAM_INDEX[name]
    except KeyError:
        raise KeyError(f"unknown RNG stream {name!r}; known: {STREAM_NAMES}") from None
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(run_id, idx))
    return np.random.Generator(np.random.PCG64(ss))

