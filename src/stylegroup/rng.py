"""Deterministic random streams backed by the counter-based Philox generator.

Every random draw in the package flows from an explicit seed; there is no
ambient entropy. Distinct pipeline stages use distinct stream tags so that
the same seed never replays one stream for two purposes. numpy is imported
by the first call, not when this module loads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

STREAM_BEHAVIOR = 1
STREAM_SCORES = 2
STREAM_CONTROL = 3


def philox_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """A Philox-backed generator for the given (seed, stream) pair."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))
