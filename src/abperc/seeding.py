"""Deterministic seed derivation for parallel Monte Carlo trials."""

from __future__ import annotations

import numpy as np

# Stream identifiers for the two coupled Poisson processes (A points / B points).
STREAM_IDS = {"A": 0, "B": 1}


def derived_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for one node of an experiment tree, seeded from ``(master_seed, path)``.

    ``path`` is a tuple of small nonnegative integers (trial index, stream id,
    purpose id, ...). Distinct paths yield statistically independent streams,
    and the derivation does not depend on creation order, so parallel trials
    are reproducible under any scheduling.
    """
    return np.random.default_rng(
        np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(p) for p in path)))
