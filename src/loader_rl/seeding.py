"""Deterministic seed derivation.

All randomness flows from one master seed, an integer >= 0, through named
sub-streams (environment resets, policy init, action sampling, minibatch
shuffling, evaluation), so that reseeding one component never perturbs
another and component-level reproducibility survives refactors.
"""

from __future__ import annotations

import numpy as np

# Stable stream ids; appending new streams is fine, renumbering is not.
_STREAMS = {
    "env": 1,
    "policy_init": 2,
    "sampling": 3,
    "shuffle": 4,
    "eval": 5,
    "emulation": 6,
}


def substream(master_seed: int, name: str, index: int = 0) -> np.random.Generator:
    """A generator for the named sub-stream of ``master_seed``.

    ``index`` distinguishes repeated uses of one stream (episode number,
    update number, ...). Every seed keeps all its bits, so no two seeds
    share a stream.
    """
    if name not in _STREAMS:
        raise ValueError(f"unknown seed stream {name!r}; expected one of {sorted(_STREAMS)}")
    seq = np.random.SeedSequence([int(master_seed), _STREAMS[name], int(index)])
    return np.random.Generator(np.random.PCG64(seq))


def substream_seed(master_seed: int, name: str, index: int = 0) -> int:
    """A derived 63-bit integer seed for handing to APIs that take seeds."""
    return int(substream(master_seed, name, index).integers(0, 2**63 - 1))
