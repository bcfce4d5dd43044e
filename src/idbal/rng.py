"""Deterministic random-stream derivation.

All randomized operations in this package draw from named child streams of a
single integer seed. The rule:

    child_seed(seed, *path) = blake2b(str(seed) | 0x1f | str(path[0]) | ...)

truncated to 64 bits, fed to numpy's PCG64. Distinct paths give independent
streams, so one master seed can drive dataset generation and splitting,
logging simulation, the coarse policy fit and the oracle's Monte Carlo draws
without accidental coupling, and any single stage can be replayed in
isolation. The learners draw no randomness.
"""
from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["child_seed", "derive_rng"]

_SEP = b"\x1f"


def child_seed(seed: int, *path: object) -> int:
    """64-bit seed for the child stream named by ``path``.

    Path components are converted with ``str``; use short stable labels
    ("split", "logging", ...) plus any distinguishing integers.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(int(seed)).encode("ascii"))
    for part in path:
        digest.update(_SEP)
        digest.update(str(part).encode("utf-8"))
    return int.from_bytes(digest.digest(), "little")


def derive_rng(seed: int, *path: object) -> np.random.Generator:
    """Fresh generator for the named stream; same (seed, path) -> same draws."""
    return np.random.default_rng(child_seed(seed, *path))
