"""Seeded input generators owned by the benchmark.

Everything a workload feeds the program is drawn here from the workload
seed, so the program only ever sees generated inputs and a second seed gives
an independent, equally valid set of inputs. Each generator uses its own
numpy stream, keyed by (seed, stream tag, index), so adding a world or a row
never shifts the draws of another.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPARSE_STREAM = 1
WORLD_STREAM = 2


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


def sparse_libsvm_text(seed: int, rows: int, dim: int, nnz: int, flip_prob: float) -> str:
    """A LIBSVM-format dataset: `label index:value ...` lines with labels in
    {-1, +1}, 1-based sorted indices, and nnz +- 25% non-zeros per row drawn
    from U(-1, 1). Labels follow a random linear separator over all dim
    features, each flipped with probability flip_prob."""
    rng = _rng(seed, SPARSE_STREAM)
    separator = rng.standard_normal(dim)
    spread = max(1, nnz // 4)
    lines = []
    for _ in range(rows):
        count = int(rng.integers(nnz - spread, nnz + spread + 1))
        index = np.sort(rng.choice(dim, size=count, replace=False))
        value = np.round(rng.uniform(-1.0, 1.0, count), 4)
        clean = value @ separator[index] >= 0.0
        label = clean != (rng.random() < flip_prob)
        features = " ".join(f"{i + 1}:{v:.4f}" for i, v in zip(index, value))
        lines.append(f"{'+1' if label else '-1'} {features}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class World:
    """One exact-mode problem: the discrete instance (pool, masses, label
    probabilities, member table, logging propensities), its table logging
    policy, and the logged and online samples drawn from it."""

    instance: object
    policy: object
    logged: tuple
    online: tuple


def exact_world(seed: int, index: int, pool_size: int, members: int, logged: int, online: int) -> World:
    """A world on dyadic grids like the oracle's fixtures: masses in 1/128ths
    (all positive), P(y=1|x) in 1/32nds, reveal propensities in 1/64ths
    (never 0), and `members` distinct member rows over the pool."""
    from idbal.data import Example, FeatureVector, LabelSource, LoggedTriple
    from idbal.hypotheses import FiniteClass
    from idbal.oracle import DiscreteInstance

    if members > 2**pool_size:
        raise ValueError("more members than distinct labelings of the pool")
    rng = _rng(seed, WORLD_STREAM, index)
    pool = tuple(FeatureVector({1: float(i + 1)}) for i in range(pool_size))
    masses = (1 + rng.multinomial(128 - pool_size, np.full(pool_size, 1.0 / pool_size))) / 128.0
    p1 = rng.integers(0, 33, pool_size) / 32.0
    codes = rng.choice(2**pool_size, size=members, replace=False)
    rows = ((codes[:, None] >> np.arange(pool_size)) & 1).astype(np.int8)
    q0 = rng.integers(1, 65, pool_size) / 64.0
    instance = DiscreteInstance(
        pool=pool, masses=masses, p1=p1, classifiers=FiniteClass(pool, rows), q0=q0
    )

    picks = rng.choice(pool_size, size=logged, p=masses)
    labels = rng.random(logged) < p1[picks]
    reveals = rng.random(logged) < q0[picks]
    logged_sample = tuple(
        LoggedTriple(pool[i], 1, int(y), LabelSource.QUERIED) if z else LoggedTriple(pool[i], 0)
        for i, y, z in zip(picks, labels, reveals)
    )
    picks = rng.choice(pool_size, size=online, p=masses)
    labels = rng.random(online) < p1[picks]
    online_sample = tuple(Example(pool[i], int(y)) for i, y in zip(picks, labels))
    return World(instance, instance.logging_policy(), logged_sample, online_sample)
