"""Brute-force ground truth on small discrete problems.

Everything here is deliberately exhaustive: true errors by summing over the
pool, a center's distance to each member as one masked sum, and balls and
regions read off those distances as masks over the pool. The estimator
checks read one cell table per (instance, m, n, q1): a record's cell is its
phase, pool point, label and reveal bit, and its value comes from the
library's estimator (`WeightedSample` and `mis_error` on a one-record
sample). An estimator's mean and variance are exact sums over that table,
and nothing is drawn. The learners never call into this module; it exists
to verify them and the estimators.

Masses and propensities from `random_instance` live on dyadic grids
(denominators 128 and 64), so sums and comparisons are exact in floating
point and independently coded oracles can agree to the last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .data import Example, FeatureVector, LoggedTriple
from .estimators import WeightedSample, mis_error
from .hypotheses import FiniteClass
from .policies import TablePolicy
from .rng import derive_rng

__all__ = [
    "DiscreteInstance",
    "random_instance",
    "disagreement_mass",
    "dis_ball",
    "dis_region",
    "s_region",
    "adjusted_dis_coefficient",
    "exact_moments",
    "CheckRow",
    "run_verification_suite",
]


@dataclass(frozen=True)
class DiscreteInstance:
    """A finite generative problem: pool instances with masses, conditional
    label probabilities, a finite hypothesis class over the pool, and the
    logging propensity at each pool instance. pool must equal the class's
    pool, in order; the instance keeps the class's tuple. Draws are tuples,
    so exact-mode runs over one draw share one store."""

    pool: tuple[FeatureVector, ...]
    masses: np.ndarray
    p1: np.ndarray
    classifiers: FiniteClass
    q0: np.ndarray

    def __post_init__(self):
        if tuple(self.pool) != self.classifiers.pool:
            raise ValueError("pool must be the hypothesis class's pool, in its order")
        object.__setattr__(self, "pool", self.classifiers.pool)
        size = len(self.pool)
        masses, p1, q0 = (np.asarray(a, dtype=float) for a in (self.masses, self.p1, self.q0))
        if masses.shape != (size,) or p1.shape != (size,) or q0.shape != (size,):
            raise ValueError("masses, p1, and q0 must each have one entry per pool instance")
        if not (np.isfinite(masses).all() and np.isfinite(p1).all() and np.isfinite(q0).all()):
            raise ValueError("masses, p1, and q0 must be finite")
        if (masses < 0).any() or abs(float(masses.sum()) - 1.0) > 1e-12:
            raise ValueError("masses must be nonnegative and sum to 1")
        if ((p1 < 0) | (p1 > 1)).any() or ((q0 < 0) | (q0 > 1)).any():
            raise ValueError("p1 and q0 must be probabilities")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "q0", q0)
        errors = self.classifiers.labels * (1.0 - p1) + (1 - self.classifiers.labels) * p1
        object.__setattr__(self, "_true_errors", errors @ masses)

    @property
    def true_errors(self) -> np.ndarray:
        return self._true_errors

    @property
    def h_star_index(self) -> int:
        return int(np.argmin(self._true_errors))  # first minimum: lowest index

    @property
    def nu(self) -> float:
        return float(self._true_errors[self.h_star_index])

    def logging_policy(self) -> TablePolicy:
        return TablePolicy({x.key(): float(p) for x, p in zip(self.pool, self.q0)})

    def draw_examples(self, rng: np.random.Generator, count: int) -> tuple[Example, ...]:
        picks = rng.choice(len(self.pool), size=count, p=self.masses)
        labels = (rng.random(count) < self.p1[picks]).astype(np.int8)
        pool = self.pool
        return tuple(Example(pool[i], y) for i, y in zip(picks.tolist(), labels.tolist()))

    def draw_logged(self, rng: np.random.Generator, count: int) -> tuple[LoggedTriple, ...]:
        picks = rng.choice(len(self.pool), size=count, p=self.masses)
        labels = (rng.random(count) < self.p1[picks]).astype(np.int8)
        reveals = rng.random(count) < self.q0[picks]
        pool = self.pool
        return tuple(
            LoggedTriple(pool[i], 1, y) if z else LoggedTriple(pool[i], 0)
            for i, y, z in zip(picks.tolist(), labels.tolist(), reveals.tolist())
        )


def random_instance(
    seed: int,
    pool_size: int = 6,
    class_size: int = 8,
    force_low_propensity: bool = False,
) -> DiscreteInstance:
    """Seeded random fixture on dyadic grids (masses in 1/128ths, p1 in
    1/32nds, q0 in 1/64ths, all masses positive, member rows distinct).
    force_low_propensity plants one q0 value at or below 3/64."""
    if not 1 <= pool_size <= 128:
        raise ValueError(f"pool_size must lie in [1, 128], one 1/128 mass unit per point at least, got {pool_size}")
    if class_size < 1:
        raise ValueError(f"class_size must be at least 1, got {class_size}")
    if class_size > 2**pool_size:
        raise ValueError("cannot place that many distinct members on the pool")
    rng = derive_rng(seed, "fixture")
    pool = tuple(FeatureVector({1: float(i + 1)}) for i in range(pool_size))
    counts = np.ones(pool_size, dtype=int)
    counts += rng.multinomial(128 - pool_size, np.full(pool_size, 1.0 / pool_size))
    masses = counts / 128.0
    p1 = rng.integers(0, 33, pool_size) / 32.0
    rows: list[tuple[int, ...]] = []
    taken = set()
    while len(rows) < class_size:
        row = tuple(int(b) for b in rng.integers(0, 2, pool_size))
        if row not in taken:
            taken.add(row)
            rows.append(row)
    q0 = rng.integers(1, 65, pool_size) / 64.0
    if force_low_propensity:
        q0[rng.integers(0, pool_size)] = rng.integers(1, 4) / 64.0
    hclass = FiniteClass(pool, np.array(rows, dtype=np.int8))
    return DiscreteInstance(pool=pool, masses=masses, p1=p1, classifiers=hclass, q0=q0)


def _check_member(instance: DiscreteInstance, *members: int) -> None:
    count = len(instance.classifiers)
    for h in members:
        if not 0 <= h < count:
            raise ValueError(f"member index {h} outside [0, {count})")


def _distances(instance: DiscreteInstance, center: int) -> np.ndarray:
    """The center's disagreement mass with each member, one masked sum each."""
    _check_member(instance, center)
    labels, masses = instance.classifiers.labels, instance.masses
    return np.array([masses[row != labels[center]].sum() for row in labels])


def _region(labels: np.ndarray) -> np.ndarray:
    """Pool mask where some pair of the label rows disagrees (none for no rows)."""
    return (labels != labels[:1]).any(axis=0)


def _s_mask(instance: DiscreteInstance, region: np.ndarray, alpha: float) -> np.ndarray:
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    return region & (instance.q0 <= instance.q0[region].min(initial=math.inf) + 1.0 / alpha)


def disagreement_mass(instance: DiscreteInstance, i: int, j: int) -> float:
    """Mass of the pool points where members i and j differ."""
    _check_member(instance, j)
    return float(_distances(instance, i)[j])


def dis_ball(instance: DiscreteInstance, center: int, radius: float) -> tuple[int, ...]:
    """Members within disagreement mass radius of the center."""
    return tuple(np.flatnonzero(_distances(instance, center) <= radius).tolist())


def dis_region(instance: DiscreteInstance, members: Iterable[int]) -> tuple[int, ...]:
    """Pool indices where some pair of the given members disagrees."""
    rows = list(members)
    _check_member(instance, *rows)
    return tuple(np.flatnonzero(_region(instance.classifiers.labels[rows])).tolist())


def s_region(instance: DiscreteInstance, region: Iterable[int], alpha: float) -> tuple[int, ...]:
    """Propensity-restricted region: the region points whose propensity is
    within 1/alpha of the region's propensity floor."""
    points = [int(i) for i in region]
    mask = np.zeros(len(instance.pool), dtype=bool)
    if not all(0 <= i < mask.size for i in points):
        raise ValueError(f"pool index outside [0, {mask.size}) in {points}")
    mask[points] = True
    return tuple(np.flatnonzero(_s_mask(instance, mask, alpha)).tolist())


def adjusted_dis_coefficient(instance: DiscreteInstance, r0: float, alpha: float) -> float:
    """sup over r > r0 of mass(s_region(DIS(ball(h*, r)), alpha)) / r.

    The ball is piecewise constant in r and 1/r is decreasing, so the
    supremum is attained either at one of the achievable disagreement-mass
    values above r0 or in the limit r -> r0 from above; both are enumerated.
    """
    if not 0.0 <= r0 < math.inf:
        raise ValueError(f"r0 must be finite and non-negative, got {r0}")
    if r0 < 2.0 * instance.nu - 1e-12:
        raise ValueError("r0 must be at least twice the best achievable error")
    distances = _distances(instance, instance.h_star_index)

    def mass_at(radius: float) -> float:
        kept = _s_mask(instance, _region(instance.classifiers.labels[distances <= radius]), alpha)
        return float(instance.masses[kept].sum())

    best = max((mass_at(r) / r for r in np.unique(distances[distances > r0]).tolist()), default=0.0)
    limit_mass = mass_at(r0)
    if r0 > 0.0:
        best = max(best, limit_mass / r0)
    elif limit_mass > 0.0:
        best = math.inf
    return best


def _cell_table(
    instance: DiscreteInstance, m: int, n: int, q1, h: int, estimator: str
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(records, probabilities, values) for each phase that has records,
    logged then online: one value per cell, the named estimator's ("mis"
    balanced, "is" per-phase) of member h's error.

    A record's cell is its pool point, label and reveal bit. Records are
    independent and a record's contribution depends only on its cell, so the
    table fixes the estimator's distribution. A cell's value is the
    library's: mis_error on a one-record WeightedSample. Cells of probability
    0 are dropped (a z = 1 record at q = 0 has no valid denominator)."""
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError(f"m and n must be non-negative with m + n at least 1, got m={m}, n={n}")
    q0 = instance.q0
    q1 = np.ones(len(instance.pool)) if q1 is None else np.asarray(q1, dtype=float)
    if q1.shape != q0.shape:
        raise ValueError("q1 must have one entry per pool instance")
    if not ((q1 >= 0.0) & (q1 <= 1.0)).all():
        raise ValueError("q1 must be probabilities")
    _check_member(instance, h)
    if estimator not in ("mis", "is"):
        raise ValueError(f"unknown estimator {estimator!r}")
    point = np.repeat(np.arange(len(instance.pool)), 4)
    y = np.tile([0, 0, 1, 1], len(instance.pool))
    z = np.tile([0, 1], 2 * len(instance.pool))
    label_prob = np.where(y == 1, instance.p1[point], 1.0 - instance.p1[point])
    predictions = instance.classifiers.labels[h]
    tables = []
    for records, q_own in ((m, q0), (n, q1)):
        if records == 0:
            continue
        prob = instance.masses[point] * label_prob * np.where(z == 1, q_own[point], 1.0 - q_own[point])
        cells = np.flatnonzero(prob > 0.0)
        values = np.empty(cells.size)
        for row, k in enumerate(cells):
            at, z_k, y_k = point[k : k + 1], z[k : k + 1], y[k : k + 1]
            values[row] = mis_error(
                predictions[at],
                WeightedSample.balanced(at, z_k, y_k, q0[at], q1[at], m, n)
                if estimator == "mis"
                else WeightedSample.phase_weighted(at, z_k, y_k, q_own[at], m, n),
            )
        tables.append((records, prob[cells], values))
    return tables


def exact_moments(
    instance: DiscreteInstance,
    h: int,
    m: int,
    n: int,
    q1: np.ndarray | None = None,
    estimator: str = "mis",
) -> tuple[float, float]:
    """Exact (mean, variance) of the named estimator ("mis" balanced, "is"
    per-phase) of member h's error over m logged and n online records: each
    phase adds its record count times one record's mean and variance."""
    mean = variance = 0.0
    for records, prob, values in _cell_table(instance, m, n, q1, h, estimator):
        record_mean = prob @ values
        mean += records * record_mean
        variance += records * (prob @ (values - record_mean) ** 2)
    return float(mean), float(variance)


@dataclass(frozen=True)
class CheckRow:
    name: str
    passed: bool
    statistic: float
    threshold: float
    details: str


def run_verification_suite(seed: int, fixtures: int = 20, trials: int | None = None) -> list[CheckRow]:
    """Self-contained estimator checks over at least one fixture: three rows
    per fixture, each an exact sum over the cell table, so the rows are a
    pure function of (seed, fixtures). trials is accepted and not read:
    perfbench's exact-oracle workload passes it, and the keyword goes when
    that workload stops passing it, together with the learners' seed."""
    if fixtures < 1:
        raise ValueError(f"fixtures must be at least 1, got {fixtures}")
    rows: list[CheckRow] = []
    m = n = 8
    for i in range(fixtures):
        instance = random_instance(seed=seed * 1000 + i, force_low_propensity=True)
        h = i % len(instance.classifiers)
        truth = float(instance.true_errors[h])
        moments = {name: exact_moments(instance, h, m, n, estimator=name) for name in ("mis", "is")}
        for estimator, (mean, _) in moments.items():
            bias = abs(mean - truth)
            rows.append(
                CheckRow(
                    name=f"unbiasedness-{estimator}-{i}",
                    passed=bias <= 1e-12,
                    statistic=bias,
                    threshold=1e-12,
                    details=f"mean {mean:.6g} true {truth:.6g}",
                )
            )
        var_is, var_mis = moments["is"][1], moments["mis"][1]
        ratio = var_mis / var_is if var_is > 0.0 else (0.0 if var_mis == 0.0 else math.inf)
        # var_mis <= var_is is proved (see mis_error); 1e-12 leaves room for rounding only
        rows.append(
            CheckRow(
                name=f"variance-dominance-{i}",
                passed=var_mis <= var_is * (1.0 + 1e-12),
                statistic=ratio,
                threshold=1.0 + 1e-12,
                details=f"var_is {var_is:.6g} var_mis {var_mis:.6g}",
            )
        )
    return rows
