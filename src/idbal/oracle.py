"""Brute-force ground truth on small discrete problems.

Everything here is deliberately exhaustive: true errors by summing over the
pool, regions as masks over the pool, and the disagreement coefficient's
balls read off h*'s distance to each member, one masked sum each. The
estimator checks enumerate cells: a record's cell is its phase, pool point,
label and reveal bit. Each phase builds one library `WeightedSample` over
its cells, and a cell's value is the class's mistake-table entry over the
sample's denominator, as the exact learners score it. An estimator's mean
and variance are exact sums over the cells, and nothing is drawn. The
learners never call into this module; it exists to verify them and the
estimators.

Masses and propensities from `random_instance` live on dyadic grids
(denominators 128 and 64), so sums and comparisons are exact in floating
point and independently coded oracles can agree to the last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .data import Example, FeatureVector, LoggedTriple, row_keys
from .estimators import WeightedSample
from .hypotheses import FiniteClass
from .policies import TablePolicy
from .rng import derive_rng

__all__ = [
    "DiscreteInstance",
    "random_instance",
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
    pool, in order; the instance keeps the class's tuple. The constructor
    sets true_errors, h_star_index and nu once, read-only like the fields.
    Draws are tuples, so exact-mode runs over one draw share one store."""

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
        errors = (self.classifiers.labels * (1.0 - p1) + (1 - self.classifiers.labels) * p1) @ masses
        object.__setattr__(self, "true_errors", errors)
        object.__setattr__(self, "h_star_index", int(np.argmin(errors)))  # first minimum: lowest index
        object.__setattr__(self, "nu", float(errors[self.h_star_index]))

    def logging_policy(self) -> TablePolicy:
        return TablePolicy(dict(zip(row_keys(self.classifiers.rows.matrix), self.q0.tolist())))

    def draw_examples(self, rng: np.random.Generator, count: int) -> tuple[Example, ...]:
        picks = rng.choice(len(self.pool), size=count, p=self.masses)
        labels = (rng.random(count) < self.p1[picks]).astype(np.int8)
        # Example(x, y) is cell 3 + y of the vector's shared records
        return tuple(map(self.classifiers.records.__getitem__, (5 * picks + 3 + labels).tolist()))

    def draw_logged(self, rng: np.random.Generator, count: int) -> tuple[LoggedTriple, ...]:
        picks = rng.choice(len(self.pool), size=count, p=self.masses)
        labels = (rng.random(count) < self.p1[picks]).astype(np.int8)
        reveals = rng.random(count) < self.q0[picks]
        # a hidden triple is cell 0, a revealed one cell 1 + y
        return tuple(map(self.classifiers.records.__getitem__, (5 * picks + reveals * (1 + labels)).tolist()))


def random_instance(
    seed: int,
    pool_size: int = 6,
    class_size: int = 8,
    family: str = "dyadic",
) -> DiscreteInstance:
    """Seeded random fixture on dyadic grids (masses in 1/128ths, p1 in
    1/32nds, q0 in 1/64ths, all masses positive, member rows distinct).
    family names the q0 draw: "dyadic" draws q0 from 1/64 to 1; "low" then
    replaces one point's q0 by 1/64, 2/64 or 3/64. A seed gives the same
    masses, p1 and class in both."""
    if family not in ("dyadic", "low"):
        raise ValueError(f"unknown q0 family {family!r}; families are 'dyadic', 'low'")
    if not 1 <= pool_size <= 128:
        raise ValueError(f"pool_size must lie in [1, 128], one 1/128 mass unit per point at least, got {pool_size}")
    if class_size < 1:
        raise ValueError(f"class_size must be at least 1, got {class_size}")
    if class_size > 2**pool_size:
        raise ValueError(f"class_size {class_size} exceeds the {2**pool_size} distinct labelings of the pool")
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
    if family == "low":
        q0[rng.integers(0, pool_size)] = rng.integers(1, 4) / 64.0
    hclass = FiniteClass(pool, np.array(rows, dtype=np.int8))
    return DiscreteInstance(pool=pool, masses=masses, p1=p1, classifiers=hclass, q0=q0)


def _check_member(instance: DiscreteInstance, *members: int) -> None:
    count = len(instance.classifiers)
    for h in members:
        if not 0 <= h < count:
            raise ValueError(f"member index {h} outside [0, {count})")


def _region(labels: np.ndarray) -> np.ndarray:
    """Pool mask where some pair of the label rows disagrees (none for no rows)."""
    return (labels != labels[:1]).any(axis=0)


def _s_mask(instance: DiscreteInstance, region: np.ndarray, alpha: float) -> np.ndarray:
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    return region & (instance.q0 <= instance.q0[region].min(initial=math.inf) + 1.0 / alpha)


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
    At r0 = 0 the limit adds nothing: the members at distance 0 agree with h*
    on every point of positive mass, so their region has mass 0.
    """
    if not 0.0 <= r0 < math.inf:
        raise ValueError(f"r0 must be finite and non-negative, got {r0}")
    if r0 < 2.0 * instance.nu - 1e-12:
        raise ValueError("r0 must be at least twice the best achievable error")
    labels, masses = instance.classifiers.labels, instance.masses
    star = labels[instance.h_star_index]
    # h*'s disagreement mass with each member, one masked sum each
    distances = np.array([masses[row != star].sum() for row in labels])

    def mass_at(radius: float) -> float:
        kept = _s_mask(instance, _region(labels[distances <= radius]), alpha)
        return float(masses[kept].sum())

    best = max((mass_at(r) / r for r in np.unique(distances[distances > r0]).tolist()), default=0.0)
    if r0 > 0.0:
        best = max(best, mass_at(r0) / r0)
    return best


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
    phase adds its record count times one record's mean and variance.

    A record's cell is its pool point, label and reveal bit; records are
    independent and each contributes a value fixed by its cell. Each phase
    builds one library sample (WeightedSample) over its cells of positive
    probability; a z = 1 cell at q = 0 has no valid denominator. A revealed
    cell's value is h's entry in the class's mistake table over the sample's
    denominator, the exact learners' loss; a hidden cell's is 0."""
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
    # cell 4p + 2y + z
    point = np.repeat(np.arange(len(instance.pool)), 4)
    y = np.tile([0, 0, 1, 1], len(instance.pool))
    z = np.tile([0, 1], 2 * len(instance.pool))
    label_prob = np.where(y == 1, instance.p1[point], 1.0 - instance.p1[point])
    mistakes = instance.classifiers.mistakes[h]
    mean = variance = 0.0
    for records, q_own in ((m, q0), (n, q1)):
        if records == 0:
            continue
        prob = instance.masses[point] * label_prob * np.where(z == 1, q_own[point], 1.0 - q_own[point])
        kept = prob > 0.0
        prob, at, cell_z, cell_y = prob[kept], point[kept], z[kept], y[kept]
        sample = (WeightedSample.balanced(at, cell_z, cell_y, q0[at], q1[at], m, n) if estimator == "mis"
                  else WeightedSample.phase_weighted(at, cell_z, cell_y, q_own[at], m, n))
        # column 2p + y of h's mistake row; a hidden record's stored label is 0
        values = np.divide(mistakes[2 * at + sample.y], sample.denominator, out=np.zeros(at.size), where=sample.z == 1)
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
    per fixture, each an exact sum over exact_moments' cells, so the rows are a
    pure function of (seed, fixtures). trials is accepted and not read:
    perfbench's exact-oracle workload passes it, and the keyword goes when
    that workload stops passing it, together with the learners' seed."""
    if fixtures < 1:
        raise ValueError(f"fixtures must be at least 1, got {fixtures}")
    rows: list[CheckRow] = []
    m = n = 8
    for i in range(fixtures):
        instance = random_instance(seed=seed * 1000 + i, family="low")
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
