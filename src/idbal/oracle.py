"""Brute-force ground truth on small discrete problems.

Everything here is deliberately exhaustive or Monte Carlo: true errors by
summing over the pool, disagreement balls and regions by enumeration, and
estimator checks by resampling the full generative process. The learners
never call into this module; it exists to verify them and the estimators.

Masses and propensities from `random_instance` live on dyadic grids
(denominators 128 and 64), so sums and comparisons are exact in floating
point and independently coded oracles can agree to the last bit.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import Example, FeatureVector, LabelSource, LoggedTriple
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
    "UnbiasednessReport",
    "mc_unbiasedness",
    "variance_compare",
    "RateReport",
    "concentration_rate",
    "CheckRow",
    "run_verification_suite",
]


@dataclass(frozen=True)
class DiscreteInstance:
    """A finite generative problem: pool instances with masses, conditional
    label probabilities, a finite hypothesis class over the pool, and the
    logging propensity at each pool instance."""

    pool: tuple[FeatureVector, ...]
    masses: np.ndarray
    p1: np.ndarray
    classifiers: FiniteClass
    q0: np.ndarray

    def __post_init__(self):
        size = len(self.pool)
        masses = np.asarray(self.masses, dtype=float)
        p1 = np.asarray(self.p1, dtype=float)
        q0 = np.asarray(self.q0, dtype=float)
        if masses.shape != (size,) or p1.shape != (size,) or q0.shape != (size,):
            raise ValueError("masses, p1, and q0 must each have one entry per pool instance")
        if not (np.isfinite(masses).all() and np.isfinite(p1).all() and np.isfinite(q0).all()):
            raise ValueError("masses, p1, and q0 must be finite")
        if (masses < 0).any() or abs(float(masses.sum()) - 1.0) > 1e-12:
            raise ValueError("masses must be nonnegative and sum to 1")
        if ((p1 < 0) | (p1 > 1)).any() or ((q0 < 0) | (q0 > 1)).any():
            raise ValueError("p1 and q0 must be probabilities")
        if self.classifiers.labels.shape[1] != size:
            raise ValueError("hypothesis class pool must match the instance pool")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "q0", q0)
        errors = self.classifiers.labels * (1.0 - p1) + (1 - self.classifiers.labels) * p1
        per_member = errors @ masses
        object.__setattr__(self, "_true_errors", per_member)

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
        return TablePolicy({x: float(p) for x, p in zip(self.pool, self.q0)})

    def draw_examples(self, rng: np.random.Generator, count: int) -> list[Example]:
        picks = rng.choice(len(self.pool), size=count, p=self.masses)
        labels = rng.random(count) < self.p1[picks]
        return [Example(self.pool[i], int(y)) for i, y in zip(picks, labels)]

    def draw_logged(self, rng: np.random.Generator, count: int) -> list[LoggedTriple]:
        picks = rng.choice(len(self.pool), size=count, p=self.masses)
        labels = rng.random(count) < self.p1[picks]
        reveals = rng.random(count) < self.q0[picks]
        out = []
        for i, y, z in zip(picks, labels, reveals):
            if z:
                out.append(LoggedTriple(self.pool[i], 1, int(y), LabelSource.QUERIED))
            else:
                out.append(LoggedTriple(self.pool[i], 0))
        return out


def random_instance(
    seed: int,
    pool_size: int = 6,
    class_size: int = 8,
    force_low_propensity: bool = False,
) -> DiscreteInstance:
    """Seeded random fixture on dyadic grids (masses in 1/128ths, p1 in
    1/32nds, q0 in 1/64ths, all masses positive, member rows distinct).
    force_low_propensity plants one q0 value at or below 3/64."""
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


def disagreement_mass(instance: DiscreteInstance, i: int, j: int) -> float:
    """Mass of the pool points where members i and j differ."""
    labels = instance.classifiers.labels
    return float(instance.masses[labels[i] != labels[j]].sum())


def dis_ball(instance: DiscreteInstance, center: int, radius: float) -> tuple[int, ...]:
    """Members within disagreement mass radius of the center, by enumeration."""
    return tuple(
        j
        for j in range(len(instance.classifiers))
        if disagreement_mass(instance, center, j) <= radius
    )


def dis_region(instance: DiscreteInstance, members: Iterable[int]) -> tuple[int, ...]:
    """Pool indices where some pair of the given members disagrees."""
    rows = list(members)
    if not rows:
        return ()
    sub = instance.classifiers.labels[rows]
    mask = sub.min(axis=0) != sub.max(axis=0)
    return tuple(int(i) for i in np.nonzero(mask)[0])


def s_region(instance: DiscreteInstance, region: Iterable[int], alpha: float) -> tuple[int, ...]:
    """Propensity-restricted region: the region points whose propensity is
    within 1/alpha of the region's propensity floor."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    points = sorted(set(int(i) for i in region))
    if not points:
        return ()
    floor = float(instance.q0[points].min())
    return tuple(i for i in points if instance.q0[i] <= floor + 1.0 / alpha)


def adjusted_dis_coefficient(instance: DiscreteInstance, r0: float, alpha: float) -> float:
    """sup over r > r0 of mass(s_region(DIS(ball(h*, r)), alpha)) / r.

    The ball is piecewise constant in r and 1/r is decreasing, so the
    supremum is attained either at one of the achievable disagreement-mass
    values above r0 or in the limit r -> r0 from above; both are enumerated.
    """
    if r0 < 0.0:
        raise ValueError("r0 cannot be negative")
    center = instance.h_star_index
    if r0 < 2.0 * instance.nu - 1e-12:
        raise ValueError("r0 must be at least twice the best achievable error")
    distances = sorted(
        {disagreement_mass(instance, center, j) for j in range(len(instance.classifiers))}
    )

    def mass_at(radius: float) -> float:
        members = dis_ball(instance, center, radius)
        region = dis_region(instance, members)
        kept = s_region(instance, region, alpha)
        return float(instance.masses[list(kept)].sum()) if kept else 0.0

    best = 0.0
    for r in distances:
        if r > r0:
            best = max(best, mass_at(r) / r)
    limit_mass = mass_at(r0)
    if r0 > 0.0:
        best = max(best, limit_mass / r0)
    elif limit_mass > 0.0:
        best = math.inf
    return best


@dataclass(frozen=True)
class UnbiasednessReport:
    mean: float
    stderr: float
    true_value: float
    trials: int

    @property
    def deviation_in_stderr(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.mean == self.true_value else math.inf
        return abs(self.mean - self.true_value) / self.stderr


# Cells per streamed chunk: one chunk's uniforms and per-cell temporaries
# stay in cache, and memory does not grow with the number of trials.
_CHUNK_CELLS = 1 << 16


def _uniform_chunks(rng: np.random.Generator, trials: int, total: int):
    """The uniforms of three successive rng.random((b, total)) draws per
    batch (picks, error or label bits, reveals), yielded as aligned row
    chunks (u_pick, u_second, u_reveal). Three copies of the generator are
    advanced to the starts of the three blocks and drawn in step, and rng
    ends where the whole-block draws would leave it. One draw is one 64-bit
    output on PCG64, the generator derive_rng returns."""
    # Batches once bounded memory. They still fix where each batch's three
    # blocks start in the stream, so changing this changes every statistic.
    batch = max(1, int(2e7 // total))
    step = max(1, _CHUNK_CELLS // total)
    for start in range(0, trials, batch):
        b = min(batch, trials - start)
        streams = []
        for k in range(3):
            bits = copy.deepcopy(rng.bit_generator)
            bits.advance(k * b * total)
            streams.append(np.random.Generator(bits))
        for row in range(0, b, step):
            shape = (min(step, b - row), total)
            yield tuple(stream.random(shape) for stream in streams)
        rng.bit_generator.advance(3 * b * total)


def _phase_tables(instance: DiscreteInstance, m: int, n: int, q1):
    """Per-point tables for m logged then n online columns: Generator.choice's
    cdf over the pool, the per-column offset (0 logged, pool size online),
    and indexed by pick + offset, the reveal probability (q0, then q1) and
    the balanced weight 1 / (m q0 + n q1), zero denominators read as 1.
    Each value goes through the IEEE operations of the per-cell expression
    it replaces, so it is bit-equal."""
    size = len(instance.pool)
    q0 = instance.q0
    q1 = np.ones(size) if q1 is None else np.asarray(q1, dtype=float)
    if q1.shape != q0.shape:
        raise ValueError("q1 must have one entry per pool instance")
    cdf = instance.masses.cumsum()
    cdf /= cdf[-1]
    offset = np.repeat(np.array([0, size], dtype=np.intp), (m, n))
    denom = m * q0 + n * q1
    return cdf, offset, np.concatenate([q0, q1]), np.tile(1.0 / np.where(denom > 0.0, denom, 1.0), 2)


def _cell_keys(tables, second: np.ndarray, trials: int, rng: np.random.Generator):
    """Row chunks of per-cell keys 4 * point + 2 * bit + revealed, where
    point = pick + offset indexes the tables, bit = u_second < second[point]
    and revealed = u_reveal < reveal[point]. The pick is Generator.choice's
    for u_pick: the count of cdf entries at or below it, which is
    cdf.searchsorted(u_pick, side="right") (the last entry is exactly 1)."""
    cdf, offset, reveal, _ = tables
    for u_pick, u_second, u_reveal in _uniform_chunks(rng, trials, len(offset)):
        picks = np.zeros(u_pick.shape, dtype=np.min_scalar_type(len(cdf)))
        for edge in cdf[:-1]:
            picks += u_pick >= edge
        point = picks.astype(np.intp) + offset
        yield 4 * point + 2 * (u_second < second[point]) + (u_reveal < reveal[point])


def _by_key(weight: np.ndarray, errs: np.ndarray) -> np.ndarray:
    """Cell value per key: weight[point] where errs[point, bit] holds and
    the label was revealed, else 0.0."""
    return np.where(errs[:, :, None] & [False, True], weight[:, None, None], 0.0).ravel()


def _cell_sums(tables, second: np.ndarray, values: Sequence[np.ndarray], trials: int, rng) -> list[np.ndarray]:
    """Per-trial sums of each cell-value table in values (see _by_key), all
    over the same draws of _cell_keys."""
    sums: list[list[np.ndarray]] = [[] for _ in values]
    for keys in _cell_keys(tables, second, trials, rng):
        for out, value in zip(sums, values):
            out.append(value[keys].sum(axis=1))
    return [np.concatenate(out) for out in sums]


def _simulate_estimates(
    instance: DiscreteInstance, h: int, m: int, n: int, trials: int, rng, q1, estimators: Sequence[str]
) -> list[np.ndarray]:
    """Per-trial values of each named estimator ("is" per-phase, "mis"
    balanced) from full resamples of the generative process, on shared draws."""
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError(f"m and n must be non-negative with m + n at least 1, got m={m}, n={n}")
    tables = _phase_tables(instance, m, n, q1)
    _, _, reveal, balanced = tables
    row = instance.classifiers.labels[h]
    # label draw folded into the error event: P(h(x) != Y | x) is exactly
    # the per-point error probability, which is all the estimator sees
    err_prob = np.tile(np.where(row == 1, 1.0 - instance.p1, instance.p1), 2)
    wrong = np.array([[False, True]])  # the second bit is the error event itself
    weights = {"is": 1.0 / np.where(reveal > 0.0, reveal, 1.0), "mis": balanced}
    sums = _cell_sums(tables, err_prob, [_by_key(weights[name], wrong) for name in estimators], trials, rng)
    return [total / (m + n) if name == "is" else total for name, total in zip(estimators, sums)]


def _check_trials(trials: int, least: int) -> None:
    if trials < least:
        raise ValueError(f"trials must be at least {least}, got {trials}")


def mc_unbiasedness(
    instance: DiscreteInstance,
    h: int,
    m: int,
    n: int,
    trials: int,
    seed: int = 0,
    q1: np.ndarray | None = None,
    estimator: str = "mis",
) -> UnbiasednessReport:
    """Resample the generative process and report the estimator's empirical
    mean, its standard error, and the exact target."""
    if estimator not in ("mis", "is"):
        raise ValueError(f"unknown estimator {estimator!r}")
    _check_trials(trials, 1)
    rng = derive_rng(seed, "mc-unbiasedness", estimator)
    (values,) = _simulate_estimates(instance, h, m, n, trials, rng, q1, (estimator,))
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return UnbiasednessReport(mean=mean, stderr=stderr, true_value=float(instance.true_errors[h]), trials=trials)


def variance_compare(
    instance: DiscreteInstance,
    h: int,
    m: int,
    n: int,
    trials: int,
    seed: int = 0,
    q1: np.ndarray | None = None,
) -> tuple[float, float]:
    """(variance of the per-phase estimator, variance of the balanced
    estimator) on shared draws."""
    _check_trials(trials, 2)  # a ddof=1 variance needs two values
    rng = derive_rng(seed, "mc-variance")
    est_is, est_mis = _simulate_estimates(instance, h, m, n, trials, rng, q1, ("is", "mis"))
    return float(est_is.var(ddof=1)), float(est_mis.var(ddof=1))


@dataclass(frozen=True)
class RateReport:
    effective_sizes: tuple[int, ...]
    quantiles: tuple[float, ...]
    slope: float


def concentration_rate(
    instance: DiscreteInstance,
    pair: tuple[int, int],
    effective_sizes: Sequence[int],
    trials: int,
    seed: int = 0,
    q1: np.ndarray | None = None,
) -> RateReport:
    """Empirical 0.9-quantile of the deviation of the estimated error gap
    between two members from the true gap, at m = n = N for each N, plus the
    fitted log-log slope (about -1/2 when concentration goes as 1/sqrt(N))."""
    _check_trials(trials, 1)
    if any(size < 1 for size in effective_sizes):
        raise ValueError(f"effective_sizes must each be at least 1, got {list(effective_sizes)}")
    gap_true = instance.true_errors[pair[0]] - instance.true_errors[pair[1]]
    member_errs = [np.tile(instance.classifiers.labels[h], 2)[:, None] != [0, 1] for h in pair]
    p1 = np.tile(instance.p1, 2)
    quantiles: list[float] = []
    for size_index, size in enumerate(effective_sizes):
        tables = _phase_tables(instance, size, size, q1)
        by_key = [_by_key(tables[3], errs) for errs in member_errs]
        est1, est2 = _cell_sums(tables, p1, by_key, trials, derive_rng(seed, "mc-rate", size_index))
        quantiles.append(float(np.quantile(np.abs((est1 - est2) - gap_true), 0.9)))
    sizes = np.asarray(effective_sizes, dtype=float)
    quant = np.asarray(quantiles)
    if len(set(sizes)) < 2 or (quant <= 0.0).any():  # no line through fewer than two points
        slope = math.nan
    else:
        slope = float(np.polyfit(np.log(sizes), np.log(quant), 1)[0])
    return RateReport(tuple(int(s) for s in effective_sizes), tuple(quantiles), slope)


@dataclass(frozen=True)
class CheckRow:
    name: str
    passed: bool
    statistic: float
    threshold: float
    details: str


def run_verification_suite(seed: int, fixtures: int = 20, trials: int = 20000) -> list[CheckRow]:
    """Self-contained estimator and geometry checks over at least one
    fixture and two trials; returns one row per check."""
    _check_trials(trials, 2)
    if fixtures < 1:
        raise ValueError(f"fixtures must be at least 1, got {fixtures}")
    rows: list[CheckRow] = []
    for i in range(fixtures):
        instance = random_instance(seed=seed * 1000 + i, force_low_propensity=True)
        h = i % len(instance.classifiers)
        for estimator in ("mis", "is"):
            report = mc_unbiasedness(instance, h, m=8, n=8, trials=trials, seed=seed * 77 + i, estimator=estimator)
            rows.append(
                CheckRow(
                    name=f"unbiasedness-{estimator}-{i}",
                    passed=report.deviation_in_stderr <= 4.0,
                    statistic=report.deviation_in_stderr,
                    threshold=4.0,
                    details=f"mean {report.mean:.6g} true {report.true_value:.6g}",
                )
            )
        var_is, var_mis = variance_compare(instance, h, m=8, n=8, trials=trials, seed=seed * 77 + i)
        ratio = var_mis / var_is if var_is > 0.0 else (0.0 if var_mis == 0.0 else math.inf)
        rows.append(
            CheckRow(
                name=f"variance-dominance-{i}",
                passed=ratio <= 1.05,
                statistic=ratio,
                threshold=1.05,
                details=f"var_is {var_is:.6g} var_mis {var_mis:.6g}",
            )
        )
    instance = random_instance(seed=seed, pool_size=6, class_size=8)
    pair = (0, 1)
    rate = concentration_rate(instance, pair, [32, 64, 128, 256, 512], trials=max(trials, 4000), seed=seed)
    rows.append(
        CheckRow(
            name="concentration-slope",
            passed=bool(-0.65 <= rate.slope <= -0.35) if math.isfinite(rate.slope) else False,
            statistic=rate.slope,
            threshold=-0.5,
            details=" ".join(f"{q:.4g}" for q in rate.quantiles),
        )
    )
    monotone_fail = 0
    for i in range(10):
        instance = random_instance(seed=seed * 31 + i)
        r0 = 2.0 * instance.nu
        base = adjusted_dis_coefficient(instance, r0, 1.0)
        for alpha in (2.0, 4.0, 8.0):
            if adjusted_dis_coefficient(instance, r0, alpha) > base + 1e-12:
                monotone_fail += 1
    rows.append(
        CheckRow(
            name="theta-alpha-monotone",
            passed=monotone_fail == 0,
            statistic=float(monotone_fail),
            threshold=0.0,
            details="theta(r0, alpha) <= theta(r0, 1) over 10 fixtures",
        )
    )
    return rows
