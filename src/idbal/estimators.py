"""Importance-weighted error estimators and deviation bounds.

Two unbiased estimators of a classifier's true error from partially labeled
records:

* plain importance sampling over m logged + n online records, each record
  divided by its own phase's reveal probability and the total averaged over
  m + n;
* multiple importance sampling with the balanced weighting, where a record at
  x is divided by m*q0(x) + n*q1(x) regardless of which phase produced it.

Records with z = 0 contribute exactly 0 before any division happens, so a
zero reveal probability on an unrevealed record is harmless.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .data import FeatureVector, LoggedTriple

__all__ = [
    "BoundConfig",
    "WeightedSample",
    "mis_error",
    "sigma",
    "delta_bound",
]


def as_predictor(classifier) -> Callable[[FeatureVector], int]:
    """Accept either an object with .predict(x) or a bare callable."""
    predict = getattr(classifier, "predict", None)
    return predict if predict is not None else classifier


@dataclass(frozen=True)
class BoundConfig:
    """Constants of the deviation bound: the scale factor gamma0 of the
    candidate-set threshold, the class size and the failure probability."""

    gamma0: float = 1.0
    hypothesis_count: int = 2
    delta: float = 0.1

    def __post_init__(self):
        if self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive")
        if self.hypothesis_count < 1:
            raise ValueError("hypothesis_count must be at least 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class WeightedSample:
    """Records paired with the positive denominator each z = 1 record is
    divided by, plus the nominal phase sizes (m logged, n online) the
    denominators were built from."""

    records: tuple[tuple[LoggedTriple, float], ...]
    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("phase sizes cannot be negative")
        for triple, denominator in self.records:
            if triple.z == 1 and denominator <= 0.0:
                raise ValueError("z = 1 record has non-positive denominator")

    @classmethod
    def balanced(
        cls,
        triples: Sequence[LoggedTriple],
        q_logging: Sequence[float],
        q_online: Sequence[float],
        m: int,
        n: int,
    ) -> "WeightedSample":
        """Balanced multiple importance sampling: denominator m*q0 + n*q1."""
        if not len(triples) == len(q_logging) == len(q_online):
            raise ValueError("propensity sequences must align with triples")
        records = tuple(
            (t, m * float(p0) + n * float(p1))
            for t, p0, p1 in zip(triples, q_logging, q_online)
        )
        return cls(records=records, m=m, n=n)

    @classmethod
    def phase_weighted(
        cls,
        triples: Sequence[LoggedTriple],
        q_own: Sequence[float],
        m: int,
        n: int,
    ) -> "WeightedSample":
        """Plain importance sampling folded into the same shape: denominator
        (m+n)*q where q is the record's own phase's reveal probability."""
        if len(triples) != len(q_own):
            raise ValueError("propensity sequence must align with triples")
        total = m + n
        records = tuple((t, total * float(p)) for t, p in zip(triples, q_own))
        return cls(records=records, m=m, n=n)

    def instances(self) -> list[FeatureVector]:
        return [t.x for t, _ in self.records]


def mis_error(classifier, sample: WeightedSample) -> float:
    """Sum of 1{h(x) != y} * z / denominator over the sample's records.

    Unbiased for the true error when denominators are m*q0(x) + n*q1(x) and
    never smaller in variance than either single-phase weighting.
    """
    predict = as_predictor(classifier)
    total = 0.0
    for triple, denominator in sample.records:
        if triple.z == 0:
            continue
        if predict(triple.x) != triple.y:
            total += 1.0 / denominator
    return total


def sigma(sizes: tuple[int, int], xi: float, cfg: BoundConfig) -> float:
    """Deviation scale ln(hypothesis_count / delta) / (m*xi + n) where xi
    lower-bounds the logging propensity over the region of interest."""
    m, n = sizes
    if m < 0 or n < 0:
        raise ValueError("phase sizes cannot be negative")
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must be a probability")
    denominator = m * xi + n
    if denominator <= 0.0:
        raise ValueError("zero effective sample size (empty-segment configuration)")
    return math.log(cfg.hypothesis_count / cfg.delta) / denominator


def delta_bound(sigma_value: float, rho: float, cfg: BoundConfig) -> float:
    """Candidate-set slack gamma0 * (sigma + sqrt(sigma * rho)).

    Nondecreasing in both arguments; an infinite sigma yields an infinite
    slack (no filtering) rather than a NaN.
    """
    if sigma_value < 0.0:
        raise ValueError("sigma must be nonnegative")
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho is a disagreement fraction in [0, 1]")
    if math.isinf(sigma_value):
        return math.inf
    return cfg.gamma0 * (sigma_value + math.sqrt(sigma_value * rho))
