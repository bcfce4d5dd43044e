"""Logging policies: per-instance label-reveal probabilities.

A policy maps an instance to the probability that its label was recorded
during the logging phase. Besides the constant policy there are group-based
and margin-based families, the latter driven by a coarse linear model fitted
on a small slice of the data, plus an explicit per-instance table for finite
pools.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .data import Example, FeatureVector, to_labeled_rows
from .hypotheses import LinearModel, ogd_update
from .rng import derive_rng

__all__ = [
    "LoggingPolicy",
    "IdenticalPolicy",
    "UniformGroupsPolicy",
    "UncertaintyPolicy",
    "CertaintyPolicy",
    "TablePolicy",
    "policy_prob",
    "group_of",
    "fit_coarse_model",
    "calibrate_scale",
    "load_table_policy",
    "save_table_policy",
]


class LoggingPolicy:
    """Base class; subclasses implement prob(x) in [0, 1]."""

    def prob(self, x: FeatureVector) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class IdenticalPolicy(LoggingPolicy):
    """Every instance is revealed with the same probability."""

    p: float = 0.005

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be a probability")

    def prob(self, x: FeatureVector) -> float:
        return self.p


def group_of(x: FeatureVector, group_seed: int, groups: int = 3) -> int:
    """Deterministic group assignment from the instance's canonical bytes and
    the seed; independent of any dataset ordering."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(int(group_seed)).encode("ascii"))
    digest.update(b"\x1f")
    digest.update(x.key().encode("utf-8"))
    return int.from_bytes(digest.digest(), "little") % groups


@dataclass(frozen=True)
class UniformGroupsPolicy(LoggingPolicy):
    """Instances hash into three fixed groups, each with its own constant
    reveal probability."""

    p0: float = 0.005
    p1: float = 0.05
    p2: float = 0.5
    group_seed: int = 0

    def __post_init__(self):
        for p in (self.p0, self.p1, self.p2):
            if not 0.0 <= p <= 1.0:
                raise ValueError("group probabilities must be probabilities")

    def prob(self, x: FeatureVector) -> float:
        return (self.p0, self.p1, self.p2)[group_of(x, self.group_seed)]


@dataclass(frozen=True)
class UncertaintyPolicy(LoggingPolicy):
    """Reveal probability exp(-scale * r^2) at geometric margin r from the
    coarse model's boundary: certain regions are logged rarely."""

    scale: float
    model: LinearModel

    def __post_init__(self):
        if self.scale < 0.0:
            raise ValueError("scale cannot be negative")

    def prob(self, x: FeatureVector) -> float:
        r = self.model.margin(x)
        return math.exp(-self.scale * r * r)


@dataclass(frozen=True)
class CertaintyPolicy(LoggingPolicy):
    """Reveal probability scale * r^2 clamped to [0, 1]: certain regions are
    logged heavily, the boundary not at all."""

    scale: float
    model: LinearModel

    def __post_init__(self):
        if self.scale < 0.0:
            raise ValueError("scale cannot be negative")

    def prob(self, x: FeatureVector) -> float:
        r = self.model.margin(x)
        return min(self.scale * r * r, 1.0)


class TablePolicy(LoggingPolicy):
    """Explicit instance -> probability map for finite pools; total coverage
    of whatever it is asked about is required."""

    def __init__(self, table: dict[FeatureVector, float]):
        for x, p in table.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p!r} for {x!r} out of range")
        self._table = dict(table)

    def prob(self, x: FeatureVector) -> float:
        try:
            return self._table[x]
        except KeyError:
            raise ValueError("instance not covered by the table policy") from None

    def __len__(self) -> int:
        return len(self._table)


def policy_prob(policy: LoggingPolicy, x: FeatureVector) -> float:
    """Evaluate the policy and enforce the [0, 1] contract."""
    p = float(policy.prob(x))
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"policy produced probability {p} outside [0, 1]")
    return p


def fit_coarse_model(
    data: Sequence[Example],
    fraction: float = 0.1,
    seed: int = 0,
    eta: float = 1.0,
) -> LinearModel:
    """Rough linear model from a seeded subsample: one unweighted gradient
    pass, enough to give margin-based policies a boundary."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    size = int(len(data) * fraction)
    if size < 1:
        raise ValueError("subsample is empty; raise the fraction or the dataset size")
    rng = derive_rng(seed, "coarse", "subsample")
    subsample = [data[i] for i in rng.choice(len(data), size=size, replace=False)]
    dim = max(1, *(ex.x.max_index() for ex in subsample))
    rows = to_labeled_rows(subsample, dim)
    return ogd_update(LinearModel.zeros(dim), rows.matrix, rows.labels, np.ones(size), eta)


def _mean_prob(make_policy: Callable[[float], LoggingPolicy], scale: float, instances: Sequence[FeatureVector]) -> float:
    policy = make_policy(scale)
    return sum(policy_prob(policy, x) for x in instances) / len(instances)


def calibrate_scale(
    kind: str,
    model: LinearModel,
    instances: Sequence[FeatureVector],
    target: float = 0.1,
    tolerance: float = 1e-9,
) -> float:
    """Scale constant for a margin policy so its mean reveal probability over
    the given instances hits the target. kind is "uncertainty" (mean decreasing
    in the scale) or "certainty" (increasing); unreachable targets raise."""
    if len(instances) == 0:
        raise ValueError("calibration needs at least one instance")
    if not 0.0 < target < 1.0:
        raise ValueError("target must lie strictly between 0 and 1")
    if kind == "uncertainty":
        make = lambda c: UncertaintyPolicy(c, model)
    elif kind == "certainty":
        make = lambda c: CertaintyPolicy(c, model)
    else:
        raise ValueError(f"unknown margin policy kind {kind!r}")

    def gap(scale: float) -> float:
        return _mean_prob(make, scale, instances) - target

    at_zero = gap(0.0)
    if abs(at_zero) <= tolerance:
        return 0.0
    hi = 1.0
    for _ in range(80):
        if at_zero * gap(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        raise ValueError(f"target {target} unreachable for {kind} policy on this sample")
    return float(brentq(gap, 0.0, hi, xtol=tolerance))


def save_table_policy(pairs: Sequence[tuple[FeatureVector, float]]) -> str:
    """Two-column CSV text (instance id, probability); ids are canonical
    instance keys."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["instance", "probability"])
    for x, p in pairs:
        writer.writerow([x.key(), repr(float(p))])
    return out.getvalue()


def load_table_policy(text: str) -> TablePolicy:
    """Parse the CSV written by save_table_policy back into a policy."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != ["instance", "probability"]:
        raise ValueError("table policy CSV must start with 'instance,probability'")
    table: dict[FeatureVector, float] = {}
    for row_number, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValueError(f"row {row_number}: expected 2 columns")
        pairs = []
        for token in row[0].split():
            index_text, _, value_text = token.partition(":")
            pairs.append((int(index_text), float(value_text)))
        x = FeatureVector(pairs)
        if x in table:
            raise ValueError(f"row {row_number}: duplicate instance")
        table[x] = float(row[1])
    return TablePolicy(table)
