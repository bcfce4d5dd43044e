"""Logging policies: label-reveal probabilities for a block of rows.

A policy maps each instance to the probability that its label was recorded
during the logging phase. Besides the constant policy there are group-based
and margin-based families, the latter driven by a coarse linear model fitted
on a small slice of the data, plus an explicit per-instance table for finite
pools. Every policy scores a block of CSR rows at once: a LabeledRows
matrix, or a finite class's pool (FiniteClass.rows).
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse

from .data import FeatureVector, LabeledRows, RowTable, row_keys
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
    "margins",
    "fit_coarse_model",
    "calibrate_scale",
    "load_table_policy",
    "save_table_policy",
]


class LoggingPolicy:
    """Base class; subclasses implement probs(rows), one value in [0, 1] per
    row."""

    def probs(self, rows: scipy.sparse.csr_array) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class IdenticalPolicy(LoggingPolicy):
    """Every instance is revealed with the same probability."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be a probability")

    def probs(self, rows: scipy.sparse.csr_array) -> np.ndarray:
        return np.full(rows.shape[0], self.p)


def group_of(key: str, group_seed: int) -> int:
    """Deterministic group (0, 1 or 2) from an instance's canonical key (see
    row_keys) and the seed; independent of any dataset ordering."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(int(group_seed)).encode("ascii"))
    digest.update(b"\x1f")
    digest.update(key.encode("utf-8"))
    return int.from_bytes(digest.digest(), "little") % 3


@dataclass(frozen=True)
class UniformGroupsPolicy(LoggingPolicy):
    """Instances hash into three fixed groups, each with its own constant
    reveal probability."""

    p0: float
    p1: float
    p2: float
    group_seed: int

    def __post_init__(self):
        for p in (self.p0, self.p1, self.p2):
            if not 0.0 <= p <= 1.0:
                raise ValueError("group probabilities must be probabilities")

    def probs(self, rows: scipy.sparse.csr_array) -> np.ndarray:
        levels = (self.p0, self.p1, self.p2)
        return np.array([levels[group_of(key, self.group_seed)] for key in row_keys(rows)], dtype=float)


def margins(model: LinearModel, rows: scipy.sparse.csr_array) -> np.ndarray:
    """|w . x~| / ||w||_2 per row, bias included on both sides; 0 for a zero
    model. Only the columns that rows and model share are scored: a feature
    the model never saw has weight 0, and the norm stays the model's own."""
    w = model.weights
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        return np.zeros(rows.shape[0])
    if rows.shape[1] > w.size:
        rows = rows[:, : w.size]
    return np.abs(rows @ w[: rows.shape[1]]) / norm


def _uncertainty(scale: float, r: np.ndarray) -> np.ndarray:
    # math.exp per element: np.exp can differ from it in the last bit
    return np.array([math.exp(v) for v in (-scale * r * r).tolist()], dtype=float)


def _certainty(scale: float, r: np.ndarray) -> np.ndarray:
    return np.minimum(scale * r * r, 1.0)


@dataclass(frozen=True)
class UncertaintyPolicy(LoggingPolicy):
    """Reveal probability exp(-scale * r^2) at geometric margin r from the
    coarse model's boundary: certain regions are logged rarely."""

    scale: float
    model: LinearModel

    def __post_init__(self):
        if self.scale < 0.0:
            raise ValueError("scale cannot be negative")

    def probs(self, rows: scipy.sparse.csr_array) -> np.ndarray:
        return _uncertainty(self.scale, margins(self.model, rows))


@dataclass(frozen=True)
class CertaintyPolicy(LoggingPolicy):
    """Reveal probability scale * r^2 clamped to [0, 1]: certain regions are
    logged heavily, the boundary not at all."""

    scale: float
    model: LinearModel

    def __post_init__(self):
        if self.scale < 0.0:
            raise ValueError("scale cannot be negative")

    def probs(self, rows: scipy.sparse.csr_array) -> np.ndarray:
        return _certainty(self.scale, margins(self.model, rows))


class TablePolicy(LoggingPolicy):
    """Explicit instance -> probability map for finite pools; total coverage
    of whatever it is asked about is required. Rows are looked up by their
    canonical key."""

    def __init__(self, table: dict[FeatureVector, float]):
        for x, p in table.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p!r} for {x!r} out of range")
        self._table = {x.key(): p for x, p in table.items()}

    def probs(self, rows: scipy.sparse.csr_array) -> np.ndarray:
        try:
            return np.array([self._table[key] for key in row_keys(rows)], dtype=float)
        except KeyError:
            raise ValueError("instance not covered by the table policy") from None

    def __len__(self) -> int:
        return len(self._table)


def _checked(p: np.ndarray) -> np.ndarray:
    outside = ~((0.0 <= p) & (p <= 1.0))
    if outside.any():
        raise ValueError(f"policy produced probability {p[outside][0]} outside [0, 1]")
    return p


def policy_prob(policy: LoggingPolicy, rows) -> np.ndarray:
    """Evaluate the policy on a block of rows and enforce the [0, 1]
    contract elementwise; NaN is rejected."""
    return _checked(np.asarray(policy.probs(rows), dtype=float))


def fit_coarse_model(data: LabeledRows, fraction: float, seed: int = 0) -> LinearModel:
    """Rough linear model from a seeded subsample: one unweighted gradient
    pass at eta 1, enough to give margin-based policies a boundary. The model
    is as wide as the largest feature index the subsample uses."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    size = int(len(data) * fraction)
    if size < 1:
        raise ValueError("subsample is empty; raise the fraction or the dataset size")
    rng = derive_rng(seed, "coarse", "subsample")
    subsample = data[rng.choice(len(data), size=size, replace=False)]
    sub = subsample.matrix
    dim = max(1, int(sub.indices.max()))
    rows = scipy.sparse.csr_array((sub.data, sub.indices, sub.indptr), shape=(size, dim + 1))
    return ogd_update(LinearModel.zeros(dim), RowTable.from_csr(rows), subsample.labels, np.ones(size), 1.0)


# Brent's root finder as scipy's brentq runs it (Zeros/brentq.c): the
# same float operations in the same order, so the same root bit for bit
_XTOL = 1e-9
_RTOL = 4 * sys.float_info.epsilon
_MAXITER = 100


def _brentq(f, xa: float, xb: float) -> float:
    """Root of f in [xa, xb], whose ends must differ in sign (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4). A NaN
    value, a same-sign bracket or _MAXITER steps without convergence raise."""

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ValueError(f"no convergence after {_MAXITER} iterations, value is {xcur}")


def calibrate_scale(kind: str, model: LinearModel, rows: scipy.sparse.csr_array, target: float) -> float:
    """Scale constant for a margin policy so its mean reveal probability over
    the given rows hits the target. kind is "uncertainty" (mean decreasing
    in the scale) or "certainty" (increasing); unreachable targets raise."""
    if rows.shape[0] == 0:
        raise ValueError("calibration needs at least one instance")
    if not 0.0 < target < 1.0:
        raise ValueError("target must lie strictly between 0 and 1")
    if kind == "uncertainty":
        probs = _uncertainty
    elif kind == "certainty":
        probs = _certainty
    else:
        raise ValueError(f"unknown margin policy kind {kind!r}")
    r = margins(model, rows)

    def gap(scale: float) -> float:
        # a sequential sum, in row order, keeps the root finder's path fixed
        return sum(_checked(probs(scale, r)).tolist()) / r.size - target

    at_zero = gap(0.0)
    if abs(at_zero) <= _XTOL:
        return 0.0
    hi = 1.0
    for _ in range(80):
        if at_zero * gap(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        raise ValueError(f"target {target} unreachable for {kind} policy on this sample")
    return _brentq(gap, 0.0, hi)


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
    """Parse the CSV written by save_table_policy back into a policy. Every
    malformed row is reported with its 1-based row number."""
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or rows[0] != ["instance", "probability"]:
        raise ValueError("table policy CSV must start with 'instance,probability'")
    table: dict[FeatureVector, float] = {}
    for row_number, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValueError(f"row {row_number}: expected 2 columns")
        try:
            tokens = (token.partition(":") for token in row[0].split())
            x = FeatureVector([(int(index), float(value)) for index, _, value in tokens])
            p = float(row[1])
        except ValueError as error:
            raise ValueError(f"row {row_number}: {error}") from None
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"row {row_number}: probability {row[1]!r} outside [0, 1]")
        if x in table:
            raise ValueError(f"row {row_number}: duplicate instance")
        table[x] = p
    return TablePolicy(table)
