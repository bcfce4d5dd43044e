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
import io
import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .data import LabeledRows, ParseError, RowTable, parse_sparse_dataset, row_keys
from .hypotheses import LinearModel, ogd_update
from .rng import child_seed, derive_rng

__all__ = [
    "LoggingPolicy",
    "IdenticalPolicy",
    "UniformGroupsPolicy",
    "MarginPolicy",
    "TablePolicy",
    "policy_prob",
    "margins",
    "COARSE_FRACTION",
    "fit_coarse_model",
    "calibrate_scale",
    "load_table_policy",
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


@dataclass(frozen=True)
class UniformGroupsPolicy(LoggingPolicy):
    """Instances fall into three fixed groups, each with its own constant
    reveal probability: child_seed(group_seed, key) mod 3 of the canonical
    key (see row_keys), whatever the dataset's order."""

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
        return np.fromiter((levels[child_seed(self.group_seed, k) % 3] for k in row_keys(rows)), float, rows.shape[0])


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
    """exp(-scale * r^2): certain regions are logged rarely."""
    # math.exp per element: np.exp can differ from it in the last bit
    return np.array([math.exp(v) for v in (-scale * r * r).tolist()], dtype=float)


def _certainty(scale: float, r: np.ndarray) -> np.ndarray:
    """min(scale * r^2, 1): certain regions are logged heavily."""
    return np.minimum(scale * r * r, 1.0)


# reveal probability at geometric margin r, by margin policy kind
_MARGIN_PROBS = {"uncertainty": _uncertainty, "certainty": _certainty}


@dataclass(frozen=True)
class MarginPolicy(LoggingPolicy):
    """Reveal probability from the geometric margin r to the coarse model's
    boundary, by the formula _MARGIN_PROBS holds for kind."""

    kind: str
    scale: float
    model: LinearModel

    def __post_init__(self):
        if self.kind not in _MARGIN_PROBS:
            raise ValueError(f"unknown margin policy kind {self.kind!r}")
        if not 0.0 <= self.scale < math.inf:
            raise ValueError(f"scale cannot be negative or non-finite, got {self.scale}")

    def probs(self, rows: scipy.sparse.csr_array) -> np.ndarray:
        return _MARGIN_PROBS[self.kind](self.scale, margins(self.model, rows))


class TablePolicy(LoggingPolicy):
    """Explicit instance -> probability map for finite pools, keyed by each
    instance's canonical key (see row_keys); total coverage of whatever it
    is asked about is required."""

    def __init__(self, table: dict[str, float]):
        for key, p in table.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p!r} for {key!r} out of range")
        self._table = dict(table)

    def probs(self, rows: scipy.sparse.csr_array) -> np.ndarray:
        try:
            return np.fromiter((self._table[key] for key in row_keys(rows)), float, rows.shape[0])
        except KeyError:
            raise ValueError("instance not covered by the table policy") from None


def _checked(p: np.ndarray) -> np.ndarray:
    outside = ~((0.0 <= p) & (p <= 1.0))
    if outside.any():
        raise ValueError(f"policy produced probability {p[outside][0]} outside [0, 1]")
    return p


def policy_prob(policy: LoggingPolicy, rows) -> np.ndarray:
    """Evaluate the policy on a block of rows and enforce the [0, 1]
    contract elementwise; NaN is rejected."""
    return _checked(np.asarray(policy.probs(rows), dtype=float))


COARSE_FRACTION = 0.1  # share of the rows a margin policy's coarse model is fitted on


def fit_coarse_model(data: LabeledRows, seed: int = 0) -> LinearModel:
    """Rough linear model from a seeded COARSE_FRACTION of the rows: one
    unweighted gradient pass at eta 1, enough to give margin-based policies
    a boundary. The model is as wide as the largest feature index it uses."""
    size = int(len(data) * COARSE_FRACTION)
    if size < 1:
        raise ValueError("subsample is empty; raise the dataset size")
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
    if kind not in _MARGIN_PROBS:
        raise ValueError(f"unknown margin policy kind {kind!r}")
    probs, r = _MARGIN_PROBS[kind], margins(model, rows)

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


def load_table_policy(text: str) -> TablePolicy:
    """Policy from CSV text headed 'instance,probability'. An instance cell
    holds "index:value" tokens as parse_sparse_dataset reads them and is
    stored by its canonical key, so token order and explicit zeros do not
    matter. Every malformed row is reported with its 1-based row number."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["instance", "probability"]:
        raise ValueError("table policy CSV must start with 'instance,probability'")
    table: dict[str, float] = {}
    for row_number, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise ValueError(f"row {row_number}: expected 2 columns")
        try:
            # one line per cell, behind a placeholder label
            (key,) = row_keys(parse_sparse_dataset("0 " + " ".join(row[0].split())).matrix)
        except ParseError as error:
            raise ValueError(f"row {row_number}: {error.message}") from None
        try:
            p = float(row[1])
        except ValueError as error:
            raise ValueError(f"row {row_number}: {error}") from None
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"row {row_number}: probability {row[1]!r} outside [0, 1]")
        if key in table:
            raise ValueError(f"row {row_number}: duplicate instance")
        table[key] = p
    return TablePolicy(table)
