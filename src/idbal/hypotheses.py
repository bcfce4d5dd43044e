"""Hypothesis representations and the operations the learners drive.

Two worlds:

* exact: a finite ordered class realized as a label table over a fixed
  instance pool, with explicit candidate-set updates and a disagreement mask
  read off the table;
* practical: a linear model with a bias coordinate, trained by online gradient
  descent on the squared surrogate (y mapped to {-1, +1}) over a RowTable's
  rows, with a margin-based approximation of the disagreement test that never
  materializes a candidate set.
"""
from __future__ import annotations

import hashlib
import math
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import FeatureVector, LabeledRows, RowTable, parse_sparse_dataset
from .estimators import WeightedSample

__all__ = [
    "LinearModel",
    "FiniteClass",
    "TableClassifier",
    "classification_error",
    "weighted_losses",
    "best_candidate",
    "prune_candidates",
    "exact_dis_test",
    "ogd_stepsize",
    "ogd_update",
    "ogd_memo",
    "approx_dis_mask",
]


@dataclass(frozen=True)
class LinearModel:
    """Linear threshold classifier over the extended vector x~ = (1, x).

    weights[0] is the bias; weights[i] multiplies feature index i. steps
    counts every gradient update ever applied, across training phases; it is
    never reset.
    """

    weights: np.ndarray
    steps: int = 0

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-d array")
        object.__setattr__(self, "weights", w)
        if self.steps < 0:
            raise ValueError("steps cannot be negative")

    @classmethod
    def zeros(cls, dim: int) -> "LinearModel":
        if dim < 1:
            raise ValueError("dim must be positive")
        return cls(np.zeros(dim + 1), 0)

    @property
    def dim(self) -> int:
        return self.weights.size - 1


def ogd_stepsize(t: int, eta: float) -> float:
    """Schedule sqrt(eta / (t + eta)) for update number t (1-based); t = 0
    gives the degenerate value 1 for every eta, so callers pass the
    incremented counter."""
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    if t < 0:
        raise ValueError("t cannot be negative")
    return math.sqrt(eta / (t + eta))


# Finished passes of ogd_update; None outside ogd_memo(). A context variable,
# so a block is seen only by the thread that opened it.
_passes: ContextVar[dict[tuple, tuple[np.ndarray, int, list]] | None] = ContextVar("ogd_passes", default=None)


@contextmanager
def ogd_memo():
    """Within the block, an ogd_update call that repeats a pass already made
    in it returns that pass's result instead of running the row loop again.
    The results are the same to the bit, since the key covers every input
    the pass reads: its rows by their ids (the entry holds them, so no id
    is reused), the start weights by SHA-256 digest, steps, eta, and the
    labels and importance weights as bytes. Whatever the block stored is
    dropped when it exits, by an exception too; a nested block starts empty
    and restores the outer one's passes."""
    token = _passes.set({})
    try:
        yield
    finally:
        _passes.reset(token)


def ogd_update(model: LinearModel, rows: RowTable, labels, importance_weights, eta: float) -> LinearModel:
    """One in-order pass over a RowTable's rows: a gradient step per row on
    the weighted squared surrogate (w . x~ - y~)^2 with y~ = 2y - 1. Each
    step uses the pre-increment step index for its stepsize; a row of
    weight 0 still advances steps. Scores are summed from the bias left to
    right, so the weights do not depend on the batching. Inside ogd_memo() a
    repeated pass is looked up after the same checks.
    """
    w = model.weights
    if rows.width != w.size:
        raise ValueError(f"rows have {rows.width - 1} features, model dimension is {model.dim}")
    labels = np.asarray(labels)
    importance_weights = np.asarray(importance_weights, dtype=float)
    if not labels.shape == importance_weights.shape == (len(rows),):
        raise ValueError("labels and importance weights must align with the rows")
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("label must be 0 or 1")
    if (importance_weights < 0.0).any():
        raise ValueError("importance weight cannot be negative")
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    eta = float(eta)  # the key holds eta as a float, so the loop must compute with one
    table = rows.rows.tolist()
    passes = _passes.get()
    if passes is not None:
        # the start weights are as wide as the model, so the key holds their
        # digest: on a 1,000-feature model, their bytes would hold 8 KB a pass
        start = hashlib.sha256(np.ascontiguousarray(w)).digest()
        ids = array("Q", map(id, table)).tobytes()
        key = (ids, start, model.steps, eta, labels.astype(np.int8).tobytes(), importance_weights.tobytes())
        done = passes.get(key)
        if done is not None:
            return LinearModel(done[0].copy(), done[1])
    weights = w.tolist()
    steps = model.steps
    for (indices, values), y, u in zip(table, labels.tolist(), importance_weights.tolist()):
        steps += 1
        step = math.sqrt(eta / (steps + eta))  # ogd_stepsize(steps, eta), unchecked
        if u > 0.0:
            score = 0.0
            for i, v in zip(indices, values):
                score += weights[i] * v
            scale = step * u * 2.0 * (score - (2.0 * y - 1.0))
            for i, v in zip(indices, values):
                weights[i] -= scale * v
    result = LinearModel(np.array(weights), steps)
    if passes is not None:
        passes[key] = (result.weights.copy(), steps, table)
    return result


@dataclass(frozen=True)
class TableClassifier:
    """A single member of a FiniteClass, by index: its predictions on the
    class's pool are the class's labels[index] row. Members are equal when
    their indices are."""

    __slots__ = ("index",)
    index: int

    def __reduce__(self):
        return TableClassifier, (self.index,)


class FiniteClass:
    """Ordered finite hypothesis class over a shared instance pool.

    Stored as a (members x pool) 0/1 label table: membership tests,
    disagreement checks, and weighted empirical errors reduce to array
    lookups. Members are addressed by their index. rows holds the pool as
    LabeledRows (bias in column 0, every label 0), so a logging policy
    scores the whole pool like a dataset, and its row_seeds memo lives
    with the class.
    mistakes is the read-only (members x 2*pool) float64 0/1 table whose
    column 2p + y is labels[:, p] != y: each member's loss on a record at
    pool position p with label y, stored as the float the loss product reads.
    The constructor builds these and records, the pool's shared records five
    per point in cell order, so a record's index is its cell code 5p + c;
    record_codes maps each record's id to it. The class holds the records,
    so no id is reused while the class lives.
    """

    def __init__(self, pool: Sequence[FeatureVector], labels: np.ndarray):
        table = np.asarray(labels)
        if table.ndim != 2:
            raise ValueError("labels must be a (members, pool) table")
        if table.shape[1] != len(pool):
            raise ValueError("label table width must match pool size")
        if table.shape[0] < 1:
            raise ValueError("class must contain at least one member")
        if not np.isin(table, (0, 1)).all():
            raise ValueError("labels must be 0/1")
        self.pool: tuple[FeatureVector, ...] = tuple(pool)
        self.labels: np.ndarray = table.astype(np.int8)
        self.labels.flags.writeable = False  # the mistake table below is derived from it
        if len(set(self.pool)) != len(self.pool):
            raise ValueError("pool instances must be distinct")
        # parsed from the canonical keys, so row_keys(rows.matrix) gives them back
        self._rows = parse_sparse_dataset("".join(f"0 {x.key()}\n" for x in self.pool))
        self._mistakes = np.stack((self.labels != 0, self.labels != 1), axis=2).reshape(len(self), -1).astype(float)
        self._mistakes.flags.writeable = False
        self.records: tuple = tuple(r for x in self.pool for r in x.records)
        self.record_codes: dict[int, int] = {id(r): i for i, r in enumerate(self.records)}

    @property
    def rows(self) -> LabeledRows:
        return self._rows

    @property
    def mistakes(self) -> np.ndarray:
        return self._mistakes

    def __len__(self) -> int:
        return self.labels.shape[0]


def classification_error(model: LinearModel, data: LabeledRows) -> float:
    """Plain 0-1 error of a linear model on labeled rows, from one sparse
    matrix-vector product. CSR rows are summed left to right from the bias,
    so every score is the in-order sum w0 + sum w_i v_i. A score of exactly 0
    predicts label 1; a NaN score predicts 0.
    """
    if len(data) == 0:
        raise ValueError("error undefined on an empty example list")
    if not isinstance(model, LinearModel):
        raise TypeError("row-form examples need a LinearModel")
    w = model.weights
    if data.matrix.shape[1] != w.size:
        raise ValueError(f"rows have {data.matrix.shape[1] - 1} features, model dimension is {model.dim}")
    wrong = np.count_nonzero((data.matrix @ w >= 0.0) != data.labels)
    return int(wrong) / len(data)


def weighted_losses(hypothesis_class: FiniteClass, sample: WeightedSample, candidates: np.ndarray) -> np.ndarray:
    """Estimator value per candidate over the sample, in the order of
    candidates (sorted member indices). A record's loss depends only on its
    cell, code 2 * position + label, so each revealed record's weight
    1 / denominator is summed into its cell first (one bincount over the
    2 * pool codes), and one product of the class's mistake table with those
    totals gives every member's loss. Each equals the member's mis_error up
    to rounding; a sample with no revealed record makes every loss 0. A
    position outside the pool, negative or past its end, is a ValueError,
    and so is a sample whose total revealed weight overflows: an infinite
    cell would make 0 * inf a NaN loss, and every loss is a 0/1-weighted
    part of the total, so a finite total keeps each loss finite."""
    live = np.flatnonzero(sample.z)
    codes = 2 * sample.rows[live] + sample.y[live]
    mistakes = hypothesis_class.mistakes
    # a negative code fails the bincount, one past the pool the product
    cells = np.bincount(codes, weights=1.0 / sample.denominator[live], minlength=mistakes.shape[1])
    with np.errstate(over="ignore"):
        total = cells.sum()
    if not math.isfinite(total):
        raise ValueError("the sample's total revealed weight overflows")
    return (mistakes @ cells)[candidates]


def best_candidate(candidates: np.ndarray, losses: np.ndarray) -> tuple[int, float]:
    """(member index, loss) of the smallest of weighted_losses' values; ties
    break toward the lowest member index, and an empty or fully unrevealed
    sample makes every loss 0, so the lowest candidate wins."""
    best = int(np.argmin(losses))  # argmin returns the first minimum: lowest index
    return int(candidates[best]), float(losses[best])


def prune_candidates(candidates: np.ndarray, losses: np.ndarray, slack) -> np.ndarray:
    """The candidates whose loss (weighted_losses over them) is within slack
    (one number, or one per member) of the minimizer's, which stays, so the
    result is sorted and never empty."""
    best_index, best_loss = best_candidate(candidates, losses)
    kept = (losses <= best_loss + np.asarray(slack, dtype=float)) | (candidates == best_index)
    return candidates[kept]


def exact_dis_test(hypothesis_class: FiniteClass, candidates: np.ndarray) -> np.ndarray:
    """Mask over the pool: True where some pair of candidate members
    disagrees."""
    columns = hypothesis_class.labels[candidates]
    return columns.min(axis=0) != columns.max(axis=0)


def approx_dis_mask(
    scores: np.ndarray,
    norms: np.ndarray,
    stepsize: float,
    capacity: float,
    erm_loss: float,
    effective_n: float,
    sample_count: int,
) -> np.ndarray:
    """Margin proxy for the exact disagreement test, one boolean per row.

    scores[i] = w . x~_i and norms[i] = x~_i . x~_i, where x~ includes the
    bias coordinate. Row i is in the disagreement region iff

        |2 w . x~| / (stepsize * x~ . x~)
            <= sqrt(capacity * erm_loss / effective_n)
               + capacity * ln(sample_count) / effective_n

    where stepsize is the most recent gradient stepsize, erm_loss is the
    current model's own weighted estimate, and effective_n is the
    propensity-adjusted sample size m*xi + n. A NaN score is never inside.
    """
    if not (stepsize > 0.0 and capacity > 0.0 and effective_n > 0.0):
        raise ValueError("stepsize, capacity, and effective_n must be positive")
    # an overflowing gap is +inf, outside the region, as the test intends
    with np.errstate(over="ignore"):
        gap = np.abs(2.0 * scores) / (stepsize * norms)
    radius = math.sqrt(capacity * erm_loss / effective_n)
    radius += capacity * math.log(sample_count) / effective_n
    return gap <= radius
