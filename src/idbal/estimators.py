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
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightedSample",
    "mis_error",
    "sigma",
    "delta_bound",
]


# The least denominator whose weight 1/denominator is finite: 1/(1/max)
# itself rounds up past the largest float
_LEAST_DENOMINATOR = math.nextafter(1.0 / sys.float_info.max, 1.0)


@dataclass(frozen=True)
class WeightedSample:
    """A weighted sample as aligned arrays: the records' rows (where the
    hypothesis space finds them: positions into the run's store for a linear
    model, pool positions for a finite class), reveal bits z,
    labels y, and the positive denominator each z = 1 record is divided by,
    never so small that its weight 1/denominator overflows, plus the nominal
    phase sizes (m logged, n online) the denominators were built from. y is
    stored as 0 wherever z = 0, so a hidden label cannot be read back;
    neither it nor a hidden record's denominator is checked."""

    rows: object
    z: np.ndarray
    y: np.ndarray
    denominator: np.ndarray
    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("phase sizes cannot be negative")
        z, y = np.asarray(self.z), np.asarray(self.y)
        denominator = np.asarray(self.denominator, dtype=float)
        if not self.rows.shape[0] == z.size == y.size == denominator.size:
            raise ValueError("propensity sequences must align with the records")
        revealed = z == 1
        # each bit equals its own z == 1 test exactly when it is 0 or 1
        if not (z == revealed).all():
            raise ValueError("reveal bits must be 0 or 1")
        # a hidden record's label is neither checked nor stored
        labels = revealed & (y == 1)
        if (revealed & (y != labels)).any():
            raise ValueError("z = 1 record must carry a 0/1 label")
        # a NaN denominator is not positive either, and one below the floor
        # has an infinite weight, whose 0 * inf makes a loss NaN
        if (revealed & ~(denominator >= _LEAST_DENOMINATOR)).any():
            raise ValueError("z = 1 record has non-positive denominator, or one whose weight 1/denominator overflows")
        object.__setattr__(self, "z", revealed.astype(np.int8))
        object.__setattr__(self, "y", labels.astype(np.int8))
        object.__setattr__(self, "denominator", denominator)

    @classmethod
    def balanced(cls, rows, z, y, q_logging, q_online, m: int, n: int) -> "WeightedSample":
        """Balanced multiple importance sampling: denominator m*q0 + n*q1."""
        q_logging = np.asarray(q_logging, dtype=float)
        q_online = np.asarray(q_online, dtype=float)
        if q_logging.shape != q_online.shape:
            raise ValueError("propensity sequences must align with the records")
        return cls(rows, z, y, m * q_logging + n * q_online, m, n)

    @classmethod
    def phase_weighted(cls, rows, z, y, q_own, m: int, n: int) -> "WeightedSample":
        """Plain importance sampling folded into the same shape: denominator
        (m+n)*q where q is the record's own phase's reveal probability."""
        return cls(rows, z, y, (m + n) * np.asarray(q_own, dtype=float), m, n)


def mis_error(predictions, sample: WeightedSample) -> float:
    """Sum of 1{h(x) != y} * z / denominator over the sample's records, given
    the predictions h(x), one 0/1 label per record.

    Unbiased for the true error when denominators are m*q0(x) + n*q1(x),
    and then its variance is at most the per-phase weighting's whenever q0
    and q1 are positive wherever mu(x) * f(x, y) > 0 (f the 0/1 loss). Proof
    sketch: Var = S - m*a0^2 - n*a1^2, S the total second moment and a0, a1
    the per-record phase means with m*a0 + n*a1 = err. Per point,
    Cauchy-Schwarz gives (m+n)^2 <= (m*q0 + n*q1) * (m/q0 + n/q1), so the
    balanced S is at most the per-phase S; and the per-phase a0 = a1 =
    err/(m+n) minimise m*a0^2 + n*a1^2, so per-phase subtracts the least.
    Equality needs q0 = q1 wherever mu * f > 0.
    Summed in record order (cumsum, unlike np.sum's pairwise order), so it
    equals a per-record loop bit for bit. A sum that overflows is a
    ValueError: the weights are positive, so it does exactly when the total
    is not finite.
    """
    predictions = np.asarray(predictions)
    if predictions.shape != sample.z.shape:
        raise ValueError("predictions must align with the sample's records")
    wrong = (sample.z == 1) & (predictions != sample.y)
    # the leading 0.0 makes an empty sum 0.0
    with np.errstate(over="ignore"):
        loss = float(np.cumsum(np.append(0.0, 1.0 / sample.denominator[wrong]))[-1])
    if not math.isfinite(loss):
        raise ValueError("the sample's weighted loss overflows")
    return loss


def sigma(sizes: tuple[int, int], xi: float, hypothesis_count: int, delta: float) -> float:
    """Deviation scale ln(hypothesis_count / delta) / (m*xi + n) where xi
    lower-bounds the logging propensity over the region of interest and
    delta is the failure probability. With no effective sample (m*xi + n =
    0) nothing is known, and the scale is +inf."""
    m, n = sizes
    if m < 0 or n < 0:
        raise ValueError("phase sizes cannot be negative")
    if not 0.0 <= xi <= 1.0:
        raise ValueError("xi must be a probability")
    if hypothesis_count < 1:
        raise ValueError("hypothesis_count must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    denominator = m * xi + n
    if denominator == 0.0:
        return math.inf
    return math.log(hypothesis_count / delta) / denominator


def delta_bound(sigma_value: float, rho, gamma0: float):
    """Candidate-set slack gamma0 * (sigma + sqrt(sigma * rho)), elementwise
    over rho (a number or an array); gamma0 scales the threshold.

    Nondecreasing in both arguments; an infinite sigma yields an infinite
    slack (no filtering) rather than a NaN.
    """
    rho = np.asarray(rho, dtype=float)
    if not 0.0 < gamma0 < math.inf:
        raise ValueError("gamma0 must be positive and finite")
    if not sigma_value >= 0.0:
        raise ValueError("sigma must be nonnegative")
    if not ((0.0 <= rho) & (rho <= 1.0)).all():
        raise ValueError("rho is a disagreement fraction in [0, 1]")
    if math.isinf(sigma_value):
        return np.full(rho.shape, math.inf)[()]
    return gamma0 * (sigma_value + np.sqrt(sigma_value * rho))
