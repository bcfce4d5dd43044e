"""Per-record reference code that the tests compare the array paths against.

These are the scalar forms the library used before its data path became
CSR rows: stacking FeatureVectors into rows, the in-order score, the
per-example error loop and the margin policies' per-instance formulas.
Importable from any test module, because pytest puts this directory on
sys.path.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np
import scipy.sparse

from idbal.data import Example, FeatureVector, LabeledRows


def stack_rows(instances: Sequence[FeatureVector], dim: int) -> scipy.sparse.csr_array:
    """(N, dim+1) CSR rows: the constant 1 bias in column 0, then each
    instance's features in index order."""
    indptr, indices, values = [0], [], []
    for x in instances:
        indices.append(0)
        values.append(1.0)
        for index, value in x.items:
            if index > dim:
                raise ValueError(f"feature index {index} exceeds dimension {dim}")
            indices.append(index)
            values.append(value)
        indptr.append(len(indices))
    return scipy.sparse.csr_array(
        (np.array(values, dtype=float), np.array(indices, dtype=np.intp), np.array(indptr, dtype=np.intp)),
        shape=(len(instances), dim + 1),
    )


def labeled_rows(examples: Sequence[Example], dim: int) -> LabeledRows:
    return LabeledRows(stack_rows([ex.x for ex in examples], dim), np.array([ex.y for ex in examples], dtype=np.int8))


def raw_score(weights: np.ndarray, x: FeatureVector) -> float:
    """w0 + sum w_i v_i, summed from the bias left to right; a feature
    beyond the model has weight 0 and is skipped."""
    total = weights[0]
    for index, value in x.items:
        if index < weights.size:
            total += weights[index] * value
    return float(total)


def predict(weights: np.ndarray, x: FeatureVector) -> int:
    # ties (score exactly 0) go to label 1; a NaN score predicts 0
    return 1 if raw_score(weights, x) >= 0.0 else 0


def example_error(weights: np.ndarray, examples: Sequence[Example]) -> float:
    """The per-example 0-1 error loop."""
    return sum(1 for ex in examples if predict(weights, ex.x) != ex.y) / len(examples)


def margin(weights: np.ndarray, x: FeatureVector) -> float:
    """|w . x~| / ||w||_2 for one instance; 0 for a zero model."""
    norm = float(np.linalg.norm(weights))
    if norm == 0.0:
        return 0.0
    return abs(raw_score(weights, x)) / norm


def uncertainty_prob(scale: float, weights: np.ndarray, x: FeatureVector) -> float:
    r = margin(weights, x)
    return math.exp(-scale * r * r)


def certainty_prob(scale: float, weights: np.ndarray, x: FeatureVector) -> float:
    r = margin(weights, x)
    return min(scale * r * r, 1.0)
