"""Per-record reference code that the tests compare the array paths against.

These are the scalar forms the library used before its data path became
CSR rows: stacking FeatureVectors into rows, the in-order score, the
per-example error loop and the margin policies' per-instance formulas. Also
the finite class's losses gathered from its label table, the candidate
pruning that took its slack from a callable, the oracle's disagreement
coefficient by plain enumeration, the oracle's record draws built from
numpy scalars, its exact moments from a one-record sample per cell, and
the practical learners as they ran before samples held store positions:
every sample a CSR copy of its rows, scored on its own; the gradient pass
as it ran over CSR arrays before passes read row tables; and the canonical
row keys as one list, built from the whole matrix at once. Importable from
any test module, because pytest puts this directory on sys.path.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
import scipy.sparse

from idbal.data import Example, FeatureVector, LabeledRows, LabelSource, LoggedTriple, RowTable, SplitRows
from idbal.estimators import WeightedSample, mis_error
from idbal.hypotheses import (
    LinearModel,
    approx_dis_mask,
    ogd_stepsize,
    ogd_update,
)
from idbal.learners import INFER, QUERY, SKIP, AlgoConfig, RunResult, TracePoint, debias_rule, plan_partition


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


def whole_row_keys(rows: scipy.sparse.csr_array) -> list[str]:
    """row_keys as it converted the whole matrix to Python lists at once."""
    indptr, indices, values = rows.indptr.tolist(), rows.indices.tolist(), rows.data.tolist()
    return [
        " ".join(f"{indices[j]}:{values[j]!r}" for j in range(lo + 1, hi))
        for lo, hi in zip(indptr, indptr[1:])
    ]


def csr_pass(model: LinearModel, rows: scipy.sparse.csr_array, labels, importance_weights, eta: float) -> LinearModel:
    """ogd_update's row loop as it read CSR arrays: each row's score and
    update walk indices[j] and values[j] over its indptr bounds."""
    weights = model.weights.tolist()
    indptr, indices, values = rows.indptr.tolist(), rows.indices.tolist(), rows.data.tolist()
    steps = model.steps
    for row, (y, u) in enumerate(zip(np.asarray(labels).tolist(), np.asarray(importance_weights, dtype=float).tolist())):
        steps += 1
        step = math.sqrt(eta / (steps + eta))
        if u > 0.0:
            lo, hi = indptr[row], indptr[row + 1]
            score = 0.0
            for j in range(lo, hi):
                score += weights[indices[j]] * values[j]
            scale = step * u * 2.0 * (score - (2.0 * y - 1.0))
            for j in range(lo, hi):
                weights[indices[j]] -= scale * values[j]
    return LinearModel(np.array(weights), steps)


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


def sparse_libsvm_text(seed: int, rows: int, dim: int, nnz: int) -> str:
    """Seeded LIBSVM lines: nnz +- 2 sorted 1-based indices per row, values
    in U(-1, 1) at 4 decimals, labels from a random separator with 10% flips."""
    rng = np.random.default_rng(seed)
    separator = rng.standard_normal(dim)
    lines = []
    for _ in range(rows):
        index = np.sort(rng.choice(dim, size=int(rng.integers(nnz - 2, nnz + 3)), replace=False))
        value = np.round(rng.uniform(-1.0, 1.0, index.size), 4)
        label = (value @ separator[index] >= 0.0) != (rng.random() < 0.1)
        features = " ".join(f"{i + 1}:{v:.4f}" for i, v in zip(index, value))
        lines.append(f"{'+1' if label else '-1'} {features}")
    return "\n".join(lines) + "\n"


def prune_by_threshold(
    current: tuple[int, ...], losses: np.ndarray, threshold: Callable[[int, int], float]
) -> tuple[int, ...]:
    """The member loop: keep each member of current (sorted member indices)
    whose loss is within threshold(member, best) of the lowest; the first
    lowest always stays."""
    best = int(np.argmin(losses))
    best_index, best_loss = current[best], float(losses[best])
    return tuple(
        index
        for index, loss in zip(current, losses)
        if index == best_index or loss <= best_loss + threshold(index, best_index)
    )


def independent_coefficient(instance, r0: float) -> float:
    """The disagreement coefficient at alpha = 1 of an oracle world, by direct
    enumeration against its raw arrays, without the oracle's helpers: the
    largest region mass over radius among the balls around the best member
    at each achievable distance above r0, and at r0 itself when r0 > 0."""
    labels = np.asarray(instance.classifiers.labels)
    star = int(np.argmin(instance.true_errors))
    distances = np.array([float(instance.masses[labels[star] != row].sum()) for row in labels])
    radii = sorted({d for d in distances if d > r0})
    if r0 > 0.0:
        radii.append(r0)
    best = 0.0
    for r in radii:
        ball = labels[distances <= r + 1e-15]
        best = max(best, float(instance.masses[ball.min(axis=0) != ball.max(axis=0)].sum()) / r)
    return best


def scalar_draw_examples(instance, rng: np.random.Generator, count: int) -> tuple[Example, ...]:
    """DiscreteInstance.draw_examples as it was before draws iterated lists:
    each record built from the numpy scalars of the same draws."""
    picks = rng.choice(len(instance.pool), size=count, p=instance.masses)
    labels = rng.random(count) < instance.p1[picks]
    return tuple(Example(instance.pool[i], int(y)) for i, y in zip(picks, labels))


def scalar_draw_logged(instance, rng: np.random.Generator, count: int) -> tuple[LoggedTriple, ...]:
    """DiscreteInstance.draw_logged, built from numpy scalars with the label
    source named, as the constructor took it when it was a stored field."""
    picks = rng.choice(len(instance.pool), size=count, p=instance.masses)
    labels = rng.random(count) < instance.p1[picks]
    reveals = rng.random(count) < instance.q0[picks]
    return tuple(
        LoggedTriple(instance.pool[i], 1, int(y), LabelSource.QUERIED) if z else LoggedTriple(instance.pool[i], 0)
        for i, y, z in zip(picks, labels, reveals)
    )


def cell_moments(instance, h: int, m: int, n: int, q1=None, estimator: str = "mis") -> tuple[float, float]:
    """exact_moments as it valued each cell on its own: mis_error of member
    h's predictions on a one-record WeightedSample, then the same per-phase
    sums of record count times one record's mean and variance. Takes valid
    arguments only."""
    q0 = instance.q0
    q1 = np.ones(len(instance.pool)) if q1 is None else np.asarray(q1, dtype=float)
    point = np.repeat(np.arange(len(instance.pool)), 4)
    y = np.tile([0, 0, 1, 1], len(instance.pool))
    z = np.tile([0, 1], 2 * len(instance.pool))
    label_prob = np.where(y == 1, instance.p1[point], 1.0 - instance.p1[point])
    predictions = instance.classifiers.labels[h]
    mean = variance = 0.0
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
        prob = prob[cells]
        record_mean = prob @ values
        mean += records * record_mean
        variance += records * (prob @ (values - record_mean) ** 2)
    return float(mean), float(variance)


def model_mis_error(model: LinearModel, sample: WeightedSample) -> float:
    """The estimate from a model: score the sample's own CSR rows, then add
    1/denominator for each revealed mistake, in record order."""
    # ties (score exactly 0) go to label 1, a NaN score predicts 0
    wrong = (sample.z == 1) & ((sample.rows @ model.weights >= 0.0) != sample.y)
    return float(np.cumsum(np.append(0.0, 1.0 / sample.denominator[wrong]))[-1])


def practical_run(
    logged: SplitRows,
    online: SplitRows,
    model: LinearModel,
    cfg: AlgoConfig,
    *,
    weighting: str,
    debias: bool,
) -> RunResult:
    """The practical disagreement learner, one iteration at a time: each
    sample holds a CSR copy of its rows, and the region scores that copy
    for the estimate, a copy of the next online segment and every logged
    row again, all with the weights fit left. Decisions are made record by
    record."""
    m, n = len(logged), len(online)
    plan = plan_partition(m, n)
    K, n_parts, m_parts, alpha = plan.K, plan.n_parts, plan.m_parts, plan.alpha
    rows = scipy.sparse.vstack((logged.rows, online.rows), format="csr")
    q0 = np.concatenate((logged.q0, online.q0))
    z = np.concatenate((logged.z, online.z))
    y = np.concatenate((logged.y, online.y))

    def build(index, sample_z, sample_y, bits, mk, nk):
        if weighting == "mis":
            return WeightedSample.balanced(rows[index], sample_z, sample_y, q0[index], bits, mk, nk)
        own = np.where(index < m, q0[index], bits)
        return WeightedSample.phase_weighted(rows[index], sample_z, sample_y, own, mk, nk)

    head = np.arange(m_parts[0])
    sample = build(head, z[head], y[head], np.zeros(head.size), m_parts[0], 0)
    xi = float(logged.q0.min())
    stepsize = None
    decisions, trace = [], []
    queries = inferred = skipped = consumed = 0
    logged_start, online_start = m_parts[0], 0
    for k in range(K + 1):
        mk = m_parts[k]
        nk = 0 if k == 0 else n_parts[k - 1]
        revealed = np.flatnonzero(sample.z)
        if revealed.size:
            weights = (sample.m + sample.n) / sample.denominator[revealed]
            model = ogd_update(model, RowTable.from_csr(sample.rows[revealed]), sample.y[revealed], weights, cfg.eta)
            stepsize = ogd_stepsize(model.steps, cfg.eta)
        trace.append(TracePoint(consumed, queries, model))
        if k == K:
            break

        lo, hi = online_start, online_start + n_parts[k]
        scores = online.rows[lo:hi] @ model.weights
        effective = mk * xi + nk
        if effective <= 0.0:
            xi_next, in_region = float(logged.q0.min()), np.ones(hi - lo, dtype=bool)
        else:
            step = stepsize if stepsize is not None else ogd_stepsize(model.steps + 1, cfg.eta)
            args = (step, cfg.capacity, model_mis_error(model, sample), effective, mk + nk)
            logged_mask = approx_dis_mask(logged.rows @ model.weights, logged.norms, *args)
            xi_next = float(logged.q0[logged_mask].min()) if logged_mask.any() else 1.0
            in_region = approx_dis_mask(scores, online.norms[lo:hi], *args)

        old = np.arange(logged_start, logged_start + m_parts[k + 1])
        index = np.concatenate((old, m + np.arange(lo, hi)))
        bits = debias_rule(q0[index], xi_next, alpha) if debias else np.ones(index.size, dtype=np.int8)
        sample_z, sample_y = z[index].copy(), y[index].copy()
        for j in range(old.size, index.size):
            i = j - old.size
            sample_z[j] = bits[j]
            if not bits[j]:
                decisions.append(SKIP)
                skipped += 1
            elif in_region[i]:
                decisions.append(QUERY)
                queries += 1
            else:
                decisions.append(INFER)
                inferred += 1
                # ties (score exactly 0) go to label 1, a NaN score predicts 0
                sample_y[j] = 1 if scores[i] >= 0.0 else 0
        consumed += hi - lo
        sample = build(index, sample_z, sample_y, bits, m_parts[k + 1], hi - lo)
        xi = xi_next
        logged_start += m_parts[k + 1]
        online_start = hi

    return RunResult(
        final_classifier=model,
        query_count=queries,
        inferred_count=inferred,
        skipped_count=skipped,
        decisions=tuple(decisions),
        trace=tuple(trace),
    )


def practical_passive(logged: SplitRows, online: SplitRows, model: LinearModel, cfg: AlgoConfig) -> RunResult:
    """The passive learner: a gradient pass over the revealed logged rows,
    then one over every online row."""
    n = len(online)
    revealed = np.flatnonzero(logged.z)
    warm = ogd_update(
        model, RowTable.from_csr(logged.rows[revealed]), logged.y[revealed], 1.0 / logged.q0[revealed], cfg.eta
    )
    final = ogd_update(warm, RowTable.from_csr(online.rows), online.y, np.ones(n), cfg.eta)
    return RunResult(
        final_classifier=final,
        query_count=n,
        inferred_count=0,
        skipped_count=0,
        decisions=(QUERY,) * n,
        trace=(TracePoint(0, 0, warm), TracePoint(n, n, final)),
    )
