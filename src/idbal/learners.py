"""The learners: warm-started disagreement-based active learning with
importance-weighted estimators, plus the passive baseline.

All of the disagreement-based variants share one core loop:

* split the logged data into segments T0^(0..K) and the online stream into
  segments T1..TK of doubling size;
* at each iteration, fit the best candidate on the current segment's weighted
  sample, shrink the candidate set to the members within a deviation slack of
  the best, and work out the disagreement region of what survives;
* consume the next online segment, querying labels only inside the
  disagreement region and imputing the current best classifier's prediction
  outside it;
* optionally (the debiasing variant) skip online points whose logging
  propensity is already high, which the balanced weighting then corrects for.

`run_idbal` = balanced weighting + debiasing, `run_dbalwm` = balanced
weighting only, `run_dbalw` = per-phase weighting only, `run_passive` = query
everything. Exact mode drives a finite hypothesis class; practical mode
drives a linear model with gradient passes and a margin test instead of an
explicit candidate set.
"""
from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .data import (
    Example,
    FeatureVector,
    LabeledRows,
    LabelSource,
    LoggedTriple,
    to_dense_matrix,
    to_labeled_rows,
)
from .estimators import (
    BoundConfig,
    WeightedSample,
    delta_bound,
    mis_error,
    sigma,
)
from .hypotheses import (
    CandidateSetExact,
    FiniteClass,
    LinearModel,
    approx_dis_mask,
    approx_dis_test,
    classification_error,
    erm_weighted,
    exact_dis_test,
    ogd_stepsize,
    ogd_update,
    update_candidates,
)
from .policies import LoggingPolicy, policy_prob

__all__ = [
    "PartitionPlan",
    "plan_partition",
    "debias_rule",
    "AlgoConfig",
    "TracePoint",
    "IterationRecord",
    "RunResult",
    "run_idbal",
    "run_dbalw",
    "run_dbalwm",
    "run_passive",
    "ALGORITHMS",
]

QUERY = "query"
INFER = "infer"
SKIP = "skip"


@dataclass(frozen=True)
class PartitionPlan:
    """Segment sizes for the warm-start schedule.

    n_parts holds the online segment sizes n_1..n_K (doubling, with the last
    segment absorbing any shortfall); m_parts holds the logged segment sizes
    m_0..m_K where m_k = floor(alpha * n_k) for k >= 1 and m_0 takes the
    remainder; alpha = 2m / (3n).
    """

    total_logged: int
    total_online: int
    K: int
    n_parts: tuple[int, ...]
    m_parts: tuple[int, ...]
    alpha: float

    def logged_bounds(self, k: int) -> tuple[int, int]:
        start = sum(self.m_parts[:k])
        return start, start + self.m_parts[k]

    def online_bounds(self, k: int) -> tuple[int, int]:
        """Bounds of online segment k (1-based)."""
        start = sum(self.n_parts[: k - 1])
        return start, start + self.n_parts[k - 1]


def plan_partition(m: int, n: int) -> PartitionPlan:
    """Compute the segment plan for m logged and n online examples.

    K = ceil(log2(n + 1)); online sizes are 1, 2, 4, ... with the last
    truncated so they sum to n; logged sizes are floor(alpha * n_k) with the
    slack folded into m_0, so they always sum to m. alpha < 1 (more online
    than two-thirds of the logged mass) is allowed but makes the debiasing
    rule vacuous, so it draws a warning.
    """
    if m < 3:
        raise ValueError(f"need at least 3 logged examples, got {m}")
    if n < 1:
        raise ValueError(f"need at least 1 online example, got {n}")
    K = max(1, math.ceil(math.log2(n + 1)))
    n_parts = [2 ** (k - 1) for k in range(1, K + 1)]
    n_parts[-1] = n - sum(n_parts[:-1])
    alpha = 2.0 * m / (3.0 * n)
    if alpha < 1.0:
        warnings.warn(
            f"alpha = 2m/3n = {alpha:.4g} < 1: the debiasing rule never skips",
            stacklevel=2,
        )
    m_rest = [int(alpha * nk) for nk in n_parts]
    m_parts = [m - sum(m_rest)] + m_rest
    return PartitionPlan(
        total_logged=m,
        total_online=n,
        K=K,
        n_parts=tuple(n_parts),
        m_parts=tuple(m_parts),
        alpha=alpha,
    )


def debias_rule(q0_at_x: float, xi: float, alpha: float) -> int:
    """Query bit 1{q0(x) <= xi + 1/alpha}: skip points the logging phase
    already covered well beyond the region's floor."""
    if not 0.0 <= q0_at_x <= 1.0 or not 0.0 <= xi <= 1.0:
        raise ValueError("propensities must be probabilities")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    return 1 if q0_at_x <= xi + 1.0 / alpha else 0


@dataclass(frozen=True)
class AlgoConfig:
    """Knobs shared by all learners.

    mode selects the hypothesis representation: "exact" drives a FiniteClass
    with delta/bound, "practical" drives a LinearModel with capacity (the
    tuned stand-in for the log-class-size term) and eta (gradient schedule).
    record_iterations keeps the exact mode's per-iteration audit trail.
    """

    mode: str = "practical"
    delta: float = 0.1
    bound: BoundConfig = field(default_factory=BoundConfig)
    capacity: float = 0.01
    eta: float = 0.1
    record_iterations: bool = False

    def __post_init__(self):
        if self.mode not in ("exact", "practical"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.capacity <= 0.0 or self.eta <= 0.0:
            raise ValueError("capacity and eta must be positive")


@dataclass(frozen=True)
class TracePoint:
    """State after consuming `consumed` online examples: cumulative queries
    and the test error of the classifier the run would output if stopped."""

    consumed: int
    queries: int
    test_error: float | None


@dataclass(frozen=True)
class IterationRecord:
    """Exact-mode audit trail for one iteration: the candidate set before and
    after the update, the weighted sample it saw, and the genuine labels
    (None where the logging phase hid them) aligned with the sample records."""

    k: int
    candidates_before: tuple[int, ...]
    candidates_after: tuple[int, ...]
    erm_index: int
    erm_value: float
    sigma_value: float
    xi: float
    sample: WeightedSample
    true_labels: tuple[int | None, ...]


@dataclass(frozen=True)
class RunResult:
    final_classifier: object
    final_value: float
    query_count: int
    inferred_count: int
    skipped_count: int
    per_iteration_queries: tuple[int, ...]
    decisions: tuple[str, ...]
    trace: tuple[TracePoint, ...]
    final_test_error: float | None
    seed: int
    config_fingerprint: str
    iterations: tuple[IterationRecord, ...] | None = None


def _fingerprint(*parts: object) -> str:
    digest = hashlib.blake2b(digest_size=6)
    for part in parts:
        digest.update(str(part).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def _test_error(classifier, test_data: Sequence[Example] | LabeledRows | None) -> float | None:
    if test_data is None or len(test_data) == 0:
        return None
    return classification_error(classifier, test_data)


def _test_rows(test_data: Sequence[Example] | LabeledRows | None, dim: int) -> LabeledRows | None:
    """Practical-mode test data in row form, stacked once per run unless the
    caller already passed rows."""
    if test_data is None or isinstance(test_data, LabeledRows):
        return test_data
    return to_labeled_rows(test_data, dim)


def _logged_propensities(
    logged: Sequence[LoggedTriple], policy: LoggingPolicy, cache: np.ndarray | None
) -> np.ndarray:
    if cache is not None:
        if len(cache) != len(logged):
            raise ValueError("logged propensity cache does not match the logged data")
        return np.asarray(cache, dtype=float)
    return np.array([policy_prob(policy, t.x) for t in logged])


def _run_disagreement_core(
    logged: Sequence[LoggedTriple],
    online: Sequence[Example],
    policy: LoggingPolicy,
    hypothesis_space: FiniteClass | LinearModel,
    cfg: AlgoConfig,
    seed: int,
    test_data: Sequence[Example] | None,
    *,
    weighting: str,
    debias: bool,
    algo_name: str,
    logged_q0: np.ndarray | None = None,
    logged_dense: np.ndarray | None = None,
) -> RunResult:
    m, n = len(logged), len(online)
    exact = cfg.mode == "exact"
    q0_logged = _logged_propensities(logged, policy, logged_q0)

    if exact:
        if not isinstance(hypothesis_space, FiniteClass):
            raise TypeError("exact mode needs a FiniteClass")
        hclass = hypothesis_space
        bound = replace(cfg.bound, hypothesis_count=len(hclass))
        pool_q0 = np.array([policy_prob(policy, x) for x in hclass.pool])
        model = None
    else:
        if not isinstance(hypothesis_space, LinearModel):
            raise TypeError("practical mode needs a LinearModel")
        model = hypothesis_space
        hclass = None
        bound = None
        test_data = _test_rows(test_data, model.dim)
        # unlabeled sample for estimating the propensity floor over the
        # (approximate) disagreement region; labels never touched
        if logged_dense is None:
            logged_dense = to_dense_matrix([t.x for t in logged], model.dim)
        elif logged_dense.shape != (m, model.dim + 1):
            raise ValueError("dense cache shape does not match the logged data")

    if n == 0:
        K = 0
        n_parts: tuple[int, ...] = ()
        m_parts: tuple[int, ...] = (m,)
        alpha = math.inf
        if m < 3:
            raise ValueError(f"need at least 3 logged examples, got {m}")
    else:
        plan = plan_partition(m, n)
        K, n_parts, m_parts, alpha = plan.K, plan.n_parts, plan.m_parts, plan.alpha

    logged_starts = np.concatenate(([0], np.cumsum(m_parts)))

    def logged_segment(k: int) -> tuple[list[LoggedTriple], list[float]]:
        lo, hi = int(logged_starts[k]), int(logged_starts[k + 1])
        return list(logged[lo:hi]), [float(v) for v in q0_logged[lo:hi]]

    def build_sample(
        triples: list[LoggedTriple],
        q_log: list[float],
        q_query: list[float],
        own: list[float],
        mk: int,
        nk: int,
    ) -> WeightedSample:
        if weighting == "mis":
            return WeightedSample.balanced(triples, q_log, q_query, mk, nk)
        return WeightedSample.phase_weighted(triples, own, mk, nk)

    # S~_0 = T0^(0): no online mass yet, so both weightings coincide
    seg_triples, seg_q0 = logged_segment(0)
    sample = build_sample(seg_triples, seg_q0, [0.0] * len(seg_triples), seg_q0, m_parts[0], 0)
    true_labels: list[int | None] = [t.y if t.z == 1 else None for t in seg_triples]

    if exact:
        candidates = CandidateSetExact.full(hclass)
        xi = float(pool_q0.min())
    else:
        xi = float(q0_logged.min()) if m > 0 else 1.0

    decisions: list[str] = []
    per_iteration_queries: list[int] = []
    trace: list[TracePoint] = []
    iteration_log: list[IterationRecord] = []
    queries = inferred = skipped = 0
    consumed = 0
    current_stepsize: float | None = None
    final_classifier = None
    final_value = 0.0

    for k in range(K + 1):
        mk = m_parts[k]
        nk = 0 if k == 0 else n_parts[k - 1]

        # best candidate on S~_k
        if exact:
            erm_index, erm_value = erm_weighted(hclass, sample, candidates)
            current = hclass.member(erm_index)
        else:
            # mean-style importance weights: (m + n)/denominator reduces to
            # 1/q0 on the warm segment and keeps gradient magnitudes O(1)
            scale = sample.m + sample.n
            for triple, denominator in sample.records:
                if triple.z == 0:
                    continue
                model = ogd_update(model, triple.x, triple.y, scale / denominator, cfg.eta)
                # steps just advanced, so this is the stepsize that update used
                current_stepsize = ogd_stepsize(model.steps, cfg.eta)
            erm_index = -1
            erm_value = mis_error(model, sample)
            current = model

        trace.append(TracePoint(consumed, queries, _test_error(current, test_data)))

        if k == K:
            final_classifier = current
            final_value = erm_value
            break

        # deviation scale for this iteration's sample
        delta_k = cfg.delta / ((k + 1) * (k + 2))
        effective = mk * xi + nk
        if exact:
            if effective > 0.0:
                sigma_value = sigma((mk, nk), xi, replace(bound, delta=delta_k / 2.0))
            else:
                sigma_value = math.inf
            instances = sample.instances()
            preds = hclass.predictions(instances) if instances else np.zeros((len(hclass), 0), dtype=np.int8)
            if preds.shape[1] > 0:
                rho_rows = (preds[list(candidates.active)] != preds[erm_index]).mean(axis=1)
            else:
                rho_rows = np.zeros(len(candidates.active))
            rho_of = {index: float(r) for index, r in zip(candidates.active, rho_rows)}
            threshold = lambda i, best: delta_bound(sigma_value, rho_of[i], bound)
            before = candidates.active
            candidates = update_candidates(hclass, sample, candidates, threshold)
            sub = hclass.labels[list(candidates.active)]
            dis_mask = sub.min(axis=0) != sub.max(axis=0)
            xi_next = float(pool_q0[dis_mask].min()) if dis_mask.any() else 1.0
            in_region: Callable[[FeatureVector], int] = lambda x: exact_dis_test(hclass, candidates, x)
            if cfg.record_iterations:
                iteration_log.append(
                    IterationRecord(
                        k=k,
                        candidates_before=before,
                        candidates_after=candidates.active,
                        erm_index=erm_index,
                        erm_value=erm_value,
                        sigma_value=sigma_value,
                        xi=xi,
                        sample=sample,
                        true_labels=tuple(true_labels),
                    )
                )
        else:
            stepsize = current_stepsize if current_stepsize is not None else ogd_stepsize(model.steps + 1, cfg.eta)
            count = mk + nk
            if effective > 0.0:
                mask = approx_dis_mask(
                    model, logged_dense, stepsize, cfg.capacity, erm_value, effective, count
                )
                xi_next = float(q0_logged[mask].min()) if mask.any() else 1.0
                snapshot = model
                in_region = lambda x: approx_dis_test(
                    snapshot, x, stepsize, cfg.capacity, erm_value, effective, count
                )
            else:
                # no effective mass yet: treat everything as contested
                xi_next = float(q0_logged.min()) if m > 0 else 1.0
                in_region = lambda x: 1

        # consume online segment k+1 with the updated region
        next_n = n_parts[k]
        next_m = m_parts[k + 1]
        start = sum(n_parts[:k])
        segment = online[start : start + next_n]
        seg_queries = 0
        new_triples: list[LoggedTriple] = []
        new_q0: list[float] = []
        new_bits: list[float] = []
        new_truth: list[int | None] = []
        for ex in segment:
            q0x = policy_prob(policy, ex.x)
            bit = debias_rule(q0x, xi_next, alpha) if debias else 1
            if bit == 0:
                new_triples.append(LoggedTriple(ex.x, 0))
                decisions.append(SKIP)
                skipped += 1
            elif in_region(ex.x):
                new_triples.append(LoggedTriple(ex.x, 1, ex.y, LabelSource.QUERIED))
                decisions.append(QUERY)
                queries += 1
                seg_queries += 1
            else:
                guess = int(current.predict(ex.x)) if hasattr(current, "predict") else int(current(ex.x))
                new_triples.append(LoggedTriple(ex.x, 1, guess, LabelSource.INFERRED))
                decisions.append(INFER)
                inferred += 1
            new_q0.append(q0x)
            new_bits.append(float(bit))
            new_truth.append(ex.y)
        consumed += next_n
        per_iteration_queries.append(seg_queries)

        # S~_{k+1} = T0^(k+1) plus the fresh online segment
        log_triples, log_q0 = logged_segment(k + 1)
        log_bits = [float(debias_rule(p, xi_next, alpha)) if debias else 1.0 for p in log_q0]
        all_triples = log_triples + new_triples
        all_q0 = log_q0 + new_q0
        all_bits = log_bits + new_bits
        own = log_q0 + new_bits
        sample = build_sample(all_triples, all_q0, all_bits, own, next_m, next_n)
        true_labels = [t.y if t.z == 1 else None for t in log_triples] + new_truth
        xi = xi_next

    fingerprint = _fingerprint(
        algo_name, cfg.mode, cfg.delta, cfg.bound.gamma0, cfg.bound.gamma1,
        cfg.capacity, cfg.eta, weighting, debias, m, n, seed,
    )
    return RunResult(
        final_classifier=final_classifier,
        final_value=final_value,
        query_count=queries,
        inferred_count=inferred,
        skipped_count=skipped,
        per_iteration_queries=tuple(per_iteration_queries),
        decisions=tuple(decisions),
        trace=tuple(trace),
        final_test_error=trace[-1].test_error if trace else None,
        seed=seed,
        config_fingerprint=fingerprint,
        iterations=tuple(iteration_log) if (exact and cfg.record_iterations) else None,
    )


def run_idbal(
    logged, online, policy, hypothesis_space, cfg: AlgoConfig, seed: int = 0,
    test_data=None, logged_q0=None, logged_dense=None,
) -> RunResult:
    """Balanced weighting plus the debiasing query rule (the full algorithm)."""
    return _run_disagreement_core(
        logged, online, policy, hypothesis_space, cfg, seed, test_data,
        weighting="mis", debias=True, algo_name="idbal",
        logged_q0=logged_q0, logged_dense=logged_dense,
    )


def run_dbalwm(
    logged, online, policy, hypothesis_space, cfg: AlgoConfig, seed: int = 0,
    test_data=None, logged_q0=None, logged_dense=None,
) -> RunResult:
    """Balanced weighting, no debiasing: every online point in the current
    segment is taken (queried inside the region, imputed outside)."""
    return _run_disagreement_core(
        logged, online, policy, hypothesis_space, cfg, seed, test_data,
        weighting="mis", debias=False, algo_name="dbalwm",
        logged_q0=logged_q0, logged_dense=logged_dense,
    )


def run_dbalw(
    logged, online, policy, hypothesis_space, cfg: AlgoConfig, seed: int = 0,
    test_data=None, logged_q0=None, logged_dense=None,
) -> RunResult:
    """Per-phase importance weighting, no debiasing."""
    return _run_disagreement_core(
        logged, online, policy, hypothesis_space, cfg, seed, test_data,
        weighting="is", debias=False, algo_name="dbalw",
        logged_q0=logged_q0, logged_dense=logged_dense,
    )


def run_passive(
    logged, online, policy, hypothesis_space, cfg: AlgoConfig, seed: int = 0,
    test_data=None, logged_q0=None, logged_dense=None,
) -> RunResult:
    """Query every online label; fit with inverse-propensity weights on the
    logged phase and unit weights on the online phase."""
    m, n = len(logged), len(online)
    q0_logged = _logged_propensities(logged, policy, logged_q0)
    online_triples = [LoggedTriple(ex.x, 1, ex.y, LabelSource.QUERIED) for ex in online]
    trace: list[TracePoint] = []

    if cfg.mode == "exact":
        if not isinstance(hypothesis_space, FiniteClass):
            raise TypeError("exact mode needs a FiniteClass")
        hclass = hypothesis_space
        warm = WeightedSample.phase_weighted(list(logged), [float(p) for p in q0_logged], m, 0)
        warm_index, _ = erm_weighted(hclass, warm)
        trace.append(TracePoint(0, 0, _test_error(hclass.member(warm_index), test_data)))
        own = [float(p) for p in q0_logged] + [1.0] * n
        sample = WeightedSample.phase_weighted(list(logged) + online_triples, own, m, n)
        erm_index, final_value = erm_weighted(hclass, sample)
        final = hclass.member(erm_index)
    else:
        if not isinstance(hypothesis_space, LinearModel):
            raise TypeError("practical mode needs a LinearModel")
        model = hypothesis_space
        test_data = _test_rows(test_data, model.dim)
        for triple, p in zip(logged, q0_logged):
            if triple.z == 1:
                model = ogd_update(model, triple.x, triple.y, 1.0 / float(p), cfg.eta)
        trace.append(TracePoint(0, 0, _test_error(model, test_data)))
        for ex in online:
            model = ogd_update(model, ex.x, ex.y, 1.0, cfg.eta)
        final = model
        own = [float(p) for p in q0_logged] + [1.0] * n
        sample = WeightedSample.phase_weighted(list(logged) + online_triples, own, m, n)
        final_value = mis_error(final, sample)

    trace.append(TracePoint(n, n, _test_error(final, test_data)))
    fingerprint = _fingerprint("passive", cfg.mode, cfg.eta, m, n, seed)
    return RunResult(
        final_classifier=final,
        final_value=final_value,
        query_count=n,
        inferred_count=0,
        skipped_count=0,
        per_iteration_queries=(n,),
        decisions=tuple([QUERY] * n),
        trace=tuple(trace),
        final_test_error=trace[-1].test_error,
        seed=seed,
        config_fingerprint=fingerprint,
        iterations=None,
    )


ALGORITHMS: dict[str, Callable[..., RunResult]] = {
    "passive": run_passive,
    "dbalw": run_dbalw,
    "dbalwm": run_dbalwm,
    "idbal": run_idbal,
}
