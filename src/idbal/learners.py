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

import math
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .data import Example, LoggedTriple, RowTable, SplitRows
from .estimators import WeightedSample, delta_bound, mis_error, sigma
from .hypotheses import (
    FiniteClass,
    LinearModel,
    TableClassifier,
    approx_dis_mask,
    best_candidate,
    exact_dis_test,
    ogd_stepsize,
    ogd_update,
    prune_candidates,
    weighted_losses,
)
from .policies import LoggingPolicy, policy_prob

__all__ = [
    "PartitionPlan",
    "plan_partition",
    "debias_rule",
    "AlgoConfig",
    "TracePoint",
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
# the exact mode's failure probability, split over iterations as delta_k
DELTA = 0.1


@dataclass(frozen=True)
class PartitionPlan:
    """Segment sizes for the warm-start schedule.

    n_parts holds the online segment sizes n_1..n_K (doubling, with the last
    segment absorbing any shortfall); m_parts holds the logged segment sizes
    m_0..m_K where m_k = floor(alpha * n_k) for k >= 1 and m_0 takes the
    remainder; alpha = 2m / (3n), infinite for an empty stream (K = 0).
    """

    K: int
    n_parts: tuple[int, ...]
    m_parts: tuple[int, ...]
    alpha: float


def plan_partition(m: int, n: int) -> PartitionPlan:
    """Compute the segment plan for m logged and n online examples.

    K = ceil(log2(n + 1)); online sizes are 1, 2, 4, ... with the last
    truncated so they sum to n; logged sizes are floor(alpha * n_k) with the
    slack folded into m_0, so they always sum to m. Any m, n >= 0 plans:
    m = 0 gives all-zero logged segments and alpha = 0, which only the
    debiasing rule cannot take. alpha < 1 (more online than two-thirds of
    the logged mass) makes that rule vacuous, which run_idbal warns about.
    """
    if m < 0 or n < 0:
        raise ValueError(f"example counts cannot be negative, got m = {m} logged and n = {n} online")
    if n == 0:
        return PartitionPlan(K=0, n_parts=(), m_parts=(m,), alpha=math.inf)
    K = math.ceil(math.log2(n + 1))
    n_parts = [2 ** (k - 1) for k in range(1, K + 1)]
    n_parts[-1] = n - sum(n_parts[:-1])
    alpha = 2.0 * m / (3.0 * n)
    m_rest = [int(alpha * nk) for nk in n_parts]
    m_parts = [m - sum(m_rest)] + m_rest
    return PartitionPlan(K=K, n_parts=tuple(n_parts), m_parts=tuple(m_parts), alpha=alpha)


def debias_rule(q0_at_x, xi: float, alpha: float) -> np.ndarray:
    """Query bits 1{q0(x) <= xi + 1/alpha}, elementwise over q0_at_x (a
    number or an array): skip points the logging phase already covered well
    beyond the region's floor."""
    q0 = np.asarray(q0_at_x, dtype=float)
    if not ((0.0 <= q0) & (q0 <= 1.0)).all() or not 0.0 <= xi <= 1.0:
        raise ValueError("propensities must be probabilities")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    return (q0 <= xi + 1.0 / alpha).astype(np.int8)


@dataclass(frozen=True)
class AlgoConfig:
    """Knobs shared by all learners.

    mode selects the hypothesis representation: "exact" drives a FiniteClass
    with gamma0 (the scale of the candidate-set slack) at failure
    probability DELTA, "practical" drives a LinearModel with capacity (the
    tuned stand-in for the log-class-size term) and eta (gradient schedule).
    """

    mode: str = "practical"
    gamma0: float = 1.0
    capacity: float = 0.01
    eta: float = 0.1

    def __post_init__(self):
        if self.mode not in ("exact", "practical"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.gamma0 < math.inf:
            raise ValueError("gamma0 must be positive and finite")
        if not (0.0 < self.capacity < math.inf and 0.0 < self.eta < math.inf):
            raise ValueError("capacity and eta must be positive and finite")


@dataclass(frozen=True)
class TracePoint:
    """State after consuming `consumed` online examples: cumulative queries
    and the classifier the run would output if stopped there. Callers score
    it; the queries of each iteration are the differences between points.
    Exact mode's candidates are the sorted members the classifier was chosen
    from: V_0 is the whole class, V_k what the last shrink kept. Practical
    mode has no candidate set and leaves it None."""

    consumed: int
    queries: int
    classifier: object
    candidates: tuple[int, ...] | None = None


@dataclass(frozen=True)
class RunResult:
    final_classifier: object
    query_count: int
    inferred_count: int
    skipped_count: int
    decisions: tuple[str, ...]
    trace: tuple[TracePoint, ...]


# The last exact store built from tuples: (hclass, logged, online, arrays).
# It holds its key objects, so none of their ids is reused while it is kept.
_last_store: tuple | None = None


def _exact_store(hclass: FiniteClass, logged, online) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, z, y) over the logged triples then the online Examples: pool
    positions, reveal bits and labels (0 where hidden). Each record is one
    of its vector's shared records, so one C-level map reads its cell code
    5 * position + cell off hclass.record_codes by identity, and integer
    arithmetic on the codes gives all three arrays. A call with the same
    class and the same logged and online tuples, by identity, as the last
    call gets that call's read-only arrays: a tuple of frozen records cannot
    change. Other sequences are converted anew and not kept."""
    global _last_store
    last = _last_store
    if last is not None and last[0] is hclass and last[1] is logged and last[2] is online:
        return last[3]
    m, code = len(logged), hclass.record_codes.__getitem__
    try:
        codes = np.fromiter(map(code, map(id, chain(logged, online))), np.intp, m + len(online))
    except KeyError:
        raise _store_error(logged, online) from None
    rows, cells = np.divmod(codes, 5)
    # cells 0-2 are the hidden and revealed triples, 3-4 the Examples: a z =
    # 0 triple among the online records would store its hidden label as a
    # revealed 0
    if (cells[:m] > 2).any() or (cells[m:] < 3).any():
        raise _store_error(logged, online)
    z = (cells != 0).astype(np.int8)
    y = ((cells == 2) | (cells == 4)).astype(np.int8)
    arrays = (rows, z, y)
    if type(logged) is tuple and type(online) is tuple:
        for a in arrays:
            a.flags.writeable = False
        _last_store = (hclass, logged, online, arrays)
    return arrays


def _store_error(logged, online) -> Exception:
    """The error for records that have no cell code of the right kind: the
    first record of the wrong type, else one off the class's pool."""
    for name, part, kind in (("logged", logged, LoggedTriple), ("online", online, Example)):
        for i, r in enumerate(part):
            if not isinstance(r, kind):
                return TypeError(f"{name} record {i}: expected {kind.__name__}, got {type(r).__name__}")
    return ValueError("instance is not in the class's pool (an equal copy is not a pool object)")


class _ExactSteps:
    """Exact mode over a FiniteClass: the weighted ERM within the candidate
    set (sorted member indices), which then keeps the members within the
    deviation slack of it; the region is the pool points where the survivors
    disagree. The store holds the logged triples then the online Examples;
    its rows, which samples hold, are their pool positions, looked up once
    per (class, logged, online) tuple triple. The policy's q0 is read on
    every run."""

    def __init__(self, hclass: FiniteClass, cfg: AlgoConfig, logged, online, policy: LoggingPolicy):
        if not isinstance(hclass, FiniteClass):
            raise TypeError("exact mode needs a FiniteClass")
        self.hclass = hclass
        self.cfg = cfg
        self.pool_q0 = policy_prob(policy, hclass.rows)
        rows, z, y = _exact_store(hclass, logged, online)
        self.store = SplitRows(self.pool_q0[rows], z, y, rows)
        self.candidates = np.arange(len(hclass))
        self.xi = float(self.pool_q0.min())

    def fit(self, sample: WeightedSample):
        """(ERM, the candidates it was chosen from)."""
        # shrink prunes from these same losses: same sample, same candidates
        self.losses = weighted_losses(self.hclass, sample, self.candidates)
        self.erm_index, _ = best_candidate(self.candidates, self.losses)
        return TableClassifier(self.erm_index), tuple(self.candidates.tolist())

    def shrink(self, k: int, sample: WeightedSample, segment: slice):
        """Prune the candidates after fit; (xi, region mask, ERM predictions)
        at the store's online records in segment, where xi, also kept for
        the next shrink, is the pool floor of q0 over the new region."""
        hclass, erm_index = self.hclass, self.erm_index
        delta_k = DELTA / ((k + 1) * (k + 2))
        # no effective sample makes sigma, hence every slack, infinite: all stay
        sigma_value = sigma((sample.m, sample.n), self.xi, len(hclass), delta_k / 2.0)
        # each member's share of the sample it labels unlike the ERM: an exact
        # integer over the sample size, as a mean gives, and 0 on no sample
        counts = np.bincount(sample.rows, minlength=len(hclass.pool))
        rho = (hclass.labels[self.candidates] != hclass.labels[erm_index]) @ counts / max(sample.z.size, 1)
        slack = delta_bound(sigma_value, rho, self.cfg.gamma0)
        self.candidates = prune_candidates(self.candidates, self.losses, slack)
        pool_mask = exact_dis_test(hclass, self.candidates)
        self.xi = float(self.pool_q0[pool_mask].min()) if pool_mask.any() else 1.0
        positions = self.store.rows[segment]
        return self.xi, pool_mask[positions], hclass.labels[erm_index, positions]


class _PracticalSteps:
    """Practical mode over a LinearModel: importance-weighted gradient passes
    instead of an ERM, and the margin test instead of a candidate set. The
    store joins the logged then the online records, whose q0 the splits
    carry (the policy is not read), and their row tables; samples hold store
    positions. Fit only trains; shrink scores every record once, with the
    weights fit left, and reads the estimate, the logged floor and the
    segment's mask off that one product."""

    def __init__(self, model: LinearModel, cfg: AlgoConfig, logged: SplitRows, online: SplitRows, policy):
        if not isinstance(model, LinearModel):
            raise TypeError("practical mode needs a LinearModel")
        for part in (logged, online):
            if not isinstance(part, SplitRows) or part.table is None or part.rows.shape[1] != model.dim + 1:
                raise ValueError(f"split rows do not match dimension {model.dim}")
        joined = {f: np.concatenate((getattr(logged, f), getattr(online, f))) for f in ("q0", "z", "y", "norms")}
        table = RowTable(np.concatenate((logged.table.rows, online.table.rows)), model.dim + 1)
        self.store = SplitRows(rows=np.arange(len(logged) + len(online)), table=table, **joined)
        self.parts = (logged.rows, online.rows)
        self.model = model
        self.cfg = cfg
        self.m = len(logged)
        self.stepsize: float | None = None
        self.xi = float(logged.q0.min(initial=1.0))

    def fit(self, sample: WeightedSample):
        revealed = np.flatnonzero(sample.z)
        if revealed.size:
            # mean-style importance weights: (m + n)/denominator reduces to
            # 1/q0 on the warm segment and keeps gradient magnitudes O(1)
            weights = (sample.m + sample.n) / sample.denominator[revealed]
            rows = self.store.table[sample.rows[revealed]]
            self.model = ogd_update(self.model, rows, sample.y[revealed], weights, self.cfg.eta)
            # steps just advanced, so this is the stepsize the last step used
            self.stepsize = ogd_stepsize(self.model.steps, self.cfg.eta)
        return self.model, None

    def shrink(self, k: int, sample: WeightedSample, segment: slice):
        """(xi, margin mask, predictions) at the store's online records in
        segment, all from the model fit left; xi, also kept for the next
        shrink, is the floor over the logged records inside the margin."""
        m, store = self.m, self.store
        # every store record's score, each with its CSR row's own bits
        all_scores = np.concatenate([rows @ self.model.weights for rows in self.parts])
        scores = all_scores[segment]
        effective = sample.m * self.xi + sample.n
        if effective <= 0.0:
            # no effective mass yet: treat everything as contested
            return self.xi, np.ones(scores.size, dtype=bool), scores >= 0.0
        # ties (score exactly 0) go to label 1, a NaN score predicts 0
        erm_value = mis_error(all_scores[sample.rows] >= 0.0, sample)
        stepsize = self.stepsize if self.stepsize is not None else ogd_stepsize(self.model.steps + 1, self.cfg.eta)
        mask_args = (stepsize, self.cfg.capacity, erm_value, effective, sample.m + sample.n)
        logged_mask = approx_dis_mask(all_scores[:m], store.norms[:m], *mask_args)
        self.xi = float(store.q0[:m][logged_mask].min()) if logged_mask.any() else 1.0
        return self.xi, approx_dis_mask(scores, store.norms[segment], *mask_args), scores >= 0.0


# each mode's steps build the run's store; only run_passive reads cfg.mode again
_STEPS = {"exact": _ExactSteps, "practical": _PracticalSteps}


# a record's decision is indexed by (query bit) * (1 + inside the region)
_DECISIONS = (SKIP, INFER, QUERY)


def _run_disagreement_core(
    logged: Sequence[LoggedTriple] | SplitRows,
    online: Sequence[Example] | SplitRows,
    policy: LoggingPolicy,
    hypothesis_space: FiniteClass | LinearModel,
    cfg: AlgoConfig,
    *,
    weighting: str,
    debias: bool,
) -> RunResult:
    m, n = len(logged), len(online)
    plan = plan_partition(m, n)
    K, n_parts, m_parts, alpha = plan.K, plan.n_parts, plan.m_parts, plan.alpha
    if debias and m == 0:
        raise ValueError("the debiasing rule needs logged data, got m = 0 logged points")
    if debias and alpha < 1.0:
        # stacklevel 3 is the caller of run_idbal, the only runner that debiases
        warnings.warn(
            f"alpha = 2m/3n = {alpha:.4g} < 1 for m = {m} logged and n = {n} online points: the debiasing "
            "rule never skips; fewer online or more logged points raise alpha",
            stacklevel=3,
        )
    steps = _STEPS[cfg.mode](hypothesis_space, cfg, logged, online, policy)
    store = steps.store

    logged_starts = np.concatenate(([0], np.cumsum(m_parts)))

    def build_sample(index: np.ndarray, z: np.ndarray, y: np.ndarray, bits: np.ndarray, mk: int, nk: int):
        """The sample over the store records at index, with their reveal
        bits z, labels y and query bits."""
        q0, rows = store.q0[index], store.rows[index]
        if weighting == "mis":
            return WeightedSample.balanced(rows, z, y, q0, bits, mk, nk)
        # a logged record's own phase propensity is q0, an online one's its query bit
        return WeightedSample.phase_weighted(rows, z, y, np.where(index < m, q0, bits), mk, nk)

    # S~_0 = T0^(0): no online mass yet, so both weightings coincide
    head = np.arange(m_parts[0])
    sample = build_sample(head, store.z[head], store.y[head], np.zeros(head.size), m_parts[0], 0)

    decisions: list[str] = []
    trace: list[TracePoint] = []
    queries = inferred = skipped = 0
    consumed = 0

    for k in range(K + 1):
        # best candidate on S~_k
        current, candidates = steps.fit(sample)
        trace.append(TracePoint(consumed, queries, current, candidates))
        if k == K:
            break

        # shrink to the disagreement region, then consume online segment
        # k+1: query inside it, impute the current prediction outside it
        lo, hi = consumed, consumed + n_parts[k]
        xi, in_region, guesses = steps.shrink(k, sample, slice(m + lo, m + hi))
        # S~_{k+1} = T0^(k+1) plus the fresh online segment
        index = np.concatenate((np.arange(logged_starts[k + 1], logged_starts[k + 2]), m + np.arange(lo, hi)))
        bits = debias_rule(store.q0[index], xi, alpha) if debias else np.ones(index.size, dtype=np.int8)
        fresh = index >= m
        codes = bits[fresh] * (1 + in_region)
        decisions.extend(map(_DECISIONS.__getitem__, codes.tolist()))
        seg_skipped, seg_inferred, seg_queries = np.bincount(codes, minlength=3).tolist()
        queries += seg_queries
        inferred += seg_inferred
        skipped += seg_skipped
        consumed += hi - lo
        y = store.y[index]
        y[fresh] = np.where(in_region, y[fresh], guesses)
        sample = build_sample(index, np.where(fresh, bits, store.z[index]), y, bits, m_parts[k + 1], hi - lo)

    return RunResult(
        final_classifier=current,
        query_count=queries,
        inferred_count=inferred,
        skipped_count=skipped,
        decisions=tuple(decisions),
        trace=tuple(trace),
    )


# Each runner takes a sixth argument, seed, and reads nothing from it: a run
# draws nothing. perfbench's exact-oracle workload passes one, and the
# parameter goes when that workload stops passing it.
def run_idbal(logged, online, policy, hypothesis_space, cfg: AlgoConfig, seed: int = 0) -> RunResult:
    """Balanced weighting plus the debiasing query rule (the full algorithm)."""
    return _run_disagreement_core(logged, online, policy, hypothesis_space, cfg, weighting="mis", debias=True)


def run_dbalwm(logged, online, policy, hypothesis_space, cfg: AlgoConfig, seed: int = 0) -> RunResult:
    """Balanced weighting, no debiasing: every online point in the current
    segment is taken (queried inside the region, imputed outside)."""
    return _run_disagreement_core(logged, online, policy, hypothesis_space, cfg, weighting="mis", debias=False)


def run_dbalw(logged, online, policy, hypothesis_space, cfg: AlgoConfig, seed: int = 0) -> RunResult:
    """Per-phase importance weighting, no debiasing."""
    return _run_disagreement_core(logged, online, policy, hypothesis_space, cfg, weighting="is", debias=False)


def run_passive(logged, online, policy, hypothesis_space, cfg: AlgoConfig, seed: int = 0) -> RunResult:
    """Query every online label; fit with inverse-propensity weights on the
    logged phase and unit weights on the online phase."""
    m, n = len(logged), len(online)
    steps = _STEPS[cfg.mode](hypothesis_space, cfg, logged, online, policy)
    store = steps.store

    # a gradient pass continues from the warm model, an exact fit refits the
    # whole sample: the candidates are still the whole class, so it is the ERM
    if cfg.mode == "exact":
        warm = WeightedSample.phase_weighted(store.rows[:m], store.z[:m], store.y[:m], store.q0[:m], m, 0)
        warm_fit, candidates = steps.fit(warm)
        first = TracePoint(0, 0, warm_fit, candidates)
        own = np.concatenate((store.q0[:m], np.ones(n)))
        final, candidates = steps.fit(WeightedSample.phase_weighted(store.rows, store.z, store.y, own, m, n))
    else:
        revealed = np.flatnonzero(logged.z)
        weights = 1.0 / logged.q0[revealed]
        model = ogd_update(hypothesis_space, logged.table[revealed], logged.y[revealed], weights, cfg.eta)
        first = TracePoint(0, 0, model)
        final = ogd_update(model, online.table, online.y, np.ones(n), cfg.eta)
        candidates = None

    return RunResult(
        final_classifier=final,
        query_count=n,
        inferred_count=0,
        skipped_count=0,
        decisions=tuple([QUERY] * n),
        trace=(first, TracePoint(n, n, final, candidates)),
    )


ALGORITHMS: dict[str, Callable[..., RunResult]] = {
    "passive": run_passive,
    "dbalw": run_dbalw,
    "dbalwm": run_dbalwm,
    "idbal": run_idbal,
}
