"""End-to-end acceptance: eleven numbered checks, each printing one verdict
line (run with -s to see them). Statistical checks state their tolerance and
their time budget; every check is computed fresh from the public API."""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from idbal.data import FeatureVector, RowTable, SyntheticSpec, generate_synthetic, split_dataset
from idbal.harness import (
    QUICK_CAPACITY_GRID,
    QUICK_ETA_GRID,
    CurvePoint,
    DatasetSpec,
    ExperimentConfig,
    PolicySpec,
    auc,
    log_split,
    per_seed_best_auc,
    run_protocol,
)
from idbal.hypotheses import LinearModel, classification_error, ogd_stepsize, ogd_update
from idbal.learners import AlgoConfig, plan_partition, run_dbalwm, run_idbal
from idbal.oracle import adjusted_dis_coefficient, exact_moments, random_instance
from idbal.policies import IdenticalPolicy, UniformGroupsPolicy
from idbal.rng import child_seed, derive_rng

from reference import independent_coefficient, stack_rows


def _verdict(number: int, name: str, passed: bool, detail: str) -> None:
    mark = "PASS" if passed else "FAIL"
    print(f"[{mark}] {number:2d} {name}: {detail}")


@pytest.fixture(scope="module")
def exact_fixtures():
    """Twenty seeded discrete worlds, each with at least one reveal
    probability at or below 3/64, shared by the unbiasedness and variance
    checks (they share one time budget). Each row holds both estimators'
    exact (mean, variance) at m = 60, n = 40 and the member's true error."""
    start = time.time()
    rows = []
    for seed in range(20):
        instance = random_instance(seed, force_low_propensity=True)
        member = seed % len(instance.classifiers)
        exact = {name: exact_moments(instance, member, m=60, n=40, estimator=name) for name in ("is", "mis")}
        rows.append((exact, float(instance.true_errors[member])))
    return rows, time.time() - start


class TestAcceptance:
    def test_01_balanced_estimator_is_unbiased(self, exact_fixtures):
        rows, elapsed = exact_fixtures
        bias = max(abs(moments[0] - truth) for exact, truth in rows for moments in exact.values())
        passed = elapsed <= 60.0 and bias <= 1e-12
        _verdict(1, "balanced estimator unbiased", passed,
                 f"exact bias at most {bias:.2g} for both estimators over 20 fixtures "
                 f"(need <= 1e-12); {elapsed:.1f}s of a 60s budget shared with check 2")
        assert passed

    def test_02_balanced_variance_never_much_worse(self, exact_fixtures):
        rows, _ = exact_fixtures
        ratios = [exact["mis"][1] / exact["is"][1] for exact, _ in rows]
        dominated = sum(1 for ratio in ratios if ratio <= 1.0 + 1e-12)
        passed = dominated == len(rows)
        _verdict(2, "balanced variance dominance", passed,
                 f"exact ratio var_mis / var_is <= 1 + 1e-12 (the proved bound) in {dominated}/20 "
                 f"low-propensity fixtures (worst {max(ratios):.3f})")
        assert passed

    def test_03_deviation_shrinks_like_root_n(self):
        # at m = n = N the exact variance is c / N, so the standard deviation's
        # log-log slope is -1/2 up to rounding, for both estimators
        start = time.time()
        sizes = (32, 128, 512)
        gap = 0.0
        for seed in range(20):
            instance = random_instance(seed, force_low_propensity=True)
            member = seed % len(instance.classifiers)
            for estimator in ("mis", "is"):
                spread = [exact_moments(instance, member, m=size, n=size, estimator=estimator)[1] ** 0.5
                          for size in sizes]
                slope = np.polyfit(np.log(sizes), np.log(spread), 1)[0]
                gap = max(gap, abs(slope + 0.5))
        elapsed = time.time() - start
        passed = gap <= 1e-9 and elapsed <= 60.0
        _verdict(3, "concentration rate", passed,
                 f"log-log slope of the exact standard deviation at m = n in {sizes} is within "
                 f"{gap:.2g} of -1/2 for both estimators over 20 fixtures (need <= 1e-9); {elapsed:.1f}s of 60s")
        assert passed

    def test_04_exact_mode_keeps_the_best_candidate(self):
        start = time.time()
        kept = 0
        nested = True
        for seed in range(100):
            instance = random_instance(seed, pool_size=5, class_size=8)
            rng = derive_rng(seed, "exact-world")
            logged = instance.draw_logged(rng, 800)
            online = instance.draw_examples(rng, 63)
            cfg = AlgoConfig(mode="exact", gamma0=0.5)
            result = run_idbal(logged, online, instance.logging_policy(),
                               instance.classifiers, cfg, seed)
            previous: tuple[int, ...] = tuple(range(len(instance.classifiers)))
            for point in result.trace:
                if not set(point.candidates) <= set(previous):
                    nested = False
                previous = point.candidates
            if instance.h_star_index in result.trace[-1].candidates:
                kept += 1
        elapsed = time.time() - start
        passed = kept >= 85 and nested and elapsed <= 120.0
        _verdict(4, "exact-mode candidate safety", passed,
                 f"best member survived {kept}/100 runs (need >= 85, 8-member class, "
                 f"delta 0.1), candidate sets always nested: {nested}; {elapsed:.1f}s of 120s")
        assert passed

    def test_05_debiasing_queries_less_without_costing_accuracy(self):
        start = time.time()
        data = generate_synthetic(SyntheticSpec(count=2400, dim=10, flip_prob=0.1, seed=0))
        dim = data.dim
        policy = UniformGroupsPolicy(0.005, 0.05, 0.5, 0)
        dominated = 0
        gaps = []
        for seed in range(50):
            split = split_dataset(len(data), (1.0 / 3.0, 0.5), seed=child_seed(seed, "split"))
            rows = log_split(data, split, policy, child_seed(seed, "logging"))
            logged, online = rows.logged, rows.online[:256]
            cfg = AlgoConfig(mode="practical", capacity=2621.44, eta=0.0064)
            with_skip = run_idbal(logged, online, policy, LinearModel.zeros(dim), cfg,
                                  child_seed(seed, "idbal"))
            without = run_dbalwm(logged, online, policy, LinearModel.zeros(dim), cfg,
                                 child_seed(seed, "dbalwm"))
            if with_skip.query_count <= without.query_count:
                dominated += 1
            gaps.append(classification_error(with_skip.final_classifier, rows.test)
                        - classification_error(without.final_classifier, rows.test))
        mean_gap = float(np.mean(gaps))
        elapsed = time.time() - start
        passed = dominated == 50 and mean_gap <= 0.02 and elapsed <= 300.0
        _verdict(5, "debiasing dominance", passed,
                 f"query count dominated in {dominated}/50 seeds (need 50), "
                 f"mean error gap {mean_gap:+.4f} (need <= +0.02); {elapsed:.1f}s of 300s")
        assert passed

    def test_06_reveal_everything_logging_collapses_the_skip_rule(self):
        start = time.time()
        data = generate_synthetic(SyntheticSpec(count=1600, dim=8, flip_prob=0.1, seed=1))
        dim = data.dim
        policy = IdenticalPolicy(1.0)
        identical = 0
        for seed in range(20):
            split = split_dataset(len(data), (0.25, 0.5), seed=child_seed(seed, "split"))
            rows = log_split(data, split, policy, child_seed(seed, "logging"))
            logged, online = rows.logged, rows.online[:127]
            cfg = AlgoConfig(mode="practical", capacity=655.36, eta=0.0064)
            with_skip = run_idbal(logged, online, policy, LinearModel.zeros(dim), cfg,
                                  child_seed(seed, "run"))
            without = run_dbalwm(logged, online, policy, LinearModel.zeros(dim), cfg,
                                 child_seed(seed, "run"))
            if (with_skip.decisions == without.decisions
                    and np.array_equal(with_skip.final_classifier.weights,
                                       without.final_classifier.weights)):
                identical += 1
        elapsed = time.time() - start
        passed = identical == 20 and elapsed <= 60.0
        _verdict(6, "degeneracy equivalence", passed,
                 f"identical decisions and classifiers in {identical}/20 seeds "
                 f"(need 20) under reveal-probability-one logging; {elapsed:.1f}s of 60s")
        assert passed

    def test_07_partition_arithmetic_is_exact(self):
        start = time.time()
        checked = 0
        exact = True
        for K in range(1, 13):
            n = 2**K - 1
            for j in (1, 2, 3, 4):
                # n is odd, so 3nj/2 is an integer sample count only for
                # even j; the odd multipliers do not define a valid input
                if (3 * n * j) % 2 != 0:
                    continue
                m = 3 * n * j // 2
                plan = plan_partition(m, n)
                checked += 1
                if plan.K != K or sum(plan.n_parts) != n or sum(plan.m_parts) != m:
                    exact = False
                if plan.alpha != float(j):
                    exact = False
                for n_k, m_k in zip(plan.n_parts, plan.m_parts[1:]):
                    if m_k != plan.alpha * n_k:
                        exact = False
        elapsed = time.time() - start
        passed = exact and checked == 24 and elapsed <= 1.0
        _verdict(7, "partition arithmetic", passed,
                 f"{checked} (m, n) pairs with n = 2^K - 1, K <= 12: segment sums and "
                 f"per-segment ratios exact; {elapsed:.2f}s of 1s")
        assert passed

    def test_08_adjusted_coefficient_matches_an_independent_oracle(self):
        start = time.time()
        matches = 0
        monotone = True
        for seed in range(10):
            instance = random_instance(seed)
            r0 = 2.0 * instance.nu
            ours = adjusted_dis_coefficient(instance, r0, alpha=1.0)
            theirs = independent_coefficient(instance, r0)
            if math.isclose(ours, theirs, rel_tol=1e-12, abs_tol=0.0):
                matches += 1
            base = ours
            for alpha in (2.0, 4.0, 8.0):
                if adjusted_dis_coefficient(instance, r0, alpha) > base + 1e-12:
                    monotone = False
        elapsed = time.time() - start
        passed = matches == 10 and monotone and elapsed <= 30.0
        _verdict(8, "adjusted coefficient consistency", passed,
                 f"matched the independent enumeration on {matches}/10 fixtures at "
                 f"1e-12 relative, never above the alpha=1 value: {monotone}; "
                 f"{elapsed:.1f}s of 30s")
        assert passed

    def test_09_curve_area_matches_an_independent_trapezoid(self):
        start = time.time()
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(1000):
            size = int(rng.integers(2, 12))
            n_bar = np.sort(rng.uniform(0.0, 1000.0, size=size))
            e_bar = rng.uniform(0.0, 1.0, size=size)
            points = [CurvePoint(i, float(n), float(e))
                      for i, (n, e) in enumerate(zip(n_bar, e_bar))]
            ours = auc(points)
            theirs = float(np.trapezoid(e_bar, n_bar))
            if theirs != 0.0:
                worst = max(worst, abs(ours - theirs) / abs(theirs))
        # worked example: 0.5*(1.0+0.5)*10 + 0.5*(0.5+0.25)*20 = 7.5 + 7.5
        hand = auc((CurvePoint(0, 0.0, 1.0), CurvePoint(1, 10.0, 0.5), CurvePoint(2, 30.0, 0.25)))
        elapsed = time.time() - start
        passed = worst <= 1e-12 and hand == 15.0 and elapsed <= 5.0
        _verdict(9, "curve area oracle", passed,
                 f"worst relative gap {worst:.2e} over 1000 random curves "
                 f"(need <= 1e-12), worked example {hand} == 15.0; "
                 f"{elapsed:.1f}s of 5s")
        assert passed

    def test_10_active_beats_passive_on_the_paired_benchmark(self):
        start = time.time()
        cfg = ExperimentConfig(
            datasets=(DatasetSpec(
                name="synthetic",
                synthetic=SyntheticSpec(count=6000, dim=30, flip_prob=0.1, seed=0),
            ),),
            policy=PolicySpec(name="uniform", p0=0.005, p1=0.05, p2=0.5, group_seed=0),
            algorithms=("passive", "idbal"),
            repeats=10,
            horizon_base=10,
            horizon_growth=2,
            capacity_grid=QUICK_CAPACITY_GRID,
            eta_grid=QUICK_ETA_GRID,
            master_seed=0,
        )
        result = run_protocol(cfg)
        active = per_seed_best_auc(result.records, "synthetic", "idbal")
        passive = per_seed_best_auc(result.records, "synthetic", "passive")
        wins = sum(1 for repeat in active if active[repeat] < passive[repeat])
        elapsed = time.time() - start
        passed = wins >= 7 and elapsed <= 900.0
        _verdict(10, "paired benchmark direction", passed,
                 f"active best-area below passive in {wins}/10 paired seeds "
                 f"(need >= 7) on the 6000x30 10%-noise benchmark with the 4x4 grid; "
                 f"{elapsed:.0f}s of 900s")
        assert passed

    def test_11_update_gradient_matches_finite_differences(self):
        start = time.time()

        def weighted_squared_loss(weights, x, y, u):
            score = weights[0] + sum(weights[i] * v for i, v in x.items)
            return u * (score - (2.0 * y - 1.0)) ** 2

        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(1, 8))
            weights = rng.normal(size=dim + 1)
            entries = {
                int(i): float(v)
                for i, v in zip(
                    rng.choice(np.arange(1, dim + 1), size=rng.integers(1, dim + 1),
                               replace=False),
                    rng.uniform(-2, 2, dim),
                )
            }
            x = FeatureVector(entries)
            y = int(rng.integers(0, 2))
            u = float(rng.uniform(0.2, 3.0))
            steps = int(rng.integers(0, 50))
            model = LinearModel(weights.copy(), steps=steps)
            updated = ogd_update(model, RowTable.from_csr(stack_rows([x], dim)), np.array([y]), np.array([u]), 0.5)
            stepsize = ogd_stepsize(steps + 1, 0.5)
            analytic = (weights - updated.weights) / stepsize
            h = 1e-6
            for coord in range(dim + 1):
                bump = np.zeros(dim + 1)
                bump[coord] = h
                numeric = (
                    weighted_squared_loss(weights + bump, x, y, u)
                    - weighted_squared_loss(weights - bump, x, y, u)
                ) / (2 * h)
                scale = max(abs(numeric), 1e-8)
                worst = max(worst, abs(analytic[coord] - numeric) / scale)
        elapsed = time.time() - start
        passed = worst <= 1e-6 and elapsed <= 1.0
        _verdict(11, "update gradient check", passed,
                 f"worst relative gap {worst:.2e} over 100 random tuples "
                 f"(need <= 1e-6); {elapsed:.2f}s of 1s")
        assert passed
