"""The learner family: partition planning, the debiasing rule, and the
four run variants in both modes."""
from __future__ import annotations

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from idbal import learners
from idbal.data import (
    FeatureVector,
    LoggedTriple,
    SplitRows,
    SyntheticSpec,
    apply_logging,
    generate_synthetic,
    parse_sparse_dataset,
    split_dataset,
)
from idbal.harness import PolicySpec, RepeatData, log_split, prepare_repeat
from idbal.estimators import delta_bound, mis_error, sigma
from idbal.hypotheses import FiniteClass, LinearModel, classification_error, prune_candidates, weighted_losses
from idbal.learners import (
    ALGORITHMS,
    INFER,
    QUERY,
    SKIP,
    AlgoConfig,
    RunResult,
    debias_rule,
    plan_partition,
    run_dbalw,
    run_dbalwm,
    run_idbal,
    run_passive,
)
from idbal.oracle import adjusted_dis_coefficient, dis_region, random_instance, s_region
from idbal.policies import (
    IdenticalPolicy,
    MarginPolicy,
    TablePolicy,
    UniformGroupsPolicy,
    calibrate_scale,
    fit_coarse_model,
    policy_prob,
)
from idbal.rng import derive_rng

from reference import practical_passive, practical_run, prune_by_threshold, sparse_libsvm_text


class TestPartitionPlan:
    def test_hand_case(self):
        plan = plan_partition(9, 3)
        assert plan.K == 2
        assert plan.n_parts == (1, 2)
        assert plan.alpha == 2.0
        assert plan.m_parts == (3, 2, 4)

    def test_smallest_case(self):
        plan = plan_partition(3, 1)
        assert plan.K == 1
        assert plan.n_parts == (1,)
        assert plan.m_parts == (1, 2)

    def test_doubling_with_absorbing_tail(self):
        plan = plan_partition(300, 100)
        assert plan.n_parts[:-1] == (1, 2, 4, 8, 16, 32)
        assert plan.n_parts[-1] == 100 - 63
        assert sum(plan.n_parts) == 100

    def test_conservation_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = int(rng.integers(3, 4000))
            n = int(rng.integers(1, 3000))
            plan = plan_partition(m, n)
            assert sum(plan.m_parts) == m
            assert sum(plan.n_parts) == n
            assert len(plan.m_parts) == plan.K + 1
            assert len(plan.n_parts) == plan.K
            assert plan.K == max(1, math.ceil(math.log2(n + 1)))
            assert all(part >= 0 for part in plan.m_parts)
            # the warm segment keeps at least a third of the logged data
            assert plan.m_parts[0] >= m / 3.0 - 1e-9
            np.testing.assert_allclose(plan.alpha, 2.0 * m / (3.0 * n))

    def test_exact_power_of_two_boundaries(self):
        # n = 2^K - 1 makes every doubling segment exact, and an even
        # alpha = 2m/(3n) makes each m_k = alpha * n_k with no flooring loss
        for K in (2, 5, 9):
            n = 2**K - 1
            for j in (2, 4):
                m = 3 * n * j // 2
                plan = plan_partition(m, n)
                assert plan.alpha == float(j)
                assert plan.n_parts == tuple(2**k for k in range(K))
                assert plan.m_parts[1:] == tuple(j * 2**k for k in range(K))
                assert plan.m_parts[0] == m - j * n

    def test_alpha_below_one_warns(self):
        # plan_partition is arithmetic; run_idbal, the only runner with a skip
        # rule, warns at its caller's line, and run_dbalwm does not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert plan_partition(3, 100).alpha < 1.0
        split, policy, logged = _practical_setup(4)
        args = (logged[:9], split.online[:64], policy, LinearModel.zeros(6), AlgoConfig(capacity=0.64, eta=0.0064))
        with pytest.warns(UserWarning, match="m = 9 logged and n = 64 online points") as caught:
            run_idbal(*args)
        assert [w.filename for w in caught] == [__file__]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_dbalwm(*args)

    def test_too_little_data_rejected(self):
        # only a negative count is too little: m = 0, 1 and 2 plan
        for m, n in ((-1, 5), (-1, 0), (9, -1)):
            with pytest.raises(ValueError, match="cannot be negative"):
                plan_partition(m, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert [plan_partition(m, 5).m_parts for m in (0, 1, 2)] == [(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)]
            # an empty stream plans the warm fit alone, at an infinite alpha
            plan = plan_partition(9, 0)
        assert (plan.K, plan.n_parts, plan.m_parts, plan.alpha) == (0, (), (9,), math.inf)

    def test_empty_logged_set_plans_online_only(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in range(301):
                plan = plan_partition(0, n)
                assert plan.m_parts == (0,) * (plan.K + 1)
                assert plan.alpha == (math.inf if n == 0 else 0.0)
                assert plan.n_parts == plan_partition(3, n).n_parts
                # m_0 >= 1 for m >= 1, as the m_k (k >= 1) sum to at most 2m/3;
                # one point and two points past n = 1 keep them all in m_0
                assert plan_partition(1, n).m_parts[0] == 1
                assert plan_partition(2, n).m_parts[0] == (1 if n == 1 else 2)


class TestDebiasRule:
    def test_hand_values(self):
        assert debias_rule(0.9, 0.1, 2.0) == 0  # 0.9 > 0.1 + 0.5
        assert debias_rule(0.5, 0.1, 2.0) == 1  # 0.5 <= 0.6
        assert debias_rule(0.6, 0.1, 2.0) == 1  # boundary included

    def test_always_keeps_when_alpha_below_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q0 = float(rng.uniform(0.0, 1.0))
            xi = float(rng.uniform(0.0, 1.0))
            assert debias_rule(q0, xi, 0.8) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            debias_rule(1.2, 0.1, 2.0)
        with pytest.raises(ValueError):
            debias_rule(0.5, -0.1, 2.0)
        with pytest.raises(ValueError):
            debias_rule(0.5, 0.1, 0.0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: debias_rule([0.1, 0.5], 0.1, math.nan), "alpha must be positive"),
            (lambda: s_region(random_instance(0), range(6), math.nan), "alpha must be positive"),
            (lambda: adjusted_dis_coefficient(random_instance(0), 2 * random_instance(0).nu + 0.01, math.nan),
             "alpha must be positive"),
            (lambda: delta_bound(math.nan, 0.5, 1.0), "sigma must be nonnegative"),
        ],
        ids=["debias_rule", "s_region", "adjusted_dis_coefficient", "delta_bound"],
    )
    def test_nan_alpha_or_sigma_rejected(self, call, message):
        # a NaN fails every comparison, so a "<= 0" guard would let it through
        with pytest.raises(ValueError, match=message):
            call()


class TestAlgoConfig:
    @pytest.mark.parametrize("mode", ["Exact", "linear", ""])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match=f"unknown mode '{mode}'"):
            AlgoConfig(mode=mode)

    @pytest.mark.parametrize("field", ["capacity", "eta", "gamma0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_non_positive_or_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            AlgoConfig(**{field: value})


def _practical_setup(seed: int, count: int = 600, dim: int = 6, p=(0.05, 0.2, 0.8)):
    """(rows, policy, logged): the split's rows under uniform-groups logging."""
    data = generate_synthetic(SyntheticSpec(count=count, dim=dim, flip_prob=0.1, seed=seed))
    split = split_dataset(len(data), (0.2, 0.5), seed=seed + 1)
    policy = UniformGroupsPolicy(*p, group_seed=0)
    rows = log_split(data, split, policy, seed + 2)
    return rows, policy, rows.logged


class TestPracticalRuns:
    def test_passive_queries_everything(self):
        split, policy, logged = _practical_setup(0)
        cfg = AlgoConfig(mode="practical", capacity=0.01, eta=0.01)
        res = run_passive(logged, split.online[:100], policy, LinearModel.zeros(6), cfg, 1)
        assert res.query_count == 100
        assert res.inferred_count == 0 and res.skipped_count == 0
        assert res.decisions == (QUERY,) * 100

    def test_decision_bookkeeping(self):
        split, policy, logged = _practical_setup(1)
        cfg = AlgoConfig(mode="practical", capacity=40.96, eta=0.01)
        res = run_idbal(logged, split.online[:128], policy, LinearModel.zeros(6), cfg, 2)
        assert len(res.decisions) == 128
        assert res.decisions.count(QUERY) == res.query_count
        assert res.decisions.count(INFER) == res.inferred_count
        assert res.decisions.count(SKIP) == res.skipped_count
        assert res.query_count + res.inferred_count + res.skipped_count == 128
        assert res.trace[-1].queries == res.query_count

    def test_trace_queries_nondecreasing(self):
        split, policy, logged = _practical_setup(2)
        for name, runner in ALGORITHMS.items():
            cfg = AlgoConfig(mode="practical", capacity=655.36, eta=0.0064)
            res = runner(logged, split.online[:128], policy, LinearModel.zeros(6), cfg, 3)
            consumed = [p.consumed for p in res.trace]
            queries = [p.queries for p in res.trace]
            assert consumed == sorted(consumed), name
            assert queries == sorted(queries), name
            assert res.trace[-1].classifier is res.final_classifier

    def test_deterministic_given_seed(self):
        # a run draws nothing, so the sixth argument, seed, is not read: in
        # both modes every runner's run at seed 5 equals its run at seed 6
        split, policy, logged = _practical_setup(3)
        cfg = AlgoConfig(mode="practical", capacity=2621.44, eta=0.0064)
        inst = random_instance(3, pool_size=5, class_size=8)
        rng = derive_rng(3, "exact-world")
        exact = (inst.draw_logged(rng, 400), inst.draw_examples(rng, 31), inst.logging_policy(), inst.classifiers)

        def plain(result: RunResult) -> RunResult:
            """The run with each linear model as (weight bytes, steps), which == compares."""
            def model(m: LinearModel):
                return m.weights.tobytes(), m.steps
            trace = tuple(dataclasses.replace(p, classifier=model(p.classifier)) for p in result.trace)
            return dataclasses.replace(result, final_classifier=model(result.final_classifier), trace=trace)

        for name, runner in ALGORITHMS.items():
            a, b = (runner(logged, split.online[:64], policy, LinearModel.zeros(6), cfg, seed) for seed in (5, 6))
            assert plain(a) == plain(b), name
            assert runner(*exact, AlgoConfig(mode="exact"), 5) == runner(*exact, AlgoConfig(mode="exact"), 6), name

    def test_degenerate_logging_makes_debias_vacuous(self):
        # reveal probability identically 1: the skip rule can never fire and
        # the debiasing variant must match its non-debiasing twin decision
        # for decision
        data = generate_synthetic(SyntheticSpec(count=400, dim=5, flip_prob=0.1, seed=7))
        policy = IdenticalPolicy(1.0)
        rows = log_split(data, split_dataset(len(data), (0.2, 0.5), seed=8), policy, 9)
        logged = rows.logged
        cfg = AlgoConfig(mode="practical", capacity=40.96, eta=0.0256)
        for seed in (0, 1):
            a = run_idbal(logged, rows.online[:64], policy, LinearModel.zeros(5), cfg, seed)
            b = run_dbalwm(logged, rows.online[:64], policy, LinearModel.zeros(5), cfg, seed)
            assert a.decisions == b.decisions
            assert a.skipped_count == 0
            np.testing.assert_array_equal(a.final_classifier.weights, b.final_classifier.weights)

    def test_no_online_data_runs_warm_only(self):
        split, policy, logged = _practical_setup(4)
        cfg = AlgoConfig(mode="practical", capacity=0.01, eta=0.01)
        res = run_idbal(logged, split.online[:0], policy, LinearModel.zeros(6), cfg, 1)
        assert res.query_count == 0
        assert len(res.trace) == 1
        assert res.final_classifier.steps == logged.z.sum()

    def test_tiny_logged_set_rejected_without_online(self):
        # two logged points and no stream run the warm fit alone; no logged
        # point leaves the debiasing rule without an alpha
        policy = IdenticalPolicy(0.5)
        data = generate_synthetic(SyntheticSpec(count=2, dim=3, seed=0))
        q0 = np.full(2, 0.5)
        logged = SplitRows.from_labeled(data, q0, apply_logging(q0, seed=0))
        cfg = AlgoConfig(mode="practical", capacity=0.01, eta=0.01)
        res = run_idbal(logged, logged[:0], policy, LinearModel.zeros(3), cfg, 0)
        assert (res.query_count, res.decisions, len(res.trace)) == (0, (), 1)
        with pytest.raises(ValueError, match="m = 0"):
            run_idbal(logged[:0], logged, policy, LinearModel.zeros(3), cfg, 0)

    def test_estimates_only_where_the_region_reads_them(self, monkeypatch):
        # the estimate feeds only the margin radius: one per shrink, none
        # after the last fit and none in passive. These groups keep q0 >= 0.05,
        # so no shrink takes the no-evidence return
        calls = []

        def mis_error_spy(*args):
            calls.append(args)
            return mis_error(*args)

        monkeypatch.setattr(learners, "mis_error", mis_error_spy)
        split, policy, logged = _practical_setup(5)
        cfg = AlgoConfig(mode="practical", capacity=40.96, eta=0.01)
        res = run_idbal(logged, split.online[:100], policy, LinearModel.zeros(6), cfg, 1)
        assert len(calls) == len(res.trace) - 1 > 0
        calls.clear()
        run_passive(logged, split.online[:100], policy, LinearModel.zeros(6), cfg, 1)
        assert calls == []

    def test_runs_are_pinned(self):
        # blake2b-128 over every run's counts, decisions and final weight
        # bytes: all four learners on seeded splits under uniform-groups and
        # uncertainty logging, plus a 3000x30 split at eta 1600, whose
        # weights overflow to inf/NaN. The hex was captured on the
        # per-record sample, before the sample became arrays, and re-read
        # with only the run's estimate dropped when runs stopped returning
        # it; the sweep digests round to 6 digits and cannot see a last-bit
        # change.
        digest = hashlib.blake2b(digest_size=16)
        seen = {QUERY: 0, INFER: 0, SKIP: 0}
        nonfinite = 0
        stable = ((64, 40.96, 0.0064), (128, 0.64, 0.0256))
        diverging = ((128, 2.56, 1600.0),)
        for seed, count, dim, grid in ((0, 500, 6, stable), (1, 500, 6, stable), (2, 3000, 30, diverging)):
            data = generate_synthetic(SyntheticSpec(count=count, dim=dim, flip_prob=0.1, seed=seed))
            split = split_dataset(len(data), (0.2, 0.5), seed=seed + 1)
            if seed == 1:
                coarse = fit_coarse_model(data, seed)
                scale = calibrate_scale("uncertainty", coarse, data.matrix[split.logged], 0.1)
                policy = MarginPolicy("uncertainty", scale, coarse)
            else:
                policy = UniformGroupsPolicy(0.05, 0.2, 0.8, group_seed=seed)
            rows = log_split(data, split, policy, seed + 2)
            for horizon, capacity, eta in grid:
                cfg = AlgoConfig(mode="practical", capacity=capacity, eta=eta)
                for name in sorted(ALGORITHMS):
                    res = ALGORITHMS[name](
                        rows.logged, rows.online[:horizon], policy, LinearModel.zeros(dim), cfg, seed,
                    )
                    per_iteration_queries = tuple(b.queries - a.queries for a, b in zip(res.trace, res.trace[1:]))
                    digest.update(repr((seed, horizon, name, res.query_count, res.inferred_count,
                                        res.skipped_count, per_iteration_queries)).encode())
                    digest.update(",".join(res.decisions).encode() + b";")
                    digest.update(res.final_classifier.weights.tobytes())
                    for decision in res.decisions:
                        seen[decision] += 1
                    nonfinite += not np.isfinite(res.final_classifier.weights).all()
        assert seen == {QUERY: 636, INFER: 1385, SKIP: 27}
        assert nonfinite == 4
        assert digest.hexdigest() == "fdf21193ca83cdd766167f2bebbb4846"

    def test_width_mismatch_rejected(self):
        # the run checks the rows' width once, before any row is scored
        split, policy, logged = _practical_setup(5)
        cfg = AlgoConfig(mode="practical", capacity=0.01, eta=0.01)
        for dim in (5, 7):
            for runner in ALGORITHMS.values():
                with pytest.raises(ValueError, match="dimension"):
                    runner(logged, split.online[:8], policy, LinearModel.zeros(dim), cfg, 0)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_wrong_hypothesis_type_rejected(self, name):
        split, policy, logged = _practical_setup(5)
        hclass = random_instance(0).classifiers
        cfg = AlgoConfig(mode="practical", capacity=0.01, eta=0.01)
        with pytest.raises(TypeError):
            ALGORITHMS[name](logged, split.online[:8], policy, hclass, cfg, 0)

    def test_passive_without_logged_data(self):
        split, policy, logged = _practical_setup(6)
        cfg = AlgoConfig(mode="practical", capacity=0.01, eta=0.01)
        res = run_passive(logged[:0], split.online[:50], policy, LinearModel.zeros(6), cfg, 1)
        assert res.query_count == 50 and res.decisions == (QUERY,) * 50
        assert res.final_classifier.steps == 50
        assert math.isfinite(classification_error(res.final_classifier, split.test))


class TestExactRuns:
    def _world(self, seed: int, m: int = 400, n: int = 31):
        inst = random_instance(seed, pool_size=5, class_size=8)
        rng = derive_rng(seed, "exact-world")
        logged = inst.draw_logged(rng, m)
        online = inst.draw_examples(rng, n)
        return inst, logged, online

    def test_candidates_nested_and_erm_retained(self):
        for seed in range(8):
            inst, logged, online = self._world(seed)
            cfg = AlgoConfig(mode="exact", gamma0=0.5)
            res = run_idbal(logged, online, inst.logging_policy(), inst.classifiers, cfg, seed)
            assert res.trace[0].candidates == tuple(range(len(inst.classifiers)))
            for point, after in zip(res.trace, res.trace[1:]):
                assert set(after.candidates) <= set(point.candidates)
                # the ERM survives the shrink that follows its own fit
                assert point.classifier.index in after.candidates

    def test_pruning_matches_the_member_loop(self, monkeypatch):
        # each shrink again, member by member: rho as the mean disagreement
        # with the ERM over the sample's table columns, the slack from the
        # scalar bound, the pruning from a callable. The run hands over each
        # fit's sample, each shrink's sigma and its sets through its own calls.
        samples, sigmas, sets = [], [], []

        def losses_spy(hclass, sample, candidates):
            samples.append(sample)
            return weighted_losses(hclass, sample, candidates)

        def bound_spy(sigma_value, rho, gamma0):
            sigmas.append(sigma_value)
            return delta_bound(sigma_value, rho, gamma0)

        def prune_spy(candidates, losses, slack):
            kept = prune_candidates(candidates, losses, slack)
            sets.append((tuple(candidates.tolist()), tuple(kept.tolist())))
            return kept

        monkeypatch.setattr(learners, "weighted_losses", losses_spy)
        monkeypatch.setattr(learners, "delta_bound", bound_spy)
        monkeypatch.setattr(learners, "prune_candidates", prune_spy)
        pruned = 0
        for seed in range(12):
            inst, logged, online = self._world(seed, m=[9, 40, 400][seed % 3], n=[15, 31][seed % 2])
            hclass = inst.classifiers
            for gamma0 in np.geomspace(0.01, 4.0, 25).tolist():
                cfg = AlgoConfig(mode="exact", gamma0=gamma0)
                for runner in (run_idbal, run_dbalwm, run_dbalw):
                    del samples[:], sigmas[:], sets[:]
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)  # alpha < 1 on the smallest worlds
                        res = runner(logged, online, inst.logging_policy(), hclass, cfg, seed)
                    assert len(samples) == len(res.trace) == len(sigmas) + 1 == len(sets) + 1
                    for k, ((before, after), sigma_value) in enumerate(zip(sets, sigmas)):
                        assert (before, after) == (res.trace[k].candidates, res.trace[k + 1].candidates)
                        sample, erm_index = samples[k], res.trace[k].classifier.index
                        losses = weighted_losses(hclass, sample, np.array(before))
                        if sample.z.size:
                            preds = hclass.labels[:, sample.rows]
                            rho = (preds[list(before)] != preds[erm_index]).mean(axis=1)
                        else:
                            rho = np.zeros(len(before))
                        slack_of = {
                            index: math.inf if math.isinf(sigma_value)
                            else gamma0 * (sigma_value + math.sqrt(sigma_value * r))
                            for index, r in zip(before, rho.tolist())
                        }
                        expected = prune_by_threshold(before, losses, lambda i, best: slack_of[i])
                        assert expected == after
                        pruned += len(after) < len(before)
        assert pruned > 20

    def test_final_classifier_comes_from_last_candidate_set(self):
        inst, logged, online = self._world(3)
        cfg = AlgoConfig(mode="exact", gamma0=0.5)
        res = run_idbal(logged, online, inst.logging_policy(), inst.classifiers, cfg, 3)
        assert res.trace[-1].classifier is res.final_classifier
        assert res.final_classifier.index in res.trace[-1].candidates

    def test_inference_points_have_unanimous_candidates(self):
        # a label is imputed only outside the current disagreement region,
        # where by definition every surviving candidate predicts alike; the
        # set active over a segment is the one the next trace point was
        # chosen from
        for seed in range(6):
            inst, logged, online = self._world(seed, m=600, n=63)
            cfg = AlgoConfig(mode="exact", gamma0=0.5)
            res = run_idbal(logged, online, inst.logging_policy(), inst.classifiers, cfg, seed)
            positions = [inst.pool.index(ex.x) for ex in online]
            inferred = 0
            for point, after in zip(res.trace, res.trace[1:]):
                for j in range(point.consumed, after.consumed):
                    if res.decisions[j] == INFER:
                        column = inst.classifiers.labels[list(after.candidates), positions[j]]
                        assert column.min() == column.max()
                        inferred += 1
            assert inferred == res.inferred_count

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_trace_carries_the_candidate_sets(self, name):
        # exact mode: V_0 is the whole class, each set lies inside the one
        # before and holds its own point's classifier; practical mode has none
        runner = ALGORITHMS[name]
        cfg, shrunk = AlgoConfig(mode="exact", gamma0=0.5), 0
        for seed in range(4):
            inst, logged, online = self._world(seed)
            for stream in (online, online[:0]):
                res = runner(logged, stream, inst.logging_policy(), inst.classifiers, cfg, seed)
                assert res.trace[0].candidates == tuple(range(len(inst.classifiers)))
                for before, point in zip(res.trace, res.trace[1:]):
                    assert set(point.candidates) <= set(before.candidates)
                for point in res.trace:
                    assert point.classifier.index in point.candidates
                shrunk += len(res.trace[-1].candidates) < len(inst.classifiers)
        assert (shrunk > 0) == (name != "passive")
        split, policy, logged = _practical_setup(7)
        cfg = AlgoConfig(mode="practical", capacity=40.96, eta=0.0064)
        for stream in (split.online[:64], split.online[:0]):
            res = runner(logged, stream, policy, LinearModel.zeros(6), cfg, 0)
            assert [p.candidates for p in res.trace] == [None] * len(res.trace)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_exact_mode_demands_finite_class(self, name):
        inst, logged, online = self._world(0)
        cfg = AlgoConfig(mode="exact")
        with pytest.raises(TypeError):
            ALGORITHMS[name](logged, online, inst.logging_policy(), LinearModel.zeros(3), cfg, 0)

    def test_passive_without_logged_data(self):
        inst, _, online = self._world(1)
        cfg = AlgoConfig(mode="exact")
        res = run_passive((), online, inst.logging_policy(), inst.classifiers, cfg, 1)
        assert res.query_count == len(online) and res.decisions == (QUERY,) * len(online)
        assert 0 <= res.final_classifier.index < len(inst.classifiers)

    @pytest.mark.parametrize("runner", [run_idbal, run_passive])
    @pytest.mark.parametrize(
        "policy", [IdenticalPolicy(0.5), UniformGroupsPolicy(0.05, 0.25, 0.75, group_seed=2)], ids=["identical", "groups"]
    )
    def test_any_policy_runs_like_its_table(self, policy, runner):
        # the policy scores the pool's rows; a table of those same values
        # must give the same run, and the world logs with them too
        base = random_instance(5, pool_size=5, class_size=8)
        q0 = policy_prob(policy, base.classifiers.rows)
        inst = dataclasses.replace(base, q0=q0)
        table = inst.logging_policy()
        rng = derive_rng(5, "any-policy")
        logged, online = inst.draw_logged(rng, 400), inst.draw_examples(rng, 31)
        cfg = AlgoConfig(mode="exact", gamma0=0.5)
        ours = runner(logged, online, policy, inst.classifiers, cfg, 5)
        theirs = runner(logged, online, table, inst.classifiers, cfg, 5)
        assert ours.decisions == theirs.decisions
        assert ours.final_classifier == theirs.final_classifier

    def test_probability_one_logging_degeneracy_exact(self):
        inst = random_instance(11, pool_size=5, class_size=6)
        # force reveal probability 1 everywhere by overriding the table
        policy = TablePolicy({x.key(): 1.0 for x in inst.pool})
        rng = derive_rng(11, "degenerate")
        logged = []
        from idbal.data import LoggedTriple

        for ex in inst.draw_examples(rng, 200):
            logged.append(LoggedTriple(ex.x, 1, ex.y))
        online = inst.draw_examples(rng, 15)
        cfg = AlgoConfig(mode="exact", gamma0=0.5)
        a = run_idbal(logged, online, policy, inst.classifiers, cfg, 1)
        b = run_dbalwm(logged, online, policy, inst.classifiers, cfg, 1)
        assert a.decisions == b.decisions
        assert a.final_classifier.index == b.final_classifier.index
        assert a.skipped_count == 0

    def test_decisions_follow_the_oracle_geometry(self):
        # the paper's rule point by point: over segment k the learner holds
        # V = trace[k+1].candidates, whose disagreement region and propensity
        # floor the oracle gives. A point is skipped iff the learner debiases
        # and its q0 exceeds the floor by more than 1/alpha; otherwise it is
        # queried inside the region and inferred outside it
        m, n = 1000, 127
        plan = plan_partition(m, n)
        seen = {QUERY: 0, INFER: 0, SKIP: 0}
        for seed in range(30):
            inst = random_instance(seed, pool_size=8, class_size=32, family="low" if seed % 2 else "dyadic")
            rng = derive_rng(seed, "oracle-decisions")
            logged, online = inst.draw_logged(rng, m), inst.draw_examples(rng, n)
            where = {x: p for p, x in enumerate(inst.pool)}
            points = [where[ex.x] for ex in online]
            for gamma0 in (0.25, 1.0):
                cfg = AlgoConfig(mode="exact", gamma0=gamma0)
                for runner, debias in ((run_dbalw, False), (run_dbalwm, False), (run_idbal, True)):
                    res = runner(logged, online, inst.logging_policy(), inst.classifiers, cfg, seed)
                    expected, start = [], 0
                    for k, size in enumerate(plan.n_parts):
                        region = set(dis_region(inst, res.trace[k + 1].candidates))
                        floor = min((inst.q0[p] for p in region), default=1.0)
                        for p in points[start:start + size]:
                            if debias and inst.q0[p] > floor + 1.0 / plan.alpha:
                                expected.append(SKIP)
                            else:
                                expected.append(QUERY if p in region else INFER)
                        start += size
                    assert res.decisions == tuple(expected)
                    for decision in expected:
                        seen[decision] += 1
        assert min(seen.values()) > 1000

    def test_runs_on_worlds_with_holes(self):
        # two pool points the log never reveals: their logged records are all
        # hidden, and each learner still runs without a warning, accounts for
        # every online point and ends on a member of its last candidate set
        m, n = 4000, 255
        cfg = AlgoConfig(mode="exact")
        for seed in range(30):
            base = random_instance(seed, pool_size=8, class_size=64)
            picks = np.random.default_rng(seed).choice(8, 2, replace=False)
            inst = dataclasses.replace(base, q0=np.where(np.isin(np.arange(8), picks), 0.0, base.q0))
            holes = {inst.pool[p] for p in picks.tolist()}
            rng = derive_rng(seed, "holes-world")
            logged, online = inst.draw_logged(rng, m), inst.draw_examples(rng, n)
            assert any(r.x in holes for r in logged)
            assert all(r.z == 0 for r in logged if r.x in holes)
            for name in sorted(ALGORITHMS):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    res = ALGORITHMS[name](logged, online, inst.logging_policy(), inst.classifiers, cfg, seed)
                assert res.query_count + res.inferred_count + res.skipped_count == n == len(res.decisions)
                assert 0 <= res.final_classifier.index < len(inst.classifiers)
                assert res.final_classifier.index in res.trace[-1].candidates

    @pytest.mark.parametrize("name", ["dbalw", "dbalwm", "idbal"])
    def test_loop_reads_steps_through_store_fit_and_shrink(self, name, monkeypatch):
        # the loop's whole view of a mode: real exact steps behind a wrapper
        # that exposes only these three names run exactly as the steps do
        class Narrow:
            def __init__(self, *args):
                steps = learners._ExactSteps(*args)
                self.store, self.fit, self.shrink = steps.store, steps.fit, steps.shrink

        inst = random_instance(2, pool_size=6, class_size=16, family="low")
        rng = derive_rng(2, "narrow-steps")
        logged, online = inst.draw_logged(rng, 600), inst.draw_examples(rng, 63)
        cfg = AlgoConfig(mode="exact", gamma0=0.25)
        want = ALGORITHMS[name](logged, online, inst.logging_policy(), inst.classifiers, cfg, 2)
        monkeypatch.setitem(learners._STEPS, "exact", Narrow)
        assert ALGORITHMS[name](logged, online, inst.logging_policy(), inst.classifiers, cfg, 2) == want

    @pytest.mark.parametrize("name", ["dbalw", "dbalwm", "idbal"])
    def test_no_evidence_keeps_the_whole_class(self, name, monkeypatch):
        # a pool point logged with q0 = 0 puts the first floor xi at 0, and
        # the first sample has no online record, so m*xi + n = 0: sigma is
        # infinite, so is every slack, and the first shrink keeps every member
        sigmas = []

        def sigma_spy(*args):
            sigmas.append(sigma(*args))
            return sigmas[-1]

        monkeypatch.setattr(learners, "sigma", sigma_spy)
        base = random_instance(3, pool_size=6, class_size=16)
        inst = dataclasses.replace(base, q0=np.where(np.arange(6) == 2, 0.0, base.q0))
        rng = derive_rng(3, "no-evidence")
        logged, online = inst.draw_logged(rng, 400), inst.draw_examples(rng, 63)
        cfg = AlgoConfig(mode="exact", gamma0=0.25)
        res = ALGORITHMS[name](logged, online, inst.logging_policy(), inst.classifiers, cfg, 3)
        assert sigmas[0] == math.inf and math.isfinite(sigmas[-1])
        assert res.trace[1].candidates == tuple(range(len(inst.classifiers)))

    def test_runs_are_pinned(self):
        # blake2b-128 over every run's counts, final member and decisions on
        # 8 seeded worlds and all four learners; the hex was captured on the
        # per-point region test, before the loop moved to per-run arrays.
        # The worlds query, impute and skip, so each path is covered.
        digest = hashlib.blake2b(digest_size=16)
        seen = {QUERY: 0, INFER: 0, SKIP: 0}
        cfg = AlgoConfig(mode="exact", gamma0=0.25)
        for seed in range(8):
            inst = random_instance(seed, pool_size=6, class_size=16, family="low" if seed % 2 else "dyadic")
            rng = derive_rng(seed, "pinned-exact-world")
            logged = inst.draw_logged(rng, 1000)
            online = inst.draw_examples(rng, 127)
            for name in sorted(ALGORITHMS):
                res = ALGORITHMS[name](logged, online, inst.logging_policy(), inst.classifiers, cfg, seed)
                digest.update(f"{seed},{name},{res.query_count},{res.inferred_count},{res.skipped_count},"
                              f"{res.final_classifier.index}:".encode())
                digest.update(",".join(res.decisions).encode() + b";")
                for decision in res.decisions:
                    seen[decision] += 1
        assert seen == {QUERY: 2131, INFER: 1646, SKIP: 287}
        assert digest.hexdigest() == "1c15b3c85f27c49baf1ca65ec9d64831"


class TestEmptyLoggedSet:
    """m = 0: dbalw and dbalwm are the online-only learner, idbal refuses."""

    def _exact(self):
        inst = random_instance(0, pool_size=6, class_size=16)
        online = inst.draw_examples(derive_rng(0, "online-only"), 127)
        policies = (inst.logging_policy(), IdenticalPolicy(0.5), UniformGroupsPolicy(0.05, 0.25, 0.75, group_seed=2))
        return inst.classifiers, online, policies

    def _practical(self):
        data = generate_synthetic(SyntheticSpec(count=600, dim=6, flip_prob=0.1, seed=3))
        split = split_dataset(len(data), (0.2, 0.5), seed=4)
        policies = [UniformGroupsPolicy(*p, group_seed=0) for p in ((0.05, 0.2, 0.8), (0.5, 0.5, 0.5), (0.9, 0.1, 0.3))]
        return [log_split(data, split, policy, 5) for policy in policies]

    @pytest.mark.parametrize("runner", [run_dbalw, run_dbalwm])
    def test_logging_policy_cannot_enter_exact(self, runner):
        hclass, online, policies = self._exact()
        cfg = AlgoConfig(mode="exact", gamma0=0.25)
        runs = [runner((), online, policy, hclass, cfg, 0) for policy in policies]
        assert INFER in runs[0].decisions and runs[0].query_count < len(online)
        for res in runs[1:]:
            assert res.decisions == runs[0].decisions
            assert [p.candidates for p in res.trace] == [p.candidates for p in runs[0].trace]
            assert res.final_classifier == runs[0].final_classifier

    @pytest.mark.parametrize("runner", [run_dbalw, run_dbalwm])
    def test_logging_policy_cannot_enter_practical(self, runner):
        cfg = AlgoConfig(mode="practical", capacity=40.96, eta=0.0256)
        logs = self._practical()
        assert len({tuple(rows.online.q0) for rows in logs}) == 3
        runs = [runner(rows.logged[:0], rows.online[:128], rows.policy, LinearModel.zeros(6), cfg, 0) for rows in logs]
        assert INFER in runs[0].decisions and runs[0].query_count > 1
        for res in runs[1:]:
            assert res.decisions == runs[0].decisions
            assert np.array_equal(res.final_classifier.weights, runs[0].final_classifier.weights)

    def test_idbal_refuses_before_warning(self):
        # alpha = 0 < 1 would warn; the refusal comes first, in both modes
        hclass, online, policies = self._exact()
        rows = self._practical()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="debiasing rule needs logged data, got m = 0"):
                run_idbal((), online, policies[0], hclass, AlgoConfig(mode="exact"), 0)
            with pytest.raises(ValueError, match="debiasing rule needs logged data, got m = 0"):
                run_idbal(rows.logged[:0], rows.online[:64], rows.policy, LinearModel.zeros(6), AlgoConfig(), 0)


class TestExactStore:
    """The exact store's record checks and its one-entry memo: runs over the
    same class and tuples share one conversion, anything else converts anew."""

    def _world(self, m: int = 100, n: int = 15):
        inst = random_instance(1, pool_size=5, class_size=8)
        rng = derive_rng(1, "x")
        return inst, inst.draw_logged(rng, m), inst.draw_examples(rng, n)

    def test_a_hidden_label_is_not_an_online_label(self):
        # a z = 0 triple passed as an online record used to be stored as a
        # revealed label 0, so passive counted it as a query and fit on it
        inst, logged, online = self._world()
        hidden = tuple(r for r in logged if r.z == 0)[:15]
        args = (inst.logging_policy(), inst.classifiers, AlgoConfig(mode="exact"))
        for runner in ALGORITHMS.values():
            with pytest.raises(TypeError, match="online record 0: expected Example, got LoggedTriple"):
                runner(logged, hidden, *args)
        with pytest.raises(TypeError, match="online record 3: expected Example"):
            run_passive(logged, (*online[:3], hidden[0], *online[4:]), *args)
        with pytest.raises(TypeError, match="logged record 7: expected LoggedTriple, got Example"):
            run_passive((*logged[:7], online[0], *logged[8:]), online, *args)

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_tuples_run_like_lists(self, name):
        inst, logged, online = self._world(m=400, n=31)
        runner = ALGORITHMS[name]
        args = (inst.logging_policy(), inst.classifiers, AlgoConfig(mode="exact", gamma0=0.5), 1)
        fresh = runner(list(logged), list(online), *args)
        runner(logged, online, *args)
        served = runner(logged, online, *args)
        assert served == fresh

    def test_one_lookup_per_tuple_pair(self, monkeypatch):
        # a conversion makes new arrays, a memo hit returns the kept ones
        converted = []
        store = learners._exact_store

        def store_spy(hclass, logged, online):
            arrays = store(hclass, logged, online)
            if not converted or arrays is not converted[-1]:
                converted.append(arrays)
            return arrays

        monkeypatch.setattr(learners, "_exact_store", store_spy)
        inst, logged, online = self._world()
        args = (inst.logging_policy(), inst.classifiers, AlgoConfig(mode="exact"))
        for runner in ALGORITHMS.values():
            runner(logged, online, *args)
        calls = [rows.size for rows, _, _ in converted]
        assert calls == [115]
        for runner in ALGORITHMS.values():
            runner(list(logged), list(online), *args)
        calls = [rows.size for rows, _, _ in converted]
        assert calls == [115] * 5

    def test_kept_arrays_are_read_only(self):
        inst, logged, online = self._world()
        arrays = learners._exact_store(inst.classifiers, logged, online)
        assert learners._exact_store(inst.classifiers, logged, online) is arrays
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        assert learners._exact_store(inst.classifiers, list(logged), online) is not arrays

    def test_equal_pool_copies_are_not_served(self):
        inst, logged, online = self._world()
        twin = FiniteClass(tuple(FeatureVector(x.items) for x in inst.pool), inst.classifiers.labels)
        assert twin.pool == inst.pool
        cfg = AlgoConfig(mode="exact")
        run_passive(logged, online, inst.logging_policy(), inst.classifiers, cfg)
        with pytest.raises(ValueError, match="not in the class's pool"):
            run_passive(logged, online, inst.logging_policy(), twin, cfg)

    def test_a_list_changed_in_place_is_read_again(self):
        inst, logged, online = self._world()
        args = (inst.logging_policy(), inst.classifiers, AlgoConfig(mode="exact"))
        records = list(logged)
        before = run_passive(records, online, *args)
        records[:] = [LoggedTriple(r.x, 1, 1 - r.y) if r.z else r for r in logged]
        after = run_passive(records, online, *args)
        assert after == run_passive(tuple(records), online, *args)
        assert after.final_classifier != before.final_classifier


class TestIsWeighting:
    def test_dbalw_differs_from_dbalwm_only_in_weights(self):
        # same decisions structure is not guaranteed, but both must run and
        # produce sane books on the same inputs
        split, policy, logged = _practical_setup(9)
        cfg = AlgoConfig(mode="practical", capacity=655.36, eta=0.0064)
        a = run_dbalw(logged, split.online[:64], policy, LinearModel.zeros(6), cfg, 1)
        assert a.skipped_count == 0
        assert len(a.decisions) == 64


# learner -> (weighting, debias) of the per-sample reference
_REFERENCE_VARIANTS = {"idbal": ("mis", True), "dbalwm": ("mis", False), "dbalw": ("is", False)}


class TestStoreScores:
    """A practical iteration scores the run's store once with the weights fit
    left and reads the sample, logged and online scores off that product.
    Every run must equal the reference that copies and scores each sample's
    rows on its own, field for field and bit for bit."""

    @pytest.fixture(params=["dense", "shifted", "sparse", "diverging"])
    def world(self, request):
        """(kind, prepared split, policy, dim, (horizon, capacity, eta) grid)."""
        grid = [(h, c, e) for h in (37, 128) for c in (0.64, 40.96, 655.36) for e in (0.0064, 0.0256)]
        if request.param == "dense":
            prepared, policy, _ = _practical_setup(12)
            return request.param, prepared, policy, 6, grid
        if request.param == "shifted":
            # every online propensity lies below every logged one, so a
            # logged floor xi that reads an online record moves
            data = generate_synthetic(SyntheticSpec(count=600, dim=6, flip_prob=0.1, seed=13))
            split = split_dataset(len(data), (0.2, 0.5), seed=14)
            q0 = np.random.default_rng(15).choice([0.3, 0.6], len(split.logged))
            prepared = RepeatData(
                IdenticalPolicy(0.3),
                SplitRows.from_labeled(data[split.logged], q0, apply_logging(q0, seed=16)),
                SplitRows.from_labeled(data[split.online], np.full(len(split.online), 0.05)),
                data[split.test],
            )
            return request.param, prepared, prepared.policy, 6, grid
        text = sparse_libsvm_text(seed=5, rows=200, dim=12, nnz=6)
        if request.param == "sparse":
            spec = PolicySpec(name="uncertainty", calibration_target=0.1)
        else:
            # feature values reach 1e5, so the longer runs overflow to NaN
            text = text.replace(":0.", ":99999.").replace(":-0.", ":-99999.")
            spec = PolicySpec(name="identical", p=0.05)
        data = parse_sparse_dataset(text)
        prepared = prepare_repeat(data, spec, request.param, 11, 0, (0.2, 0.7))
        grid = [(h, c, e) for h in (20, 48) for c in (0.64, 40.96) for e in (0.0064, 0.4096)]
        return request.param, prepared, prepared.policy, data.dim, grid

    def test_runs_match_the_per_sample_reference(self, world):
        kind, prepared, policy, dim, grid = world
        seen = {QUERY: 0, INFER: 0, SKIP: 0}
        nonfinite = 0
        for horizon, capacity, eta in grid:
            cfg = AlgoConfig(mode="practical", capacity=capacity, eta=eta)
            online = prepared.online[:horizon]
            for name, runner in ALGORITHMS.items():
                got = runner(prepared.logged, online, policy, LinearModel.zeros(dim), cfg, 3)
                if name == "passive":
                    want = practical_passive(prepared.logged, online, LinearModel.zeros(dim), cfg)
                else:
                    weighting, debias = _REFERENCE_VARIANTS[name]
                    want = practical_run(
                        prepared.logged, online, LinearModel.zeros(dim), cfg, weighting=weighting, debias=debias
                    )
                for field in dataclasses.fields(RunResult):
                    a, b = getattr(got, field.name), getattr(want, field.name)
                    if field.name == "final_classifier":
                        assert (a.weights.tobytes(), a.steps) == (b.weights.tobytes(), b.steps), (name, horizon)
                    elif field.name == "trace":
                        assert [(p.consumed, p.queries, p.classifier.weights.tobytes(), p.classifier.steps)
                                for p in a] == [
                            (p.consumed, p.queries, p.classifier.weights.tobytes(), p.classifier.steps) for p in b
                        ], (name, horizon)
                    else:
                        assert a == b, (field.name, name, horizon, capacity, eta)
                for decision in got.decisions:
                    seen[decision] += 1
                nonfinite += not np.isfinite(got.final_classifier.weights).all()
        # online propensities of 0.05 always pass the debiasing rule
        assert seen[QUERY] > 0 and seen[INFER] > 0 and (seen[SKIP] > 0) == (kind in ("dense", "sparse"))
        assert (nonfinite > 0) == (kind == "diverging")
