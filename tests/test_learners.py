"""The learner family: partition planning, the debiasing rule, and the
four run variants in both modes."""
from __future__ import annotations

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

from idbal.data import SplitRows, SyntheticSpec, apply_logging, generate_synthetic, parse_sparse_dataset, split_dataset
from idbal.harness import PolicySpec, RepeatData, log_split, prepare_repeat
from idbal.hypotheses import LinearModel, classification_error, weighted_losses
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
from idbal.oracle import random_instance
from idbal.policies import (
    IdenticalPolicy,
    TablePolicy,
    UncertaintyPolicy,
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
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
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
        with pytest.warns(UserWarning):
            plan_partition(3, 100)

    def test_too_little_data_rejected(self):
        with pytest.raises(ValueError):
            plan_partition(2, 5)
        with pytest.raises(ValueError):
            plan_partition(9, 0)


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


class TestAlgoConfig:
    @pytest.mark.parametrize("field", ["capacity", "eta"])
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
        split, policy, logged = _practical_setup(3)
        cfg = AlgoConfig(mode="practical", capacity=2621.44, eta=0.0064)
        a = run_idbal(logged, split.online[:64], policy, LinearModel.zeros(6), cfg, 5)
        b = run_idbal(logged, split.online[:64], policy, LinearModel.zeros(6), cfg, 5)
        assert a.decisions == b.decisions
        np.testing.assert_array_equal(a.final_classifier.weights, b.final_classifier.weights)

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
        policy = IdenticalPolicy(0.5)
        data = generate_synthetic(SyntheticSpec(count=2, dim=3, seed=0))
        q0 = np.full(2, 0.5)
        logged = SplitRows.from_labeled(data, q0, apply_logging(q0, seed=0))
        cfg = AlgoConfig(mode="practical", capacity=0.01, eta=0.01)
        with pytest.raises(ValueError):
            run_idbal(logged, logged[:0], policy, LinearModel.zeros(3), cfg, 0)

    def test_runs_are_pinned(self):
        # blake2b-128 over every run's counts, decisions, final value (repr)
        # and final weight bytes: all four learners on seeded splits under
        # uniform-groups and uncertainty logging, plus a 3000x30 split at
        # eta 1600, whose weights overflow to inf/NaN. The hex was captured
        # on the per-record sample, before the sample became arrays; the
        # sweep digests round to 6 digits and cannot see a last-bit change.
        digest = hashlib.blake2b(digest_size=16)
        seen = {QUERY: 0, INFER: 0, SKIP: 0}
        nonfinite = 0
        stable = ((64, 40.96, 0.0064), (128, 0.64, 0.0256))
        diverging = ((128, 2.56, 1600.0),)
        for seed, count, dim, grid in ((0, 500, 6, stable), (1, 500, 6, stable), (2, 3000, 30, diverging)):
            data = generate_synthetic(SyntheticSpec(count=count, dim=dim, flip_prob=0.1, seed=seed))
            split = split_dataset(len(data), (0.2, 0.5), seed=seed + 1)
            if seed == 1:
                coarse = fit_coarse_model(data, 0.1, seed)
                scale = calibrate_scale("uncertainty", coarse, data.matrix[split.logged], 0.1)
                policy = UncertaintyPolicy(scale, coarse)
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
                                        res.skipped_count, per_iteration_queries,
                                        res.final_value)).encode())
                    digest.update(",".join(res.decisions).encode() + b";")
                    digest.update(res.final_classifier.weights.tobytes())
                    for decision in res.decisions:
                        seen[decision] += 1
                    nonfinite += not np.isfinite(res.final_classifier.weights).all()
        assert seen == {QUERY: 636, INFER: 1385, SKIP: 27}
        assert nonfinite == 4
        assert digest.hexdigest() == "623d80a157a66b74a5f3d0af0520fbdd"

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
            cfg = AlgoConfig(mode="exact", delta=0.1, gamma0=0.5, record_iterations=True)
            res = run_idbal(logged, online, inst.logging_policy(), inst.classifiers, cfg, seed)
            previous = tuple(range(len(inst.classifiers)))
            for rec in res.iterations:
                assert rec.candidates_before == previous
                assert set(rec.candidates_after) <= set(rec.candidates_before)
                assert rec.erm_index in rec.candidates_after
                previous = rec.candidates_after

    def test_pruning_matches_the_member_loop(self):
        # each recorded iteration again, member by member: rho as the mean
        # disagreement with the ERM over the sample's table columns, the
        # slack from the scalar bound, the pruning from a callable
        pruned = 0
        for seed in range(12):
            inst, logged, online = self._world(seed, m=[9, 40, 400][seed % 3], n=[15, 31][seed % 2])
            hclass = inst.classifiers
            for gamma0 in np.geomspace(0.01, 4.0, 25).tolist():
                cfg = AlgoConfig(mode="exact", delta=0.1, gamma0=gamma0, record_iterations=True)
                for runner in (run_idbal, run_dbalwm, run_dbalw):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", UserWarning)  # alpha < 1 on the smallest worlds
                        res = runner(logged, online, inst.logging_policy(), hclass, cfg, seed)
                    for rec in res.iterations:
                        before = rec.candidates_before
                        losses = weighted_losses(hclass, rec.sample, np.array(before))
                        if rec.sample.z.size:
                            preds = hclass.labels[:, rec.sample.rows]
                            rho = (preds[list(before)] != preds[rec.erm_index]).mean(axis=1)
                        else:
                            rho = np.zeros(len(before))
                        slack_of = {
                            index: math.inf if math.isinf(rec.sigma_value)
                            else gamma0 * (rec.sigma_value + math.sqrt(rec.sigma_value * r))
                            for index, r in zip(before, rho.tolist())
                        }
                        expected = prune_by_threshold(before, losses, lambda i, best: slack_of[i])
                        assert expected == rec.candidates_after
                        pruned += len(rec.candidates_after) < len(rec.candidates_before)
        assert pruned > 20

    def test_final_classifier_comes_from_last_candidate_set(self):
        inst, logged, online = self._world(3)
        cfg = AlgoConfig(mode="exact", delta=0.1, gamma0=0.5, record_iterations=True)
        res = run_idbal(logged, online, inst.logging_policy(), inst.classifiers, cfg, 3)
        assert res.final_classifier.index in res.iterations[-1].candidates_after

    def test_inference_points_have_unanimous_candidates(self):
        # a label is imputed only outside the current disagreement region,
        # where by definition every surviving candidate predicts alike
        for seed in range(6):
            inst, logged, online = self._world(seed, m=600, n=63)
            cfg = AlgoConfig(mode="exact", delta=0.1, gamma0=0.5, record_iterations=True)
            res = run_idbal(logged, online, inst.logging_policy(), inst.classifiers, cfg, seed)
            # candidate sets only shrink, so unanimity inside the final set
            # is implied by unanimity inside whichever set was active at the
            # moment of inference; asserting on the final set is sufficient
            final_set = res.iterations[-1].candidates_after
            for decision, ex in zip(res.decisions, online):
                if decision == INFER:
                    column = inst.classifiers.labels[list(final_set), inst.classifiers.positions([ex.x])[0]]
                    assert column.min() == column.max()

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_exact_mode_demands_finite_class(self, name):
        inst, logged, online = self._world(0)
        cfg = AlgoConfig(mode="exact", delta=0.1)
        with pytest.raises(TypeError):
            ALGORITHMS[name](logged, online, inst.logging_policy(), LinearModel.zeros(3), cfg, 0)

    def test_passive_without_logged_data(self):
        inst, _, online = self._world(1)
        cfg = AlgoConfig(mode="exact", delta=0.1)
        res = run_passive((), online, inst.logging_policy(), inst.classifiers, cfg, 1)
        assert res.query_count == len(online) and res.decisions == (QUERY,) * len(online)
        assert 0 <= res.final_classifier.index < len(inst.classifiers)
        assert res.final_classifier.owner is inst.classifiers

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
        table = TablePolicy({x: float(p) for x, p in zip(inst.pool, q0)})
        rng = derive_rng(5, "any-policy")
        logged, online = inst.draw_logged(rng, 400), inst.draw_examples(rng, 31)
        cfg = AlgoConfig(mode="exact", delta=0.1, gamma0=0.5)
        ours = runner(logged, online, policy, inst.classifiers, cfg, 5)
        theirs = runner(logged, online, table, inst.classifiers, cfg, 5)
        assert ours.decisions == theirs.decisions
        assert ours.final_classifier == theirs.final_classifier

    def test_probability_one_logging_degeneracy_exact(self):
        inst = random_instance(11, pool_size=5, class_size=6)
        # force reveal probability 1 everywhere by overriding the table
        policy = TablePolicy({x: 1.0 for x in inst.pool})
        rng = derive_rng(11, "degenerate")
        logged = []
        from idbal.data import LoggedTriple

        for ex in inst.draw_examples(rng, 200):
            logged.append(LoggedTriple(ex.x, 1, ex.y))
        online = inst.draw_examples(rng, 15)
        cfg = AlgoConfig(mode="exact", delta=0.1, gamma0=0.5)
        a = run_idbal(logged, online, policy, inst.classifiers, cfg, 1)
        b = run_dbalwm(logged, online, policy, inst.classifiers, cfg, 1)
        assert a.decisions == b.decisions
        assert a.final_classifier.index == b.final_classifier.index
        assert a.skipped_count == 0

    def test_runs_are_pinned(self):
        # blake2b-128 over every run's counts, final member and decisions on
        # 8 seeded worlds and all four learners; the hex was captured on the
        # per-point region test, before the loop moved to per-run arrays.
        # The worlds query, impute and skip, so each path is covered.
        digest = hashlib.blake2b(digest_size=16)
        seen = {QUERY: 0, INFER: 0, SKIP: 0}
        cfg = AlgoConfig(mode="exact", delta=0.1, gamma0=0.25)
        for seed in range(8):
            inst = random_instance(seed, pool_size=6, class_size=16, force_low_propensity=seed % 2 == 1)
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
                    want = practical_passive(prepared.logged, online, LinearModel.zeros(dim), cfg, 3)
                else:
                    weighting, debias = _REFERENCE_VARIANTS[name]
                    want = practical_run(
                        prepared.logged, online, LinearModel.zeros(dim), cfg, 3,
                        weighting=weighting, debias=debias,
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
