"""Logging policies: constant, grouped, margin-based, and table lookup."""
from __future__ import annotations

import numpy as np
import pytest

from idbal.data import FeatureVector, SyntheticSpec, generate_synthetic
from idbal.hypotheses import LinearModel
from idbal.policies import (
    CertaintyPolicy,
    IdenticalPolicy,
    TablePolicy,
    UncertaintyPolicy,
    UniformGroupsPolicy,
    calibrate_scale,
    fit_coarse_model,
    group_of,
    load_table_policy,
    policy_prob,
    save_table_policy,
)


def _vec(seed: int, dim: int = 4) -> FeatureVector:
    rng = np.random.default_rng(seed)
    return FeatureVector({i + 1: float(v) for i, v in enumerate(rng.uniform(-1, 1, dim))})


class TestIdentical:
    def test_constant(self):
        p = IdenticalPolicy(0.005)
        assert p.prob(_vec(0)) == 0.005
        assert p.prob(_vec(1)) == 0.005

    def test_probability_domain(self):
        with pytest.raises(ValueError):
            IdenticalPolicy(-0.1)
        with pytest.raises(ValueError):
            IdenticalPolicy(1.5)


class TestUniformGroups:
    def test_values_come_from_the_three_levels(self):
        policy = UniformGroupsPolicy(0.005, 0.05, 0.5, group_seed=0)
        seen = {policy.prob(_vec(i)) for i in range(200)}
        assert seen == {0.005, 0.05, 0.5}

    def test_group_assignment_deterministic(self):
        x = _vec(3)
        assert group_of(x, 7) == group_of(x, 7)

    def test_group_depends_on_seed(self):
        xs = [_vec(i) for i in range(50)]
        a = [group_of(x, 0) for x in xs]
        b = [group_of(x, 1) for x in xs]
        assert a != b

    def test_groups_roughly_balanced(self):
        counts = np.zeros(3)
        for i in range(3000):
            counts[group_of(_vec(i), 0)] += 1
        assert counts.min() > 800


class TestMarginPolicies:
    def test_uncertainty_peaks_at_the_boundary(self):
        model = LinearModel(np.array([0.0, 1.0, 0.0, 0.0, 0.0]))
        policy = UncertaintyPolicy(2.0, model)
        on_boundary = FeatureVector({2: 1.0})  # weight on index 1 is the only nonzero
        assert policy.prob(on_boundary) == 1.0
        far = FeatureVector({1: 5.0})
        assert policy.prob(far) < 1e-8

    def test_uncertainty_decreasing_in_margin(self):
        model = LinearModel(np.array([0.0, 1.0]))
        policy = UncertaintyPolicy(1.0, model)
        probs = [policy.prob(FeatureVector({1: v})) for v in (0.1, 0.5, 1.0, 2.0)]
        assert probs == sorted(probs, reverse=True)

    def test_certainty_zero_at_boundary_and_clamped(self):
        model = LinearModel(np.array([0.0, 1.0, 0.0]))
        policy = CertaintyPolicy(3.0, model)
        assert policy.prob(FeatureVector({2: 1.0})) == 0.0
        assert policy.prob(FeatureVector({1: 100.0})) == 1.0

    def test_certainty_increasing_in_margin(self):
        model = LinearModel(np.array([0.0, 1.0]))
        policy = CertaintyPolicy(0.5, model)
        probs = [policy.prob(FeatureVector({1: v})) for v in (0.1, 0.5, 1.0)]
        assert probs == sorted(probs)


class TestTablePolicy:
    def test_lookup_and_missing(self):
        x = _vec(0)
        policy = TablePolicy({x: 0.25})
        assert policy.prob(x) == 0.25
        with pytest.raises(ValueError):
            policy.prob(_vec(1))

    def test_save_load_round_trip(self):
        xs = [_vec(i) for i in range(5)]
        pairs = [(x, 1.0 / (i + 2)) for i, x in enumerate(xs)]
        text = save_table_policy(pairs)
        back = load_table_policy(text)
        for x, p in pairs:
            assert back.prob(x) == p


class TestPolicyProb:
    def test_rejects_out_of_range(self):
        class Bad:
            def prob(self, x):
                return 1.5

        with pytest.raises(ValueError):
            policy_prob(Bad(), _vec(0))


class TestCoarseModelAndCalibration:
    def test_coarse_model_deterministic(self):
        data = generate_synthetic(SyntheticSpec(count=500, dim=6, seed=0))
        a = fit_coarse_model(data, 0.1, seed=1)
        b = fit_coarse_model(data, 0.1, seed=1)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.steps == 50

    def test_coarse_model_empty_subsample_rejected(self):
        data = generate_synthetic(SyntheticSpec(count=5, dim=3, seed=0))
        with pytest.raises(ValueError):
            fit_coarse_model(data, 0.01, seed=1)

    def test_calibration_hits_target(self):
        data = generate_synthetic(SyntheticSpec(count=800, dim=6, seed=2))
        model = fit_coarse_model(data, 0.1, seed=3)
        instances = [ex.x for ex in data[:400]]
        for kind in ("uncertainty", "certainty"):
            scale = calibrate_scale(kind, model, instances, target=0.1)
            policy = UncertaintyPolicy(scale, model) if kind == "uncertainty" else CertaintyPolicy(scale, model)
            mean = float(np.mean([policy.prob(x) for x in instances]))
            assert abs(mean - 0.1) < 1e-6

    def test_unreachable_target_rejected(self):
        model = LinearModel(np.zeros(3))  # margin 0 everywhere
        instances = [_vec(i, dim=2) for i in range(10)]
        with pytest.raises(ValueError):
            calibrate_scale("certainty", model, instances, target=0.5)
