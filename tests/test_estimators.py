"""Weighted error estimators and the deviation-bound arithmetic."""
from __future__ import annotations

import math

import numpy as np
import pytest

from idbal.data import FeatureVector, LoggedTriple
from idbal.estimators import (
    BoundConfig,
    WeightedSample,
    delta_bound,
    mis_error,
    sigma,
)


def _x(i: int) -> FeatureVector:
    return FeatureVector({1: float(i)})


class _Always:
    """Classifier with a constant prediction."""

    def __init__(self, label: int):
        self.label = label

    def predict(self, x: FeatureVector) -> int:
        return self.label


class TestWeightedSample:
    def test_balanced_denominators(self):
        triples = [LoggedTriple(_x(1), 1, 0), LoggedTriple(_x(2), 1, 1)]
        sample = WeightedSample.balanced(triples, [0.2, 0.5], [1.0, 0.0], m=3, n=4)
        denoms = [d for _, d in sample.records]
        assert denoms == [3 * 0.2 + 4 * 1.0, 3 * 0.5]

    def test_phase_weighted_denominators(self):
        triples = [LoggedTriple(_x(1), 1, 0), LoggedTriple(_x(2), 1, 1)]
        sample = WeightedSample.phase_weighted(triples, [0.2, 1.0], m=1, n=1)
        denoms = [d for _, d in sample.records]
        assert denoms == [2 * 0.2, 2 * 1.0]

    def test_misaligned_propensities_rejected(self):
        triples = [LoggedTriple(_x(1), 1, 0)]
        with pytest.raises(ValueError):
            WeightedSample.balanced(triples, [0.2, 0.3], [1.0], m=1, n=0)

    def test_revealed_record_with_zero_denominator_rejected(self):
        triples = [LoggedTriple(_x(1), 1, 0)]
        with pytest.raises(ValueError):
            WeightedSample.balanced(triples, [0.0], [0.0], m=1, n=1)

    def test_hidden_record_with_zero_denominator_allowed(self):
        triples = [LoggedTriple(_x(1), 0)]
        sample = WeightedSample.balanced(triples, [0.0], [0.0], m=1, n=1)
        assert len(sample.records) == 1


class TestMisError:
    def test_single_logged_mistake(self):
        # one logged record, propensity 1/2, classifier wrong: 1 / (1 * 0.5) = 2
        triples = [LoggedTriple(_x(1), 1, 1)]
        sample = WeightedSample.balanced(triples, [0.5], [0.0], m=1, n=0)
        assert mis_error(_Always(0), sample) == 2.0

    def test_two_phase_mixture(self):
        # both records wrong, both with denominator m*q0 + n*q1 = 0.2 + 1.0
        triples = [LoggedTriple(_x(1), 1, 1), LoggedTriple(_x(2), 1, 1)]
        sample = WeightedSample.balanced(triples, [0.2, 0.2], [1.0, 1.0], m=1, n=1)
        np.testing.assert_allclose(mis_error(_Always(0), sample), 2.0 / 1.2)

    def test_correct_predictions_contribute_nothing(self):
        triples = [LoggedTriple(_x(1), 1, 0), LoggedTriple(_x(2), 1, 0)]
        sample = WeightedSample.balanced(triples, [0.1, 0.9], [1.0, 1.0], m=5, n=5)
        assert mis_error(_Always(0), sample) == 0.0

    def test_hidden_records_contribute_nothing(self):
        triples = [LoggedTriple(_x(1), 0), LoggedTriple(_x(2), 1, 1)]
        sample = WeightedSample.balanced(triples, [0.5, 0.5], [0.0, 0.0], m=2, n=0)
        assert mis_error(_Always(0), sample) == 1.0 / (2 * 0.5)

    def test_additive_over_mistakes(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            count = int(rng.integers(2, 12))
            q0 = rng.uniform(0.05, 1.0, count)
            labels = rng.integers(0, 2, count)
            triples = [LoggedTriple(_x(i), 1, int(labels[i])) for i in range(count)]
            sample = WeightedSample.balanced(triples, q0, np.zeros(count), m=count, n=0)
            expected = sum(1.0 / (count * q0[i]) for i in range(count) if labels[i] == 1)
            np.testing.assert_allclose(mis_error(_Always(0), sample), expected)


class TestBounds:
    def test_sigma_hand_value(self):
        cfg = BoundConfig(hypothesis_count=8, delta=0.5)
        # ln(8 / 0.5) / (2 * 1 + 2) = ln(16) / 4
        np.testing.assert_allclose(sigma((2, 2), 1.0, cfg), math.log(16.0) / 4.0)

    def test_sigma_zero_mass_rejected(self):
        cfg = BoundConfig(hypothesis_count=4, delta=0.5)
        with pytest.raises(ValueError):
            sigma((0, 0), 0.5, cfg)

    def test_sigma_decreasing_in_sample_size(self):
        cfg = BoundConfig(hypothesis_count=8, delta=0.1)
        values = [sigma((m, m), 0.5, cfg) for m in (1, 2, 4, 8, 16)]
        assert values == sorted(values, reverse=True)

    def test_delta_bound_hand_value(self):
        cfg = BoundConfig(gamma0=1.0)
        # 0.25 + sqrt(0.25 * 0.25) = 0.5
        np.testing.assert_allclose(delta_bound(0.25, 0.25, cfg), 0.5)

    def test_delta_bound_scales_with_gamma(self):
        cfg = BoundConfig(gamma0=2.0)
        np.testing.assert_allclose(delta_bound(0.25, 0.25, cfg), 1.0)

    def test_delta_bound_infinite_sigma(self):
        cfg = BoundConfig(gamma0=1.0)
        assert delta_bound(math.inf, 0.3, cfg) == math.inf

    def test_bound_config_validation(self):
        with pytest.raises(ValueError):
            BoundConfig(gamma0=0.0)
        with pytest.raises(ValueError):
            BoundConfig(delta=0.0)
        with pytest.raises(ValueError):
            BoundConfig(hypothesis_count=0)
