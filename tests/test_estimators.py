"""Weighted error estimators and the deviation-bound arithmetic."""
from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest

from idbal.data import FeatureVector
from idbal.estimators import (
    WeightedSample,
    delta_bound,
    mis_error,
    sigma,
)
from idbal.hypotheses import LinearModel
from idbal.learners import AlgoConfig

from reference import predict, stack_rows

# score -1 everywhere: predicts label 0 on every row
ALWAYS_ZERO = LinearModel(np.array([-1.0, 0.0]))


def _rows(count: int):
    """count one-feature rows x = (1, i), i = 1..count."""
    return stack_rows([FeatureVector({1: float(i + 1)}) for i in range(count)], 1)


def _sample(z, y, q0, q1, m: int, n: int) -> WeightedSample:
    """A sample over the records at positions 0..len(z)-1."""
    return WeightedSample.balanced(np.arange(len(z)), np.array(z), np.array(y), q0, q1, m, n)


def _predict(model: LinearModel, sample: WeightedSample) -> np.ndarray:
    """The model's predictions at the sample's records, the rows of _rows by
    position; ties (score exactly 0) go to label 1, a NaN score predicts 0."""
    return _rows(sample.z.size)[sample.rows] @ model.weights >= 0.0


BITS = "reveal bits must be 0 or 1"
LABEL = "z = 1 record must carry a 0/1 label"
DENOMINATOR = "z = 1 record has non-positive denominator"
OVERFLOW = "weight 1/denominator overflows"
# the least denominator whose weight 1/denominator is finite: 1/(1/max)
# rounds past the largest float
LEAST = math.nextafter(1.0 / sys.float_info.max, 1.0)


def _case(name: str, expected, z=(1, 0), y=(1, 1), denominator=(0.5, 0.25)):
    """A two-record WeightedSample case, record 0 revealed and record 1
    hidden unless z says otherwise; expected is the ValueError's message or
    the stored (z, y, denominator)."""
    return pytest.param(np.array(z), np.array(y), np.array(denominator), expected, id=name)


ACCEPT_REJECT = [
    _case("bit 0", ([0, 0], [0, 0], [0.5, 0.25]), z=(0, 0)),
    _case("bit 1", ([1, 0], [1, 0], [0.5, 0.25]), z=(1, 0)),
    _case("bit 2", BITS, z=(2, 0)),
    _case("bit -1", BITS, z=(-1, 0)),
    _case("bit 0.5", BITS, z=(0.5, 0)),
    _case("bit nan", BITS, z=(math.nan, 0)),
    _case("bit True", ([1, 0], [1, 0], [0.5, 0.25]), z=(True, False)),
    _case("revealed label 0", ([1, 0], [0, 0], [0.5, 0.25]), y=(0, 1)),
    _case("revealed label 1", ([1, 0], [1, 0], [0.5, 0.25]), y=(1, 1)),
    _case("revealed label 2", LABEL, y=(2, 1)),
    _case("revealed label nan", LABEL, y=(math.nan, 1)),
    *(_case(f"hidden label {v}", ([1, 0], [1, 0], [0.5, 0.25]), y=(1, v)) for v in (0, 1, 2, math.nan)),
    _case("revealed denominator 0", DENOMINATOR, denominator=(0.0, 0.25)),
    _case("revealed denominator -1", DENOMINATOR, denominator=(-1.0, 0.25)),
    _case("revealed denominator nan", DENOMINATOR, denominator=(math.nan, 0.25)),
    _case("revealed denominator inf", ([1, 0], [1, 0], [math.inf, 0.25]), denominator=(math.inf, 0.25)),
    _case("revealed denominator below the least", OVERFLOW, denominator=(math.nextafter(LEAST, 0.0), 0.25)),
    _case("revealed denominator least", ([1, 0], [1, 0], [LEAST, 0.25]), denominator=(LEAST, 0.25)),
    *(
        _case(f"hidden denominator {v}", ([1, 0], [1, 0], [0.5, v]), denominator=(0.5, v))
        for v in (0.0, -1.0, math.nan, math.inf, 1e-310)
    ),
]


class TestWeightedSample:
    @pytest.mark.parametrize("z, y, denominator, expected", ACCEPT_REJECT)
    def test_accept_reject_table(self, z, y, denominator, expected):
        # a revealed NaN denominator would make every weighted loss NaN and
        # the ERM silently member 0, so it is rejected like a zero one
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=expected):
                WeightedSample(np.arange(2), z, y, denominator, m=2, n=0)
            return
        sample = WeightedSample(np.arange(2), z, y, denominator, m=2, n=0)
        for stored, want, dtype in zip((sample.z, sample.y, sample.denominator), expected, (np.int8, np.int8, float)):
            assert stored.dtype == dtype and stored.tobytes() == np.array(want, dtype=dtype).tobytes()

    def test_least_denominator_is_the_overflow_boundary(self):
        assert 1.0 / LEAST == 1.7976931348623143e308
        assert 1.0 / math.nextafter(LEAST, 0.0) == math.inf

    def test_balanced_denominators(self):
        sample = _sample([1, 1], [0, 1], [0.2, 0.5], [1.0, 0.0], m=3, n=4)
        assert sample.denominator.tolist() == [3 * 0.2 + 4 * 1.0, 3 * 0.5]

    def test_phase_weighted_denominators(self):
        sample = WeightedSample.phase_weighted(np.arange(2), np.array([1, 1]), np.array([0, 1]), [0.2, 1.0], m=1, n=1)
        assert sample.denominator.tolist() == [2 * 0.2, 2 * 1.0]

    def test_misaligned_propensities_rejected(self):
        with pytest.raises(ValueError):
            _sample([1], [0], [0.2, 0.3], [1.0], m=1, n=0)
        with pytest.raises(ValueError):
            _sample([1], [0], [0.2, 0.3], [1.0, 1.0], m=1, n=0)
        with pytest.raises(ValueError):
            WeightedSample.phase_weighted(np.arange(2), np.array([1]), np.array([0]), [0.5], m=1, n=0)

    def test_revealed_record_with_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            _sample([1], [0], [0.0], [0.0], m=1, n=1)

    def test_hidden_record_with_zero_denominator_allowed(self):
        sample = _sample([0], [0], [0.0], [0.0], m=1, n=1)
        assert sample.z.size == 1

    def test_bits_and_labels_checked(self):
        with pytest.raises(ValueError):
            _sample([2], [0], [0.5], [0.0], m=1, n=0)
        with pytest.raises(ValueError):
            _sample([1], [2], [0.5], [0.0], m=1, n=0)
        with pytest.raises(ValueError):
            WeightedSample(np.arange(1), np.array([1]), np.array([0]), np.array([0.5]), m=-1, n=0)

    def test_hidden_labels_are_not_stored(self):
        sample = _sample([0, 1, 0], [1, 1, 0], [0.5, 0.5, 0.5], [0.0] * 3, m=3, n=0)
        assert sample.y.tolist() == [0, 1, 0]


class TestMisError:
    def test_single_logged_mistake(self):
        # one logged record, propensity 1/2, classifier wrong: 1 / (1 * 0.5) = 2
        sample = _sample([1], [1], [0.5], [0.0], m=1, n=0)
        assert mis_error(_predict(ALWAYS_ZERO, sample), sample) == 2.0

    def test_two_phase_mixture(self):
        # both records wrong, both with denominator m*q0 + n*q1 = 0.2 + 1.0
        sample = _sample([1, 1], [1, 1], [0.2, 0.2], [1.0, 1.0], m=1, n=1)
        np.testing.assert_allclose(mis_error(_predict(ALWAYS_ZERO, sample), sample), 2.0 / 1.2)

    def test_correct_predictions_contribute_nothing(self):
        sample = _sample([1, 1], [0, 0], [0.1, 0.9], [1.0, 1.0], m=5, n=5)
        assert mis_error(_predict(ALWAYS_ZERO, sample), sample) == 0.0

    def test_hidden_records_contribute_nothing(self):
        sample = _sample([0, 1], [1, 1], [0.5, 0.5], [0.0, 0.0], m=2, n=0)
        assert mis_error(_predict(ALWAYS_ZERO, sample), sample) == 1.0 / (2 * 0.5)

    def test_additive_over_mistakes(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            count = int(rng.integers(2, 12))
            q0 = rng.uniform(0.05, 1.0, count)
            labels = rng.integers(0, 2, count)
            sample = _sample(np.ones(count, dtype=int), labels, q0, np.zeros(count), m=count, n=0)
            expected = sum(1.0 / (count * q0[i]) for i in range(count) if labels[i] == 1)
            np.testing.assert_allclose(mis_error(_predict(ALWAYS_ZERO, sample), sample), expected)

    def test_misaligned_predictions_rejected(self):
        sample = _sample([1, 1], [1, 0], [0.5, 0.5], [0.0, 0.0], m=2, n=0)
        for predictions in (np.zeros(1, dtype=bool), np.zeros(3, dtype=bool), np.zeros((2, 1), dtype=bool)):
            with pytest.raises(ValueError):
                mis_error(predictions, sample)

    def test_predictions_are_read_as_labels(self):
        # bools and 0/1 integers alike; hidden records never count
        sample = _sample([1, 1, 0], [1, 0, 1], [0.5, 0.25, 0.5], [0.0] * 3, m=3, n=0)
        for predictions in ([False, True, False], np.array([0, 1, 0])):
            assert mis_error(predictions, sample) == 1.0 / 1.5 + 1.0 / 0.75

    def test_an_overflowing_loss_is_rejected(self):
        # each weight 1.5e308 is finite, the sum of the two mistakes is not
        sample = WeightedSample(np.arange(2), np.ones(2, dtype=int), np.ones(2, dtype=int), [1e-308 / 1.5] * 2, 2, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mis_error([0, 1], sample) == 1.0 / (1e-308 / 1.5)
            with pytest.raises(ValueError, match="weighted loss overflows"):
                mis_error([0, 0], sample)

    def test_matches_the_record_loop_exactly(self):
        # the per-record loop mis_error replaced: predict with the scalar score and
        # add 1/denominator for each mistake, in record order. Denominators
        # span 8 decades so the order of the additions shows in the last
        # bit; weights reach 1e306, so scores overflow to inf and NaN.
        rng = np.random.default_rng(11)
        dim = 8
        instances = [FeatureVector({}), FeatureVector({2: 1.0})]
        for _ in range(60):
            picked = rng.choice(np.arange(1, dim + 1), size=int(rng.integers(1, dim)), replace=False)
            instances.append(FeatureVector(zip(picked.tolist(), rng.uniform(-1e3, 1e3, picked.size))))
        rows = stack_rows(instances, dim)
        models = [LinearModel.zeros(dim)]
        for scale in np.logspace(0.0, 306.0, 120):
            weights = rng.standard_normal(dim + 1) * scale
            weights[rng.random(dim + 1) < 0.2] = 0.0
            models.append(LinearModel(weights))
        nonzero = 0
        for model in models:
            z = (rng.random(len(instances)) < 0.8).astype(int)
            y = rng.integers(0, 2, len(instances))
            denominator = 10.0 ** rng.uniform(-4.0, 4.0, len(instances))
            sample = WeightedSample(np.arange(len(instances)), z, y, denominator, m=len(instances), n=0)
            expected = 0.0
            with np.errstate(over="ignore", invalid="ignore"):
                for x, zi, yi, d in zip(instances, z, y, denominator.tolist()):
                    if zi == 1 and predict(model.weights, x) != yi:
                        expected += 1.0 / d
            # ties (score exactly 0) go to label 1, a NaN score predicts 0
            assert mis_error(rows @ model.weights >= 0.0, sample) == expected
            nonzero += expected > 0.0
        assert nonzero > len(models) // 2


class TestBounds:
    def test_sigma_hand_value(self):
        # ln(8 / 0.5) / (2 * 1 + 2) = ln(16) / 4
        np.testing.assert_allclose(sigma((2, 2), 1.0, 8, 0.5), math.log(16.0) / 4.0)

    def test_sigma_zero_mass_is_infinite(self):
        # no effective sample, from no records or from a zero floor on the
        # logged ones, bounds nothing: the slack is infinite, not NaN
        for sizes, xi in (((0, 0), 0.5), ((40, 0), 0.0)):
            assert sigma(sizes, xi, 4, 0.5) == math.inf
            assert delta_bound(sigma(sizes, xi, 4, 0.5), 0.3, 1.0) == math.inf

    def test_sigma_decreasing_in_sample_size(self):
        values = [sigma((m, m), 0.5, 8, 0.1) for m in (1, 2, 4, 8, 16)]
        assert values == sorted(values, reverse=True)

    def test_delta_bound_hand_value(self):
        # 0.25 + sqrt(0.25 * 0.25) = 0.5
        np.testing.assert_allclose(delta_bound(0.25, 0.25, 1.0), 0.5)

    def test_delta_bound_scales_with_gamma(self):
        np.testing.assert_allclose(delta_bound(0.25, 0.25, 2.0), 1.0)

    @pytest.mark.parametrize("gamma0", [math.nan, math.inf])
    def test_delta_bound_rejects_a_non_finite_gamma(self, gamma0):
        # a NaN slack prunes every candidate but the ERM, silently
        with pytest.raises(ValueError, match="gamma0 must be positive and finite"):
            delta_bound(0.25, 0.25, gamma0)

    def test_delta_bound_infinite_sigma(self):
        assert delta_bound(math.inf, 0.3, 1.0) == math.inf
        assert delta_bound(math.inf, np.array([0.0, 0.3, 1.0]), 1.0).tolist() == [math.inf] * 3

    def test_delta_bound_over_an_array_matches_the_scalar_loop(self):
        rng = np.random.default_rng(5)
        rho = np.concatenate(([0.0, 1.0], rng.random(200), rng.integers(0, 97, 50) / 97))
        for gamma0 in (0.3, 1.0, 2.5):
            for sigma_value in (0.0, 1e-12, 0.0173, 0.5, 3.0, 1e300):
                slack = delta_bound(sigma_value, rho, gamma0)
                loop = [gamma0 * (sigma_value + math.sqrt(sigma_value * r)) for r in rho.tolist()]
                assert slack.tolist() == loop
                assert [delta_bound(sigma_value, r, gamma0) for r in rho.tolist()] == loop

    def test_delta_bound_checks_its_arguments(self):
        for sigma_value, rho in (
            (-0.1, 0.5),
            (-0.1, np.array([0.5])),
            (0.5, 1.5),
            (0.5, -0.1),
            (0.5, np.array([0.2, 1.0 + 1e-12])),
            (0.5, np.array([0.2, -1e-12])),
            (0.5, math.nan),
            (0.5, np.array([0.2, math.nan])),
            (math.inf, np.array([math.nan])),
        ):
            with pytest.raises(ValueError):
                delta_bound(sigma_value, rho, 1.0)

    @pytest.mark.parametrize("sizes, xi, message", [
        ((-1, 2), 0.5, "phase sizes cannot be negative"),
        ((2, -1), 0.5, "phase sizes cannot be negative"),
        ((2, 2), -0.25, "xi must be a probability"),
        ((2, 2), 1.5, "xi must be a probability"),
        ((2, 2), math.nan, "xi must be a probability"),
    ], ids=["negative-m", "negative-n", "negative-xi", "xi-over-1", "nan-xi"])
    def test_sigma_rejects_bad_sizes_and_floors(self, sizes, xi, message):
        with pytest.raises(ValueError, match=message):
            sigma(sizes, xi, 8, 0.1)

    def test_bound_config_validation(self):
        # the bound's constants: gamma0 > 0, delta in (0, 1), at least one hypothesis
        for gamma0 in (0.0, -1.0):
            with pytest.raises(ValueError, match="gamma0"):
                delta_bound(0.25, 0.25, gamma0)
            with pytest.raises(ValueError, match="gamma0"):
                AlgoConfig(gamma0=gamma0)
        for delta in (0.0, 1.0):
            with pytest.raises(ValueError, match="delta"):
                sigma((2, 2), 0.5, 8, delta)
        with pytest.raises(ValueError, match="hypothesis_count"):
            sigma((2, 2), 0.5, 0, 0.5)
