"""Brute-force oracle: exact truths on small discrete worlds, exact estimator
moments, region geometry, and the adjusted disagreement coefficient."""
from __future__ import annotations

import hashlib
import math
from itertools import combinations

import numpy as np
import pytest

from idbal.data import FeatureVector
from idbal.estimators import WeightedSample
from idbal.hypotheses import FiniteClass
from idbal.oracle import (
    DiscreteInstance,
    adjusted_dis_coefficient,
    dis_ball,
    dis_region,
    disagreement_mass,
    exact_moments,
    random_instance,
    run_verification_suite,
    s_region,
)

from reference import independent_coefficient, scalar_draw_examples, scalar_draw_logged


def _hand_instance() -> DiscreteInstance:
    """Three points, three classifiers, all numbers dyadic."""
    pool = [FeatureVector({1: 1.0}), FeatureVector({1: 2.0}), FeatureVector({1: 3.0})]
    masses = np.array([0.5, 0.25, 0.25])
    p1 = np.array([0.0, 1.0, 0.25])
    labels = np.array([[0, 1, 0], [0, 1, 1], [1, 0, 0]], dtype=np.int8)
    q0 = np.array([0.5, 0.125, 1.0])
    return DiscreteInstance(pool=pool, masses=masses, p1=p1, classifiers=FiniteClass(pool, labels), q0=q0)


class TestDiscreteInstance:
    def test_true_errors_hand_computed(self):
        inst = _hand_instance()
        # member 0 labels (0,1,0): errs where labels differ from Y
        # P(err) = mass * (p1 if predict 0 else 1 - p1)
        e0 = 0.5 * 0.0 + 0.25 * 0.0 + 0.25 * 0.25
        e1 = 0.5 * 0.0 + 0.25 * 0.0 + 0.25 * (1 - 0.25)
        e2 = 0.5 * 1.0 + 0.25 * 1.0 + 0.25 * 0.25
        np.testing.assert_allclose(inst.true_errors, [e0, e1, e2])
        assert inst.h_star_index == 0
        np.testing.assert_allclose(inst.nu, e0)

    def test_random_instances_are_dyadic(self):
        for seed in range(10):
            inst = random_instance(seed)
            np.testing.assert_allclose(inst.masses.sum(), 1.0, atol=1e-15)
            assert np.all(inst.masses * 128 == np.round(inst.masses * 128))
            assert np.all(inst.p1 * 32 == np.round(inst.p1 * 32))
            assert np.all(inst.q0 * 64 == np.round(inst.q0 * 64))
            assert np.all(inst.q0 > 0)
            rows = {tuple(row) for row in inst.classifiers.labels}
            assert len(rows) == len(inst.classifiers)

    @pytest.mark.parametrize(
        "sizes, argument",
        [
            ({"pool_size": 0}, "pool_size"),
            ({"pool_size": -2}, "pool_size"),
            ({"pool_size": 129}, "pool_size"),
            ({"class_size": 0}, "class_size"),
            ({"class_size": -1}, "class_size"),
        ],
        ids=["empty-pool", "negative-pool", "pool-over-128", "empty-class", "negative-class"],
    )
    def test_bad_sizes_name_the_argument(self, sizes, argument):
        # masses are whole 1/128 units, at least one per pool point
        with pytest.raises(ValueError, match=argument):
            random_instance(0, **sizes)

    def test_size_limits_accepted(self):
        for pool_size, class_size in ((1, 1), (1, 2), (128, 3)):
            inst = random_instance(0, pool_size=pool_size, class_size=class_size)
            assert len(inst.pool) == pool_size and len(inst.classifiers) == class_size
            assert np.all(inst.masses >= 1.0 / 128.0) and inst.masses.sum() == 1.0

    @pytest.mark.parametrize("field", ["masses", "p1", "q0"])
    def test_non_finite_entries_rejected(self, field):
        inst = _hand_instance()
        arrays = {"masses": inst.masses, "p1": inst.p1, "q0": inst.q0}
        arrays[field] = arrays[field].copy()
        arrays[field][1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            DiscreteInstance(pool=inst.pool, classifiers=inst.classifiers, **arrays)

    def test_class_over_a_permuted_pool_rejected(self):
        # masses, p1 and q0 index the instance's pool; a class over the same
        # points in another order would label other points than they describe
        inst = _hand_instance()
        permuted = FiniteClass(inst.pool[::-1], inst.classifiers.labels[:, ::-1])
        with pytest.raises(ValueError, match="class's pool"):
            DiscreteInstance(pool=inst.pool, masses=inst.masses, p1=inst.p1, classifiers=permuted, q0=inst.q0)
        assert inst.pool is inst.classifiers.pool

    def test_forced_low_propensity(self):
        for seed in range(5):
            inst = random_instance(seed, force_low_propensity=True)
            assert inst.q0.min() <= 3.0 / 64.0

    @pytest.mark.parametrize("seed", [3, 17, 1000])
    def test_draws_equal_the_records_built_from_numpy_scalars(self, seed):
        inst = random_instance(seed, pool_size=8, class_size=16)
        for draw, reference in ((inst.draw_logged, scalar_draw_logged), (inst.draw_examples, scalar_draw_examples)):
            got = draw(np.random.default_rng(seed), 500)
            want = reference(inst, np.random.default_rng(seed), 500)
            assert got == want
            assert all(a.x is b.x for a, b in zip(got, want))
            assert {type(r.y) for r in got} <= {int, type(None)}

    def test_true_error_matches_slow_recount(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            inst = random_instance(seed)
            member = int(rng.integers(0, len(inst.classifiers)))
            slow = sum(
                inst.masses[j]
                * (inst.p1[j] if inst.classifiers.labels[member, j] == 0 else 1.0 - inst.p1[j])
                for j in range(len(inst.pool))
            )
            np.testing.assert_allclose(inst.true_errors[member], slow, rtol=1e-12)


class TestRegionGeometry:
    def test_disagreement_mass_hand(self):
        inst = _hand_instance()
        # members 0 and 1 differ only at point 2 (mass 0.25)
        np.testing.assert_allclose(disagreement_mass(inst, 0, 1), 0.25)
        # members 0 and 2 differ at points 0 and 1
        np.testing.assert_allclose(disagreement_mass(inst, 0, 2), 0.75)
        assert disagreement_mass(inst, 1, 1) == 0.0

    def test_symmetry(self):
        inst = random_instance(3)
        for i, j in combinations(range(len(inst.classifiers)), 2):
            assert disagreement_mass(inst, i, j) == disagreement_mass(inst, j, i)

    def test_ball_and_region_hand(self):
        inst = _hand_instance()
        assert dis_ball(inst, 0, 0.3) == (0, 1)
        assert dis_ball(inst, 0, 1.0) == (0, 1, 2)
        # region of {0, 1}: they differ only at pool point 2
        assert dis_region(inst, (0, 1)) == (2,)
        assert dis_region(inst, (0,)) == ()

    def test_indices_outside_the_class_or_pool_rejected(self):
        # a negative index used to wrap around to the last member or point
        inst = _hand_instance()
        with pytest.raises(ValueError, match="member index -1 outside"):
            dis_ball(inst, -1, 0.5)
        with pytest.raises(ValueError, match="member index -1 outside"):
            dis_region(inst, (-1, 0))
        with pytest.raises(ValueError, match="member index 3 outside"):
            disagreement_mass(inst, 0, len(inst.classifiers))
        with pytest.raises(ValueError, match="pool index outside"):
            s_region(inst, (-1,), 2.0)
        with pytest.raises(ValueError, match="pool index outside"):
            s_region(inst, (0, len(inst.pool)), 2.0)

    def test_s_region_restricted_hand(self):
        inst = _hand_instance()
        # region over all three points; threshold = min q0 + 1/alpha
        region = (0, 1, 2)
        kept = s_region(inst, region, alpha=2.0)
        # min q0 = 0.125, cutoff 0.625: keeps q0 in {0.5, 0.125}
        assert kept == (0, 1)
        everything = s_region(inst, region, alpha=1.0)
        assert everything == (0, 1, 2)


class TestAdjustedCoefficient:
    def test_alpha_one_matches_independent_enumeration(self):
        # the default worlds and the pool-8, 64-member worlds of the benchmark
        for size in ({}, {"pool_size": 8, "class_size": 64}):
            for seed in range(10):
                inst = random_instance(seed, **size)
                r0 = 2.0 * inst.nu
                ours = adjusted_dis_coefficient(inst, r0, alpha=1.0)
                np.testing.assert_allclose(ours, independent_coefficient(inst, r0), rtol=1e-12)

    def test_monotone_in_alpha(self):
        for seed in range(6):
            inst = random_instance(seed)
            r0 = 2.0 * inst.nu
            base = adjusted_dis_coefficient(inst, r0, alpha=1.0)
            for alpha in (2.0, 4.0, 8.0):
                assert adjusted_dis_coefficient(inst, r0, alpha) <= base + 1e-12

    def test_radius_floor_validated(self):
        inst = random_instance(0)
        with pytest.raises(ValueError):
            adjusted_dis_coefficient(inst, 0.5 * inst.nu, alpha=1.0)

    @pytest.mark.parametrize("r0", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, r0):
        # both used to answer 0.0: nothing is above NaN, and every mass over inf is 0
        with pytest.raises(ValueError, match="r0 must be finite"):
            adjusted_dis_coefficient(random_instance(0), r0, alpha=1.0)


def _q1_with_zeros(instance):
    return np.where(np.arange(len(instance.pool)) % 2 == 0, 0.0, 0.5)


class TestMonteCarlo:
    def test_outputs_are_pinned(self):
        # Every check row of a small suite, each an exact sum over the cell
        # table in cell order; changing that order or a cell's value moves the hex.
        digest = hashlib.blake2b(digest_size=16)
        for row in run_verification_suite(0, 3):
            digest.update(f"{row.name}|{row.passed}|{row.statistic!r}|{row.details}\n".encode())
        assert digest.hexdigest() == "7c10233439e065317546b3b01bfac94a"

    def test_mis_unbiased_quick(self):
        inst = random_instance(1)
        mean, _ = exact_moments(inst, inst.h_star_index, m=30, n=30)
        assert abs(mean - inst.nu) <= 1e-12

    def test_is_unbiased_quick(self):
        inst = random_instance(2)
        mean, _ = exact_moments(inst, 1, m=25, n=25, estimator="is")
        assert abs(mean - inst.true_errors[1]) <= 1e-12

    def test_variance_threshold_is_the_balance_bound(self):
        # the proved var_mis <= var_is (see mis_error), with 1e-12 for rounding only
        rows = {row.name: row for row in run_verification_suite(seed=0, fixtures=3)}
        assert all(rows[f"variance-dominance-{i}"].threshold == 1.0 + 1e-12 for i in range(3))
        rng = np.random.default_rng(5)
        for seed in range(200):
            inst = random_instance(seed=100 + seed, pool_size=int(rng.integers(3, 7)), force_low_propensity=seed % 2 == 1)
            m, n = (int(k) for k in rng.integers(1, 40, 2))
            q1 = rng.integers(1, 65, len(inst.pool)) / 64.0
            h = int(rng.integers(len(inst.classifiers)))
            var_mis = exact_moments(inst, h, m=m, n=n, q1=q1)[1]
            var_is = exact_moments(inst, h, m=m, n=n, q1=q1, estimator="is")[1]
            assert var_mis <= var_is * (1.0 + 1e-12), seed

    def test_proved_bound_is_tight(self):
        # at q1 = q0 the denominators (m + n) q0 and m q0 + n q0 coincide, so the
        # variances agree to rounding; moving q1 where mu E[f^2] > 0 makes the
        # balanced variance strictly smaller
        rng = np.random.default_rng(7)
        for seed in range(20):
            inst = random_instance(seed=300 + seed, force_low_propensity=seed % 2 == 1)
            m, n = (int(k) for k in rng.integers(1, 40, 2))
            h = seed % len(inst.classifiers)
            var_mis = exact_moments(inst, h, m=m, n=n, q1=inst.q0)[1]
            var_is = exact_moments(inst, h, m=m, n=n, q1=inst.q0, estimator="is")[1]
            assert var_is > 0.0 and abs(var_mis - var_is) <= 1e-12 * var_is, seed
            error_mass = inst.masses * np.where(inst.classifiers.labels[h] == 1, 1.0 - inst.p1, inst.p1)
            point = int(np.argmax(error_mass))
            q1 = inst.q0.copy()
            q1[point] = 1.0 if q1[point] < 1.0 else 0.5
            var_mis = exact_moments(inst, h, m=m, n=n, q1=q1)[1]
            var_is = exact_moments(inst, h, m=m, n=n, q1=q1, estimator="is")[1]
            assert var_mis < var_is, seed

    def test_one_trial_suffices(self):
        # nothing is drawn: trials is accepted and not read
        rows = run_verification_suite(seed=0, fixtures=1, trials=1)
        assert [row.name for row in rows] == ["unbiasedness-mis-0", "unbiasedness-is-0", "variance-dominance-0"]
        assert rows == run_verification_suite(seed=0, fixtures=1) == run_verification_suite(0, 1, trials=20000)

    @pytest.mark.parametrize("m, n", [(0, 0), (-3, 5), (5, -1)])
    def test_bad_sample_sizes_rejected(self, m, n):
        inst = random_instance(0)
        for estimator in ("mis", "is"):
            with pytest.raises(ValueError, match="m and n"):
                exact_moments(inst, 0, m=m, n=n, estimator=estimator)

    def test_q1_must_cover_the_pool(self):
        inst = random_instance(0)
        q1 = np.ones(len(inst.pool) + 1)
        with pytest.raises(ValueError, match="q1"):
            exact_moments(inst, 0, m=5, n=5, q1=q1)

    @pytest.mark.parametrize("bad", [-0.25, 1.5, math.nan])
    def test_q1_must_be_probabilities(self, bad):
        inst = random_instance(0)
        q1 = np.full(len(inst.pool), 0.5)
        q1[2] = bad
        with pytest.raises(ValueError, match="q1 must be probabilities"):
            exact_moments(inst, 0, m=5, n=5, q1=q1)

    @pytest.mark.parametrize("h", [-1, -2, 8])
    def test_member_outside_the_class_rejected(self, h):
        inst = random_instance(0)  # eight members
        with pytest.raises(ValueError, match=f"member index {h} outside"):
            exact_moments(inst, h, m=5, n=5)

    def test_a_wrong_library_weight_fails_the_checks(self, monkeypatch):
        inst = random_instance(1, force_low_propensity=True)
        h = 1
        assert abs(exact_moments(inst, h, m=8, n=8)[0] - inst.true_errors[h]) <= 1e-12

        def one_phase_denominator(cls, rows, z, y, q_logging, q_online, m, n):
            q_logging = np.asarray(q_logging, dtype=float)
            return cls(rows, z, y, m * q_logging + n * q_logging, m, n)

        monkeypatch.setattr(WeightedSample, "balanced", classmethod(one_phase_denominator))
        mean, _ = exact_moments(inst, h, m=8, n=8)
        assert abs(mean - inst.true_errors[h]) > 1e-3
        rows = {row.name: row.passed for row in run_verification_suite(seed=0, fixtures=3)}
        assert [rows[f"unbiasedness-{name}-{i}"] for name in ("mis", "is") for i in range(3)] == [False] * 3 + [True] * 3

    def test_zero_online_propensities(self):
        inst = random_instance(2, force_low_propensity=True)
        q1 = _q1_with_zeros(inst)
        h = 3
        assert (inst.q0 > 0.0).all() and (q1 == 0.0).any()
        mean, var_mis = exact_moments(inst, h, m=10, n=10, q1=q1)
        _, var_is = exact_moments(inst, h, m=10, n=10, q1=q1, estimator="is")
        assert abs(mean - inst.true_errors[h]) <= 1e-12
        assert var_is > 0.0 and var_mis > 0.0

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator 'nope'"):
            exact_moments(random_instance(0), 0, m=5, n=5, estimator="nope")


class TestVerificationSuite:
    def test_small_suite_all_green(self):
        rows = run_verification_suite(seed=0, fixtures=3)
        assert all(row.passed for row in rows)
        names = {row.name for row in rows}
        assert any("unbiasedness-mis" in n for n in names)
        assert any("variance-dominance" in n for n in names)
        assert len(rows) == 9
