"""Brute-force oracle: exact truths on small discrete worlds, exact estimator
moments, region geometry, and the adjusted disagreement coefficient."""
from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from idbal.data import Example, FeatureVector, LoggedTriple
from idbal.estimators import WeightedSample
from idbal.hypotheses import FiniteClass
from idbal.oracle import (
    DiscreteInstance,
    adjusted_dis_coefficient,
    dis_region,
    exact_moments,
    random_instance,
    run_verification_suite,
    s_region,
)

from reference import cell_moments, independent_coefficient, scalar_draw_examples, scalar_draw_logged


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

    def test_truths_are_read_only(self):
        inst = random_instance(3, pool_size=8, class_size=16)
        for name in ("true_errors", "h_star_index", "nu"):
            with pytest.raises(AttributeError):
                setattr(inst, name, getattr(inst, name))

    @staticmethod
    def _hand_truths(inst: DiscreteInstance) -> tuple[list[float], int, float]:
        """Each member's error summed point by point over the pool; masses and
        p1 are dyadic, so every product and sum is exact."""
        masses, p1 = inst.masses.tolist(), inst.p1.tolist()
        errors = [
            sum(mass * (q if label == 0 else 1.0 - q) for mass, q, label in zip(masses, p1, row))
            for row in inst.classifiers.labels.tolist()
        ]
        return errors, errors.index(min(errors)), min(errors)

    def test_truths_equal_a_hand_sum_over_the_pool(self):
        for seed in range(20):
            inst = random_instance(seed, pool_size=8, class_size=16)
            errors, h_star, nu = self._hand_truths(inst)
            assert inst.true_errors.tolist() == errors
            assert type(inst.h_star_index) is int and inst.h_star_index == h_star
            assert type(inst.nu) is float and inst.nu == nu

    def test_replace_recomputes_the_truths(self):
        inst = random_instance(5, pool_size=8, class_size=16)
        # 1 - p1 everywhere turns each member's error e into 1 - e, so h* moves
        # to the first member of largest error
        flipped = dataclasses.replace(inst, p1=1.0 - inst.p1)
        errors, h_star, nu = self._hand_truths(flipped)
        assert flipped.true_errors.tolist() == errors == (1.0 - inst.true_errors).tolist()
        assert flipped.h_star_index == h_star == int(np.argmax(inst.true_errors)) != inst.h_star_index
        assert flipped.nu == nu == 1.0 - float(inst.true_errors.max())

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
            ({"pool_size": 2, "class_size": 5}, "class_size 5 exceeds the 4 distinct labelings"),
        ],
        ids=["empty-pool", "negative-pool", "pool-over-128", "empty-class", "negative-class", "class-over-labelings"],
    )
    def test_bad_sizes_name_the_argument(self, sizes, argument):
        # masses are whole 1/128 units, at least one per pool point
        with pytest.raises(ValueError, match=argument):
            random_instance(0, **sizes)

    def test_size_limits_accepted(self):
        for pool_size, class_size in ((1, 1), (1, 2), (2, 4), (128, 3)):
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

    @pytest.mark.parametrize("field, values, message", [
        ("masses", [0.5, 0.5], "one entry per pool instance"),
        ("p1", [0.0, 1.0, 0.25, 0.5], "one entry per pool instance"),
        ("q0", [[0.5, 0.125, 1.0]], "one entry per pool instance"),
        ("masses", [0.75, 0.5, -0.25], "masses must be nonnegative and sum to 1"),
        ("masses", [0.5, 0.25, 0.125], "masses must be nonnegative and sum to 1"),
        ("p1", [0.0, 1.25, 0.25], "p1 and q0 must be probabilities"),
        ("q0", [0.5, -0.125, 1.0], "p1 and q0 must be probabilities"),
    ], ids=["short-masses", "long-p1", "2-d-q0", "negative-mass", "mass-below-1", "p1-over-1", "negative-q0"])
    def test_bad_arrays_rejected(self, field, values, message):
        inst = _hand_instance()
        arrays = {"masses": inst.masses, "p1": inst.p1, "q0": inst.q0, field: np.array(values)}
        with pytest.raises(ValueError, match=message):
            DiscreteInstance(pool=inst.pool, classifiers=inst.classifiers, **arrays)

    def test_class_over_a_permuted_pool_rejected(self):
        # masses, p1 and q0 index the instance's pool; a class over the same
        # points in another order would label other points than they describe
        inst = _hand_instance()
        permuted = FiniteClass(inst.pool[::-1], inst.classifiers.labels[:, ::-1])
        with pytest.raises(ValueError, match="class's pool"):
            DiscreteInstance(pool=inst.pool, masses=inst.masses, p1=inst.p1, classifiers=permuted, q0=inst.q0)
        assert inst.pool is inst.classifiers.pool

    def test_dyadic_and_low_draws_are_pinned(self):
        # blake2b-128 over masses, p1, labels and q0 of 200 worlds; the hex was
        # captured on the boolean flag that planted the low point before the
        # families replaced it
        digest = hashlib.blake2b(digest_size=16)
        for pool_size, class_size in ((6, 8), (8, 64)):
            for family in ("dyadic", "low"):
                for seed in range(50):
                    inst = random_instance(seed, pool_size=pool_size, class_size=class_size, family=family)
                    for values in (inst.masses, inst.p1, inst.classifiers.labels, inst.q0):
                        digest.update(values.tobytes())
        assert digest.hexdigest() == "3679ce1fcc2711a2bdbc3bd1c9c0c2a7"

    def test_low_moves_at_most_one_point_of_the_dyadic_world(self):
        for seed in range(50):
            base, low = (random_instance(seed, pool_size=8, class_size=64, family=f) for f in ("dyadic", "low"))
            assert np.array_equal(low.masses, base.masses) and np.array_equal(low.p1, base.p1)
            assert np.array_equal(low.classifiers.labels, base.classifiers.labels)
            moved = np.flatnonzero(low.q0 != base.q0)
            assert moved.size <= 1 and low.q0.min() <= 3.0 / 64.0
            assert (low.q0[moved] <= 3.0 / 64.0).all()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown q0 family 'flat'; families are 'dyadic', 'low'"):
            random_instance(0, family="flat")

    @pytest.mark.parametrize("seed", [3, 17, 1000])
    def test_draws_equal_the_records_built_from_numpy_scalars(self, seed):
        inst = random_instance(seed, pool_size=8, class_size=16)
        for draw, reference in ((inst.draw_logged, scalar_draw_logged), (inst.draw_examples, scalar_draw_examples)):
            got = draw(np.random.default_rng(seed), 500)
            want = reference(inst, np.random.default_rng(seed), 500)
            assert got == want
            assert all(a.x is b.x for a, b in zip(got, want))
            assert {type(r.y) for r in got} <= {int, type(None)}

    def test_draws_hold_one_record_per_cell(self):
        # a draw of any length holds only the pool vectors' shared records:
        # 3 triples and 2 Examples per point at most
        inst = random_instance(4, pool_size=5, class_size=8)
        rng = np.random.default_rng(4)
        logged, online = inst.draw_logged(rng, 4000), inst.draw_examples(rng, 4000)
        shared = {id(r) for x in inst.pool for r in x.records}
        for draw, kind, most in ((logged, LoggedTriple, 15), (online, Example, 10)):
            distinct = {id(r): r for r in draw}
            assert len(distinct) <= most and distinct.keys() <= shared
            assert all(type(r) is kind for r in distinct.values())

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
    def test_ball_and_region_hand(self):
        inst = _hand_instance()
        # region of {0, 1}: they differ only at pool point 2
        assert dis_region(inst, (0, 1)) == (2,)
        assert dis_region(inst, (0,)) == ()

    def test_indices_outside_the_class_or_pool_rejected(self):
        # a negative index used to wrap around to the last member or point
        inst = _hand_instance()
        with pytest.raises(ValueError, match="member index -1 outside"):
            dis_region(inst, (-1, 0))
        with pytest.raises(ValueError, match="member index 3 outside"):
            dis_region(inst, (0, len(inst.classifiers)))
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

    def test_zero_radius_on_noiseless_worlds(self):
        # nu = 0 (p1 is member 0's labelling), so r0 = 0 is allowed. The
        # members at distance 0 agree with h* wherever there is mass, even a
        # member planted to differ from it at a point of mass 0, so the
        # limit r -> 0 adds nothing and the coefficient stays finite
        for seed in range(10):
            base = random_instance(seed, pool_size=8, class_size=64)
            masses = base.masses.copy()
            masses[1] += masses[0]
            masses[0] = 0.0
            labels = np.vstack((base.classifiers.labels, base.classifiers.labels[:1]))
            labels[-1, 0] = 1 - labels[-1, 0]
            for weights, hclass in ((base.masses, base.classifiers), (masses, FiniteClass(base.pool, labels))):
                inst = DiscreteInstance(
                    pool=base.pool, masses=weights, p1=hclass.labels[0].astype(float), classifiers=hclass, q0=base.q0
                )
                assert inst.nu == 0.0 and inst.h_star_index == 0
                value = adjusted_dis_coefficient(inst, 0.0, alpha=1.0)
                assert math.isfinite(value) and value > 0.0
                np.testing.assert_allclose(value, independent_coefficient(inst, 0.0), rtol=1e-12)

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
        # Every check row of a small suite, each an exact sum over exact_moments'
        # per-phase cells; changing that order or a cell's value moves the hex.
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
            inst = random_instance(seed=100 + seed, pool_size=int(rng.integers(3, 7)), family="low" if seed % 2 else "dyadic")
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
            inst = random_instance(seed=300 + seed, family="low" if seed % 2 else "dyadic")
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

    @pytest.mark.parametrize("estimator", ["mis", "is"])
    def test_one_phase_moments(self, estimator):
        # with m = 0 or n = 0 one phase of N records has them all: a wrong
        # revealed record at x weighs 1/(N q(x)) and has probability w(x) q(x),
        # w(x) = mass(x) P(h errs at x), so the mean is the true error err =
        # sum w and the variance is (sum w/q - err^2) / N
        inst = random_instance(2, family="low")
        q1 = np.linspace(0.25, 1.0, len(inst.pool))
        h = 3
        w = inst.masses * np.where(inst.classifiers.labels[h] == 1, 1.0 - inst.p1, inst.p1)
        err = float(inst.true_errors[h])
        for m, n, q in ((0, 12, q1), (12, 0, inst.q0)):
            mean, variance = exact_moments(inst, h, m=m, n=n, q1=q1, estimator=estimator)
            assert abs(mean - err) <= 1e-12
            np.testing.assert_allclose(variance, (float((w / q).sum()) - err**2) / (m + n), rtol=1e-12)

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
        inst = random_instance(1, family="low")
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

    def test_moments_equal_the_per_cell_reference(self):
        # one sample per phase gives each cell the IEEE 1.0/d of its own
        # one-record sample, summed in the same order, so == holds
        rng = np.random.default_rng(11)
        for seed in range(100):
            family = ("dyadic", "low")[seed % 2]
            base = random_instance(seed=500 + seed, pool_size=int(rng.integers(3, 9)), family=family)
            size = len(base.pool)
            # every fifth world has two points the log never reveals
            holes = np.isin(np.arange(size), rng.choice(size, 2, replace=False)) & (seed % 5 == 4)
            inst = dataclasses.replace(base, q0=np.where(holes, 0.0, base.q0))
            m, n = (int(k) for k in rng.integers(1, 40, 2))
            m, n = ((0, n), (m, 0), (m, n), (m, n), (m, n))[seed % 5]
            q1 = (None, rng.integers(1, 65, size) / 64.0, rng.integers(0, 3, size) / 2.0)[seed % 3]
            h = int(rng.integers(len(inst.classifiers)))
            for estimator in ("mis", "is"):
                assert exact_moments(inst, h, m, n, q1, estimator) == cell_moments(inst, h, m, n, q1, estimator), seed

    def test_moments_read_the_mistake_table(self):
        # the mean sums the class's mistake table, which the exact learners
        # score with: swapping point p's two label columns flips h's loss there
        inst = random_instance(3, family="low")
        h = 2
        errs = np.where(inst.classifiers.labels[h] == 1, 1.0 - inst.p1, inst.p1)
        p = int(np.argmax(inst.masses * np.abs(1.0 - 2.0 * errs)))
        assert inst.masses[p] * abs(1.0 - 2.0 * errs[p]) > 1e-3
        corrupted = inst.classifiers.mistakes.copy()
        corrupted[:, [2 * p, 2 * p + 1]] = corrupted[:, [2 * p + 1, 2 * p]]
        inst.classifiers._mistakes = corrupted
        mean, _ = exact_moments(inst, h, m=8, n=8)
        assert abs(mean - inst.true_errors[h]) > 1e-3

    def test_zero_online_propensities(self):
        inst = random_instance(2, family="low")
        q1 = _q1_with_zeros(inst)
        h = 3
        assert (inst.q0 > 0.0).all() and (q1 == 0.0).any()
        mean, var_mis = exact_moments(inst, h, m=10, n=10, q1=q1)
        _, var_is = exact_moments(inst, h, m=10, n=10, q1=q1, estimator="is")
        assert abs(mean - inst.true_errors[h]) <= 1e-12
        assert var_is > 0.0 and var_mis > 0.0

    def test_holes_bias_only_the_per_phase_estimator(self):
        # two points the log never reveals: the balanced estimator's online
        # phase still covers them, so it stays unbiased; the per-phase one
        # drops the logged phase's share m/(m + n) of h's error mass there
        m, n = 40, 8
        biased = 0
        for seed in range(50):
            base = random_instance(seed, pool_size=8, class_size=16)
            holes = np.isin(np.arange(8), np.random.default_rng(seed).choice(8, 2, replace=False))
            inst = dataclasses.replace(base, q0=np.where(holes, 0.0, base.q0))
            for h in range(len(inst.classifiers)):
                truth = float(inst.true_errors[h])
                error_mass = inst.masses * np.where(inst.classifiers.labels[h] == 1, 1.0 - inst.p1, inst.p1)
                assert abs(exact_moments(inst, h, m=m, n=n)[0] - truth) <= 1e-12
                bias = exact_moments(inst, h, m=m, n=n, estimator="is")[0] - truth
                assert abs(bias + m / (m + n) * float(error_mass[holes].sum())) <= 1e-12
                biased += bias < -1e-3
        assert biased > 400

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
