"""Brute-force oracle: exact truths on small discrete worlds, Monte Carlo
checks, region geometry, and the adjusted disagreement coefficient."""
from __future__ import annotations

import hashlib
import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from idbal.data import FeatureVector
from idbal.hypotheses import FiniteClass
from idbal.oracle import (
    DiscreteInstance,
    _simulate_estimates,
    _uniform_chunks,
    adjusted_dis_coefficient,
    concentration_rate,
    dis_ball,
    dis_region,
    disagreement_mass,
    mc_unbiasedness,
    random_instance,
    run_verification_suite,
    s_region,
    variance_compare,
)
from idbal.rng import derive_rng


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

    @pytest.mark.parametrize("field", ["masses", "p1", "q0"])
    def test_non_finite_entries_rejected(self, field):
        inst = _hand_instance()
        arrays = {"masses": inst.masses, "p1": inst.p1, "q0": inst.q0}
        arrays[field] = arrays[field].copy()
        arrays[field][1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            DiscreteInstance(pool=inst.pool, classifiers=inst.classifiers, **arrays)

    def test_forced_low_propensity(self):
        for seed in range(5):
            inst = random_instance(seed, force_low_propensity=True)
            assert inst.q0.min() <= 3.0 / 64.0

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

    def test_s_region_restricted_hand(self):
        inst = _hand_instance()
        # region over all three points; threshold = min q0 + 1/alpha
        region = (0, 1, 2)
        kept = s_region(inst, region, alpha=2.0)
        # min q0 = 0.125, cutoff 0.625: keeps q0 in {0.5, 0.125}
        assert kept == (0, 1)
        everything = s_region(inst, region, alpha=1.0)
        assert everything == (0, 1, 2)


def _independent_coefficient(inst: DiscreteInstance, r0: float) -> float:
    """Standard disagreement coefficient by direct enumeration, written
    against the raw arrays rather than the oracle helpers."""
    labels = np.asarray(inst.classifiers.labels)
    star = int(np.argmin(inst.true_errors))
    count = labels.shape[0]
    distances = np.array([
        float(inst.masses[labels[star] != labels[j]].sum()) for j in range(count)
    ])
    candidates = sorted({d for d in distances if d > r0})
    best = 0.0
    for r in candidates + [r0]:
        if r <= r0:
            if r0 == 0.0:
                continue
            r = r0
        ball = distances <= r + 1e-15
        sub = labels[ball]
        region_mask = sub.min(axis=0) != sub.max(axis=0)
        mass = float(inst.masses[region_mask].sum())
        ratio = mass / r if r > 0 else (math.inf if mass > 0 else 0.0)
        best = max(best, ratio)
    return best


class TestAdjustedCoefficient:
    def test_alpha_one_matches_independent_enumeration(self):
        for seed in range(10):
            inst = random_instance(seed)
            r0 = 2.0 * inst.nu
            ours = adjusted_dis_coefficient(inst, r0, alpha=1.0)
            theirs = _independent_coefficient(inst, r0)
            np.testing.assert_allclose(ours, theirs, rtol=1e-12)

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


def _reference_estimates(instance, h, m, n, trials, rng, q1):
    """The whole-batch kernel the streamed one replaced, kept verbatim as the
    reference: (per-phase IS, balanced) estimates per trial."""
    row = instance.classifiers.labels[h]
    q0 = instance.q0
    q1 = np.ones(len(instance.pool)) if q1 is None else np.asarray(q1, dtype=float)
    total = m + n
    batch = max(1, int(2e7 // max(total, 1)))
    out_is, out_mis = [], []
    remaining = trials
    while remaining > 0:
        b = min(batch, remaining)
        picks = rng.choice(len(instance.pool), size=(b, total), p=instance.masses)
        err_prob = np.where(row == 1, 1.0 - instance.p1, instance.p1)
        wrong = rng.random((b, total)) < err_prob[picks]
        reveal_prob = np.concatenate([q0[picks[:, :m]], q1[picks[:, m:]]], axis=1)
        revealed = rng.random((b, total)) < reveal_prob
        hits = wrong & revealed
        denom = m * q0[picks] + n * q1[picks]
        safe = np.where(denom > 0.0, denom, 1.0)
        out_mis.append(np.where(hits, 1.0 / safe, 0.0).sum(axis=1))
        safe = np.where(reveal_prob > 0.0, reveal_prob, 1.0)
        out_is.append(np.where(hits, 1.0 / safe, 0.0).sum(axis=1) / total)
        remaining -= b
    return np.concatenate(out_is), np.concatenate(out_mis)


def _reference_rate_quantile(instance, pair, size, trials, rng, q1):
    """The whole-batch concentration_rate body, kept verbatim as the
    reference: the 0.9-quantile of the gap deviation at m = n = size."""
    row1, row2 = (instance.classifiers.labels[h] for h in pair)
    gap_true = float(instance.true_errors[pair[0]]) - float(instance.true_errors[pair[1]])
    q0 = instance.q0
    qq1 = np.ones(len(instance.pool)) if q1 is None else np.asarray(q1, dtype=float)
    total = 2 * size
    batch = max(1, int(2e7 // total))
    devs = []
    remaining = trials
    while remaining > 0:
        b = min(batch, remaining)
        picks = rng.choice(len(instance.pool), size=(b, total), p=instance.masses)
        labels = rng.random((b, total)) < instance.p1[picks]
        reveal_prob = np.concatenate([q0[picks[:, :size]], qq1[picks[:, size:]]], axis=1)
        revealed = rng.random((b, total)) < reveal_prob
        denom = size * q0[picks] + size * qq1[picks]
        safe = np.where(denom > 0.0, denom, 1.0)
        wrong1 = row1[picks] != labels
        wrong2 = row2[picks] != labels
        est1 = np.where(wrong1 & revealed, 1.0 / safe, 0.0).sum(axis=1)
        est2 = np.where(wrong2 & revealed, 1.0 / safe, 0.0).sum(axis=1)
        devs.append(np.abs((est1 - est2) - gap_true))
        remaining -= b
    return float(np.quantile(np.concatenate(devs), 0.9))


def _q1_with_zeros(instance):
    return np.where(np.arange(len(instance.pool)) % 2 == 0, 0.0, 0.5)


class TestStreamedKernels:
    """The streamed kernels against the whole-batch ones they replaced:
    equal values and the same generator state afterwards. Row widths are
    below, at and above the chunk, and trial counts end mid-chunk."""

    # m + n = 8192 + 8192 is one chunk's width exactly
    @pytest.mark.parametrize(
        "seed, m, n, trials, zeros",
        [(1, 60, 40, 3000, False), (2, 3, 17, 777, True), (3, 0, 5, 100, False),
         (5, 70000, 3, 3, True), (6, 2, 2, 40000, False), (7, 8192, 8192, 3, False)],
    )
    def test_estimates_match_whole_batch_kernel(self, seed, m, n, trials, zeros):
        inst = random_instance(seed, force_low_propensity=True)
        q1 = _q1_with_zeros(inst) if zeros else None
        ours, theirs = derive_rng(seed, "parity"), derive_rng(seed, "parity")
        est_is, est_mis = _simulate_estimates(inst, seed % 8, m, n, trials, ours, q1, ("is", "mis"))
        ref_is, ref_mis = _reference_estimates(inst, seed % 8, m, n, trials, theirs, q1)
        assert np.array_equal(est_is, ref_is) and np.array_equal(est_mis, ref_mis)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("size, trials, zeros", [(7, 5001, False), (33, 900, True), (40000, 3, False)])
    def test_rate_quantiles_match_whole_batch_kernel(self, size, trials, zeros):
        inst = random_instance(4)
        q1 = _q1_with_zeros(inst) if zeros else None
        report = concentration_rate(inst, (0, 1), (size,), trials=trials, seed=5, q1=q1)
        reference = _reference_rate_quantile(inst, (0, 1), size, trials, derive_rng(5, "mc-rate", 0), q1)
        assert report.quantiles == (reference,)

    def test_chunks_replay_three_whole_blocks(self):
        trials, total = 1500, 100
        ours, theirs = derive_rng(9, "chunks"), derive_rng(9, "chunks")
        chunks = list(_uniform_chunks(ours, trials, total))
        assert len(chunks) > 1
        for k in range(3):
            streamed = np.concatenate([chunk[k] for chunk in chunks])
            assert np.array_equal(streamed, theirs.random((trials, total)))
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestMonteCarlo:
    def test_outputs_are_pinned(self):
        # Every check row of a small suite and a two-batch rate quantile
        # (19,531 + 469 rows). The hex was captured on the whole-batch
        # kernels; streaming the same draws must not move a bit.
        digest = hashlib.blake2b(digest_size=16)
        for row in run_verification_suite(0, 3, 4000):
            digest.update(f"{row.name}|{row.passed}|{row.statistic!r}|{row.details}\n".encode())
        rate = concentration_rate(random_instance(0), (0, 1), (512,), trials=20000, seed=0)
        digest.update(repr(rate.quantiles).encode())
        assert digest.hexdigest() == "8fbaa67724f0eb57b216669f0b26d9a9"

    def test_mis_unbiased_quick(self):
        inst = random_instance(1)
        rep = mc_unbiasedness(inst, inst.h_star_index, m=30, n=30, trials=5000, seed=0)
        assert rep.deviation_in_stderr < 4.0
        assert rep.trials == 5000

    def test_is_unbiased_quick(self):
        inst = random_instance(2)
        rep = mc_unbiasedness(inst, 1, m=25, n=25, trials=5000, seed=1, estimator="is")
        assert rep.deviation_in_stderr < 4.0

    def test_balanced_variance_not_worse_quick(self):
        inst = random_instance(3, force_low_propensity=True)
        var_is, var_mis = variance_compare(inst, inst.h_star_index, m=40, n=40, trials=4000, seed=2)
        assert var_mis <= 1.05 * var_is

    def test_concentration_slope_band(self):
        inst = random_instance(4)
        report = concentration_rate(
            inst, (0, 1), effective_sizes=(32, 128, 512), trials=1500, seed=3
        )
        assert -0.9 < report.slope < -0.15
        assert len(report.quantiles) == 3

    def test_single_size_has_no_slope(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = concentration_rate(random_instance(4), (0, 1), effective_sizes=(64,), trials=200, seed=0)
        assert math.isnan(report.slope) and report.quantiles[0] > 0.0

    @pytest.mark.parametrize("trials", [0, -5])
    def test_too_few_trials_rejected(self, trials):
        inst = random_instance(0)
        with pytest.raises(ValueError, match="trials"):
            mc_unbiasedness(inst, 0, m=5, n=5, trials=trials, seed=0)
        with pytest.raises(ValueError, match="trials"):
            concentration_rate(inst, (0, 1), (32,), trials=trials, seed=0)

    def test_variance_needs_two_trials(self):
        inst = random_instance(0)
        with pytest.raises(ValueError, match="trials must be at least 2"):
            variance_compare(inst, 0, m=5, n=5, trials=1, seed=0)
        with pytest.raises(ValueError, match="trials must be at least 2"):
            run_verification_suite(seed=0, fixtures=0, trials=1)

    @pytest.mark.parametrize("m, n", [(0, 0), (-3, 5), (5, -1)])
    def test_bad_sample_sizes_rejected(self, m, n):
        inst = random_instance(0)
        with pytest.raises(ValueError, match="m and n"):
            mc_unbiasedness(inst, 0, m=m, n=n, trials=10, seed=0, estimator="is")
        with pytest.raises(ValueError, match="m and n"):
            variance_compare(inst, 0, m=m, n=n, trials=10, seed=0)

    def test_effective_sizes_below_one_rejected(self):
        with pytest.raises(ValueError, match="effective_sizes"):
            concentration_rate(random_instance(0), (0, 1), [0, 32], trials=10, seed=0)

    def test_q1_must_cover_the_pool(self):
        inst = random_instance(0)
        with pytest.raises(ValueError, match="q1"):
            mc_unbiasedness(inst, 0, m=5, n=5, trials=10, seed=0, q1=np.ones(len(inst.pool) + 1))

    def test_unknown_estimator_rejected(self):
        inst = random_instance(0)
        with pytest.raises(ValueError):
            mc_unbiasedness(inst, 0, m=5, n=5, trials=10, seed=0, estimator="nope")


class TestVerificationSuite:
    def test_small_suite_all_green(self):
        rows = run_verification_suite(seed=0, fixtures=3, trials=4000)
        assert all(row.passed for row in rows)
        names = {row.name for row in rows}
        assert any("unbiasedness-mis" in n for n in names)
        assert any("variance-dominance" in n for n in names)
        assert "concentration-slope" in names
        assert "theta-alpha-monotone" in names
