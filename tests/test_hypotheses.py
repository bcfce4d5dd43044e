"""Linear models, gradient updates, the finite class, candidate pruning, and
the exact and margin disagreement masks."""
from __future__ import annotations

import math
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from idbal.data import (
    Example,
    FeatureVector,
    LabeledRows,
    LoggedTriple,
    RowTable,
    SplitRows,
    parse_sparse_dataset,
    row_keys,
)
from idbal.estimators import WeightedSample, mis_error
import idbal.hypotheses as hypotheses
from idbal.hypotheses import (
    FiniteClass,
    LinearModel,
    TableClassifier,
    approx_dis_mask,
    best_candidate,
    classification_error,
    exact_dis_test,
    ogd_memo,
    ogd_stepsize,
    ogd_update,
    prune_candidates,
    weighted_losses,
)
from idbal.learners import _exact_store
from idbal.oracle import random_instance
from idbal.policies import margins
from idbal.rng import derive_rng

from reference import (
    csr_pass,
    example_error,
    labeled_rows,
    prune_by_threshold,
    raw_score,
    sparse_libsvm_text,
    stack_rows,
)


def _weighted_squared_loss(weights: np.ndarray, x: FeatureVector, y: int, u: float) -> float:
    """Independent restatement of the surrogate the update descends."""
    score = weights[0] + sum(weights[i] * v for i, v in x.items)
    target = 2.0 * y - 1.0
    return u * (score - target) ** 2


def _step(model: LinearModel, x: FeatureVector, y: int, u: float, eta: float) -> LinearModel:
    """ogd_update over the single row x."""
    return ogd_update(model, RowTable.from_csr(stack_rows([x], model.dim)), np.array([y]), np.array([u]), eta)


def _scalar_steps(model: LinearModel, xs, labels, weights, eta: float) -> LinearModel:
    """The per-record step the row pass replaced, in Python floats: score
    from the bias left to right, then the bias and each stored coordinate
    moved by scale * value; a zero weight only advances the clock."""
    w = model.weights.tolist()
    steps = model.steps
    for x, y, u in zip(xs, labels, weights):
        steps += 1
        step = ogd_stepsize(steps, eta)
        if u > 0.0:
            score = w[0]
            for index, value in x.items:
                score += w[index] * value
            scale = step * u * 2.0 * (score - (2.0 * y - 1.0))
            w[0] -= scale
            for index, value in x.items:
                w[index] -= scale * value
    return LinearModel(np.array(w), steps)


class TestLinearModel:
    def test_score_with_bias(self):
        model = LinearModel(np.array([0.5, 2.0, -1.0]))
        rows = stack_rows([FeatureVector({1: 3.0, 2: 1.0})], 2)
        assert (rows @ model.weights).tolist() == [0.5 + 6.0 - 1.0]

    def test_predict_tie_goes_positive(self):
        model = LinearModel(np.zeros(3))
        rows = stack_rows([FeatureVector({1: 1.0})], 2)
        assert classification_error(model, LabeledRows(rows, np.array([1], dtype=np.int8))) == 0.0
        assert classification_error(model, LabeledRows(rows, np.array([0], dtype=np.int8))) == 1.0

    def test_margin_normalizes_by_weight_norm(self):
        # a narrower row scores the model's leading columns only
        model = LinearModel(np.array([0.0, 3.0, 4.0]))
        np.testing.assert_allclose(margins(model, stack_rows([FeatureVector({1: 1.0})], 1)), [3.0 / 5.0])

    def test_margin_zero_weights(self):
        model = LinearModel(np.zeros(2))
        assert margins(model, stack_rows([FeatureVector({1: 5.0})], 1)).tolist() == [0.0]

    @pytest.mark.parametrize("make, message", [
        (lambda: LinearModel(np.zeros((2, 2))), "weights must be a non-empty 1-d array"),
        (lambda: LinearModel(np.zeros(0)), "weights must be a non-empty 1-d array"),
        (lambda: LinearModel(np.zeros(2), -1), "steps cannot be negative"),
        (lambda: LinearModel.zeros(0), "dim must be positive"),
    ], ids=["2-d", "empty", "negative-steps", "no-features"])
    def test_bad_shapes_and_counts_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestStepsizeSchedule:
    def test_first_update_value(self):
        np.testing.assert_allclose(ogd_stepsize(1, 1.0), math.sqrt(0.5))

    def test_decreasing(self):
        values = [ogd_stepsize(t, 0.25) for t in range(1, 50)]
        assert values == sorted(values, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            ogd_stepsize(1, 0.0)
        with pytest.raises(ValueError):
            ogd_stepsize(-1, 1.0)
        for eta in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ogd_stepsize(1, eta)


class TestOgdUpdate:
    def test_hand_value(self):
        # eta = 1, first update: stepsize sqrt(1/2); residual 0 - 1 = -1;
        # scale = sqrt(1/2) * 1 * 2 * (-1); bias and the active coordinate
        # both move by +sqrt(2)
        model = _step(LinearModel.zeros(1), FeatureVector({1: 1.0}), 1, 1.0, 1.0)
        np.testing.assert_allclose(model.weights, [math.sqrt(2.0), math.sqrt(2.0)])
        assert model.steps == 1

    def test_zero_weight_advances_clock_only(self):
        start = LinearModel(np.array([1.0, 2.0]))
        model = _step(start, FeatureVector({1: 1.0}), 0, 0.0, 1.0)
        np.testing.assert_array_equal(model.weights, start.weights)
        assert model.steps == 1

    def test_label_domain(self):
        with pytest.raises(ValueError):
            _step(LinearModel.zeros(1), FeatureVector({1: 1.0}), 2, 1.0, 1.0)

    def test_negative_weight_misalignment_and_width_rejected(self):
        rows = RowTable.from_csr(stack_rows([FeatureVector({1: 1.0})] * 2, 1))
        model = LinearModel.zeros(1)
        with pytest.raises(ValueError):
            ogd_update(model, rows, np.array([1, 0]), np.array([1.0, -0.5]), 1.0)
        with pytest.raises(ValueError):
            ogd_update(model, rows, np.array([1]), np.array([1.0, 1.0]), 1.0)
        with pytest.raises(ValueError):
            ogd_update(LinearModel.zeros(2), rows, np.array([1, 0]), np.array([1.0, 1.0]), 1.0)

    def test_row_pass_matches_the_scalar_steps(self):
        # rows with index gaps, empty rows, zero weights and a score-0 tie;
        # starting weights up to 1e306, so scores and steps overflow to inf
        # and NaN. Compared as bytes, so every last bit and NaN counts.
        rng = np.random.default_rng(23)
        dim = 10
        xs = [FeatureVector({}), FeatureVector({3: 1.0}), FeatureVector({})]
        for _ in range(40):
            picked = rng.choice(np.arange(1, dim + 1), size=int(rng.integers(1, dim)), replace=False)
            xs.append(FeatureVector(zip(picked.tolist(), rng.uniform(-2.0, 2.0, picked.size))))
        rows = RowTable.from_csr(stack_rows(xs, dim))
        tie = np.zeros(dim + 1)
        tie[1] = 1.0  # scores 0 on the rows without feature 1
        starts = [LinearModel.zeros(dim), LinearModel(tie, steps=3)]
        for scale in np.logspace(0.0, 306.0, 60):
            weights = rng.standard_normal(dim + 1) * scale
            weights[rng.random(dim + 1) < 0.2] = 0.0
            starts.append(LinearModel(weights, steps=int(rng.integers(0, 100))))
        nonfinite = 0
        for start in starts:
            labels = rng.integers(0, 2, len(xs))
            weights = rng.uniform(0.0, 50.0, len(xs))
            weights[rng.random(len(xs)) < 0.2] = 0.0
            for eta in (0.01, 1.6):
                expected = _scalar_steps(start, xs, labels.tolist(), weights.tolist(), eta)
                updated = ogd_update(start, rows, labels, weights, eta)
                assert updated.steps == expected.steps == start.steps + len(xs)
                assert updated.weights.tobytes() == expected.weights.tobytes()
                nonfinite += not np.isfinite(updated.weights).all()
        assert 0 < nonfinite < 2 * len(starts)

    def test_row_table_pass_matches_the_csr_loop(self):
        # the pass over CSR arrays it replaced, compared as bytes: seeded
        # dense rows, sparse rows over a wide index range, passes where most
        # weights are 0, and starts large enough to overflow to inf and NaN
        rng = np.random.default_rng(29)
        dense = stack_rows([FeatureVector(enumerate(rng.uniform(-1.0, 1.0, 12), start=1)) for _ in range(50)], 12)
        sparse = parse_sparse_dataset(sparse_libsvm_text(seed=3, rows=60, dim=400, nnz=8)).matrix
        overflowed = 0
        for rows in (dense, sparse):
            table = RowTable.from_csr(rows)
            for scale, zero_share in ((1.0, 0.0), (1.0, 0.9), (1e150, 0.2), (1e306, 0.0)):
                start = LinearModel(rng.standard_normal(rows.shape[1]) * scale, steps=int(rng.integers(0, 50)))
                labels = rng.integers(0, 2, rows.shape[0])
                weights = rng.uniform(0.0, 50.0, rows.shape[0])
                weights[rng.random(rows.shape[0]) < zero_share] = 0.0
                expected = csr_pass(start, rows, labels, weights, 0.3)
                updated = ogd_update(start, table, labels, weights, 0.3)
                assert updated.steps == expected.steps == start.steps + rows.shape[0]
                assert updated.weights.tobytes() == expected.weights.tobytes()
                overflowed += np.isnan(updated.weights).any()
        assert overflowed >= 2

    def test_descends_the_weighted_surrogate(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            dim = int(rng.integers(1, 6))
            weights = rng.normal(size=dim + 1)
            x = FeatureVector({i + 1: float(v) for i, v in enumerate(rng.uniform(-1, 1, dim))})
            y = int(rng.integers(0, 2))
            u = float(rng.uniform(0.1, 5.0))
            model = LinearModel(weights.copy(), steps=int(rng.integers(0, 200)))
            before = _weighted_squared_loss(model.weights, x, y, u)
            if before < 1e-12:
                continue
            after_model = _step(model, x, y, u, 0.01)
            after = _weighted_squared_loss(after_model.weights, x, y, u)
            assert after < before

    def test_gradient_matches_finite_differences(self):
        # central differences on the weighted surrogate, coordinate by
        # coordinate, against the analytic step the update takes
        rng = np.random.default_rng(17)
        for _ in range(25):
            dim = int(rng.integers(1, 7))
            weights = rng.normal(size=dim + 1)
            entries = {
                int(i): float(v)
                for i, v in zip(
                    rng.choice(np.arange(1, dim + 1), size=rng.integers(1, dim + 1), replace=False),
                    rng.uniform(-2, 2, dim),
                )
            }
            x = FeatureVector(entries)
            y = int(rng.integers(0, 2))
            u = float(rng.uniform(0.2, 3.0))
            steps = int(rng.integers(0, 50))
            model = LinearModel(weights.copy(), steps=steps)
            updated = _step(model, x, y, u, 0.5)
            stepsize = ogd_stepsize(steps + 1, 0.5)
            analytic = (weights - updated.weights) / stepsize
            h = 1e-6
            for coord in range(dim + 1):
                bump = np.zeros(dim + 1)
                bump[coord] = h
                numeric = (
                    _weighted_squared_loss(weights + bump, x, y, u)
                    - _weighted_squared_loss(weights - bump, x, y, u)
                ) / (2 * h)
                np.testing.assert_allclose(analytic[coord], numeric, rtol=1e-5, atol=1e-7)


class TestOgdMemo:
    """ogd_memo(): a repeated pass is served from the block's store, to the
    bit, and nothing outlives the block."""

    def _pass(self, seed: int = 31):
        """(model, rows, labels, importance weights, eta) for an 8-feature
        pass of 30 rows, about a fifth of them with weight 0; the row table
        is built once, so every call with it passes the same row objects."""
        rng = np.random.default_rng(seed)
        xs = [
            FeatureVector(zip(rng.choice(np.arange(1, 9), size=3, replace=False).tolist(), rng.uniform(-1, 1, 3)))
            for _ in range(30)
        ]
        weights = rng.uniform(0.0, 20.0, len(xs))
        weights[rng.random(len(xs)) < 0.2] = 0.0
        start = LinearModel(rng.standard_normal(9), steps=5)
        rows = RowTable.from_csr(stack_rows(xs, 8))
        return start, rows, rng.integers(0, 2, len(xs)).astype(np.int8), weights, 0.05

    @staticmethod
    def _same(a: LinearModel, b: LinearModel) -> bool:
        return a.steps == b.steps and a.weights.tobytes() == b.weights.tobytes()

    def test_repeat_is_served_from_the_block(self):
        args = self._pass()
        plain = ogd_update(*args)
        assert hypotheses._passes.get() is None
        with ogd_memo():
            first = ogd_update(*args)
            again = ogd_update(*args)
            assert len(hypotheses._passes.get()) == 1
        assert self._same(first, plain) and self._same(again, plain)
        assert hypotheses._passes.get() is None

    def test_every_input_is_in_the_key(self):
        # each variant changes one input the pass reads; served from the
        # base pass's entry, it would come back with the base's weights
        model, rows, labels, weights, eta = self._pass()
        live = np.flatnonzero(weights)[0]
        flipped = labels.copy()
        flipped[live] ^= 1
        heavier = weights.copy()
        heavier[live] *= 2.0
        # the same table but for one new row object, whose first feature moved
        moved = RowTable(rows.rows.copy(), rows.width)
        indices, values = rows.rows[live]
        shifted_values = np.array(values)
        shifted_values[1] += 0.5
        moved.rows[live] = (indices, memoryview(shifted_values.tobytes()).cast("d"))
        shifted = model.weights.copy()
        shifted[3] += 0.25
        variants = [
            (model, rows, labels, weights, 2.0 * eta),
            (LinearModel(model.weights, model.steps + 1), rows, labels, weights, eta),
            (LinearModel(shifted, model.steps), rows, labels, weights, eta),
            (model, rows, flipped, weights, eta),
            (model, rows, labels, heavier, eta),
            (model, moved, labels, weights, eta),
        ]
        expected = [ogd_update(*variant) for variant in variants]
        base = ogd_update(model, rows, labels, weights, eta)
        assert not any(self._same(base, e) for e in expected)
        with ogd_memo():
            ogd_update(model, rows, labels, weights, eta)
            for variant, reference in zip(variants, expected):
                assert self._same(ogd_update(*variant), reference)
            assert len(hypotheses._passes.get()) == 1 + len(variants)

    def test_label_and_weight_dtypes_share_an_entry(self):
        model, rows, labels, weights, eta = self._pass()
        plain = ogd_update(model, rows, labels, weights, eta)
        with ogd_memo():
            for y, u in ((labels, weights), (labels.astype(bool), weights.tolist()), (labels.astype(float), weights)):
                assert self._same(ogd_update(model, rows, y, u, eta), plain)
            assert len(hypotheses._passes.get()) == 1

    def test_returned_weights_are_fresh_copies(self):
        args = self._pass()
        plain = ogd_update(*args)
        with ogd_memo():
            stored = ogd_update(*args)
            stored.weights[:] = 99.0
            served = ogd_update(*args)
            assert self._same(served, plain)
            served.weights[:] = -1.0
            assert self._same(ogd_update(*args), plain)

    def test_checks_run_before_the_lookup(self):
        model, rows, labels, weights, eta = self._pass()
        with ogd_memo():
            ogd_update(model, rows, labels, weights, eta)
            negative = weights.copy()
            negative[0] = -1.0
            bad_labels = labels.copy()
            bad_labels[0] = 2
            with pytest.raises(ValueError):
                ogd_update(model, rows, labels, negative, eta)
            with pytest.raises(ValueError):
                ogd_update(model, rows, bad_labels, weights, eta)
            with pytest.raises(ValueError):
                ogd_update(model, rows, labels[:-1], weights, eta)
            with pytest.raises(ValueError):
                ogd_update(LinearModel.zeros(9), rows, labels, weights, eta)
            for bad_eta in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(ValueError):
                    ogd_update(model, rows, labels, weights, bad_eta)

    def test_empty_pass_checks_eta(self):
        empty = RowTable.from_csr(stack_rows([], 2))
        nothing = np.zeros(0)
        assert ogd_update(LinearModel.zeros(2), empty, nothing, nothing, 0.5).steps == 0
        for bad_eta in (0.0, math.nan):
            with pytest.raises(ValueError):
                ogd_update(LinearModel.zeros(2), empty, nothing, nothing, bad_eta)

    def test_non_finite_weights_are_served_as_their_bytes(self):
        model, rows, labels, weights, eta = self._pass()
        start = model.weights.copy()
        start[[1, 4]] = (np.inf, np.nan)
        model = LinearModel(start, model.steps)
        plain = ogd_update(model, rows, labels, weights, eta)
        assert not np.isfinite(plain.weights).any()
        with ogd_memo():
            assert self._same(ogd_update(model, rows, labels, weights, eta), plain)
            assert self._same(ogd_update(model, rows, labels, weights, eta), plain)
            assert len(hypotheses._passes.get()) == 1

    def test_block_is_dropped_on_exit_and_on_error(self):
        args = self._pass()
        with ogd_memo():
            ogd_update(*args)
            outer = hypotheses._passes.get()
            with ogd_memo():
                assert hypotheses._passes.get() == {}
                ogd_update(*args)
            assert hypotheses._passes.get() is outer and len(outer) == 1
        assert hypotheses._passes.get() is None
        with pytest.raises(RuntimeError):
            with ogd_memo():
                ogd_update(*args)
                raise RuntimeError("runner failed")
        assert hypotheses._passes.get() is None

    def test_block_is_local_to_its_thread(self):
        seen = []
        with ogd_memo():
            worker = threading.Thread(target=lambda: seen.append(hypotheses._passes.get()))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert hypotheses._passes.get() == {}
        assert seen == [None]


def _tiny_class() -> tuple[FiniteClass, list[FeatureVector]]:
    pool = [FeatureVector({1: float(i + 1)}) for i in range(4)]
    labels = np.array(
        [
            [0, 0, 0, 0],
            [1, 1, 1, 1],
            [0, 1, 1, 0],
            [0, 0, 1, 1],
        ],
        dtype=np.int8,
    )
    return FiniteClass(pool, labels), pool


class TestFiniteClass:
    def test_member_prediction(self):
        hclass, pool = _tiny_class()
        position = hclass.record_codes[id(Example(pool[1], 1))] // 5
        assert hclass.labels[TableClassifier(2).index, position] == 1
        assert hclass.labels[TableClassifier(0).index, position] == 0

    def test_members_compare_by_index(self):
        member = TableClassifier(2)
        assert member == TableClassifier(2) and hash(member) == hash(TableClassifier(2))
        assert member != TableClassifier(1) and member.index == 2
        assert repr(member) == "TableClassifier(index=2)"
        with pytest.raises(AttributeError):
            member.index = 1

    @pytest.mark.parametrize("labels, message", [
        (np.zeros(4, dtype=np.int8), r"labels must be a \(members, pool\) table"),
        (np.zeros((2, 3), dtype=np.int8), "label table width must match pool size"),
        (np.zeros((0, 4), dtype=np.int8), "class must contain at least one member"),
        (np.full((2, 4), 2, dtype=np.int8), "labels must be 0/1"),
    ], ids=["1-d", "narrow", "no-members", "label-2"])
    def test_bad_label_tables_rejected(self, labels, message):
        _, pool = _tiny_class()
        with pytest.raises(ValueError, match=message):
            FiniteClass(pool, labels)

    def test_repeated_pool_instance_rejected(self):
        # an equal copy counts as a repeat: both would have one key
        _, pool = _tiny_class()
        for repeat in (pool[0], FeatureVector({1: 1.0})):
            with pytest.raises(ValueError, match="pool instances must be distinct"):
                FiniteClass([*pool, repeat], np.zeros((1, 5), dtype=np.int8))

    def test_unknown_instance_rejected(self):
        hclass, pool = _tiny_class()
        stranger = Example(FeatureVector({1: 99.0}), 1)
        with pytest.raises(ValueError, match="not in the class's pool"):
            _exact_store(hclass, (), (stranger,))
        with pytest.raises(ValueError, match="not in the class's pool"):
            _exact_store(hclass, (LoggedTriple(pool[0], 0),), (Example(pool[0], 0), stranger))

    def test_positions_of_pool_objects_and_equal_copies(self):
        hclass, pool = _tiny_class()
        # every shared record of a pool vector has the code 5 * position + cell
        assert hclass.record_codes == {id(r): 5 * p + c for p, x in enumerate(pool) for c, r in enumerate(x.records)}
        online = (Example(pool[2], 1), Example(pool[0], 0), Example(pool[2], 0))
        assert _exact_store(hclass, (), online)[0].tolist() == [2, 0, 2]
        # only the pool's own objects are found: an equal copy is not one
        copy = FeatureVector({1: 2.0})
        assert copy is not pool[1] and copy == pool[1]
        with pytest.raises(ValueError, match="not in the class's pool"):
            _exact_store(hclass, (), (Example(pool[3], 1), Example(copy, 1)))
        assert _exact_store(hclass, (), ())[0].dtype == np.intp

    def test_records_sit_at_their_cell_codes(self):
        cells = [(LoggedTriple, None), (LoggedTriple, 0), (LoggedTriple, 1), (Example, 0), (Example, 1)]
        for seed in range(20):
            inst = random_instance(seed)
            hclass = inst.classifiers
            assert len(hclass.records) == len(hclass.record_codes) == 5 * len(hclass.pool)
            for i, record in enumerate(hclass.records):
                assert hclass.record_codes[id(record)] == i
                assert record.x is hclass.pool[i // 5] and (type(record), record.y) == cells[i % 5]
            rng = np.random.default_rng(seed)
            drawn = inst.draw_logged(rng, 300) + inst.draw_examples(rng, 300)
            # the cell codes the two draws encode, from a copy of their random stream
            copy = np.random.default_rng(seed)
            picks = copy.choice(len(inst.pool), size=300, p=inst.masses)
            labels = copy.random(300) < inst.p1[picks]
            codes = (5 * picks + (copy.random(300) < inst.q0[picks]) * (1 + labels)).tolist()
            picks = copy.choice(len(inst.pool), size=300, p=inst.masses)
            codes += (5 * picks + 3 + (copy.random(300) < inst.p1[picks])).tolist()
            assert all(record is hclass.records[code] for record, code in zip(drawn, codes, strict=True))
            assert [hclass.record_codes[id(record)] for record in drawn] == codes

    def test_rows_hold_the_pool_by_key(self):
        pool = [FeatureVector({2: 0.1, 5: -1e-3}), FeatureVector({}), FeatureVector({1: 3.0, 7: 1 / 3})]
        hclass = FiniteClass(pool, np.zeros((2, 3), dtype=np.int8))
        rows = hclass.rows.matrix
        assert list(row_keys(rows)) == [x.key() for x in hclass.pool]
        assert rows.shape == (3, 8) and rows[:, [0]].toarray().ravel().tolist() == [1.0] * 3
        with pytest.raises(AttributeError):
            hclass.rows = None

    def test_mistake_table_reads_the_labels(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, (9, 6))
        hclass = FiniteClass([FeatureVector({1: float(i)}) for i in range(6)], labels)
        table = hclass.mistakes
        assert table.dtype == np.float64 and table.shape == (9, 12)
        for p in range(6):
            for y in (0, 1):
                assert (table[:, 2 * p + y] == (labels[:, p] != y)).all()
        for array in (table, hclass.labels):
            with pytest.raises(ValueError):
                array[0, 0] = 1 - array[0, 0]
        with pytest.raises(AttributeError):
            hclass.mistakes = None



class TestErmAndCandidates:
    def _sample(self, labels: list[int], q0: float = 0.5) -> WeightedSample:
        """Pool points 0..len(labels)-1, each revealed with its label."""
        count = len(labels)
        positions = np.arange(count)
        return WeightedSample.balanced(
            positions, np.ones(count, dtype=int), np.array(labels), [q0] * count, [0.0] * count, m=count, n=0
        )

    def _erm(self, hclass, sample, candidates=None):
        """The weighted ERM within candidates (the whole class when None)."""
        candidates = np.arange(len(hclass)) if candidates is None else np.array(candidates)
        return best_candidate(candidates, weighted_losses(hclass, sample, candidates))

    def test_erm_picks_minimum(self):
        hclass, _ = _tiny_class()
        sample = self._sample([0, 1, 1, 0])  # member 2 matches exactly
        index, value = self._erm(hclass, sample)
        assert index == 2
        assert value == 0.0

    def test_erm_tie_breaks_low_index(self):
        hclass, _ = _tiny_class()
        sample = self._sample([0, 0, 1, 1])  # members 0 and 3 both make 1 mistake... member 3 matches
        index, _ = self._erm(hclass, sample)
        assert index == 3
        # force an exact tie: empty sample makes every loss zero
        nothing = np.zeros(0, dtype=np.intp)
        empty = WeightedSample(nothing, nothing, nothing, np.zeros(0), m=1, n=0)
        index, value = self._erm(hclass, empty)
        assert index == 0 and value == 0.0

    def test_erm_respects_restriction(self):
        hclass, _ = _tiny_class()
        sample = self._sample([0, 1, 1, 0])
        index, _ = self._erm(hclass, sample, (1, 3))
        assert index in (1, 3)

    def _prune(self, hclass, sample, current, slack):
        return prune_candidates(current, weighted_losses(hclass, sample, current), slack).tolist()

    def test_update_keeps_within_threshold(self):
        hclass, _ = _tiny_class()
        sample = self._sample([0, 1, 1, 0])
        current = np.arange(len(hclass))
        # per-mistake cost is 1/(4*0.5) = 0.5; member 2 has loss 0,
        # members 0 and 3 have loss 1.0, member 1 has loss 1.0
        kept = self._prune(hclass, sample, current, 0.6)
        assert kept == [2]
        kept = self._prune(hclass, sample, current, 1.0)
        assert kept == [0, 1, 2, 3]
        # per member: 3 is held to slack 0.6, everyone else to 1.0
        kept = self._prune(hclass, sample, current, np.array([1.0, 1.0, 1.0, 0.6]))
        assert kept == [0, 1, 2]

    def test_pruning_from_given_losses(self):
        hclass, _ = _tiny_class()
        sample = self._sample([0, 1, 1, 0])
        current = np.array([0, 1, 3])
        losses = weighted_losses(hclass, sample, current)
        assert losses.tolist() == [1.0, 1.0, 1.0]
        assert best_candidate(current, losses) == self._erm(hclass, sample, current) == (0, 1.0)
        # every loss ties the minimizer's, so only member 3's own slack decides
        for scale, kept in ((-1.0, [0, 1]), (0.0, [0, 1, 3]), (0.6, [0, 1, 3])):
            slack = scale * (current == 3)
            assert prune_candidates(current, losses, slack).tolist() == kept

    def test_best_survives_negative_threshold(self):
        hclass, _ = _tiny_class()
        sample = self._sample([0, 1, 1, 0])
        kept = self._prune(hclass, sample, np.arange(len(hclass)), -5.0)
        assert kept == [2]
        kept = self._prune(hclass, sample, np.arange(len(hclass)), np.full(4, -5.0))
        assert kept == [2]

    def test_array_slack_matches_the_callable_pruning(self):
        # random tables, samples and per-member slacks, against the
        # per-member loop that took the slack from a callable
        rng = np.random.default_rng(3)
        pruned = 0
        for _ in range(200):
            members, pool = int(rng.integers(1, 40)), int(rng.integers(1, 12))
            hclass = FiniteClass(
                [FeatureVector({1: float(i)}) for i in range(pool)], rng.integers(0, 2, (members, pool))
            )
            size = int(rng.integers(0, 30))
            sample = WeightedSample.balanced(
                rng.integers(0, pool, size), rng.integers(0, 2, size), rng.integers(0, 2, size),
                rng.uniform(0.05, 1.0, size), rng.uniform(0.0, 1.0, size), m=size, n=int(rng.integers(0, 5)),
            )
            chosen = rng.choice(members, int(rng.integers(1, members + 1)), replace=False)
            current = np.sort(chosen)
            losses = weighted_losses(hclass, sample, current)
            slack = rng.choice([-1.0, 0.0, 0.3, math.inf], len(current)) * rng.uniform(0.5, 1.0, len(current))
            slack_of = dict(zip(current.tolist(), slack.tolist()))
            expected = prune_by_threshold(tuple(current.tolist()), losses, lambda i, best: slack_of[i])
            assert tuple(prune_candidates(current, losses, slack).tolist()) == expected
            scalar = float(slack[0])
            assert tuple(prune_candidates(current, losses, scalar).tolist()) == prune_by_threshold(
                tuple(current.tolist()), losses, lambda i, best: scalar
            )
            pruned += len(expected) < len(current)
        assert pruned > 50

    @pytest.mark.parametrize("revealed", ["none", "one", "some", "over-4000"])
    @pytest.mark.parametrize("subset", ["single", "some", "all"])
    def test_losses_are_the_exact_sums_to_rounding(self, revealed, subset):
        # each loss is a float sum of the float weights 1 / denominator over
        # the member's mistaken revealed records: R records summed into
        # 2 * pool cells, then 2 * pool products, so it lies within
        # (R + 2 * pool) * 2^-53 relative of the exact sum, and is 0 on none
        rng = np.random.default_rng(17)
        for _ in range(8):
            members, pool = int(rng.integers(1, 80)), int(rng.integers(1, 16))
            hclass = FiniteClass(
                [FeatureVector({1: float(i)}) for i in range(pool)], rng.integers(0, 2, (members, pool))
            )
            size = 5000 if revealed == "over-4000" else 60
            z = {
                "none": np.zeros(size, dtype=int),
                "one": (np.arange(size) == rng.integers(size)).astype(int),
                "some": rng.integers(0, 2, size),
                "over-4000": (rng.random(size) < 0.9).astype(int),
            }[revealed]
            assert revealed != "over-4000" or z.sum() >= 4000
            sample = WeightedSample.balanced(
                rng.integers(0, pool, size), z, rng.integers(0, 2, size),
                rng.uniform(0.01, 1.0, size), rng.uniform(0.0, 1.0, size), m=size, n=int(rng.integers(0, 300)),
            )
            count = {"single": 1, "some": int(rng.integers(1, members + 1)), "all": members}[subset]
            candidates = np.sort(rng.choice(members, count, replace=False))
            losses = weighted_losses(hclass, sample, candidates)
            assert losses.dtype == np.float64 and losses.shape == (count,)
            live = np.flatnonzero(sample.z)
            # exact totals per (position, label) cell; a member's exact sum
            # adds the totals of the cells it mislabels
            weights = (1.0 / sample.denominator[live]).tolist()
            cells = {}
            for p, y, w in zip(sample.rows[live].tolist(), sample.y[live].tolist(), weights):
                cells[p, y] = cells.get((p, y), Fraction(0)) + Fraction(w)
            tolerance = Fraction(len(live) + 2 * pool, 2**53)
            for member, loss in zip(candidates.tolist(), losses.tolist()):
                wrong = [total for (p, y), total in cells.items() if hclass.labels[member, p] != y]
                if not wrong:
                    assert loss == 0.0
                    continue
                exact = sum(wrong)
                assert abs(Fraction(loss) - exact) <= tolerance * exact

    @pytest.mark.parametrize("position", [-1, -3, 3, 7])
    @pytest.mark.parametrize("label", [0, 1])
    def test_position_outside_the_pool_rejected(self, position, label):
        # a negative position must not wrap round to another point's cell
        hclass = FiniteClass([FeatureVector({1: float(i)}) for i in range(3)], [[0, 1, 0], [1, 1, 0]])
        sample = WeightedSample(np.array([position, 0]), np.ones(2, dtype=int), np.array([label, 0]), np.ones(2), 2, 0)
        with pytest.raises(ValueError):
            weighted_losses(hclass, sample, np.arange(2))

    def test_an_infinite_weight_is_rejected_before_it_is_scored(self):
        # a revealed denominator of 1e-310 has weight inf: 0 * inf made the
        # losses [inf, nan, nan], so the ERM was member 1 at loss NaN and
        # pruning dropped member 2, the true minimiser
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                WeightedSample.balanced(
                    np.arange(3), np.ones(3, dtype=int), np.array([1, 0, 0]), [1e-310, 0.5, 0.5], np.zeros(3), 1, 0
                )

    def test_an_overflowing_cell_total_is_rejected(self):
        # each weight 1e308 is finite, their cell's total is not
        hclass = FiniteClass([FeatureVector({1: float(i)}) for i in range(3)], [[0, 0, 0], [1, 1, 1], [1, 0, 0]])
        sample = WeightedSample(np.zeros(2, dtype=int), np.ones(2, dtype=int), np.ones(2, dtype=int), [1e-308] * 2, 2, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                weighted_losses(hclass, sample, np.arange(3))

    def test_an_overflowing_loss_is_rejected(self):
        # each cell total 1.5e308 is finite, member 0's loss, their sum, is not
        hclass = FiniteClass([FeatureVector({1: float(i)}) for i in range(3)], [[0, 0, 0], [1, 1, 1], [1, 0, 0]])
        sample = WeightedSample(np.arange(2), np.ones(2, dtype=int), np.ones(2, dtype=int), [1e-308 / 1.5] * 2, 2, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="total revealed weight overflows"):
                weighted_losses(hclass, sample, np.arange(3))

    @pytest.mark.parametrize("weighting", ["balanced", "phase"])
    def test_losses_are_each_members_estimate(self, weighting):
        # the exact ERM ranks members by weighted_losses, the oracle's
        # unbiasedness checks read mis_error: they must be one estimate. The
        # two sum in different orders, so they agree to rounding, not bits
        checked = 0
        for seed in range(20):
            inst = random_instance(seed, pool_size=8, class_size=32, family="low" if seed % 2 else "dyadic")
            hclass, rng = inst.classifiers, derive_rng(seed, "losses-are-estimates")
            for m, n in ((400, 0), (1000, 127), (60, 255)):
                rows = rng.choice(len(inst.pool), m + n, p=inst.masses)
                q1 = rng.uniform(0.05, 1.0, len(inst.pool))[rows]
                z = np.concatenate((rng.random(m) < inst.q0[rows[:m]], rng.random(n) < q1[m:]))
                y = rng.random(m + n) < inst.p1[rows]
                if weighting == "balanced":
                    sample = WeightedSample.balanced(rows, z, y, inst.q0[rows], q1, m, n)
                else:
                    own = np.where(np.arange(m + n) < m, inst.q0[rows], q1)
                    sample = WeightedSample.phase_weighted(rows, z, y, own, m, n)
                losses = weighted_losses(hclass, sample, np.arange(len(hclass)))
                estimates = [mis_error(hclass.labels[h, sample.rows], sample) for h in range(len(hclass))]
                np.testing.assert_allclose(losses, estimates, rtol=1e-12, atol=0.0)
                checked += len(hclass)
        assert checked == 20 * 3 * 32


class TestExactDisagreement:
    def test_detects_split_predictions(self):
        hclass, pool = _tiny_class()
        candidates = np.array([0, 2])
        # 0 vs 1 at pool point 1, both say 0 at pool point 0
        assert exact_dis_test(hclass, candidates)[[1, 0]].tolist() == [True, False]

    def test_singleton_never_disagrees(self):
        hclass, pool = _tiny_class()
        candidates = np.array([1])
        assert exact_dis_test(hclass, candidates).tolist() == [False] * len(pool)


def _in_region(model: LinearModel, x: FeatureVector, *args) -> bool:
    """The margin test for one instance, written from its formula."""
    stepsize, capacity, erm_loss, effective_n, sample_count = args
    gap = abs(2.0 * raw_score(model.weights, x)) / (stepsize * (1.0 + sum(v * v for _, v in x.items)))
    radius = math.sqrt(capacity * erm_loss / effective_n) + capacity * math.log(sample_count) / effective_n
    return gap <= radius


def _mask(model: LinearModel, xs: list[FeatureVector], *args) -> list[bool]:
    """approx_dis_mask over the rows and norms the learners build."""
    rows = SplitRows.from_labeled(labeled_rows([Example(x, 0) for x in xs], model.dim), np.ones(len(xs)))
    return approx_dis_mask(rows.rows @ model.weights, rows.norms, *args).tolist()


class TestApproxDisagreement:
    def test_frozen_decision(self):
        model = LinearModel(np.array([0.0, 1.0, 0.0]))
        x = FeatureVector({1: 1.0, 2: 1.0})  # score 1, x~ . x~ = 3
        # gap = 2 / (0.1 * 3) = 6.667 against rhs ~ 0.0218: outside
        assert _mask(model, [x], 0.1, 0.01, 0.25, 9.0, 100) == [False]
        # capacity large enough flips the decision
        assert _mask(model, [x], 0.1, 500.0, 0.25, 9.0, 100) == [True]

    def test_zero_margin_always_inside(self):
        model = LinearModel(np.array([0.0, 1.0, 0.0]))
        x = FeatureVector({2: 1.0})  # score 0
        assert _mask(model, [x], 0.01, 0.01, 0.0, 100.0, 100) == [True]

    def test_overflowing_gap_is_outside_without_a_warning(self):
        scores = np.array([1e308, -1e308, math.inf, math.nan, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = approx_dis_mask(scores, np.ones(5), 1.0, 1.0, 0.1, 10.0, 10)
        assert mask.tolist() == [False, False, False, False, True]

    @pytest.mark.parametrize("name", ["stepsize", "capacity", "effective_n"])
    def test_nan_stepsize_capacity_or_effective_n_rejected(self, name):
        # NaN must not pass the guard and put every row outside the region
        args = [0.5, 0.5, 0.1, 10.0, 10]
        args[{"stepsize": 0, "capacity": 1, "effective_n": 3}[name]] = math.nan
        with pytest.raises(ValueError, match="must be positive"):
            approx_dis_mask(np.array([0.0, 0.01]), np.ones(2), *args)

    def test_mask_matches_the_formula_exactly(self):
        # rows with index gaps, an empty row and the two hand cases above;
        # a zero model (every score exactly 0, against a zero radius too)
        # and weights from 1 to 1e306, so some scores overflow to inf and
        # some to inf - inf = NaN
        rng = np.random.default_rng(5)
        dim = 12
        xs = [FeatureVector({}), FeatureVector({1: 1.0, 2: 1.0}), FeatureVector({2: 1.0})]
        for _ in range(60):
            picked = rng.choice(np.arange(1, dim + 1), size=int(rng.integers(1, dim)), replace=False)
            xs.append(FeatureVector(zip(picked.tolist(), rng.uniform(-1e3, 1e3, picked.size))))
        hand = np.zeros(dim + 1)
        hand[1] = 1.0
        models = [LinearModel.zeros(dim), LinearModel(hand)]
        for scale in np.logspace(0.0, 306.0, 150):
            weights = rng.standard_normal(dim + 1) * scale
            weights[rng.random(dim + 1) < 0.2] = 0.0
            models.append(LinearModel(weights))
        settings = [
            (0.1, 0.01, 0.25, 9.0, 100),
            (0.1, 500.0, 0.25, 9.0, 100),
            (0.01, 0.01, 0.0, 100.0, 100),
            (0.5, 0.01, 0.0, 3.0, 1),  # radius exactly 0
            (1e-3, 2621.44, 0.4, 1.5, 7),
        ]
        inside = 0
        for model in models:
            for args in settings:
                with np.errstate(over="ignore", invalid="ignore"):
                    expected = [_in_region(model, x, *args) for x in xs]
                    mask = _mask(model, xs, *args)
                assert mask == expected
                inside += sum(mask)
        assert 0 < inside < len(models) * len(settings) * len(xs)


class TestClassificationError:
    def test_hand_value(self):
        examples = [
            Example(FeatureVector({1: 1.0}), 1),
            Example(FeatureVector({1: -1.0}), 1),
            Example(FeatureVector({1: 2.0}), 0),
            Example(FeatureVector({1: -2.0}), 0),
        ]
        model = LinearModel(np.array([0.0, 1.0]))
        assert classification_error(model, labeled_rows(examples, 1)) == 0.5

    def test_rows_match_example_loop_exactly(self):
        # rows with index gaps and empty vectors; weights from 1 to 1e306, so
        # some scores overflow to inf and some to inf - inf = NaN
        rng = np.random.default_rng(0)
        dim = 12
        examples = [Example(FeatureVector({}), 1), Example(FeatureVector({}), 0)]
        for _ in range(80):
            picked = rng.choice(np.arange(1, dim + 1), size=int(rng.integers(1, dim)), replace=False)
            values = rng.uniform(-1e3, 1e3, picked.size)
            examples.append(Example(FeatureVector(zip(picked.tolist(), values)), int(rng.integers(0, 2))))
        rows = labeled_rows(examples, dim)
        for scale in np.logspace(0.0, 306.0, 400):
            weights = rng.standard_normal(dim + 1) * scale
            weights[rng.random(dim + 1) < 0.2] = 0.0
            model = LinearModel(weights)
            with np.errstate(over="ignore", invalid="ignore"):
                expected = example_error(weights, examples)
                scores = [raw_score(weights, ex.x) for ex in examples]
            assert classification_error(model, rows) == expected
            np.testing.assert_array_equal(rows.matrix @ model.weights, scores)

    def test_rows_tie_and_non_finite_conventions(self):
        examples = [
            Example(FeatureVector({}), 1),
            Example(FeatureVector({2: 1.0}), 1),
            Example(FeatureVector({1: -1.0, 3: 2.0}), 0),
            Example(FeatureVector({1: 1.0}), 1),
        ]
        rows = labeled_rows(examples, 3)
        inf, nan = math.inf, math.nan
        cases = [
            (np.zeros(4), 0.25),  # every score is 0: all predict 1
            (np.array([nan, 0.0, 0.0, 0.0]), 0.75),  # every score NaN: all predict 0
            (np.array([0.0, inf, 0.0, 0.0]), 0.0),  # scores 0, 0, -inf, +inf
            (np.array([0.0, inf, 0.0, inf]), 0.0),  # scores 0, 0, NaN, +inf
            (np.array([-inf, 0.0, 0.0, 0.0]), 0.75),  # -inf everywhere
        ]
        for weights, error in cases:
            model = LinearModel(weights)
            with np.errstate(invalid="ignore"):
                assert example_error(weights, examples) == error
            assert classification_error(model, rows) == error

    def test_no_rows_or_no_linear_model_rejected(self):
        rows = labeled_rows([Example(FeatureVector({1: 1.0}), 1)], 1)
        with pytest.raises(ValueError, match="error undefined on an empty example list"):
            classification_error(LinearModel.zeros(1), rows[:0])
        with pytest.raises(TypeError, match="row-form examples need a LinearModel"):
            classification_error(TableClassifier(0), rows)

    def test_rows_reject_wide_features_and_width_mismatch(self):
        rows = labeled_rows([Example(FeatureVector({2: 1.0}), 1)], 4)
        with pytest.raises(ValueError):
            classification_error(LinearModel.zeros(3), rows)
        with pytest.raises(ValueError):
            classification_error(LinearModel.zeros(5), rows)
