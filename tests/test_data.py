"""Datasets: sparse vectors, the text format, synthetic generation, splits,
and logging simulation."""
from __future__ import annotations

import numpy as np
import pytest

from idbal.data import (
    Example,
    FeatureVector,
    LabelSource,
    LoggedTriple,
    ParseError,
    SplitRows,
    SyntheticSpec,
    apply_logging,
    format_sparse_dataset,
    generate_synthetic,
    parse_sparse_dataset,
    split_dataset,
    stack_rows,
    synthetic_separator,
    to_labeled_rows,
    to_split_rows,
)
from idbal.policies import IdenticalPolicy


class TestFeatureVector:
    def test_sorted_storage_and_zero_dropping(self):
        v = FeatureVector({3: 1.5, 1: -2.0, 7: 0.0})
        assert v.items == ((1, -2.0), (3, 1.5))
        assert v.max_index() == 3

    def test_equality_and_hash_ignore_zero_entries(self):
        a = FeatureVector({1: 1.0, 5: 0.0})
        b = FeatureVector({1: 1.0})
        assert a == b
        assert hash(a) == hash(b)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector([(1, 1.0), (1, 2.0)])

    def test_nonpositive_index_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector({0: 1.0})
        with pytest.raises(ValueError):
            FeatureVector({-3: 1.0})

    def test_nonfinite_value_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector({1: float("nan")})
        with pytest.raises(ValueError):
            FeatureVector({1: float("inf")})

    def test_squared_norm(self):
        v = FeatureVector({1: 3.0, 4: 4.0})
        assert v.squared_norm() == 25.0

    def test_key_is_canonical(self):
        a = FeatureVector({2: 0.5, 9: -1.25})
        b = FeatureVector([(9, -1.25), (2, 0.5)])
        assert a.key() == b.key()
        assert "2:" in a.key() and "9:" in a.key()


class TestRecords:
    def test_example_label_domain(self):
        with pytest.raises(ValueError):
            Example(FeatureVector({1: 1.0}), 2)

    def test_revealed_triple_needs_label(self):
        with pytest.raises(ValueError):
            LoggedTriple(FeatureVector({1: 1.0}), 1, None)

    def test_hidden_triple_carries_no_label(self):
        with pytest.raises(ValueError):
            LoggedTriple(FeatureVector({1: 1.0}), 0, 1)
        t = LoggedTriple(FeatureVector({1: 1.0}), 0)
        assert t.y is None and t.label_source is None

    def test_revealed_default_source_is_queried(self):
        t = LoggedTriple(FeatureVector({1: 1.0}), 1, 0)
        assert t.label_source is LabelSource.QUERIED


class TestTextFormat:
    def test_basic_line(self):
        data = parse_sparse_dataset("1 1:0.5 3:-2.0\n0 2:1.0\n")
        assert len(data) == 2
        assert data[0].y == 1
        assert data[0].x.items == ((1, 0.5), (3, -2.0))
        assert data[1].y == 0

    def test_plus_minus_one_labels(self):
        data = parse_sparse_dataset("+1 1:1.0\n-1 2:1.0\n")
        assert [ex.y for ex in data] == [1, 0]

    def test_comments_blanks_and_crlf(self):
        text = "# header\r\n\r\n1 1:2.0\r\n"
        data = parse_sparse_dataset(text)
        assert len(data) == 1

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_sparse_dataset("1 1:1.0\n1 oops\n")
        assert err.value.line_number == 2

    def test_bad_label_rejected(self):
        with pytest.raises(ParseError):
            parse_sparse_dataset("2 1:1.0\n")

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            examples = []
            for _ in range(rng.integers(1, 20)):
                indices = rng.choice(np.arange(1, 40), size=rng.integers(1, 8), replace=False)
                x = FeatureVector({int(i): float(v) for i, v in zip(indices, rng.normal(size=len(indices)))})
                examples.append(Example(x, int(rng.integers(0, 2))))
            text = format_sparse_dataset(examples)
            back = parse_sparse_dataset(text)
            assert back == examples


class TestSynthetic:
    def test_shape_and_range(self):
        data = generate_synthetic(SyntheticSpec(count=100, dim=7, flip_prob=0.1, seed=1))
        assert len(data) == 100
        for ex in data:
            assert ex.x.max_index() <= 7
            assert all(-1.0 <= v <= 1.0 for _, v in ex.x.items)
            assert ex.y in (0, 1)

    def test_deterministic_in_seed(self):
        a = generate_synthetic(SyntheticSpec(count=50, dim=5, seed=3))
        b = generate_synthetic(SyntheticSpec(count=50, dim=5, seed=3))
        c = generate_synthetic(SyntheticSpec(count=50, dim=5, seed=4))
        assert a == b
        assert a != c

    def test_flip_rate_matches_parameter(self):
        spec = SyntheticSpec(count=4000, dim=6, flip_prob=0.1, seed=5)
        data = generate_synthetic(spec)
        w = synthetic_separator(spec)
        flips = 0
        for ex in data:
            dense = np.zeros(spec.dim)
            for i, v in ex.x.items:
                dense[i - 1] = v
            clean = int(dense @ w >= 0.0)
            flips += clean != ex.y
        rate = flips / len(data)
        assert abs(rate - 0.1) < 0.02

    def test_zero_flip_prob_is_separable(self):
        spec = SyntheticSpec(count=300, dim=4, flip_prob=0.0, seed=9)
        data = generate_synthetic(spec)
        w = synthetic_separator(spec)
        for ex in data:
            dense = np.zeros(spec.dim)
            for i, v in ex.x.items:
                dense[i - 1] = v
            assert ex.y == int(dense @ w >= 0.0)


class TestSplit:
    def test_sizes_and_partition(self):
        data = generate_synthetic(SyntheticSpec(count=1000, dim=4, seed=0))
        split = split_dataset(data, (0.2, 0.5), seed=1)
        assert len(split.test) == 200
        assert len(split.logged) == 400
        assert len(split.online) == 400
        combined = sorted(
            [(ex.x.key(), ex.y) for ex in split.test + split.logged + split.online]
        )
        assert combined == sorted([(ex.x.key(), ex.y) for ex in data])

    def test_deterministic_and_seed_sensitive(self):
        data = generate_synthetic(SyntheticSpec(count=200, dim=4, seed=0))
        a = split_dataset(data, (0.2, 0.5), seed=5)
        b = split_dataset(data, (0.2, 0.5), seed=5)
        c = split_dataset(data, (0.2, 0.5), seed=6)
        assert a.logged == b.logged and a.online == b.online and a.test == b.test
        assert a.logged != c.logged

    def test_random_fraction_accounting(self):
        rng = np.random.default_rng(11)
        data = generate_synthetic(SyntheticSpec(count=507, dim=3, seed=2))
        for _ in range(20):
            tf = float(rng.uniform(0.05, 0.5))
            lf = float(rng.uniform(0.1, 0.9))
            split = split_dataset(data, (tf, lf), seed=int(rng.integers(1 << 30)))
            assert len(split.test) + len(split.logged) + len(split.online) == 507
            assert abs(len(split.test) - tf * 507) < 3
            remaining = 507 - len(split.test)
            assert abs(len(split.logged) - lf * remaining) < 3


class TestLogging:
    def test_reveal_structure(self):
        data = generate_synthetic(SyntheticSpec(count=400, dim=4, seed=1))
        logged = apply_logging(data, IdenticalPolicy(0.3), seed=2)
        assert len(logged) == 400
        for triple, ex in zip(logged, data):
            assert triple.x == ex.x
            if triple.z == 1:
                assert triple.y == ex.y
                assert triple.label_source is LabelSource.QUERIED
            else:
                assert triple.y is None

    def test_reveal_rate_tracks_policy(self):
        data = generate_synthetic(SyntheticSpec(count=5000, dim=4, seed=1))
        logged = apply_logging(data, IdenticalPolicy(0.25), seed=3)
        rate = sum(t.z for t in logged) / len(logged)
        assert abs(rate - 0.25) < 0.025

    def test_deterministic(self):
        data = generate_synthetic(SyntheticSpec(count=100, dim=4, seed=1))
        a = apply_logging(data, IdenticalPolicy(0.5), seed=4)
        b = apply_logging(data, IdenticalPolicy(0.5), seed=4)
        assert a == b


class TestDenseMatrix:
    """The stacked row layout, read back densely and as stored."""

    def test_bias_column_and_values(self):
        xs = [FeatureVector({1: 2.0}), FeatureVector({2: -1.0, 3: 4.0})]
        dense = stack_rows(xs, 3).toarray()
        expected = np.array([[1.0, 2.0, 0.0, 0.0], [1.0, 0.0, -1.0, 4.0]])
        np.testing.assert_array_equal(dense, expected)

    def test_index_beyond_dim_rejected(self):
        with pytest.raises(ValueError):
            stack_rows([FeatureVector({5: 1.0})], 4)

    def test_labeled_rows_store_bias_then_features_in_index_order(self):
        xs = [FeatureVector({1: 2.0}), FeatureVector({}), FeatureVector({3: 4.0, 2: -1.0})]
        rows = to_labeled_rows([Example(x, y) for x, y in zip(xs, (1, 0, 1))], 3)
        assert rows.matrix.indices.tolist() == [0, 1, 0, 0, 2, 3]
        assert rows.matrix.data.tolist() == [1.0, 2.0, 1.0, 1.0, -1.0, 4.0]
        assert rows.matrix.shape == (3, 4)
        np.testing.assert_array_equal(rows.labels, [1, 0, 1])
        assert len(rows) == 3


class TestSplitRows:
    def _examples(self) -> list[Example]:
        xs = [FeatureVector({1: 2.0}), FeatureVector({}), FeatureVector({3: 4.0, 2: -1.0})]
        return [Example(x, y) for x, y in zip(xs, (1, 0, 1))]

    def test_propensities_rows_and_norms(self):
        examples = self._examples()
        rows = to_split_rows(examples, IdenticalPolicy(0.25), 3)
        assert len(rows) == 3
        np.testing.assert_array_equal(rows.z, [1, 1, 1])
        np.testing.assert_array_equal(rows.y, [1, 0, 1])
        np.testing.assert_array_equal(rows.q0, [0.25, 0.25, 0.25])
        np.testing.assert_array_equal(rows.rows.toarray(), stack_rows([ex.x for ex in examples], 3).toarray())
        np.testing.assert_array_equal(rows.norms, [5.0, 1.0, 18.0])

    def test_hidden_labels_are_not_stored(self):
        xs = [ex.x for ex in self._examples()]
        triples = [LoggedTriple(xs[0], 1, 1), LoggedTriple(xs[1], 0), LoggedTriple(xs[2], 1, 0)]
        rows = to_split_rows(triples, IdenticalPolicy(0.25), 3)
        np.testing.assert_array_equal(rows.z, [1, 0, 1])
        np.testing.assert_array_equal(rows.y, [1, 0, 0])

    def test_slicing_cuts_every_array_alike(self):
        rows = to_split_rows(self._examples(), IdenticalPolicy(0.25), 3)
        for index in (slice(0, 2), np.array([2, 0])):
            head = rows[index]
            assert len(head) == 2
            assert head.rows.shape == (2, 4)
            np.testing.assert_array_equal(head.rows.toarray(), rows.rows.toarray()[index])
            for name in ("q0", "z", "y", "norms"):
                np.testing.assert_array_equal(getattr(head, name), getattr(rows, name)[index])

    def test_passthrough_checks_the_width(self):
        rows = to_split_rows(self._examples(), IdenticalPolicy(0.25), 3)
        assert to_split_rows(rows, IdenticalPolicy(0.5), 3) is rows
        with pytest.raises(ValueError):
            to_split_rows(rows, IdenticalPolicy(0.5), 4)
        positions = SplitRows(rows.q0, rows.z, rows.y, np.arange(3))
        with pytest.raises(ValueError):
            to_split_rows(positions, IdenticalPolicy(0.5), 3)
