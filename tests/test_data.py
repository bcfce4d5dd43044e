"""Datasets: sparse vectors, the text format, synthetic generation, splits,
logging simulation, and the row layout, compared with the per-record
records they replace."""
from __future__ import annotations

import gc
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.sparse

from idbal.data import (
    Example,
    FeatureVector,
    LabeledRows,
    LabelSource,
    LoggedTriple,
    ParseError,
    SplitRows,
    SyntheticSpec,
    apply_logging,
    format_sparse_dataset,
    generate_synthetic,
    parse_sparse_dataset,
    row_keys,
    split_dataset,
    synthetic_separator,
)
from idbal.hypotheses import LinearModel, TableClassifier
from idbal.learners import AlgoConfig, run_passive
from idbal.policies import IdenticalPolicy
from idbal.rng import derive_rng

from reference import labeled_rows, whole_row_keys


def _same_rows(rows: LabeledRows, expected: LabeledRows) -> None:
    """Equal as stored: shape, indptr, indices, values and labels."""
    assert rows.matrix.shape == expected.matrix.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(rows.matrix, name).tolist() == getattr(expected.matrix, name).tolist(), name
    assert rows.matrix.has_sorted_indices
    assert rows.labels.dtype == np.int8 and rows.labels.tolist() == expected.labels.tolist()


class TestFeatureVector:
    def test_sorted_storage_and_zero_dropping(self):
        v = FeatureVector({3: 1.5, 1: -2.0, 7: 0.0})
        assert v.items == ((1, -2.0), (3, 1.5))

    def test_equality_and_hash_ignore_zero_entries(self):
        a = FeatureVector({1: 1.0, 5: 0.0})
        b = FeatureVector({1: 1.0})
        assert a == b
        assert hash(a) == hash(b)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector([(1, 1.0), (1, 2.0)])

    @pytest.mark.parametrize("index", [1.0, "1", True, None])
    def test_non_integer_index_rejected(self, index):
        with pytest.raises(ValueError, match="is not an integer"):
            FeatureVector({index: 1.0})

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
        assert t.y is None

    def test_records_are_slotted_and_pickle(self):
        x = FeatureVector({1: 1.0, 3: -2.5})
        records = [Example(x, 1), LoggedTriple(x, 0), LoggedTriple(x, 1, 0)]
        for record in records:
            assert not hasattr(record, "__dict__")
            back = pickle.loads(pickle.dumps(record))
            assert back == record and type(back) is type(record)
        with pytest.raises(AttributeError):
            records[1].z = 1

    def test_triple_stores_only_x_and_y(self):
        # z follows from y; a third slot would grow every record
        assert LoggedTriple.__slots__ == ("x", "y")
        assert Example.__slots__ == ("x", "y")

    @pytest.mark.parametrize(
        "z, y, label_source",
        [(0, None, None), (1, 0, None), (1, 1, None), (1, 0, LabelSource.QUERIED), (1, 1, LabelSource.QUERIED)],
    )
    def test_derived_fields_and_equality(self, z, y, label_source):
        x = FeatureVector({1: 1.0})
        t = LoggedTriple(x, z, y, label_source)
        assert (t.z, t.y) == (z, y)
        default = LoggedTriple(x, z, y)
        assert t == default and hash(t) == hash(default)
        assert t != LoggedTriple(x, 1 - z, None if z else 1)

    @pytest.mark.parametrize("z", [2, -1, 0.5, None, "1"])
    def test_bad_reveal_bit_rejected(self, z):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            LoggedTriple(FeatureVector({1: 1.0}), z, 1)

    def test_hidden_triple_has_no_label_source(self):
        with pytest.raises(ValueError, match="z = 0 record cannot have a label source"):
            LoggedTriple(FeatureVector({1: 1.0}), 0, None, LabelSource.QUERIED)

    @pytest.mark.parametrize("label_source", ["bogus", "queried", 1, LabelSource])
    def test_revealed_triple_rejects_other_sources(self, label_source):
        with pytest.raises(ValueError, match="label source"):
            LoggedTriple(FeatureVector({1: 1.0}), 1, 1, label_source)

    def test_records_are_shared_per_vector_and_cell(self):
        x = FeatureVector({1: 1.0})
        assert LoggedTriple(x, 1, 1) is LoggedTriple(x, 1, 1, LabelSource.QUERIED)
        made = (LoggedTriple(x, 0), LoggedTriple(x, 1, 0), LoggedTriple(x, 1, 1), Example(x, 0), Example(x, 1))
        assert len(x.records) == 5 and all(a is b for a, b in zip(made, x.records))
        # a label given as a bool or a numpy integer is stored as the int it equals
        for label in (True, np.int8(1), np.int64(1), 1.0):
            for record in (Example(x, label), LoggedTriple(x, 1, label)):
                assert record.y == 1 and type(record.y) is int
        # records on equal but distinct vectors are equal values, not one object
        twin = FeatureVector({1: 1.0})
        for make in (lambda v: LoggedTriple(v, 0), lambda v: LoggedTriple(v, 1, 0), lambda v: Example(v, 1)):
            assert make(twin) == make(x) and hash(make(twin)) == hash(make(x))
            assert make(twin) is not make(x) and make(twin).x is twin

    def test_a_record_unpickles_as_the_shared_record_of_its_vector(self):
        x = FeatureVector({2: 0.5, 4: -1.0})
        for record in x.records:
            back = pickle.loads(pickle.dumps(record))
            assert back == record and back.x is not x and back in back.x.records
            vector, shared = pickle.loads(pickle.dumps((x, record)))
            assert shared.x is vector and vector.records[x.records.index(record)] is shared
        # a vector pickles by its items alone, whether its records exist or not
        assert x.__reduce__() == (FeatureVector, (x.items,))
        assert pickle.dumps(x) == pickle.dumps(FeatureVector(x.items))

    def test_a_dropped_vector_frees_its_records(self):
        def live() -> int:
            return sum(type(o) in (FeatureVector, LoggedTriple, Example) for o in gc.get_objects())

        gc.collect()
        before = live()
        x = FeatureVector({1: 0.25})
        kept = (LoggedTriple(x, 1, 0), Example(x, 1))
        assert live() == before + 6
        del x, kept
        gc.collect()
        assert live() == before

    @pytest.mark.parametrize("x", [None, "1:1.0", ((1, 1.0),), {1: 1.0}], ids=["None", "str", "tuple", "dict"])
    def test_non_vector_x_rejected(self, x):
        for make in (lambda: LoggedTriple(x, 0), lambda: LoggedTriple(x, 1, 1), lambda: Example(x, 0)):
            with pytest.raises(TypeError, match=f"x must be a FeatureVector, got {type(x).__name__}"):
                make()

    @pytest.mark.parametrize(
        "make, field, other",
        [
            (lambda: Example(FeatureVector({1: 1.0}), 1), "y", "z"),
            (lambda: LoggedTriple(FeatureVector({1: 1.0}), 0), "y", "w"),
            (lambda: LoggedTriple(FeatureVector({1: 1.0}), 1, 0), "x", "z"),
            (lambda: TableClassifier(3), "index", "owner"),
        ],
        ids=["Example", "LoggedTriple-hidden", "LoggedTriple-revealed", "TableClassifier"],
    )
    def test_every_assignment_is_frozen(self, make, field, other):
        record = make()
        for name in (field, other):
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, 1)
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record)


class TestTextFormat:
    def test_basic_line(self):
        data = parse_sparse_dataset("1 1:0.5 3:-2.0\n0 2:1.0\n")
        assert len(data) == 2
        assert data.labels.tolist() == [1, 0]
        assert list(row_keys(data.matrix)) == ["1:0.5 3:-2.0", "2:1.0"]

    def test_plus_minus_one_labels(self):
        data = parse_sparse_dataset("+1 1:1.0\n-1 2:1.0\n")
        assert data.labels.tolist() == [1, 0]

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

    @pytest.mark.parametrize("text, message", [
        ("1 1:1.0\nyes 1:1.0\n", "line 2: label 'yes' is not numeric"),
        ("1 2:1.0 2:0.5\n", "line 1: duplicate feature index 2"),
        ("0 1:1.0\n1 1:nan\n", "line 2: non-finite value at index 1"),
        ("1 3:-inf\n", "line 1: non-finite value at index 3"),
    ], ids=["label-word", "repeated-index", "nan-value", "infinite-value"])
    def test_malformed_line_names_its_fault(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_sparse_dataset(text)

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            examples = []
            for _ in range(rng.integers(1, 20)):
                indices = rng.choice(np.arange(1, 40), size=rng.integers(1, 8), replace=False)
                x = FeatureVector({int(i): float(v) for i, v in zip(indices, rng.normal(size=len(indices)))})
                examples.append(Example(x, int(rng.integers(0, 2))))
            rows = labeled_rows(examples, max(ex.x.items[-1][0] for ex in examples))
            text = format_sparse_dataset(rows)
            assert text == "".join(f"{ex.y} {ex.x.key()}\n" for ex in examples)
            _same_rows(parse_sparse_dataset(text), rows)

    def test_parsed_rows_match_the_record_stack(self):
        # unsorted indices, explicit 0 and -0.0 values, an index whose only
        # value is 0 (it must not widen the matrix) and featureless lines,
        # against FeatureVectors stacked over their largest index
        rng = np.random.default_rng(3)
        lines = ["1", "0 9:0", "1 4:-0.0 2:1.5", "-1 3:2.5 1:-0.0 2:0.0"]
        for _ in range(200):
            picked = rng.choice(np.arange(1, 30), size=int(rng.integers(0, 9)), replace=False)
            values = rng.normal(size=picked.size).tolist()
            values = [0.0 if rng.random() < 0.1 else -0.0 if rng.random() < 0.1 else v for v in values]
            tokens = [f"{i}:{v!r}" for i, v in zip(picked.tolist(), values)]
            lines.append(" ".join([str(int(rng.integers(0, 2)))] + tokens))
        lines.append("0 40:0.0 41:-0.0")
        examples = []
        for line in lines:
            label, *tokens = line.split()
            pairs = [(int(t.partition(":")[0]), float(t.partition(":")[2])) for t in tokens]
            examples.append(Example(FeatureVector(pairs), 1 if label == "1" else 0))
        dim = max(ex.x.items[-1][0] if ex.x.items else 0 for ex in examples)
        rows = parse_sparse_dataset("\n".join(lines))
        assert rows.dim == dim < 40
        _same_rows(rows, labeled_rows(examples, dim))
        assert list(row_keys(rows.matrix)) == [ex.x.key() for ex in examples]


class TestRowKeyBlocks:
    """row_keys against the whole-matrix reference: the same keys in the
    same order, whichever block a row falls in."""

    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 513])
    def test_keys_match_at_block_edges(self, count):
        rows = generate_synthetic(SyntheticSpec(count=513, dim=7, seed=4)).matrix[:count]
        assert list(row_keys(rows)) == whole_row_keys(rows)

    def test_rows_without_features(self):
        # bias-only rows among others, and rows with no stored entry at all
        parsed = parse_sparse_dataset("1\n0 2:1.0\n" * 200 + "0\n").matrix
        assert list(row_keys(parsed)) == whole_row_keys(parsed) == ["", "2:1.0"] * 200 + [""]
        empty = scipy.sparse.csr_array((300, 5))
        assert list(row_keys(empty)) == whole_row_keys(empty) == [""] * 300

    def test_wide_sparse_rows_with_small_values(self):
        # values whose repr is in exponent form or needs all 17 digits
        rng = np.random.default_rng(8)
        choices = [1e-05, -2.5e-07, 0.1, 1 / 3, -123456.789, 1e22]
        lines = []
        for _ in range(600):
            picked = np.sort(rng.choice(1000, size=int(rng.integers(0, 12)), replace=False)) + 1
            lines.append(" ".join(["1", *(f"{i}:{choices[rng.integers(6)]!r}" for i in picked.tolist())]))
        lines.append("0 1000:1e-05")
        rows = parse_sparse_dataset("\n".join(lines)).matrix
        assert rows.shape == (601, 1001)
        keys = list(row_keys(rows))
        assert keys == whole_row_keys(rows) and keys[-1] == "1000:1e-05"

    def test_keys_are_made_lazily(self):
        keys = row_keys(generate_synthetic(SyntheticSpec(count=300, dim=3, seed=1)).matrix)
        assert iter(keys) is keys
        assert len(list(keys)) == 300


def _synthetic_examples(spec: SyntheticSpec) -> list[Example]:
    """The per-example generator the row builder replaced."""
    weights = synthetic_separator(spec)
    points = derive_rng(spec.seed, "synthetic", "points").uniform(-1.0, 1.0, size=(spec.count, spec.dim))
    clean = (points @ weights >= 0.0).astype(np.int64)
    flips = derive_rng(spec.seed, "synthetic", "flips").random(spec.count) < spec.flip_prob
    labels = np.where(flips, 1 - clean, clean)
    return [
        Example(FeatureVector([(i + 1, float(v)) for i, v in enumerate(row)]), int(label))
        for row, label in zip(points, labels)
    ]


class TestSynthetic:
    def test_shape_and_range(self):
        data = generate_synthetic(SyntheticSpec(count=100, dim=7, flip_prob=0.1, seed=1))
        assert len(data) == 100
        assert data.matrix.shape == (100, 8)
        dense = data.matrix.toarray()
        assert (dense[:, 0] == 1.0).all()
        assert ((-1.0 <= dense[:, 1:]) & (dense[:, 1:] <= 1.0)).all()
        assert set(data.labels.tolist()) <= {0, 1}

    def test_deterministic_in_seed(self):
        a = generate_synthetic(SyntheticSpec(count=50, dim=5, seed=3))
        b = generate_synthetic(SyntheticSpec(count=50, dim=5, seed=3))
        c = generate_synthetic(SyntheticSpec(count=50, dim=5, seed=4))
        _same_rows(a, b)
        assert (a.matrix != c.matrix).nnz > 0

    def test_flip_rate_matches_parameter(self):
        spec = SyntheticSpec(count=4000, dim=6, flip_prob=0.1, seed=5)
        data = generate_synthetic(spec)
        clean = (data.matrix.toarray()[:, 1:] @ synthetic_separator(spec) >= 0.0).astype(int)
        rate = float(np.mean(clean != data.labels))
        assert abs(rate - 0.1) < 0.02

    def test_zero_flip_prob_is_separable(self):
        spec = SyntheticSpec(count=300, dim=4, flip_prob=0.0, seed=9)
        data = generate_synthetic(spec)
        clean = (data.matrix.toarray()[:, 1:] @ synthetic_separator(spec) >= 0.0).astype(int)
        assert clean.tolist() == data.labels.tolist()

    @pytest.mark.parametrize("field, value, message", [
        ("count", 0, "count must be positive"),
        ("dim", 0, "dim must be positive"),
        ("flip_prob", -0.1, r"flip_prob must be in \[0, 0.5\)"),
        ("flip_prob", 0.5, r"flip_prob must be in \[0, 0.5\)"),
    ], ids=["no-rows", "no-features", "negative-flip", "flip-half"])
    def test_bad_spec_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec(**{field: value})

    @pytest.mark.parametrize("count, dim", [(600, 30), (200, 300), (1, 1)])
    def test_rows_match_the_record_stack(self, count, dim):
        spec = SyntheticSpec(count=count, dim=dim, flip_prob=0.2, seed=count + dim)
        _same_rows(generate_synthetic(spec), labeled_rows(_synthetic_examples(spec), dim))


class TestSplit:
    def test_sizes_and_partition(self):
        split = split_dataset(1000, (0.2, 0.5), seed=1)
        assert len(split.test) == 200
        assert len(split.logged) == 400
        assert len(split.online) == 400
        combined = np.concatenate((split.test, split.logged, split.online))
        assert sorted(combined.tolist()) == list(range(1000))

    @pytest.mark.parametrize("count, fractions, message", [
        (100, (0.0, 0.5), "fractions must lie strictly between 0 and 1"),
        (100, (0.2, 1.0), "fractions must lie strictly between 0 and 1"),
        (100, (float("nan"), 0.5), "fractions must lie strictly between 0 and 1"),
        (2, (0.2, 0.5), "need at least 3 examples to split, got 2"),
    ], ids=["no-test", "all-logged", "nan-test", "two-rows"])
    def test_bad_split_rejected(self, count, fractions, message):
        with pytest.raises(ValueError, match=message):
            split_dataset(count, fractions)

    def test_deterministic_and_seed_sensitive(self):
        a = split_dataset(200, (0.2, 0.5), seed=5)
        b = split_dataset(200, (0.2, 0.5), seed=5)
        c = split_dataset(200, (0.2, 0.5), seed=6)
        for name in ("logged", "online", "test"):
            assert getattr(a, name).tolist() == getattr(b, name).tolist()
        assert a.logged.tolist() != c.logged.tolist()

    def test_random_fraction_accounting(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            tf = float(rng.uniform(0.05, 0.5))
            lf = float(rng.uniform(0.1, 0.9))
            split = split_dataset(507, (tf, lf), seed=int(rng.integers(1 << 30)))
            assert len(split.test) + len(split.logged) + len(split.online) == 507
            assert abs(len(split.test) - tf * 507) < 3
            remaining = 507 - len(split.test)
            assert abs(len(split.logged) - lf * remaining) < 3


class TestLogging:
    def test_reveal_structure(self):
        q0 = np.repeat([0.0, 0.3, 1.0], 400)
        z = apply_logging(q0, seed=2)
        assert z.dtype == np.int8 and z.shape == (1200,)
        assert set(z.tolist()) <= {0, 1}
        assert not z[:400].any() and z[800:].all()

    def test_reveal_rate_tracks_policy(self):
        z = apply_logging(np.full(5000, 0.25), seed=3)
        assert abs(z.mean() - 0.25) < 0.025

    def test_deterministic(self):
        q0 = np.linspace(0.0, 1.0, 100)
        assert apply_logging(q0, seed=4).tolist() == apply_logging(q0, seed=4).tolist()

    def test_bits_match_the_per_record_draws(self):
        rng = np.random.default_rng(8)
        q0 = np.concatenate(([0.0, 1.0], rng.random(3000), np.full(50, 0.5)))
        draws = derive_rng(6, "logging", "reveal")
        expected = [1 if draws.random() < p else 0 for p in q0.tolist()]
        assert apply_logging(q0, seed=6).tolist() == expected


class TestDenseMatrix:
    """The row layout, read back densely and as stored."""

    def test_bias_column_and_values(self):
        dense = parse_sparse_dataset("1 1:2.0\n0 2:-1.0 3:4.0\n").matrix.toarray()
        expected = np.array([[1.0, 2.0, 0.0, 0.0], [1.0, 0.0, -1.0, 4.0]])
        np.testing.assert_array_equal(dense, expected)

    def test_labeled_rows_store_bias_then_features_in_index_order(self):
        rows = parse_sparse_dataset("1 1:2.0\n0\n1 3:4.0 2:-1.0\n")
        assert rows.matrix.indices.tolist() == [0, 1, 0, 0, 2, 3]
        assert rows.matrix.data.tolist() == [1.0, 2.0, 1.0, 1.0, -1.0, 4.0]
        assert rows.matrix.shape == (3, 4)
        np.testing.assert_array_equal(rows.labels, [1, 0, 1])
        assert len(rows) == 3
        head = rows[np.array([2, 0])]
        assert head.matrix.toarray().tolist() == rows.matrix.toarray()[[2, 0]].tolist()
        assert head.labels.tolist() == [1, 1]


class TestSplitRows:
    def _rows(self) -> LabeledRows:
        return parse_sparse_dataset("1 1:2.0\n0\n1 3:4.0 2:-1.0\n")

    def test_propensities_rows_and_norms(self):
        data = self._rows()
        rows = SplitRows.from_labeled(data, np.full(3, 0.25))
        assert len(rows) == 3
        np.testing.assert_array_equal(rows.z, [1, 1, 1])
        np.testing.assert_array_equal(rows.y, [1, 0, 1])
        np.testing.assert_array_equal(rows.q0, [0.25, 0.25, 0.25])
        assert rows.rows is data.matrix
        np.testing.assert_array_equal(rows.norms, [5.0, 1.0, 18.0])

    def test_hidden_labels_are_not_stored(self):
        data = parse_sparse_dataset("1 1:2.0\n1\n0 3:4.0 2:-1.0\n")
        rows = SplitRows.from_labeled(data, np.full(3, 0.25), np.array([1, 0, 1], dtype=np.int8))
        np.testing.assert_array_equal(rows.z, [1, 0, 1])
        np.testing.assert_array_equal(rows.y, [1, 0, 0])

    def test_slicing_cuts_every_array_alike(self):
        rows = SplitRows.from_labeled(self._rows(), np.full(3, 0.25))
        for index in (slice(0, 2), np.array([2, 0])):
            head = rows[index]
            assert len(head) == 2
            assert head.rows.shape == (2, 4)
            np.testing.assert_array_equal(head.rows.toarray(), rows.rows.toarray()[index])
            for name in ("q0", "z", "y", "norms"):
                np.testing.assert_array_equal(getattr(head, name), getattr(rows, name)[index])

    def test_passthrough_checks_the_width(self):
        # the practical learners take split rows as they are, provided they
        # carry norms and rows as wide as the model
        rows = SplitRows.from_labeled(self._rows(), np.full(3, 0.5))
        cfg = AlgoConfig(eta=0.1)
        assert run_passive(rows, rows, IdenticalPolicy(0.5), LinearModel.zeros(3), cfg).query_count == 3
        with pytest.raises(ValueError):
            run_passive(rows, rows, IdenticalPolicy(0.5), LinearModel.zeros(4), cfg)
        positions = SplitRows(rows.q0, rows.z, rows.y, np.arange(3))
        with pytest.raises(ValueError):
            run_passive(rows, positions, IdenticalPolicy(0.5), LinearModel.zeros(3), cfg)

    def test_norms_match_the_in_order_sum(self):
        # 1 + sum v^2 over each row's features in index order, as Python adds
        # them; rows up to 300 features wide, where a pairwise sum differs
        rng = np.random.default_rng(13)
        examples = []
        for _ in range(300):
            picked = rng.choice(np.arange(1, 301), size=int(rng.integers(0, 300)), replace=False)
            values = rng.normal(size=picked.size) * 10.0 ** rng.uniform(-3, 3, picked.size)
            examples.append(Example(FeatureVector(zip(picked.tolist(), values)), 0))
        rows = SplitRows.from_labeled(labeled_rows(examples, 300), np.ones(300))
        expected = []
        for ex in examples:
            total = 0.0
            for _, v in ex.x.items:
                total += v * v
            expected.append(1.0 + total)
        assert rows.norms.tolist() == expected
