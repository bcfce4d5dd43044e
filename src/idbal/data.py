"""Datasets as rows, splits, logging, and the synthetic generator.

Binary classification with sparse features. A dataset is one CSR matrix with
a bias column plus its labels. Labels are {0, 1} internally; {-1, +1} is
accepted on input and mapped to {0, 1}. Splits are arrays of row positions
and logging yields one reveal bit per row; a hidden label (z = 0) is stored
as 0, so nothing downstream can touch a label that the logging policy hid.
A dataset memoizes each row's seed for the group policy
(LabeledRows.row_seeds); a cut of it is a fresh dataset with its own memo.
The per-instance records (FeatureVector, Example, LoggedTriple) describe the
exact mode's finite pools; no learner builds them, since a run keeps its
queried and inferred labels in arrays. Example and LoggedTriple each store
two slots, x and y: a triple's reveal bit follows from y. A record is a
shared value, one per (vector, z, y): the vector owns its five records, made
on first use, and every constructor call returns one of them, so a draw of
any length holds at most five records per pool point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping

import numpy as np
import scipy.sparse

from .rng import child_seed, derive_rng

__all__ = [
    "FeatureVector",
    "Example",
    "LabelSource",
    "LoggedTriple",
    "DataSplit",
    "SyntheticSpec",
    "ParseError",
    "parse_sparse_dataset",
    "format_sparse_dataset",
    "generate_synthetic",
    "synthetic_separator",
    "split_dataset",
    "apply_logging",
    "row_keys",
    "LabeledRows",
    "RowTable",
    "SplitRows",
]


class ParseError(ValueError):
    """Malformed dataset text; carries the 1-based line number and the
    message without it."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number, self.message = line_number, message


class FeatureVector:
    """Immutable sparse feature map from 1-based index to float value.

    Zero-valued entries are dropped at construction, so two vectors that
    differ only in explicit zeros compare equal and hash alike. The vector
    owns its shared records (see records), and pickles by its items alone.
    """

    __slots__ = ("_items", "_records")

    def __init__(self, entries: Mapping[int, float] | Iterable[tuple[int, float]]):
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        seen: dict[int, float] = {}
        for index, value in pairs:
            if not isinstance(index, (int, np.integer)) or isinstance(index, bool):
                raise ValueError(f"feature index {index!r} is not an integer")
            idx = int(index)
            if idx < 1:
                raise ValueError(f"feature index {idx} is not positive")
            if idx in seen:
                raise ValueError(f"duplicate feature index {idx}")
            val = float(value)
            if not math.isfinite(val):
                raise ValueError(f"non-finite value {value!r} at index {idx}")
            if val != 0.0:
                seen[idx] = val
        self._items = tuple(sorted(seen.items()))
        self._records = None

    @property
    def items(self) -> tuple[tuple[int, float], ...]:
        return self._items

    @property
    def records(self) -> tuple:
        """The vector's five shared records, by cell: LoggedTriple(x, 0),
        LoggedTriple(x, 1, 0), LoggedTriple(x, 1, 1), Example(x, 0) and
        Example(x, 1). Made on first read and kept with the vector, so both
        are freed together; the record constructors return these objects."""
        records = self._records
        if records is None:
            records = self._records = (
                *(_new_record(LoggedTriple, self, y) for y in (None, 0, 1)),
                *(_new_record(Example, self, y) for y in (0, 1)),
            )
        return records

    def key(self) -> str:
        """Canonical text form, also used as the instance id in table policies."""
        return " ".join(f"{i}:{v!r}" for i, v in self._items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FeatureVector) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return f"FeatureVector({{{', '.join(f'{i}: {v}' for i, v in self._items)}}})"

    def __reduce__(self):
        return FeatureVector, (self._items,)


def _canonical_label(token: str, line_number: int) -> int:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_number, f"label {token!r} is not numeric") from None
    if value not in (-1.0, 0.0, 1.0):
        raise ParseError(line_number, f"label {token!r} is not in {{0,1}} or {{-1,+1}}")
    return 1 if value == 1.0 else 0


@dataclass(frozen=True, init=False)
class Example:
    """A fully labeled instance: the shared record x.records[3 + y], which
    every call with the same vector and label returns."""

    __slots__ = ("x", "y")
    x: FeatureVector
    y: int

    def __new__(cls, x: FeatureVector, y: int):
        if y not in (0, 1):
            raise ValueError(f"label {y!r} must be 0 or 1")
        return _records_of(x)[3 + int(y)]

    def __reduce__(self):
        return Example, (self.x, self.y)


class LabelSource(Enum):
    QUERIED = "queried"


@dataclass(frozen=True, init=False)
class LoggedTriple:
    """An instance with a reveal bit; the label exists only when z = 1.

    Only x and y are stored: the reveal bit z is 1 exactly when y is not
    None, a read-only property. The constructor still takes z, and the
    source of a revealed label (QUERIED, the labeler, or None), and checks
    both against y. It returns the shared record x.records[1 + y], whose
    label is the int that y equals, or x.records[0] for a hidden one. The
    learners build no records, so their inferred labels never appear here.
    """

    __slots__ = ("x", "y")
    x: FeatureVector
    y: int | None

    def __new__(cls, x: FeatureVector, z: int, y: int | None = None, label_source: LabelSource | None = None):
        if z not in (0, 1):
            raise ValueError(f"reveal bit {z!r} must be 0 or 1")
        if z == 1:
            if y not in (0, 1):
                raise ValueError("z = 1 record must carry a 0/1 label")
            if label_source is not None and label_source is not LabelSource.QUERIED:
                raise ValueError(f"label source {label_source!r} must be LabelSource.QUERIED or None")
            return _records_of(x)[1 + int(y)]
        if y is not None:
            raise ValueError("z = 0 record must not carry a label")
        if label_source is not None:
            raise ValueError("z = 0 record cannot have a label source")
        return _records_of(x)[0]

    @property
    def z(self) -> int:
        return 0 if self.y is None else 1

    def __reduce__(self):
        return LoggedTriple, (self.x, self.z, self.y)


def _records_of(x: FeatureVector) -> tuple:
    if not isinstance(x, FeatureVector):
        raise TypeError(f"x must be a FeatureVector, got {type(x).__name__}")
    # the slot first: the property call is only needed to make the records
    return x._records or x.records


def _new_record(cls: type, x: FeatureVector, y: int | None):
    # the frozen records' __setattr__ refuses every name, so the fields are
    # stored through the slot descriptors
    record = object.__new__(cls)
    cls.x.__set__(record, x)
    cls.y.__set__(record, y)
    return record


@dataclass(frozen=True)
class DataSplit:
    """Disjoint logged / online / test partition of a dataset, as arrays of
    row positions."""

    logged: np.ndarray
    online: np.ndarray
    test: np.ndarray


@dataclass(frozen=True)
class SyntheticSpec:
    """Uniform points on [-1, 1]^dim labeled by a random separator, then
    flipped independently with probability flip_prob."""

    count: int = 6000
    dim: int = 30
    flip_prob: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if not 0.0 <= self.flip_prob < 0.5:
            raise ValueError("flip_prob must be in [0, 0.5)")


def parse_sparse_dataset(text: str) -> LabeledRows:
    """Parse 'label index:value index:value ...' lines into rows.

    Labels may be {0,1} or {-1,+1} (mixed is fine); -1 maps to 0. Indices are
    1-based integers; duplicates, non-positive indices, and malformed tokens
    raise ParseError with the offending line number. Blank lines and lines
    starting with '#' are skipped. Both LF and CRLF line endings are accepted.
    Zero values (-0.0 included) are dropped and each row is stored in index
    order, so the matrix is as wide as the largest index with a non-zero
    value, plus the bias column.
    """
    labels: list[int] = []
    indptr, indices, values = [0], [], []
    for line_number, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r").strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        labels.append(_canonical_label(tokens[0], line_number))
        pairs: list[tuple[int, float]] = []
        seen: set[int] = set()
        for token in tokens[1:]:
            index_text, sep, value_text = token.partition(":")
            if not sep:
                raise ParseError(line_number, f"token {token!r} is not index:value")
            try:
                index = int(index_text)
            except ValueError:
                raise ParseError(line_number, f"index {index_text!r} is not an integer") from None
            if index < 1:
                raise ParseError(line_number, f"index {index} is not positive")
            if index in seen:
                raise ParseError(line_number, f"duplicate feature index {index}")
            seen.add(index)
            try:
                value = float(value_text)
            except ValueError:
                raise ParseError(line_number, f"value {value_text!r} is not numeric") from None
            if not math.isfinite(value):
                raise ParseError(line_number, f"non-finite value at index {index}")
            if value != 0.0:
                pairs.append((index, value))
        pairs.sort()
        indices += [0, *(i for i, _ in pairs)]
        values += [1.0, *(v for _, v in pairs)]
        indptr.append(len(indices))
    matrix = scipy.sparse.csr_array(
        (np.array(values, dtype=float), np.array(indices, dtype=np.intp), np.array(indptr, dtype=np.intp)),
        shape=(len(labels), 1 + max(indices, default=0)),
    )
    return LabeledRows(matrix, np.array(labels, dtype=np.int8))


def format_sparse_dataset(data: LabeledRows) -> str:
    """Inverse of parse_sparse_dataset; floats use repr for exact round-trips."""
    lines = [f"{y} {key}" if key else str(y) for y, key in zip(data.labels.tolist(), row_keys(data.matrix))]
    return "\n".join(lines) + ("\n" if lines else "")


def synthetic_separator(spec: SyntheticSpec) -> np.ndarray:
    """The label-generating weight vector for a spec (no bias term)."""
    rng = derive_rng(spec.seed, "synthetic", "separator")
    return rng.standard_normal(spec.dim)


def generate_synthetic(spec: SyntheticSpec) -> LabeledRows:
    """Draw the synthetic dataset described by spec. Deterministic in spec.seed."""
    weights = synthetic_separator(spec)
    points_rng = derive_rng(spec.seed, "synthetic", "points")
    flips_rng = derive_rng(spec.seed, "synthetic", "flips")
    points = points_rng.uniform(-1.0, 1.0, size=(spec.count, spec.dim))
    clean = (points @ weights >= 0.0).astype(np.int8)
    flips = flips_rng.random(spec.count) < spec.flip_prob
    labels = np.where(flips, 1 - clean, clean)
    # dense to CSR keeps the non-zeros of each row in column order
    return LabeledRows(scipy.sparse.csr_array(np.hstack((np.ones((spec.count, 1)), points))), labels)


def split_dataset(count: int, fractions: tuple[float, float], seed: int = 0) -> DataSplit:
    """Shuffle the positions 0..count-1 and cut them into test / logged /
    online parts.

    fractions = (test_frac, logged_frac): the test part takes
    floor(count * test_frac) positions, the logged part takes
    floor(remaining * logged_frac), and the online part takes the rest.
    """
    test_frac, logged_frac = fractions
    if not (0.0 < test_frac < 1.0 and 0.0 < logged_frac < 1.0):
        raise ValueError("fractions must lie strictly between 0 and 1")
    if count < 3:
        raise ValueError(f"need at least 3 examples to split, got {count}")
    order = derive_rng(seed, "split", "shuffle").permutation(count)
    n_test = int(count * test_frac)
    n_logged = int((count - n_test) * logged_frac)
    return DataSplit(
        logged=order[n_test : n_test + n_logged], online=order[n_test + n_logged :], test=order[:n_test]
    )


def apply_logging(q0: np.ndarray, seed: int = 0) -> np.ndarray:
    """Simulate the logging phase: reveal bit z = 1 with probability q0[i],
    one uniform draw per record in order."""
    rng = derive_rng(seed, "logging", "reveal")
    return (rng.random(len(q0)) < q0).astype(np.int8)


# Rows that row_keys turns into Python objects at a time
_KEY_BLOCK_ROWS = 256


def row_keys(rows: scipy.sparse.csr_array) -> Iterator[str]:
    """Each row's canonical text form, in row order: "index:value" over its
    features in index order, equal to FeatureVector.key() of the same
    instance, the bias (stored first in every row) left out. Made block by
    block, so at most _KEY_BLOCK_ROWS rows are Python objects at once."""
    for start in range(0, rows.shape[0], _KEY_BLOCK_ROWS):
        ptr = rows.indptr[start : start + _KEY_BLOCK_ROWS + 1]
        indices, values = rows.indices[ptr[0] : ptr[-1]].tolist(), rows.data[ptr[0] : ptr[-1]].tolist()
        bounds = (ptr - ptr[0]).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield " ".join(f"{indices[j]}:{values[j]!r}" for j in range(lo + 1, hi))


@dataclass(frozen=True)
class LabeledRows:
    """A dataset as one (N, dim+1) CSR matrix, with the constant 1 bias in
    column 0 and each row's features in index order, plus the 0/1 labels.
    Indexing with a slice or an index array cuts rows and labels alike into
    a fresh dataset, with a memo of its own (see row_seeds)."""

    matrix: scipy.sparse.csr_array
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_row_seeds", {})

    def __len__(self) -> int:
        return self.labels.size

    @property
    def dim(self) -> int:
        """Number of feature columns, the bias not counted."""
        return self.matrix.shape[1] - 1

    def __getitem__(self, index: slice | np.ndarray) -> "LabeledRows":
        return LabeledRows(self.matrix[index], self.labels[index])

    def row_seeds(self, seed: int) -> np.ndarray:
        """child_seed(seed, key) of each row's canonical key (see row_keys),
        as uint64. The first call for a seed hashes every row and keeps the
        read-only array, one uint64 per row, which later calls return, so
        rows must not be edited in place after a call."""
        seeds = self._row_seeds.get(seed)
        if seeds is None:
            seeds = self._row_seeds[seed] = np.fromiter(
                (child_seed(seed, key) for key in row_keys(self.matrix)), np.uint64, len(self)
            )
        # set on every read, since a pickled copy loads its memo writable
        seeds.flags.writeable = False
        return seeds


@dataclass(frozen=True)
class RowTable:
    """CSR rows as a gradient pass reads them, width columns wide: rows[i]
    is row i's pair (indices, values) of read-only memoryviews, one indices
    view per distinct pattern, or None for a row no pass reads. Indexing
    shares the row objects, so their ids tell one pass's rows apart."""

    rows: np.ndarray
    width: int

    @classmethod
    def from_csr(cls, matrix: scipy.sparse.csr_array, keep: np.ndarray | None = None) -> "RowTable":
        """Every row of matrix, or those where keep is nonzero; the views
        hold a copy of those rows alone."""
        kept = np.arange(matrix.shape[0]) if keep is None else np.flatnonzero(keep)
        part = matrix[kept]
        bounds, index_bytes = part.indptr.tolist(), part.indices.astype(np.int64).tobytes()
        values = memoryview(part.data.astype(np.float64).tobytes()).cast("d")
        patterns: dict[bytes, memoryview] = {}
        rows = np.full(matrix.shape[0], None, dtype=object)
        for r, lo, hi in zip(kept.tolist(), bounds, bounds[1:]):
            pattern = index_bytes[8 * lo : 8 * hi]
            rows[r] = (patterns.setdefault(pattern, memoryview(pattern).cast("q")), values[lo:hi])
        return cls(rows, matrix.shape[1])

    def __len__(self) -> int:
        return self.rows.size

    def __getitem__(self, index: slice | np.ndarray) -> "RowTable":
        return RowTable(self.rows[index], self.width)


@dataclass(frozen=True)
class SplitRows:
    """One split as the learners read it, as arrays: each record's logging
    propensity q0, reveal bit z and label y (0 wherever z = 0, so a hidden
    label is never stored), and the rows the hypothesis space reads. For a
    linear model, rows is a LabeledRows matrix, norms holds each row's
    squared norm 1 + sum v^2 and table the revealed rows' RowTable; for a
    finite class, rows holds pool positions. Indexing with a slice or an
    index array cuts every array alike, so split[:h] is the first h records
    and shares the table's row objects."""

    q0: np.ndarray
    z: np.ndarray
    y: np.ndarray
    rows: scipy.sparse.csr_array | np.ndarray
    norms: np.ndarray | None = None
    table: RowTable | None = None

    @classmethod
    def from_labeled(cls, data: LabeledRows, q0: np.ndarray, z: np.ndarray | None = None) -> "SplitRows":
        """Linear-model rows with their propensities q0 and reveal bits z
        (every label revealed when z is None)."""
        z = np.ones(len(data), dtype=np.int8) if z is None else z
        features = data.matrix[:, 1:]
        # a CSR product sums each row's squares in index order, as 1 + sum v^2 does
        norms = 1.0 + features.multiply(features) @ np.ones(features.shape[1])
        return cls(q0, z, data.labels * z, data.matrix, norms, RowTable.from_csr(data.matrix, z))

    def __len__(self) -> int:
        return self.q0.size

    def __getitem__(self, index: slice | np.ndarray) -> "SplitRows":
        norms = None if self.norms is None else self.norms[index]
        table = None if self.table is None else self.table[index]
        return SplitRows(self.q0[index], self.z[index], self.y[index], self.rows[index], norms, table)
