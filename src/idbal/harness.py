"""Benchmark protocol: paired repeats, horizon sweeps, grid search, AUC
scoring, and deterministic CSV reports.

For every repeat the dataset is freshly split and logged once, and every
algorithm and parameter point sees exactly the same split and the same
logging realization (paired comparison). Each horizon is a fresh run on the
first so-many online examples. Curves average queries and test error across
repeats at each horizon; a configuration's score is the area under its
(mean queries, mean error) curve, and each algorithm reports its best grid
point.
"""
from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse

from .data import (
    DataSplit,
    LabeledRows,
    SplitRows,
    SyntheticSpec,
    apply_logging,
    generate_synthetic,
    parse_sparse_dataset,
    row_keys,
    split_dataset,
)
from .hypotheses import LinearModel, classification_error, ogd_memo
from .learners import ALGORITHMS, AlgoConfig, RunResult
from .policies import (
    IdenticalPolicy,
    LoggingPolicy,
    MarginPolicy,
    UniformGroupsPolicy,
    calibrate_scale,
    fit_coarse_model,
    load_table_policy,
    policy_prob,
)
from .rng import child_seed

__all__ = [
    "DEFAULT_CAPACITY_GRID",
    "DEFAULT_ETA_GRID",
    "QUICK_CAPACITY_GRID",
    "QUICK_ETA_GRID",
    "PolicySpec",
    "DatasetSpec",
    "ExperimentConfig",
    "RunRecord",
    "CurvePoint",
    "ProtocolResult",
    "RepeatData",
    "build_policy",
    "load_dataset",
    "log_split",
    "prepare_repeat",
    "run_point",
    "horizon_schedule",
    "run_protocol",
    "auc",
    "aggregate_curves",
    "grid_order",
    "best_auc",
    "per_seed_best_auc",
    "pairwise_wins",
    "write_csv",
    "report",
    "records_to_json",
    "records_from_json",
    "parse_config_text",
    "CONFIG_TABLE",
    "CONFIG_KEYS",
    "config_values",
    "apply_overrides",
    "config_to_experiment",
]

DEFAULT_CAPACITY_GRID: tuple[float, ...] = tuple(0.01 * 2**k for k in range(0, 19, 2))
DEFAULT_ETA_GRID: tuple[float, ...] = tuple(0.0001 * 2**k for k in range(0, 19, 2))
QUICK_CAPACITY_GRID: tuple[float, ...] = tuple(0.01 * 2**k for k in (0, 6, 12, 18))
QUICK_ETA_GRID: tuple[float, ...] = tuple(0.0001 * 2**k for k in (0, 6, 12, 18))


@dataclass(frozen=True)
class PolicySpec:
    """Declarative logging-policy choice; margin policies are fitted and
    calibrated when the protocol materializes them."""

    name: str = "identical"
    p: float = 0.005
    p0: float = 0.005
    p1: float = 0.05
    p2: float = 0.5
    group_seed: int = 0
    scale: float | None = None
    calibration_target: float = 0.1
    table_path: str | None = None

    def __post_init__(self):
        if self.name not in ("identical", "uniform", "uncertainty", "certainty", "table"):
            raise ValueError(f"unknown policy {self.name!r}")


@dataclass(frozen=True)
class DatasetSpec:
    """Either a synthetic recipe or a path to a sparse text file."""

    name: str
    synthetic: SyntheticSpec | None = None
    path: str | None = None

    def __post_init__(self):
        if (self.synthetic is None) == (self.path is None):
            raise ValueError("exactly one of synthetic or path must be set")


@dataclass(frozen=True)
class ExperimentConfig:
    datasets: tuple[DatasetSpec, ...]
    policy: PolicySpec = field(default_factory=PolicySpec)
    algorithms: tuple[str, ...] = ("passive", "dbalw", "dbalwm", "idbal")
    repeats: int = 10
    horizon_base: int = 10
    horizon_growth: int = 2
    capacity_grid: tuple[float, ...] = DEFAULT_CAPACITY_GRID
    eta_grid: tuple[float, ...] = DEFAULT_ETA_GRID
    test_fraction: float = 0.2
    logged_fraction: float = 0.5
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not self.datasets:
            raise ValueError("at least one dataset is required")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}")
        if self.repeats < 1 or self.horizon_base < 1 or self.horizon_growth < 2:
            raise ValueError("repeats and horizon_base must be >= 1, growth >= 2")
        if not (self.algorithms and self.capacity_grid and self.eta_grid):
            raise ValueError("algorithms and parameter grids cannot be empty")
        bad = [value for value in self.capacity_grid + self.eta_grid if not 0.0 < value < math.inf]
        if bad:
            raise ValueError(f"capacity and eta grid values must be positive and finite, got {bad}")
        # a repeat would record one grid point twice
        names = tuple(spec.name for spec in self.datasets)
        for label, values in (("dataset names", names), ("algorithms", self.algorithms),
                              ("capacity_grid", self.capacity_grid), ("eta_grid", self.eta_grid)):
            if len(set(values)) < len(values):
                raise ValueError(f"{label} cannot repeat a value, got {list(values)}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class RunRecord:
    """One (algorithm, parameter, repeat, horizon) outcome."""

    dataset: str
    algorithm: str
    capacity: float | None
    eta: float
    repeat: int
    horizon_index: int
    horizon: int
    queries: int
    test_error: float
    data_digest: str


@dataclass(frozen=True)
class CurvePoint:
    horizon_index: int
    n_bar: float
    e_bar: float


@dataclass(frozen=True)
class BestChoice:
    capacity: float | None
    eta: float
    auc: float


@dataclass(frozen=True)
class ProtocolResult:
    records: tuple[RunRecord, ...]
    best: dict


def load_dataset(spec: DatasetSpec) -> LabeledRows:
    if spec.synthetic is not None:
        return generate_synthetic(spec.synthetic)
    return parse_sparse_dataset(Path(spec.path).read_text(encoding="utf-8"))


def build_policy(
    spec: PolicySpec,
    data: LabeledRows,
    dataset_name: str,
    master_seed: int,
    calibration_rows: scipy.sparse.csr_array,
) -> LoggingPolicy:
    """Materialize a policy spec. Margin policies fit their coarse model on a
    seeded slice of the dataset and, unless a scale was given, calibrate it so
    the mean reveal probability over calibration_rows hits the target."""
    if spec.name == "identical":
        return IdenticalPolicy(spec.p)
    if spec.name == "uniform":
        return UniformGroupsPolicy(spec.p0, spec.p1, spec.p2, spec.group_seed)
    if spec.name == "table":
        if spec.table_path is None:
            raise ValueError("table policy needs table_path")
        return load_table_policy(Path(spec.table_path).read_text(encoding="utf-8"))
    coarse = fit_coarse_model(data, seed=child_seed(master_seed, dataset_name, "policy"))
    if spec.scale is not None:
        scale = spec.scale
    else:
        scale = calibrate_scale(spec.name, coarse, calibration_rows, spec.calibration_target)
    return MarginPolicy(spec.name, scale, coarse)


def horizon_schedule(base: int, growth: int, online_size: int) -> list[int]:
    """base * growth^i for i = 0, 1, ... while the horizon fits the stream."""
    if base < 1:
        raise ValueError(f"horizon base must be at least 1, got {base}")
    if growth < 2:
        raise ValueError(f"horizon growth must be at least 2, got {growth}")
    if base > online_size:
        raise ValueError(f"smallest horizon {base} exceeds the online split ({online_size})")
    horizons = []
    h = base
    while h <= online_size:
        horizons.append(h)
        h *= growth
    return horizons


@dataclass(frozen=True)
class RepeatData:
    """What every run of one repeat reads: the logging policy, the logged
    and online splits with their propensities, reveal bits and norms, and
    the test rows."""

    policy: LoggingPolicy
    logged: SplitRows
    online: SplitRows
    test: LabeledRows


def log_split(data: LabeledRows, split: DataSplit, policy: LoggingPolicy, seed: int) -> RepeatData:
    """Score the split's logged and online rows under the policy, draw the
    logged part's reveal bits with the given seed, and cut the test rows."""
    logged, online = data[split.logged], data[split.online]
    q0 = policy_prob(policy, logged.matrix)
    return RepeatData(
        policy,
        SplitRows.from_labeled(logged, q0, apply_logging(q0, seed)),
        SplitRows.from_labeled(online, policy_prob(policy, online.matrix)),
        data[split.test],
    )


def prepare_repeat(
    data: LabeledRows,
    spec: PolicySpec,
    dataset_name: str,
    master_seed: int,
    repeat: int,
    fractions: tuple[float, float],
) -> RepeatData:
    """Split, build the policy (calibrated on the logged rows) and log one
    repeat of a dataset; seeds derive from (master_seed, dataset_name,
    repeat), so every algorithm and grid point sees the same data."""
    split = split_dataset(len(data), fractions, seed=child_seed(master_seed, dataset_name, repeat, "split"))
    policy = build_policy(spec, data, dataset_name, master_seed, data.matrix[split.logged])
    prepared = log_split(data, split, policy, child_seed(master_seed, dataset_name, repeat, "logging"))
    if len(prepared.test) == 0:
        raise ValueError("the test split is empty: raise split.test_fraction or data.count")
    return prepared


def _data_digest(prepared: RepeatData) -> str:
    digest = hashlib.blake2b(digest_size=6)
    digest.update(f"{len(prepared.test)},{len(prepared.logged)},{len(prepared.online)};".encode())
    digest.update(prepared.logged.z.tobytes())
    for rows in (prepared.test.matrix[:3], prepared.online.rows[:3]):
        for key in row_keys(rows):
            digest.update(key.encode("utf-8"))
            digest.update(b"|")
    return digest.hexdigest()


def run_point(prepared: RepeatData, algorithm: str, capacity: float | None, eta: float, horizon: int) -> RunResult:
    """One practical run of algorithm at grid point (capacity, eta) on the
    first horizon online records of a prepared repeat, from a zero model as
    wide as the repeat's rows. The run does not score itself: callers score
    the classifiers it returns on prepared.test. Passive's capacity is None
    and runs at the default C, which it never reads. The runner is looked up
    in ALGORITHMS at call time."""
    run_cfg = AlgoConfig(eta=eta) if capacity is None else AlgoConfig(capacity=capacity, eta=eta)
    return ALGORITHMS[algorithm](
        prepared.logged, prepared.online[:horizon], prepared.policy, LinearModel.zeros(prepared.test.dim), run_cfg
    )


def _run_repeat(cfg: ExperimentConfig, spec: DatasetSpec, data: LabeledRows, repeat: int) -> list[RunRecord]:
    """Every run of one repeat, eta outermost: each eta's runs share one
    ogd_memo() block, so a gradient pass that recurs across algorithms, C
    and horizons (the same warm start, for one) is trained once. Each run's
    final classifier is scored on the test rows once. Records come back in
    (algorithm, C, eta, horizon) grid order."""
    prepared = prepare_repeat(
        data, cfg.policy, spec.name, cfg.master_seed, repeat, (cfg.test_fraction, cfg.logged_fraction)
    )
    digest = _data_digest(prepared)
    horizons = horizon_schedule(cfg.horizon_base, cfg.horizon_growth, len(prepared.online))
    outcomes: dict[tuple[int, int, int, int], RunRecord] = {}
    for e, eta in enumerate(cfg.eta_grid):
        with ogd_memo():
            for a, algorithm in enumerate(cfg.algorithms):
                capacities = (None,) if algorithm == "passive" else cfg.capacity_grid
                for c, capacity in enumerate(capacities):
                    for index, horizon in enumerate(horizons):
                        result = run_point(prepared, algorithm, capacity, eta, horizon)
                        outcomes[a, c, e, index] = RunRecord(
                            dataset=spec.name,
                            algorithm=algorithm,
                            capacity=capacity,
                            eta=eta,
                            repeat=repeat,
                            horizon_index=index,
                            horizon=horizon,
                            queries=result.query_count,
                            test_error=classification_error(result.final_classifier, prepared.test),
                            data_digest=digest,
                        )
    return [outcomes[key] for key in sorted(outcomes)]


def run_protocol(cfg: ExperimentConfig) -> ProtocolResult:
    """Execute the full paired protocol and aggregate curves, AUCs, and the
    per-algorithm best grid points. Deterministic in cfg.master_seed
    regardless of worker count."""
    tasks = []
    for spec in cfg.datasets:
        data = load_dataset(spec)
        tasks.extend((cfg, spec, data, repeat) for repeat in range(cfg.repeats))
    # a pool starts all its processes at once: never more than there are tasks
    workers = min(cfg.workers, len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_repeat, *zip(*tasks)))
    else:
        chunks = [_run_repeat(*task) for task in tasks]
    return rebuild_result(record for chunk in chunks for record in chunk)


def aggregate_curves(records: Iterable[RunRecord]) -> dict:
    """Mean (queries, test error) per horizon across repeats, keyed by
    (dataset, algorithm, capacity, eta), points ordered by mean queries."""
    groups: dict[tuple, dict[int, list[RunRecord]]] = {}
    for record in records:
        key = (record.dataset, record.algorithm, record.capacity, record.eta)
        groups.setdefault(key, {}).setdefault(record.horizon_index, []).append(record)
    curves: dict[tuple, tuple[CurvePoint, ...]] = {}
    for key, by_horizon in groups.items():
        points = []
        for horizon_index in sorted(by_horizon):
            rows = by_horizon[horizon_index]
            n_bar = float(np.mean([r.queries for r in rows]))
            e_bar = float(np.mean([r.test_error for r in rows]))
            points.append(CurvePoint(horizon_index, n_bar, e_bar))
        points.sort(key=lambda p: (p.n_bar, p.horizon_index))
        curves[key] = tuple(points)
    return curves


def auc(points: Sequence[CurvePoint]) -> float:
    """Trapezoid area under the (mean queries, mean error) curve.

    Points must come sorted by n_bar; a narrower-than-previous point is a
    contract violation, not something to silently reorder here.
    """
    total = 0.0
    for left, right in zip(points, points[1:]):
        width = right.n_bar - left.n_bar
        if width < 0.0:
            raise ValueError("curve points must be sorted by mean queries")
        total += 0.5 * (left.e_bar + right.e_bar) * width
    return total


def grid_order(capacity: float | None, eta: float) -> tuple[float, float]:
    """Sort key of a grid point: passive's None capacity first, then C,
    then eta. Best-point ties and report rows both follow it."""
    return (-math.inf if capacity is None else capacity, eta)


def best_auc(aucs: dict, dataset: str, algorithm: str) -> BestChoice:
    """Smallest AUC over the grid; ties break toward the first grid point
    in grid_order."""
    keys = [key for key in aucs if key[:2] == (dataset, algorithm)]
    if not keys:
        raise ValueError(f"no runs recorded for {dataset}/{algorithm}")
    best = min(keys, key=lambda key: (aucs[key], grid_order(key[2], key[3])))
    return BestChoice(capacity=best[2], eta=best[3], auc=aucs[best])


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return format(float(value), ".6g")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> Path:
    """Write a header and rows of preformatted cells as UTF-8 lines ending
    in LF, making the parent directory. A cell holding a comma, a double
    quote or a line break is quoted, as RFC 4180 does."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def report(result: ProtocolResult, out_dir: str | Path) -> dict[str, Path]:
    """Write summary.csv (best grid point per dataset and algorithm),
    curves.csv (every raw run) and pairwise.csv (paired win rates). UTF-8,
    LF, 6 significant digits; re-running the same protocol writes
    byte-identical files."""
    out = Path(out_dir)
    ordered = sorted(
        result.records,
        key=lambda r: (r.dataset, r.algorithm, *grid_order(r.capacity, r.eta), r.repeat, r.horizon_index),
    )
    pairwise = (
        (dataset, a, b, wins, total, _fmt(wins / total))
        for dataset in sorted({r.dataset for r in result.records})
        for (a, b), (wins, total) in sorted(pairwise_wins(result.records, dataset).items())
    )
    return {
        "summary": write_csv(
            out / "summary.csv",
            ("dataset", "algorithm", "best_auc", "best_C", "best_eta"),
            ((d, a, _fmt(c.auc), _fmt(c.capacity), _fmt(c.eta)) for (d, a), c in sorted(result.best.items())),
        ),
        "curves": write_csv(
            out / "curves.csv",
            ("dataset", "algorithm", "repeat", "horizon", "queries", "test_error"),
            ((r.dataset, r.algorithm, r.repeat, r.horizon, r.queries, _fmt(r.test_error)) for r in ordered),
        ),
        "pairwise": write_csv(
            out / "pairwise.csv",
            ("dataset", "algorithm_a", "algorithm_b", "wins_a", "repeats", "fraction"),
            pairwise,
        ),
    }


def per_seed_best_auc(records: Iterable[RunRecord], dataset: str, algorithm: str) -> dict[int, float]:
    """For each repeat: the best area over the grid, scored by
    rebuild_result on that repeat's records alone, so each curve is the
    repeat's own (queries, test_error) points. This is the paired quantity:
    two algorithms' values at the same repeat index saw the same split and
    logging realization.
    """
    mine = [r for r in records if r.dataset == dataset and r.algorithm == algorithm]
    return {
        repeat: rebuild_result(r for r in mine if r.repeat == repeat).best[dataset, algorithm].auc
        for repeat in dict.fromkeys(r.repeat for r in mine)
    }


def pairwise_wins(records: Iterable[RunRecord], dataset: str) -> dict[tuple[str, str], tuple[int, int]]:
    """(wins, repeats) for every ordered algorithm pair: how often A's
    per-seed best area is strictly below B's on the shared repeat."""
    records = [r for r in records if r.dataset == dataset]
    algorithms = sorted({r.algorithm for r in records})
    per_algo = {a: per_seed_best_auc(records, dataset, a) for a in algorithms}
    out: dict[tuple[str, str], tuple[int, int]] = {}
    for a, b in itertools.permutations(algorithms, 2):
        shared = set(per_algo[a]) & set(per_algo[b])
        if shared:
            out[a, b] = (sum(per_algo[a][k] < per_algo[b][k] for k in shared), len(shared))
    return out


def records_to_json(records: Iterable[RunRecord]) -> str:
    return json.dumps([asdict(r) for r in records], indent=0, sort_keys=True)


def records_from_json(text: str) -> tuple[RunRecord, ...]:
    """Records from records_to_json's text; a row that is not an object,
    that misses or adds a field, whose field holds a value of the wrong
    type, a negative count, more queries than its horizon, a test error
    outside [0, 1] (NaN included), an algorithm not in ALGORITHMS, an eta
    that is not positive and finite, a capacity that is set for passive or
    otherwise not positive and finite, or the grid point and horizon of an
    earlier row, is a ValueError naming its 1-based row (and the field)."""
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError("records must be a JSON list of objects")
    names = [f.name for f in fields(RunRecord)]
    # the JSON values each RunRecord annotation accepts; a bool is never one
    kinds = {"str": (str,), "int": (int,), "float": (int, float), "float | None": (int, float, type(None))}
    seen: dict[tuple, int] = {}  # row number by (dataset, ..., horizon_index)
    for number, row in enumerate(rows, start=1):
        if not isinstance(row, dict):
            raise ValueError(f"row {number}: not a JSON object")
        missing = [name for name in names if name not in row]
        unknown = [key for key in row if key not in names]
        if missing or unknown:
            raise ValueError(f"row {number}: missing fields {missing}, unknown fields {unknown}")
        for f in fields(RunRecord):
            value = row[f.name]
            if isinstance(value, bool) or not isinstance(value, kinds[f.type]):
                raise ValueError(f"row {number}: {f.name} must be {f.type}, got {value!r}")
            if f.type == "int" and value < 0:
                raise ValueError(f"row {number}: {f.name} must be non-negative, got {value!r}")
        if row["queries"] > row["horizon"]:
            raise ValueError(f"row {number}: queries must be at most horizon {row['horizon']}, got {row['queries']}")
        if not 0.0 <= row["test_error"] <= 1.0:
            raise ValueError(f"row {number}: test_error must lie in [0, 1], got {row['test_error']!r}")
        if row["algorithm"] not in ALGORITHMS:
            raise ValueError(f"row {number}: algorithm must be one of {sorted(ALGORITHMS)}, got {row['algorithm']!r}")
        if not 0.0 < row["eta"] < math.inf:
            raise ValueError(f"row {number}: eta must be positive and finite, got {row['eta']!r}")
        if row["algorithm"] == "passive":
            if row["capacity"] is not None:
                raise ValueError(f"row {number}: capacity must be null for passive, got {row['capacity']!r}")
        elif row["capacity"] is None or not 0.0 < row["capacity"] < math.inf:
            raise ValueError(f"row {number}: capacity must be positive and finite, got {row['capacity']!r}")
        key = tuple(row[name] for name in ("dataset", "algorithm", "capacity", "eta", "repeat", "horizon_index"))
        if seen.setdefault(key, number) != number:
            raise ValueError(f"row {number}: repeats row {seen[key]}'s grid point {key}")
    return tuple(RunRecord(**row) for row in rows)


def rebuild_result(records: Iterable[RunRecord]) -> ProtocolResult:
    """Recompute each grid point's curve and AUC from raw records, and
    keep each (dataset, algorithm)'s best choice."""
    records_tuple = tuple(records)
    aucs = {key: auc(points) for key, points in aggregate_curves(records_tuple).items()}
    best = {}
    for dataset, algorithm in sorted({(r.dataset, r.algorithm) for r in records_tuple}):
        best[(dataset, algorithm)] = best_auc(aucs, dataset, algorithm)
    return ProtocolResult(records=records_tuple, best=best)


# --- flat key = value configuration ---------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    """Flat 'key = value' lines; '#' comments and blank lines ignored."""
    out: dict[str, str] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line {line_number}: expected 'key = value'")
        out[key.strip()] = value.strip()
    return out


def _comma_list(parse):
    return lambda text: tuple(parse(tok.strip()) for tok in text.split(",") if tok.strip())


# Every config key: what it configures, the field or argument it sets there,
# and how its text is parsed. The targets are SyntheticSpec ("synthetic"),
# _main_dataset ("dataset"), PolicySpec, ExperimentConfig, AlgoConfig,
# run_verification_suite ("verify"), the output directory, and "run" for the
# keys only `idbal run` reads. Each default lives on that field or argument
# (in `idbal run` for its own keys).
CONFIG_TABLE: dict[str, tuple[str, str, Callable[[str], object]]] = {
    "data.source": ("dataset", "source", str),
    "data.path": ("dataset", "path", str),
    "data.count": ("synthetic", "count", int),
    "data.dim": ("synthetic", "dim", int),
    "data.flip_prob": ("synthetic", "flip_prob", float),
    "data.seed": ("synthetic", "seed", int),
    "policy.name": ("policy", "name", str),
    "policy.p": ("policy", "p", float),
    "policy.p0": ("policy", "p0", float),
    "policy.p1": ("policy", "p1", float),
    "policy.p2": ("policy", "p2", float),
    "policy.group_seed": ("policy", "group_seed", int),
    "policy.scale": ("policy", "scale", lambda text: float(text) if text else None),
    "policy.target": ("policy", "calibration_target", float),
    "policy.table": ("policy", "table_path", lambda text: text or None),
    "split.test_fraction": ("experiment", "test_fraction", float),
    "split.logged_fraction": ("experiment", "logged_fraction", float),
    "repeats": ("experiment", "repeats", int),
    "sweep.algorithms": ("experiment", "algorithms", _comma_list(str)),
    "sweep.capacity_grid": ("experiment", "capacity_grid", _comma_list(float)),
    "sweep.eta_grid": ("experiment", "eta_grid", _comma_list(float)),
    "sweep.horizon_base": ("experiment", "horizon_base", int),
    "sweep.horizon_growth": ("experiment", "horizon_growth", int),
    "seed": ("experiment", "master_seed", int),
    "workers": ("experiment", "workers", int),
    "algo.capacity": ("algo", "capacity", float),
    "algo.eta": ("algo", "eta", float),
    "algo.name": ("run", "algorithm", str),
    "horizon": ("run", "horizon", int),
    "repeat": ("run", "repeat", int),
    "verify.fixtures": ("verify", "fixtures", int),
    "out": ("output", "out", Path),
}
CONFIG_KEYS = frozenset(CONFIG_TABLE)


def config_values(config: dict[str, str], target: str) -> dict[str, object]:
    """The parsed values config sets for one target of CONFIG_TABLE, keyed
    by the field or argument they set. Absent keys are left out, so each
    keeps the default of its field. A value that does not parse is a
    ValueError that names its key."""
    values = {}
    for key, (owner, name, parse) in CONFIG_TABLE.items():
        if owner == target and key in config:
            try:
                values[name] = parse(config[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    return values


def apply_overrides(config: dict[str, str], pairs: Sequence[str]) -> dict[str, str]:
    """Overlay '--key value' pairs from the command line onto a config dict;
    a key outside CONFIG_KEYS, from either source, is an error."""
    merged = dict(config)
    if len(pairs) % 2 != 0:
        raise ValueError("overrides must come in '--key value' pairs")
    for flag, value in zip(pairs[::2], pairs[1::2]):
        if not flag.startswith("--"):
            raise ValueError(f"expected '--key', got {flag!r}")
        merged[flag[2:]] = value
    unknown = sorted(set(merged) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
    return merged


def _main_dataset(synthetic: dict, source: str = "synthetic", path: str | None = None) -> DatasetSpec:
    """The dataset the data.* keys describe: synthetic data with the given
    SyntheticSpec fields, or the text file at path when source is 'file'."""
    if source == "synthetic":
        return DatasetSpec(name="synthetic", synthetic=SyntheticSpec(**synthetic))
    if source != "file":
        raise ValueError(f"unknown data.source {source!r}; choose 'synthetic' or 'file'")
    if not path:
        raise ValueError("data.source = file needs data.path")
    return DatasetSpec(name=Path(path).stem, path=path)


def config_to_experiment(config: dict[str, str], quick: bool = False) -> ExperimentConfig:
    """Build the sweep configuration from a flat config dict. quick adds two
    small companion datasets and shrinks the defaults of repeats and both
    grids; keys the config sets still win."""
    datasets = (_main_dataset(config_values(config, "synthetic"), **config_values(config, "dataset")),)
    shrunk = {}
    if quick:
        datasets += (
            DatasetSpec(name="synthetic-small", synthetic=SyntheticSpec(1500, 10, 0.1, seed=1)),
            DatasetSpec(name="synthetic-tiny", synthetic=SyntheticSpec(1000, 5, 0.1, seed=2)),
        )
        shrunk = {"repeats": 5, "capacity_grid": QUICK_CAPACITY_GRID, "eta_grid": QUICK_ETA_GRID}
    return ExperimentConfig(
        datasets=datasets,
        policy=PolicySpec(**config_values(config, "policy")),
        **(shrunk | config_values(config, "experiment")),
    )
