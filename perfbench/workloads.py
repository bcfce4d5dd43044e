"""The benchmark's three workloads and the checks on their outputs.

Each workload has three steps. `prepare` writes any input file the program
reads (untimed; it is the benchmark generating inputs), `load` builds the
program's in-memory input (timed as set-up), and `run` is one unit of
measured work from loaded input to complete result, returned together with
the output checks' verdict. Everything runs serially in this process with
`workers = 1`, as a closed loop: a learner run starts when the previous one
has returned.

* sweep-dense: one paired repeat of the `test_10` acceptance config through
  `harness.run_protocol`. Test-error evaluation dominates it.
* sweep-sparse: a seeded LIBSVM file read through `data.source = file` with a
  calibrated `uncertainty` margin policy and all four learners. It stresses
  parsing, policy fitting and calibration, the margin policy and the region
  mask on a wide matrix.
* exact-oracle: exact mode on seeded discrete worlds, then the Monte Carlo
  verification suite. No test data, so the test-error layer is bypassed.
"""
from __future__ import annotations

import hashlib
import math
import statistics
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import idbal.harness as harness
import idbal.learners as learners
import idbal.oracle as oracle
from idbal.learners import AlgoConfig

from inputs import exact_world, sparse_libsvm_text

ALL_ALGORITHMS = ("passive", "dbalw", "dbalwm", "idbal")
# The verification suite is a fixed self-test, run at `idbal verify`'s default
# seed. Its 4-sigma unbiasedness checks have a small false-alarm rate per
# seed (one of 63 checks failed on 1 of 30 seeds tried), so tying it to the
# workload seed would make some seeds fail without any defect.
ORACLE_SEED = 0

# Workload sizes. "tiny" exists for the benchmark's own smoke test.
SIZES = {
    "full": {
        "sweep-dense": {"count": 6000, "dim": 30, "grid": harness.QUICK_CAPACITY_GRID, "etas": harness.QUICK_ETA_GRID},
        "sweep-sparse": {"rows": 3400, "dim": 1000, "nnz": 20, "grid": (0.64, 40.96), "etas": (0.0064, 0.4096),
                         "repeats": 2},
        "exact-oracle": {"worlds": 200, "pool": 8, "members": 64, "logged": 4000, "online": 255,
                         "fixtures": 20, "trials": 20000},
    },
    "tiny": {
        "sweep-dense": {"count": 400, "dim": 5, "grid": (0.64,), "etas": (0.0064,)},
        "sweep-sparse": {"rows": 400, "dim": 50, "nnz": 5, "grid": (0.64,), "etas": (0.0064,), "repeats": 1},
        "exact-oracle": {"worlds": 2, "pool": 4, "members": 8, "logged": 200, "online": 15,
                         "fixtures": 1, "trials": 200},
    },
}


@dataclass(frozen=True)
class LearnerRun:
    """One learner call as the benchmark saw it."""

    algorithm: str
    online: int
    start: float
    end: float
    queries: int
    inferred: int
    skipped: int
    diverged: bool


@dataclass
class UnitResult:
    """One unit of measured work (perf_counter start and end) and the
    verdict of its output checks."""

    start: float
    end: float
    runs: list[LearnerRun]
    final_error: float
    attempted: int
    failed: int
    problems: list[str]
    digest: str
    numeric_warnings: int
    report_bytes: int = 0
    oracle_checks: int = 0
    oracle_failed: int = 0
    info: dict[str, float] = field(default_factory=dict)


# Final weights beyond this magnitude count as diverged. Features lie in
# [-1, 1] and targets in {-1, +1}, so no sane linear model here needs them;
# the known divergence of the plain importance-weighted step (ROADMAP item 2)
# reaches 1e306 long before it overflows to inf.
DIVERGED_WEIGHT = 1e6


def _diverged(classifier) -> bool:
    weights = getattr(classifier, "weights", None)
    return weights is not None and not bool((np.abs(weights) <= DIVERGED_WEIGHT).all())


@contextmanager
def timed_learners(log: list[LearnerRun]):
    """Time every call made through the `ALGORITHMS` tables of `harness` and
    `learners` and log what it returned. The tables are looked up per call,
    so whatever sits there (a traced copy included) is what gets timed."""
    saved = harness.ALGORITHMS, learners.ALGORITHMS

    def timed(name, fn):
        def run(logged, online, *args, **kwargs):
            start = time.perf_counter()
            result = fn(logged, online, *args, **kwargs)
            end = time.perf_counter()
            log.append(LearnerRun(
                name, len(online), start, end, result.query_count, result.inferred_count,
                result.skipped_count, _diverged(result.final_classifier),
            ))
            return result
        return run

    table = {name: timed(name, fn) for name, fn in learners.ALGORITHMS.items()}
    harness.ALGORITHMS = learners.ALGORITHMS = table
    try:
        yield
    finally:
        harness.ALGORITHMS, learners.ALGORITHMS = saved


@contextmanager
def counted_warnings(counter: list[int]):
    """Collect warnings instead of printing them; counter[0] gets the number
    of RuntimeWarnings, each distinct (message, location) counted once, as
    the interpreter's default filter would show them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            yield
        finally:
            counter[0] = sum(1 for w in caught if issubclass(w.category, RuntimeWarning))


@contextmanager
def preloaded(loaded: dict):
    """Serve `harness.load_dataset` from the set-up's loaded data, so the
    measured unit starts from loaded input."""
    saved = harness.load_dataset
    harness.load_dataset = lambda spec: loaded[spec]
    try:
        yield
    finally:
        harness.load_dataset = saved


def online_size(count: int, test_fraction: float, logged_fraction: float) -> int:
    n_test = int(count * test_fraction)
    return count - n_test - int((count - n_test) * logged_fraction)


def check_sweep(records, cfg, sizes: dict[str, int]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for a sweep's records. Every expected
    (dataset, algorithm, grid point, repeat, horizon) must appear once;
    0 <= queries <= horizon, passive queries == horizon, test error in
    [0, 1]; every record of a repeat carries the repeat's majority data
    digest. Missing records count as failed."""
    expected: set[tuple] = set()
    horizons: dict[str, list[int]] = {}
    for spec in cfg.datasets:
        online = online_size(sizes[spec.name], cfg.test_fraction, cfg.logged_fraction)
        h, schedule = cfg.horizon_base, []
        while h <= online:
            schedule.append(h)
            h *= cfg.horizon_growth
        horizons[spec.name] = schedule
        for algorithm in cfg.algorithms:
            caps = (None,) if algorithm == "passive" else cfg.capacity_grid
            for cap in caps:
                for eta in cfg.eta_grid:
                    for repeat in range(cfg.repeats):
                        for index in range(len(schedule)):
                            expected.add((spec.name, algorithm, cap, eta, repeat, index))
    problems: list[str] = []
    seen: set[tuple] = set()
    votes = Counter((r.dataset, r.repeat, r.data_digest) for r in records)
    digests = {(d, rep): digest for (d, rep, digest), _ in sorted(votes.items(), key=lambda kv: kv[1])}
    bad = 0
    for r in records:
        key = (r.dataset, r.algorithm, r.capacity, r.eta, r.repeat, r.horizon_index)
        faults = []
        if key not in expected or key in seen:
            faults.append("unexpected or duplicate record")
        elif r.horizon != horizons[r.dataset][r.horizon_index]:
            faults.append(f"horizon {r.horizon} at index {r.horizon_index}")
        seen.add(key)
        if not 0 <= r.queries <= r.horizon:
            faults.append(f"queries {r.queries} outside [0, {r.horizon}]")
        if r.algorithm == "passive" and r.queries != r.horizon:
            faults.append(f"passive queries {r.queries} != horizon {r.horizon}")
        if not (math.isfinite(r.test_error) and 0.0 <= r.test_error <= 1.0):
            faults.append(f"test error {r.test_error} outside [0, 1]")
        if digests[(r.dataset, r.repeat)] != r.data_digest:
            faults.append("data digest differs from the rest of the repeat")
        if faults:
            bad += 1
            problems.append(f"{key}: {'; '.join(faults)}")
    missing = len(expected - seen)
    if missing:
        problems.append(f"{missing} expected records missing")
    return len(expected) + len(seen - expected), bad + missing, problems


class SweepWorkload:
    """A paired sweep described by flat config keys, exactly as `idbal sweep`
    would read them."""

    def __init__(self, seed: int, config: dict[str, str], out_dir: Path):
        self.seed = seed
        self.config = config
        self.out_dir = out_dir
        self.cfg = None

    def prepare(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.cfg = harness.config_to_experiment(self.config)

    def load(self) -> dict:
        return {spec: harness.load_dataset(spec) for spec in self.cfg.datasets}

    def run(self, loaded: dict) -> UnitResult:
        log: list[LearnerRun] = []
        numeric = [0]
        report_dir = self.out_dir / "report"
        with preloaded(loaded), timed_learners(log), counted_warnings(numeric):
            start = time.perf_counter()
            result = harness.run_protocol(self.cfg)
            paths = dict(harness.report(result, report_dir))
            paths["records"] = report_dir / "records.json"
            paths["records"].write_text(harness.records_to_json(result.records), encoding="utf-8")
            end = time.perf_counter()
        sizes = {spec.name: len(data) for spec, data in loaded.items()}
        attempted, failed, problems = check_sweep(result.records, self.cfg, sizes)
        last: dict[str, int] = {}
        for r in result.records:
            last[r.dataset] = max(last.get(r.dataset, 0), r.horizon)
        finals = [r.test_error for r in result.records if r.horizon == last[r.dataset]]
        return UnitResult(
            start=start,
            end=end,
            runs=log,
            final_error=statistics.median(finals) if finals else math.nan,
            attempted=attempted,
            failed=failed,
            problems=problems,
            digest=hashlib.blake2b(paths["curves"].read_bytes(), digest_size=8).hexdigest(),
            numeric_warnings=numeric[0],
            report_bytes=sum(p.stat().st_size for p in paths.values()),
        )


def sweep_dense(seed: int, size: dict, out_dir: Path) -> SweepWorkload:
    """ROADMAP unit (a): the `test_10` config (6000x30, 10% noise, uniform
    groups 0.005/0.05/0.5, passive + idbal, 4x4 quick grid), one repeat."""
    config = {
        "data.source": "synthetic",
        "data.count": str(size["count"]),
        "data.dim": str(size["dim"]),
        "data.flip_prob": "0.1",
        "data.seed": str(seed),
        "policy.name": "uniform",
        "policy.p0": "0.005",
        "policy.p1": "0.05",
        "policy.p2": "0.5",
        "policy.group_seed": str(seed),
        "sweep.algorithms": "passive,idbal",
        "sweep.capacity_grid": ",".join(repr(c) for c in size["grid"]),
        "sweep.eta_grid": ",".join(repr(e) for e in size["etas"]),
        "repeats": "1",
        "seed": str(seed),
        "workers": "1",
    }
    return SweepWorkload(seed, config, out_dir)


class SparseSweep(SweepWorkload):
    def __init__(self, seed: int, size: dict, out_dir: Path):
        self.size = size
        self.data_path = out_dir / "sparse.txt"
        config = {
            "data.source": "file",
            "data.path": str(self.data_path),
            "policy.name": "uncertainty",
            "policy.target": "0.1",
            "sweep.algorithms": ",".join(ALL_ALGORITHMS),
            "sweep.capacity_grid": ",".join(repr(c) for c in size["grid"]),
            "sweep.eta_grid": ",".join(repr(e) for e in size["etas"]),
            "repeats": str(size["repeats"]),
            "seed": str(seed),
            "workers": "1",
        }
        super().__init__(seed, config, out_dir)

    def prepare(self) -> None:
        super().prepare()
        text = sparse_libsvm_text(self.seed, self.size["rows"], self.size["dim"], self.size["nnz"], 0.1)
        self.data_path.write_text(text, encoding="utf-8")


class ExactOracle:
    """Exact mode by all four learners on seeded worlds, then the oracle's
    verification suite at ORACLE_SEED."""

    def __init__(self, seed: int, size: dict, out_dir: Path):
        self.seed = seed
        self.size = size
        self.out_dir = out_dir

    def prepare(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def load(self) -> list:
        s = self.size
        return [
            exact_world(self.seed, i, s["pool"], s["members"], s["logged"], s["online"])
            for i in range(s["worlds"])
        ]

    def run(self, worlds: list) -> UnitResult:
        cfg = AlgoConfig(mode="exact")
        log: list[LearnerRun] = []
        numeric = [0]
        outcomes: list[tuple] = []
        with timed_learners(log), counted_warnings(numeric):
            start = time.perf_counter()
            for index, world in enumerate(worlds):
                for algorithm in ALL_ALGORITHMS:
                    try:
                        result = learners.ALGORITHMS[algorithm](
                            world.logged, world.online, world.policy, world.instance.classifiers, cfg, index
                        )
                    except Exception as exc:  # a raising run counts as failed; the rest still run
                        outcomes.append((index, algorithm, None, repr(exc)))
                    else:
                        outcomes.append((index, algorithm, result, ""))
            rows = oracle.run_verification_suite(ORACLE_SEED, fixtures=self.size["fixtures"], trials=self.size["trials"])
            end = time.perf_counter()

        problems: list[str] = []
        final: list[float] = []
        excess: list[float] = []
        lines: list[str] = []
        for index, algorithm, result, error in outcomes:
            faults = [error] if error else []
            if result is not None:
                world = worlds[index]
                run_faults, member = check_exact_run(world, algorithm, result)
                faults += run_faults
                if member is not None:
                    final.append(float(world.instance.true_errors[member]))
                    excess.append(final[-1] - world.instance.nu)
                lines.append(f"{index},{algorithm},{result.query_count},{result.inferred_count},"
                             f"{result.skipped_count},{member}")
            if faults:
                problems.append(f"world {index} {algorithm}: {'; '.join(faults)}")
        failed_rows = [row for row in rows if not row.passed]
        problems.extend(f"oracle check {row.name} failed: {row.details}" for row in failed_rows)
        lines.extend(f"{row.name},{int(row.passed)},{row.statistic!r}" for row in rows)
        return UnitResult(
            start=start,
            end=end,
            runs=log,
            final_error=statistics.fmean(final) if final else math.nan,
            attempted=len(outcomes) + len(rows),
            failed=len(problems),
            problems=problems,
            digest=hashlib.blake2b("\n".join(lines).encode(), digest_size=8).hexdigest(),
            numeric_warnings=numeric[0],
            oracle_checks=len(rows),
            oracle_failed=len(failed_rows),
            info={"mean_excess_error": statistics.fmean(excess) if excess else math.nan},
        )


def check_exact_run(world, algorithm: str, result) -> tuple[list[str], int | None]:
    """(faults, final member index or None) for one exact-mode run: the
    final member lies in the class, 0 <= queries <= n, passive queries every
    point, and queries + inferred + skipped covers the online stream."""
    n = len(world.online)
    faults = []
    member = getattr(result.final_classifier, "index", None)
    if member is None or not 0 <= member < len(world.instance.true_errors):
        faults.append(f"final member {member} outside the class")
        member = None
    if not 0 <= result.query_count <= n:
        faults.append(f"queries {result.query_count} outside [0, {n}]")
    if algorithm == "passive" and result.query_count != n:
        faults.append(f"passive queries {result.query_count} != {n}")
    if result.query_count + result.inferred_count + result.skipped_count != n:
        faults.append("query, inferred and skipped counts do not cover the stream")
    return faults, member


WORKLOADS = {
    "sweep-dense": sweep_dense,
    "sweep-sparse": SparseSweep,
    "exact-oracle": ExactOracle,
}
