"""Benchmark harness: horizon schedules, area-under-curve scoring, curve
aggregation, the paired protocol, CSV reports, and flat-config parsing."""
from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json

import numpy as np
import pytest

import idbal.harness as harness
import idbal.hypotheses as hypotheses
import idbal.learners as learners
from idbal.data import SyntheticSpec, generate_synthetic, split_dataset
from idbal.harness import (
    DEFAULT_CAPACITY_GRID,
    DEFAULT_ETA_GRID,
    QUICK_CAPACITY_GRID,
    QUICK_ETA_GRID,
    CurvePoint,
    DatasetSpec,
    ExperimentConfig,
    PolicySpec,
    RunRecord,
    aggregate_curves,
    apply_overrides,
    auc,
    best_auc,
    config_to_experiment,
    horizon_schedule,
    load_dataset,
    pairwise_wins,
    parse_config_text,
    per_seed_best_auc,
    prepare_repeat,
    rebuild_result,
    records_from_json,
    records_to_json,
    report,
    run_protocol,
)
from idbal.hypotheses import LinearModel, classification_error
from idbal.learners import ALGORITHMS, AlgoConfig
from idbal.policies import fit_coarse_model
from idbal.rng import child_seed, derive_rng

from reference import sparse_libsvm_text

RECORD_ROW = {"dataset": "d", "algorithm": "passive", "capacity": None, "eta": 0.1, "repeat": 0,
              "horizon_index": 0, "horizon": 10, "queries": 10, "test_error": 0.5, "data_digest": "ab"}


class TestHorizonSchedule:
    def test_hand_case(self):
        horizons = horizon_schedule(10, 2, 2400)
        assert horizons == [10, 20, 40, 80, 160, 320, 640, 1280]
        assert len(horizons) == 8

    def test_growth_three(self):
        assert horizon_schedule(5, 3, 50) == [5, 15, 45]

    def test_stream_size_itself_is_reachable(self):
        assert horizon_schedule(8, 2, 32) == [8, 16, 32]

    def test_base_larger_than_stream_rejected(self):
        with pytest.raises(ValueError):
            horizon_schedule(100, 2, 99)

    @pytest.mark.parametrize(
        "base, growth, message",
        [(0, 2, "horizon base must be at least 1, got 0"), (-4, 2, "horizon base must be at least 1, got -4"),
         (10, 1, "horizon growth must be at least 2, got 1"), (10, 0, "horizon growth must be at least 2, got 0")],
    )
    def test_schedule_that_never_ends_rejected(self, base, growth, message):
        # each of these would append forever
        with pytest.raises(ValueError, match=message):
            horizon_schedule(base, growth, 100)

    def test_schedule_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            base = int(rng.integers(1, 50))
            growth = int(rng.integers(2, 6))
            online = int(rng.integers(base, 5000))
            horizons = horizon_schedule(base, growth, online)
            assert horizons[0] == base
            assert all(h <= online for h in horizons)
            for left, right in zip(horizons, horizons[1:]):
                assert right == left * growth
            assert horizons[-1] * growth > online


class TestAuc:
    def test_hand_value(self):
        points = [CurvePoint(0, 0.0, 1.0), CurvePoint(1, 10.0, 0.5), CurvePoint(2, 30.0, 0.25)]
        np.testing.assert_allclose(auc(points), 15.0)

    def test_single_point_and_empty(self):
        assert auc([CurvePoint(0, 5.0, 0.4)]) == 0.0
        assert auc([]) == 0.0

    def test_constant_error_is_rectangle(self):
        points = [CurvePoint(i, float(10 * i), 0.3) for i in range(5)]
        np.testing.assert_allclose(auc(points), 0.3 * 40.0)

    def test_unsorted_points_rejected(self):
        points = [CurvePoint(0, 10.0, 0.5), CurvePoint(1, 3.0, 0.4)]
        with pytest.raises(ValueError):
            auc(points)

    def test_matches_library_trapezoid(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            size = int(rng.integers(2, 12))
            n_bar = np.sort(rng.uniform(0.0, 500.0, size=size))
            e_bar = rng.uniform(0.0, 1.0, size=size)
            points = [CurvePoint(i, float(n), float(e)) for i, (n, e) in enumerate(zip(n_bar, e_bar))]
            np.testing.assert_allclose(auc(points), np.trapezoid(e_bar, n_bar), rtol=1e-12)


def _record(dataset="d", algorithm="a", capacity=0.04, eta=0.1, repeat=0,
            horizon_index=0, horizon=10, queries=5, test_error=0.5, digest="x"):
    return RunRecord(
        dataset=dataset,
        algorithm=algorithm,
        capacity=capacity,
        eta=eta,
        repeat=repeat,
        horizon_index=horizon_index,
        horizon=horizon,
        queries=queries,
        test_error=test_error,
        data_digest=digest,
    )


class TestAggregateCurves:
    def test_means_across_repeats(self):
        records = [
            _record(repeat=0, horizon_index=0, queries=4, test_error=0.5),
            _record(repeat=1, horizon_index=0, queries=6, test_error=0.3),
            _record(repeat=0, horizon_index=1, horizon=20, queries=9, test_error=0.4),
            _record(repeat=1, horizon_index=1, horizon=20, queries=11, test_error=0.2),
        ]
        curves = aggregate_curves(records)
        assert set(curves) == {("d", "a", 0.04, 0.1)}
        points = curves[("d", "a", 0.04, 0.1)]
        assert [p.horizon_index for p in points] == [0, 1]
        np.testing.assert_allclose([p.n_bar for p in points], [5.0, 10.0])
        np.testing.assert_allclose([p.e_bar for p in points], [0.4, 0.3])

    def test_points_ordered_by_mean_queries(self):
        records = [
            _record(horizon_index=0, queries=50, test_error=0.5),
            _record(horizon_index=1, horizon=20, queries=10, test_error=0.4),
        ]
        points = aggregate_curves(records)[("d", "a", 0.04, 0.1)]
        assert [p.n_bar for p in points] == [10.0, 50.0]

    def test_parameters_grouped_separately(self):
        records = [
            _record(capacity=0.04, eta=0.1),
            _record(capacity=0.04, eta=0.2),
            _record(capacity=None, eta=0.1, algorithm="passive"),
        ]
        curves = aggregate_curves(records)
        assert len(curves) == 3


class TestBestAuc:
    def test_smallest_area_wins(self):
        aucs = {
            ("d", "a", 0.04, 0.1): 3.0,
            ("d", "a", 0.16, 0.1): 1.0,
            ("d", "a", 0.64, 0.1): 2.0,
        }
        choice = best_auc(aucs, "d", "a")
        assert choice.capacity == 0.16
        assert choice.auc == 1.0

    def test_tie_breaks_toward_smallest_parameters(self):
        aucs = {
            ("d", "a", 0.16, 0.2): 1.0,
            ("d", "a", 0.04, 0.4): 1.0,
            ("d", "a", 0.04, 0.1): 1.0,
        }
        choice = best_auc(aucs, "d", "a")
        assert (choice.capacity, choice.eta) == (0.04, 0.1)

    def test_passive_capacity_none(self):
        aucs = {("d", "passive", None, 0.2): 2.0, ("d", "passive", None, 0.1): 4.0}
        choice = best_auc(aucs, "d", "passive")
        assert choice.capacity is None
        assert choice.eta == 0.2

    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError):
            best_auc({("d", "a", 0.04, 0.1): 1.0}, "d", "other")


class TestPerSeedAndPairwise:
    def _two_algo_records(self):
        rows = []
        # algorithm a: repeat 0 improves with a wider second parameter point,
        # repeat 1 does not; algorithm b is constant and worse on repeat 0.
        for repeat, errors in ((0, (0.4, 0.2)), (1, (0.5, 0.3))):
            for index, (horizon, queries) in enumerate(((10, 5), (20, 15))):
                rows.append(_record(algorithm="a", capacity=0.04, repeat=repeat,
                                    horizon_index=index, horizon=horizon,
                                    queries=queries, test_error=errors[index]))
                rows.append(_record(algorithm="a", capacity=0.16, repeat=repeat,
                                    horizon_index=index, horizon=horizon,
                                    queries=queries, test_error=errors[index] + 0.1))
        for repeat in (0, 1):
            for index, (horizon, queries) in enumerate(((10, 5), (20, 15))):
                rows.append(_record(algorithm="b", capacity=0.04, repeat=repeat,
                                    horizon_index=index, horizon=horizon,
                                    queries=queries, test_error=0.45))
        return rows

    def test_per_seed_minimum_over_grid(self):
        best = per_seed_best_auc(self._two_algo_records(), "d", "a")
        # repeat 0 curve at capacity 0.04: trapezoid of (5, 0.4) -> (15, 0.2)
        np.testing.assert_allclose(best[0], 0.5 * (0.4 + 0.2) * 10)
        np.testing.assert_allclose(best[1], 0.5 * (0.5 + 0.3) * 10)

    def test_pairwise_strict_wins_on_shared_repeats(self):
        table = pairwise_wins(self._two_algo_records(), "d")
        # b's area is 4.5 per repeat; a scores 3.0 and 4.0.
        assert table[("a", "b")] == (2, 2)
        assert table[("b", "a")] == (0, 2)


@pytest.fixture(scope="module")
def tiny_protocol():
    cfg = ExperimentConfig(
        datasets=(DatasetSpec(name="toy", synthetic=SyntheticSpec(count=240, dim=4, flip_prob=0.1, seed=3)),),
        policy=PolicySpec(name="identical", p=0.5),
        algorithms=("passive", "idbal"),
        repeats=2,
        horizon_base=8,
        horizon_growth=2,
        capacity_grid=(0.64,),
        eta_grid=(0.0064,),
        test_fraction=0.2,
        logged_fraction=0.5,
        master_seed=7,
    )
    return cfg, run_protocol(cfg)


class TestRowSeedMemo:
    def test_repeats_hash_each_row_once(self, monkeypatch):
        # a repeat scores the whole dataset, whose memo keeps each row's
        # group seed: the first repeat hashes every row, later ones none
        data = generate_synthetic(SyntheticSpec(count=600, dim=4, seed=3))
        spec, fractions = PolicySpec(name="uniform", group_seed=5), (0.2, 0.5)
        calls = []
        monkeypatch.setattr("idbal.data.child_seed", lambda seed, *path: calls.append(path) or child_seed(seed, *path))
        first = prepare_repeat(data, spec, "toy", 7, 0, fractions)
        assert len(calls) == len(data)
        again = prepare_repeat(data, spec, "toy", 7, 0, fractions)
        second = prepare_repeat(data, spec, "toy", 7, 1, fractions)
        assert len(calls) == len(data)
        fresh = generate_synthetic(SyntheticSpec(count=600, dim=4, seed=3))
        for ours, theirs in ((first, again), (second, prepare_repeat(fresh, spec, "toy", 7, 1, fractions))):
            assert ours.logged.q0.tolist() == theirs.logged.q0.tolist()
            assert ours.online.q0.tolist() == theirs.online.q0.tolist()


class TestRunProtocol:
    def test_record_count_and_horizons(self, tiny_protocol):
        cfg, result = tiny_protocol
        # online split is 240 * 0.3 = 72 points: horizons 8, 16, 32, 64.
        horizons = sorted({r.horizon for r in result.records})
        assert horizons == [8, 16, 32, 64]
        assert len(result.records) == 2 * 2 * 4

    def test_repeats_are_paired_through_the_digest(self, tiny_protocol):
        cfg, result = tiny_protocol
        for repeat in (0, 1):
            digests = {r.data_digest for r in result.records if r.repeat == repeat}
            assert len(digests) == 1
        assert (
            {r.data_digest for r in result.records if r.repeat == 0}
            != {r.data_digest for r in result.records if r.repeat == 1}
        )

    def test_passive_queries_every_point(self, tiny_protocol):
        cfg, result = tiny_protocol
        for record in result.records:
            if record.algorithm == "passive":
                assert record.queries == record.horizon
                assert record.capacity is None

    def test_errors_are_probabilities(self, tiny_protocol):
        cfg, result = tiny_protocol
        for record in result.records:
            assert 0.0 <= record.test_error <= 1.0

    def test_deterministic_rerun(self, tiny_protocol):
        cfg, result = tiny_protocol
        again = run_protocol(cfg)
        assert again.records == result.records
        assert again.best == result.best

    def test_each_run_is_scored_once(self, tiny_protocol, monkeypatch):
        # the learners return classifiers; the sweep scores each run's final one
        cfg, result = tiny_protocol
        calls = []
        score = harness.classification_error
        monkeypatch.setattr(harness, "classification_error", lambda *args: calls.append(args) or score(*args))
        assert run_protocol(cfg).records == result.records
        assert len(calls) == len(result.records)

    def test_two_datasets(self, tmp_path):
        # each dataset is split, logged, scheduled, scored and reported on its own
        cfg = ExperimentConfig(
            datasets=(
                DatasetSpec(name="big", synthetic=SyntheticSpec(count=240, dim=4, flip_prob=0.1, seed=3)),
                DatasetSpec(name="small", synthetic=SyntheticSpec(count=120, dim=3, flip_prob=0.1, seed=4)),
            ),
            policy=PolicySpec(name="identical", p=0.5),
            algorithms=("passive", "idbal"),
            repeats=2,
            horizon_base=8,
            capacity_grid=(0.64,),
            eta_grid=(0.0064,),
            master_seed=7,
        )
        result = run_protocol(cfg)
        # online splits of 72 and 36 points
        horizons = {name: sorted({r.horizon for r in result.records if r.dataset == name}) for name in ("big", "small")}
        assert horizons == {"big": [8, 16, 32, 64], "small": [8, 16, 32]}
        assert len(result.records) == 2 * 2 * (4 + 3)
        digests = {}
        for r in result.records:
            digests.setdefault((r.dataset, r.repeat), set()).add(r.data_digest)
        assert len(digests) == 4 and all(len(d) == 1 for d in digests.values())
        assert digests["big", 0] != digests["small", 0] and digests["big", 1] != digests["small", 1]
        assert set(result.best) == {(name, algo) for name in ("big", "small") for algo in cfg.algorithms}
        paths = report(result, tmp_path)
        for name in ("summary", "pairwise"):
            rows = paths[name].read_text(encoding="utf-8").splitlines()[1:]
            assert {row.split(",")[0] for row in rows} == {"big", "small"}, name
        assert rebuild_result(records_from_json(records_to_json(result.records))).best == result.best

    @pytest.mark.parametrize("policy", ["uncertainty", "certainty"])
    def test_margin_policy_scores_features_the_coarse_model_never_saw(self, tmp_path, policy):
        # 400 rows over features 1..5, plus feature 6 on one logged row that
        # the coarse model's 10% subsample misses, so the model is narrower
        # than the rows it scores
        seed, name = 4, "wide"
        subsample = derive_rng(child_seed(seed, name, "policy"), "coarse", "subsample").choice(400, 40, replace=False)
        logged = split_dataset(400, (0.2, 0.7), seed=child_seed(seed, name, 0, "split")).logged
        wide = next(i for i in logged.tolist() if i not in subsample.tolist())
        lines = sparse_libsvm_text(seed=9, rows=400, dim=5, nnz=3).splitlines()
        lines[wide] += " 6:0.5"
        path = tmp_path / f"{name}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        spec = DatasetSpec(name=name, path=str(path))
        data = load_dataset(spec)
        assert fit_coarse_model(data, seed=child_seed(seed, name, "policy")).dim < data.dim == 6
        cfg = ExperimentConfig(
            datasets=(spec,),
            policy=PolicySpec(name=policy),
            algorithms=("passive", "idbal"),
            repeats=1,
            horizon_base=8,
            capacity_grid=(0.64,),
            eta_grid=(0.0064,),
            logged_fraction=0.7,
            master_seed=seed,
        )
        records = run_protocol(cfg).records
        assert len(records) == 2 * 4
        assert all(0.0 <= r.test_error <= 1.0 for r in records)

    def test_worker_pool_matches_serial(self, tiny_protocol):
        cfg, result = tiny_protocol
        parallel = ExperimentConfig(
            datasets=cfg.datasets,
            policy=cfg.policy,
            algorithms=cfg.algorithms,
            repeats=cfg.repeats,
            horizon_base=cfg.horizon_base,
            horizon_growth=cfg.horizon_growth,
            capacity_grid=cfg.capacity_grid,
            eta_grid=cfg.eta_grid,
            test_fraction=cfg.test_fraction,
            logged_fraction=cfg.logged_fraction,
            master_seed=cfg.master_seed,
            workers=2,
        )
        assert run_protocol(parallel).records == result.records

    @pytest.mark.parametrize("workers, repeats, pool_size, chunksize",
                             [(100_000, 2, 2, 1), (3, 2, 2, 1), (2, 3, 2, 2), (4, 1, None, None)],
                             ids=["huge", "one-extra", "fewer-workers", "serial"])
    def test_pool_never_outnumbers_the_tasks(self, tiny_protocol, monkeypatch, workers, repeats, pool_size, chunksize):
        # the fake pool maps in this process and records its size and chunk
        # size: a real pool starts every process it may use at its first
        # submit, and pickles each chunk's dataset once
        sizes, chunksizes = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize):
                chunksizes.append(chunksize)
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg, result = tiny_protocol
        records = run_protocol(dataclasses.replace(cfg, repeats=repeats, workers=workers)).records
        assert sizes == ([] if pool_size is None else [pool_size])
        assert chunksizes == ([] if chunksize is None else [chunksize])
        shared = min(repeats, cfg.repeats)
        assert [r for r in records if r.repeat < shared] == [r for r in result.records if r.repeat < shared]


def _diverging_sweep(tmp_path) -> ExperimentConfig:
    """A sparse-file sweep whose feature values reach 1e5, so that the
    longer runs' weights overflow through inf to NaN."""
    text = sparse_libsvm_text(seed=5, rows=200, dim=12, nnz=6).replace(":0.", ":99999.").replace(":-0.", ":-99999.")
    path = tmp_path / "diverging.txt"
    path.write_text(text, encoding="utf-8")
    return ExperimentConfig(
        datasets=(DatasetSpec(name="diverging", path=str(path)),),
        policy=PolicySpec(name="identical", p=0.05),
        repeats=1,
        horizon_base=4,
        capacity_grid=(0.64, 40.96),
        eta_grid=(0.0064, 0.4096),
        logged_fraction=0.7,
        master_seed=11,
    )


def _training_sweep(name: str, tmp_path) -> ExperimentConfig:
    """TestTrainingMemo's sweeps: dense synthetic, sparse file, diverging file."""
    if name == "dense":
        return ExperimentConfig(
            datasets=(DatasetSpec(name="toy", synthetic=SyntheticSpec(count=300, dim=4, flip_prob=0.1, seed=3)),),
            policy=PolicySpec(name="uniform", p0=0.01, p1=0.05, p2=0.5),
            repeats=2,
            horizon_base=4,
            capacity_grid=(0.01, 40.96),
            eta_grid=(0.0064, 0.4096),
            master_seed=7,
        )
    if name == "diverging":
        return _diverging_sweep(tmp_path)
    path = tmp_path / "sparse.txt"
    path.write_text(sparse_libsvm_text(seed=5, rows=200, dim=12, nnz=6), encoding="utf-8")
    return ExperimentConfig(
        datasets=(DatasetSpec(name="sparse", path=str(path)),),
        policy=PolicySpec(name="uncertainty", calibration_target=0.1),
        repeats=1,
        horizon_base=4,
        capacity_grid=(0.64, 40.96),
        eta_grid=(0.0064, 0.4096),
        logged_fraction=0.7,
        master_seed=11,
    )


def _direct_records(cfg: ExperimentConfig) -> list[tuple]:
    """run_protocol's records rebuilt from one direct runner call per run,
    outside any ogd_memo() block, in (algorithm, C, eta, horizon) order."""
    out = []
    for spec in cfg.datasets:
        data = load_dataset(spec)
        for repeat in range(cfg.repeats):
            prepared = prepare_repeat(
                data, cfg.policy, spec.name, cfg.master_seed, repeat, (cfg.test_fraction, cfg.logged_fraction)
            )
            horizons = horizon_schedule(cfg.horizon_base, cfg.horizon_growth, len(prepared.online))
            for algorithm in cfg.algorithms:
                for capacity in (None,) if algorithm == "passive" else cfg.capacity_grid:
                    for eta in cfg.eta_grid:
                        for index, horizon in enumerate(horizons):
                            result = ALGORITHMS[algorithm](
                                prepared.logged,
                                prepared.online[:horizon],
                                prepared.policy,
                                LinearModel.zeros(data.dim),
                                AlgoConfig(capacity=0.01 if capacity is None else capacity, eta=eta),
                            )
                            error = classification_error(result.final_classifier, prepared.test)
                            out.append((spec.name, algorithm, capacity, eta, repeat, index, horizon,
                                        result.query_count, error))
    return out


class TestTrainingMemo:
    """run_protocol trains each distinct gradient pass once per (repeat,
    eta) block; the records must not show it."""

    @pytest.fixture(params=["dense", "sparse", "diverging"])
    def sweep(self, request, tmp_path):
        return _training_sweep(request.param, tmp_path)

    @pytest.mark.parametrize("name, served, trained", [("dense", 297, 4148), ("sparse", 100, 1226)])
    def test_reuse_is_pinned(self, name, served, trained, tmp_path, monkeypatch):
        # passes served from the memo and row steps trained, as counted when
        # the memo keyed each pass by its CSR bytes: keying by row objects
        # must find every repeat that keying by content found
        counts = [0, 0]
        update = learners.ogd_update

        def counted(model, rows, *args):
            before = len(hypotheses._passes.get())
            result = update(model, rows, *args)
            if len(hypotheses._passes.get()) == before:
                counts[0] += 1
            else:
                counts[1] += len(rows)
            return result

        monkeypatch.setattr(learners, "ogd_update", counted)
        run_protocol(_training_sweep(name, tmp_path))
        assert counts == [served, trained]

    def test_horizon_slices_share_the_row_objects(self, tmp_path):
        cfg = _training_sweep("sparse", tmp_path)
        fractions = (cfg.test_fraction, cfg.logged_fraction)
        prepared = prepare_repeat(load_dataset(cfg.datasets[0]), cfg.policy, "sparse", cfg.master_seed, 0, fractions)
        for h in horizon_schedule(cfg.horizon_base, cfg.horizon_growth, len(prepared.online)):
            head = prepared.online[:h].table
            assert head.width == prepared.online.table.width
            assert all(a is b for a, b in zip(head.rows, prepared.online.table.rows[:h], strict=True))
        revealed = prepared.logged.z == 1
        assert all(row is not None for row in prepared.logged.table.rows[revealed])
        assert all(row is None for row in prepared.logged.table.rows[~revealed])

    def test_records_match_direct_runs_without_the_memo(self, sweep, monkeypatch):
        served = []
        update = learners.ogd_update

        def counted(*args):
            before = len(hypotheses._passes.get())
            result = update(*args)
            served.append(len(hypotheses._passes.get()) == before)
            return result

        monkeypatch.setattr(learners, "ogd_update", counted)
        records = run_protocol(sweep).records
        assert any(served) and not all(served)
        monkeypatch.undo()
        assert [
            (r.dataset, r.algorithm, r.capacity, r.eta, r.repeat, r.horizon_index, r.horizon, r.queries, r.test_error)
            for r in records
        ] == _direct_records(sweep)

    def test_diverging_sweep_reaches_non_finite_weights(self, tmp_path):
        cfg = _diverging_sweep(tmp_path)
        data = load_dataset(cfg.datasets[0])
        prepared = prepare_repeat(data, cfg.policy, "diverging", cfg.master_seed, 0, (0.2, 0.7))
        for algorithm in ("passive", "idbal"):
            result = ALGORITHMS[algorithm](
                prepared.logged, prepared.online, prepared.policy, LinearModel.zeros(data.dim),
                AlgoConfig(capacity=0.64, eta=0.0064), 0,
            )
            assert np.isnan(result.final_classifier.weights).all()

    def test_memo_is_gone_after_the_protocol(self, tiny_protocol):
        cfg, _ = tiny_protocol
        run_protocol(cfg)
        assert hypotheses._passes.get() is None

    def test_memo_is_gone_after_a_runner_raises(self, tiny_protocol, monkeypatch):
        cfg, _ = tiny_protocol
        stored = []

        def failing(*args, **kwargs):
            ALGORITHMS["idbal"](*args, **kwargs)
            stored.append(len(hypotheses._passes.get()))
            raise RuntimeError("runner failed")

        monkeypatch.setattr(harness, "ALGORITHMS", {**ALGORITHMS, "idbal": failing})
        with pytest.raises(RuntimeError):
            run_protocol(cfg)
        assert stored and stored[0] > 0
        assert hypotheses._passes.get() is None


class TestReport:
    def test_files_and_headers(self, tiny_protocol, tmp_path):
        cfg, result = tiny_protocol
        paths = report(result, tmp_path)
        assert set(paths) == {"summary", "curves", "pairwise"}
        summary = paths["summary"].read_text(encoding="utf-8").splitlines()
        assert summary[0] == "dataset,algorithm,best_auc,best_C,best_eta"
        assert len(summary) == 1 + len(result.best)
        curves = paths["curves"].read_text(encoding="utf-8").splitlines()
        assert curves[0] == "dataset,algorithm,repeat,horizon,queries,test_error"
        assert len(curves) == 1 + len(result.records)
        pairwise = paths["pairwise"].read_text(encoding="utf-8").splitlines()
        assert pairwise[0] == "dataset,algorithm_a,algorithm_b,wins_a,repeats,fraction"
        assert len(pairwise) == 1 + 2

    def test_passive_capacity_cell_is_empty(self, tiny_protocol, tmp_path):
        cfg, result = tiny_protocol
        paths = report(result, tmp_path)
        rows = paths["summary"].read_text(encoding="utf-8").splitlines()[1:]
        by_algo = {row.split(",")[1]: row.split(",") for row in rows}
        assert by_algo["passive"][3] == ""
        assert by_algo["idbal"][3] != ""

    def test_rerun_is_byte_identical(self, tiny_protocol, tmp_path):
        # Fresh runs of a dense and a sparse-file sweep must reproduce pinned
        # report digests: any change that moves one score shows up here.
        cfg, result = tiny_protocol
        first = {name: path.read_bytes() for name, path in report(result, tmp_path / "a").items()}
        second = {name: path.read_bytes() for name, path in report(run_protocol(cfg), tmp_path / "b").items()}
        assert first == second
        data_path = tmp_path / "sparse.txt"
        data_path.write_text(sparse_libsvm_text(seed=5, rows=320, dim=60, nnz=6), encoding="utf-8")
        sparse = ExperimentConfig(
            datasets=(DatasetSpec(name="sparse", path=str(data_path)),),
            policy=PolicySpec(name="uncertainty", calibration_target=0.1),
            repeats=2,
            horizon_base=8,
            horizon_growth=2,
            capacity_grid=(0.64, 40.96),
            eta_grid=(0.0064, 0.4096),
            logged_fraction=0.7,
            master_seed=11,
        )
        third = {name: path.read_bytes() for name, path in report(run_protocol(sparse), tmp_path / "c").items()}
        digest = lambda blob: hashlib.blake2b(blob, digest_size=16).hexdigest()
        assert digest(second["curves"]) == "d34ee9b674a5fd84e390c9f907a56c90"
        assert digest(second["summary"]) == "e66c2ab346d0eee21853466776270837"
        assert digest(second["pairwise"]) == "4926e2e1da8a85169bf0a2425563eb69"
        assert digest(third["curves"]) == "d0c70be534c3d74b7dd795f3b7a9ca5f"
        assert digest(third["summary"]) == "49cfaa49746f2a447c0c3fb5e69c2c3d"
        assert digest(third["pairwise"]) == "cd6c9f574a5dd191e9f91843ec0ea9ee"

    def test_records_json_round_trip(self, tiny_protocol):
        cfg, result = tiny_protocol
        text = records_to_json(result.records)
        assert records_from_json(text) == result.records

    @pytest.mark.parametrize("rows, message", [
        ([{"dataset": "d", "algorithm": "passive"}], "row 1: missing fields ['capacity', 'eta',"),
        ([RECORD_ROW, RECORD_ROW | {"extra": 1}], "row 2: missing fields [], unknown fields ['extra']"),
        ([{k: v for k, v in RECORD_ROW.items() if k != "eta"} | {"ETA": 0.1}],
         "row 1: missing fields ['eta'], unknown fields ['ETA']"),
        ([RECORD_ROW, "row"], "row 2: not a JSON object"),
        (RECORD_ROW, "records must be a JSON list of objects"),
        ([RECORD_ROW | {"horizon": "ten"}, RECORD_ROW | {"horizon": 12}], "row 1: horizon must be int, got 'ten'"),
        ([RECORD_ROW, RECORD_ROW | {"queries": True}], "row 2: queries must be int, got True"),
        ([RECORD_ROW | {"repeat": 0.0}], "row 1: repeat must be int, got 0.0"),
        ([RECORD_ROW | {"eta": None}], "row 1: eta must be float, got None"),
        ([RECORD_ROW | {"test_error": "0.5"}], "row 1: test_error must be float, got '0.5'"),
        ([RECORD_ROW | {"capacity": "0.01"}], "row 1: capacity must be float | None, got '0.01'"),
        ([RECORD_ROW | {"algorithm": 3}], "row 1: algorithm must be str, got 3"),
        ([RECORD_ROW | {"repeat": -1}], "row 1: repeat must be non-negative, got -1"),
        ([RECORD_ROW, RECORD_ROW | {"horizon": -10}], "row 2: horizon must be non-negative, got -10"),
        ([RECORD_ROW | {"queries": -5, "test_error": float("nan")}, RECORD_ROW],
         "row 1: queries must be non-negative, got -5"),
        ([RECORD_ROW | {"horizon_index": -1}], "row 1: horizon_index must be non-negative, got -1"),
        ([RECORD_ROW | {"queries": 11}], "row 1: queries must be at most horizon 10, got 11"),
        ([RECORD_ROW, RECORD_ROW | {"test_error": float("nan")}], "row 2: test_error must lie in [0, 1], got nan"),
        ([RECORD_ROW | {"test_error": float("inf")}], "row 1: test_error must lie in [0, 1], got inf"),
        ([RECORD_ROW | {"test_error": -0.1}], "row 1: test_error must lie in [0, 1], got -0.1"),
        ([RECORD_ROW | {"test_error": 1.5}], "row 1: test_error must lie in [0, 1], got 1.5"),
        ([RECORD_ROW, RECORD_ROW | {"algorithm": "nonsense"}],
         "row 2: algorithm must be one of ['dbalw', 'dbalwm', 'idbal', 'passive'], got 'nonsense'"),
        ([RECORD_ROW | {"eta": float("nan")}], "row 1: eta must be positive and finite, got nan"),
        ([RECORD_ROW | {"eta": float("inf")}], "row 1: eta must be positive and finite, got inf"),
        ([RECORD_ROW | {"eta": 0}], "row 1: eta must be positive and finite, got 0"),
        ([RECORD_ROW | {"capacity": 0.64}], "row 1: capacity must be null for passive, got 0.64"),
        ([RECORD_ROW | {"algorithm": "idbal"}], "row 1: capacity must be positive and finite, got None"),
        ([RECORD_ROW, RECORD_ROW | {"algorithm": "dbalw", "capacity": -3}],
         "row 2: capacity must be positive and finite, got -3"),
        ([RECORD_ROW | {"algorithm": "dbalwm", "capacity": float("nan")}],
         "row 1: capacity must be positive and finite, got nan"),
        ([RECORD_ROW, RECORD_ROW | {"repeat": 1}, RECORD_ROW | {"queries": 0, "test_error": 0}],
         "row 3: repeats row 1's grid point ('d', 'passive', None, 0.1, 0, 0)"),
        ([RECORD_ROW | {"algorithm": "idbal", "capacity": 1, "eta": 1},
          RECORD_ROW | {"algorithm": "idbal", "capacity": 1.0, "eta": 1.0}],
         "row 2: repeats row 1's grid point ('d', 'idbal', 1.0, 1.0, 0, 0)"),
        ([RECORD_ROW, RECORD_ROW | {"dataset": "e", "horizon": 20}, RECORD_ROW | {"repeat": 1, "horizon": 20}],
         "row 3: horizon 20 at 'd' horizon_index 0 differs from row 1's horizon 10"),
    ], ids=["missing-fields", "unknown-field", "renamed-field", "not-an-object", "not-a-list", "text-count",
            "bool-count", "float-count", "null-eta", "text-error", "text-capacity", "number-name",
            "negative-repeat", "negative-horizon", "negative-queries", "negative-horizon-index",
            "queries-over-horizon", "nan-error", "infinite-error", "negative-error", "error-above-one",
            "unknown-algorithm", "nan-eta", "infinite-eta", "zero-eta", "passive-capacity", "null-capacity",
            "negative-capacity", "nan-capacity", "repeated-point", "repeated-point-as-float",
            "two-horizons-at-one-index"])
    def test_malformed_records_name_the_row(self, rows, message):
        with pytest.raises(ValueError) as caught:
            records_from_json(json.dumps(rows))
        assert str(caught.value).startswith(message)

    def test_numbers_of_either_kind_are_accepted(self):
        rows = [RECORD_ROW | {"algorithm": "idbal", "capacity": 1, "eta": 1, "test_error": 0},
                RECORD_ROW | {"algorithm": "idbal", "capacity": 0.64}]
        assert [(r.capacity, r.eta, r.test_error) for r in records_from_json(json.dumps(rows))] == [
            (1, 1, 0), (0.64, 0.1, 0.5)
        ]

    def test_rebuild_from_records(self, tiny_protocol):
        cfg, result = tiny_protocol
        rebuilt = rebuild_result(result.records)
        assert rebuilt == result

    def test_horizons_are_one_schedule_per_dataset(self):
        # datasets differ in their online split, so each has its own schedule;
        # every algorithm, grid point and repeat of one dataset shares it
        rows = [RECORD_ROW, RECORD_ROW | {"horizon_index": 1, "horizon": 20},
                RECORD_ROW | {"dataset": "e", "horizon": 16}, RECORD_ROW | {"dataset": "e", "horizon_index": 1},
                RECORD_ROW | {"algorithm": "idbal", "capacity": 1.0, "repeat": 3, "queries": 2}]
        assert [(r.dataset, r.horizon_index, r.horizon) for r in records_from_json(json.dumps(rows))] == [
            ("d", 0, 10), ("d", 1, 20), ("e", 0, 16), ("e", 1, 10), ("d", 0, 10)
        ]


class TestConfigParsing:
    def test_key_value_lines_with_comments(self):
        text = "# sweep setup\nrepeats = 3\n\nseed=9\npolicy.name = identical\n"
        config = parse_config_text(text)
        assert config == {"repeats": "3", "seed": "9", "policy.name": "identical"}

    def test_malformed_line_reports_its_number(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_config_text("a = 1\n# fine\nbroken line\n")

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError, match="^config line 2: key 'seed' repeats line 1$"):
            parse_config_text("seed = 1\nseed = 2")
        with pytest.raises(ValueError, match="^config line 4: key 'repeats' repeats line 2$"):
            parse_config_text("seed = 1\nrepeats=3\n# repeats = 4\n  repeats = 3  \n")

    def test_overrides_merge_and_win(self):
        merged = apply_overrides({"repeats": "3"}, ["--repeats", "5", "--seed", "2"])
        assert merged == {"repeats": "5", "seed": "2"}

    def test_repeated_inline_key_names_both_pairs(self):
        with pytest.raises(ValueError, match="^inline pair 2: key 'seed' repeats pair 1$"):
            apply_overrides({}, ["--seed", "1", "--seed", "2"])
        # the file's key may be overridden once, not twice
        with pytest.raises(ValueError, match="^inline pair 3: key 'seed' repeats pair 1$"):
            apply_overrides({"seed": "0"}, ["--seed", "1", "--repeats", "2", "--seed", "1"])

    def test_odd_override_pairs_rejected(self):
        with pytest.raises(ValueError):
            apply_overrides({}, ["--repeats"])

    def test_override_flags_need_dashes(self):
        with pytest.raises(ValueError):
            apply_overrides({}, ["repeats", "5"])


class TestConfigToExperiment:
    def test_defaults(self):
        cfg = config_to_experiment({})
        assert cfg.repeats == 10
        assert cfg.capacity_grid == DEFAULT_CAPACITY_GRID
        assert cfg.eta_grid == DEFAULT_ETA_GRID
        assert [d.name for d in cfg.datasets] == ["synthetic"]
        assert cfg.datasets[0].synthetic.count == 6000
        assert cfg.datasets[0].synthetic.dim == 30
        assert cfg.algorithms == ("passive", "dbalw", "dbalwm", "idbal")

    def test_quick_profile(self):
        cfg = config_to_experiment({}, quick=True)
        assert cfg.repeats == 5
        assert cfg.capacity_grid == QUICK_CAPACITY_GRID
        assert cfg.eta_grid == QUICK_ETA_GRID
        assert [d.name for d in cfg.datasets] == ["synthetic"]

    def test_quick_profile_yields_to_config_keys(self):
        cfg = config_to_experiment({"repeats": "2", "sweep.eta_grid": "0.1", "data.count": "500"}, quick=True)
        assert (cfg.repeats, cfg.capacity_grid, cfg.eta_grid) == (2, QUICK_CAPACITY_GRID, (0.1,))
        assert [(d.name, d.synthetic.count) for d in cfg.datasets] == [("synthetic", 500)]

    def test_quick_profile_schedules_horizons_where_the_skip_rule_can_act(self):
        # idbal can skip a point only where alpha = 2m/3n >= 1
        cfg = config_to_experiment({}, quick=True)
        for spec in cfg.datasets:
            split = split_dataset(spec.synthetic.count, (cfg.test_fraction, cfg.logged_fraction))
            for h in horizon_schedule(cfg.horizon_base, cfg.horizon_growth, len(split.online)):
                assert learners.plan_partition(len(split.logged), h).alpha >= 1.0, (spec.name, h)

    def test_grid_extremes(self):
        np.testing.assert_allclose(DEFAULT_CAPACITY_GRID[0], 0.01)
        np.testing.assert_allclose(DEFAULT_CAPACITY_GRID[-1], 0.01 * 2**18)
        np.testing.assert_allclose(DEFAULT_ETA_GRID[0], 0.0001)
        np.testing.assert_allclose(DEFAULT_ETA_GRID[-1], 0.0001 * 2**18)

    def test_explicit_keys(self):
        cfg = config_to_experiment(
            {
                "repeats": "4",
                "seed": "13",
                "sweep.capacity_grid": "0.01, 0.04",
                "sweep.eta_grid": "0.1",
                "sweep.algorithms": "passive, idbal",
                "sweep.horizon_base": "16",
                "sweep.horizon_growth": "3",
                "split.test_fraction": "0.25",
                "data.count": "500",
                "data.dim": "6",
            }
        )
        assert cfg.repeats == 4
        assert cfg.master_seed == 13
        assert cfg.capacity_grid == (0.01, 0.04)
        assert cfg.eta_grid == (0.1,)
        assert cfg.algorithms == ("passive", "idbal")
        assert cfg.horizon_base == 16
        assert cfg.horizon_growth == 3
        assert cfg.test_fraction == 0.25
        assert cfg.datasets[0].synthetic.count == 500
        assert cfg.datasets[0].synthetic.dim == 6

    def test_file_source_needs_path(self):
        with pytest.raises(ValueError):
            config_to_experiment({"data.source": "file"})

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            config_to_experiment({"sweep.algorithms": "gradient-boost"})

    @pytest.mark.parametrize("config", [{"data.path": "nowhere.txt"}, {"data.source": "synthetic", "data.path": ""}])
    def test_synthetic_source_rejects_a_path(self, config):
        with pytest.raises(ValueError, match="^data.source = synthetic does not read 'data.path'$"):
            config_to_experiment(config)

    def test_file_source_rejects_the_synthetic_keys(self):
        config = {"data.source": "file", "data.path": "toy.txt", "data.seed": "3", "data.count": "50"}
        with pytest.raises(ValueError, match="^data.source = file does not read 'data.count', 'data.seed'$"):
            config_to_experiment(config)
        for key in ("data.dim", "data.flip_prob"):
            with pytest.raises(ValueError, match=f"^data.source = file does not read '{key}'$"):
                config_to_experiment({"data.source": "file", "data.path": "toy.txt", key: "1"})

    @pytest.mark.parametrize("config, message", [
        ({"policy.name": "uniform", "policy.p": "7"}, "policy.name = uniform does not read 'policy.p'"),
        ({"policy.name": "uniform", "policy.target": "5"}, "policy.name = uniform does not read 'policy.target'"),
        ({"policy.name": "identical", "policy.scale": "4"}, "policy.name = identical does not read 'policy.scale'"),
        ({"policy.name": "identical", "policy.table": "nowhere.csv"},
         "policy.name = identical does not read 'policy.table'"),
        ({"policy.p0": "0.1"}, "policy.name = identical does not read 'policy.p0'"),
        ({"policy.name": "table", "policy.table": "t.csv", "policy.p": "0.5"},
         "policy.name = table does not read 'policy.p'"),
        ({"policy.name": "uncertainty", "policy.p2": "0.5", "policy.group_seed": "3"},
         "policy.name = uncertainty does not read 'policy.group_seed', 'policy.p2'"),
        ({"policy.name": "certainty", "policy.scale": "4", "policy.target": "0.2"},
         "policy.name = certainty with policy.scale set does not read 'policy.target'"),
    ], ids=["uniform-p", "uniform-target", "identical-scale", "identical-table", "default-p0", "table-p",
            "uncertainty-groups", "scaled-target"])
    def test_policy_key_the_policy_does_not_read_rejected(self, config, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            config_to_experiment(config)

    @pytest.mark.parametrize("config, fields", [
        ({"policy.p": "0.5"}, {"name": "identical", "p": 0.5}),
        ({"policy.name": "uniform", "policy.p0": "0.1", "policy.p1": "0.2", "policy.p2": "0.3",
          "policy.group_seed": "4"}, {"p0": 0.1, "p1": 0.2, "p2": 0.3, "group_seed": 4}),
        ({"policy.name": "uncertainty", "policy.target": "0.2"}, {"scale": None, "calibration_target": 0.2}),
        # an empty scale is unset, so the target is read
        ({"policy.name": "uncertainty", "policy.scale": "", "policy.target": "0.2"}, {"calibration_target": 0.2}),
        ({"policy.name": "certainty", "policy.scale": "4"}, {"scale": 4.0}),
        ({"policy.name": "table", "policy.table": "t.csv"}, {"table_path": "t.csv"}),
    ], ids=["identical", "uniform", "uncertainty", "empty-scale", "certainty", "table"])
    def test_policy_keys_the_policy_reads_accepted(self, config, fields):
        policy = config_to_experiment(config).policy
        assert {name: getattr(policy, name) for name in fields} == fields


class TestExperimentConfigValidation:
    def _dataset(self):
        return (DatasetSpec(name="toy", synthetic=SyntheticSpec(count=100, dim=3, flip_prob=0.1, seed=0)),)

    def test_requires_datasets(self):
        with pytest.raises(ValueError):
            ExperimentConfig(datasets=())

    def test_requires_nonempty_grids(self):
        with pytest.raises(ValueError):
            ExperimentConfig(datasets=self._dataset(), capacity_grid=())

    @pytest.mark.parametrize("key", ["sweep.capacity_grid", "sweep.eta_grid"])
    @pytest.mark.parametrize("value", ["0", "-0.5", "nan", "inf", "0.64, nan"])
    def test_rejects_grid_values_algo_config_rejects(self, key, value):
        with pytest.raises(ValueError, match="positive and finite"):
            config_to_experiment({key: value})

    def test_valid_grids_are_kept(self):
        cfg = config_to_experiment({"sweep.capacity_grid": "0.01, 2.56", "sweep.eta_grid": "0.0001"})
        assert cfg.capacity_grid == (0.01, 2.56)
        assert cfg.eta_grid == (0.0001,)

    @pytest.mark.parametrize("field, value, message", [
        ("algorithms", (), "algorithms and parameter grids cannot be empty"),
        ("algorithms", ("passive", "idbal", "idbal"), "algorithms cannot repeat a value"),
        ("capacity_grid", (0.64, 0.64), "capacity_grid cannot repeat a value"),
        ("eta_grid", (0.01, 0.0064, 0.01), "eta_grid cannot repeat a value"),
        ("datasets", None, "dataset names cannot repeat a value"),
    ], ids=["no-algorithm", "algorithm", "capacity", "eta", "dataset-name"])
    def test_rejects_what_would_record_a_grid_point_twice(self, field, value, message):
        value = self._dataset() * 2 if value is None else value
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{"datasets": self._dataset(), field: value})

    @pytest.mark.parametrize("field, value", [("repeats", 0), ("horizon_base", 0), ("horizon_growth", 1)])
    def test_rejects_no_repeats_or_a_bad_schedule(self, field, value):
        with pytest.raises(ValueError, match="repeats and horizon_base must be >= 1, growth >= 2"):
            ExperimentConfig(**{"datasets": self._dataset(), field: value})

    @pytest.mark.parametrize("name", ["Uniform", "margin", ""])
    def test_unknown_policy_rejected(self, name):
        with pytest.raises(ValueError, match=f"unknown policy '{name}'"):
            PolicySpec(name=name)

    def test_table_policy_needs_a_path(self):
        data = load_dataset(self._dataset()[0])
        with pytest.raises(ValueError, match="table policy needs table_path"):
            harness.build_policy(PolicySpec(name="table"), data, "toy", 0, data.matrix)

    def test_requires_positive_workers(self):
        with pytest.raises(ValueError):
            ExperimentConfig(datasets=self._dataset(), workers=0)

    def test_dataset_spec_wants_exactly_one_source(self):
        with pytest.raises(ValueError):
            DatasetSpec(name="bad")
        with pytest.raises(ValueError):
            DatasetSpec(name="bad", synthetic=SyntheticSpec(10, 2, 0.1, 0), path="x.txt")
