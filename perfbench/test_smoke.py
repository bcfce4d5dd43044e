"""Smoke test of the benchmark itself, at tiny workload sizes.

    PYTHONPATH=src python -m pytest -q perfbench

Each workload must print every metric BENCHMARK.json names, with its unit,
and pass its output checks; a corrupted record or run must trip them; and
outside a checkout the command must fail without printing a result.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from inputs import exact_world, sparse_libsvm_text  # noqa: E402

import idbal.harness as harness  # noqa: E402
from idbal.learners import ALGORITHMS, AlgoConfig  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A scratch checkout root whose src is the real one, so outputs land in
    tmp_path rather than in the repository."""
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(checkout, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines[:-1]), name
    assert (checkout / ".perfbench_out" / workload / f"result-seed3-trace{trace}.json").is_file()


def test_corrupted_sweep_record_trips_the_checks():
    sweep = workloads.sweep_dense(5, workloads.SIZES["tiny"]["sweep-dense"], Path("unused"))
    cfg = harness.config_to_experiment(sweep.config)
    records = list(harness.run_protocol(cfg).records)
    sizes = {cfg.datasets[0].name: workloads.SIZES["tiny"]["sweep-dense"]["count"]}
    assert workloads.check_sweep(records, cfg, sizes)[1] == 0

    over = dataclasses.replace(records[-1], queries=records[-1].horizon + 1)
    attempted, failed, problems = workloads.check_sweep(records[:-1] + [over], cfg, sizes)
    assert (attempted, failed) == (len(records), 1) and "queries" in problems[0]

    passive = next(i for i, r in enumerate(records) if r.algorithm == "passive")
    short = dataclasses.replace(records[passive], queries=0)
    assert workloads.check_sweep(records[:passive] + [short] + records[passive + 1:], cfg, sizes)[1] == 1
    assert workloads.check_sweep(records[1:], cfg, sizes)[1] == 1
    other = dataclasses.replace(records[0], data_digest="0" * 12)
    assert workloads.check_sweep([other] + records[1:], cfg, sizes)[1] == 1


def test_corrupted_exact_run_trips_the_checks():
    world = exact_world(5, 0, 4, 8, 200, 15)
    result = ALGORITHMS["idbal"](world.logged, world.online, world.policy,
                                 world.instance.classifiers, AlgoConfig(mode="exact"), 0)
    assert workloads.check_exact_run(world, "idbal", result)[0] == []
    bad = dataclasses.replace(result, query_count=result.query_count + 1)
    assert workloads.check_exact_run(world, "idbal", bad)[0]


def test_inputs_follow_the_seed():
    assert sparse_libsvm_text(7, 30, 40, 5, 0.1) == sparse_libsvm_text(7, 30, 40, 5, 0.1)
    assert sparse_libsvm_text(7, 30, 40, 5, 0.1) != sparse_libsvm_text(8, 30, 40, 5, 0.1)
    a, b = exact_world(7, 0, 4, 8, 50, 7), exact_world(8, 0, 4, 8, 50, 7)
    assert a.logged == exact_world(7, 0, 4, 8, 50, 7).logged and a.logged != b.logged


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "sweep-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
