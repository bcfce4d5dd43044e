"""Command line interface: each subcommand end to end on tiny inputs,
config file plumbing, inline overrides, and error exit codes."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

from idbal.cli import main
from idbal.data import parse_sparse_dataset
from idbal.harness import CONFIG_KEYS, OUTPUT_DIR_ENV

SWEEP_CONFIG = """
# tiny paired sweep
data.count = 240
data.dim = 4
data.seed = 3
policy.name = identical
policy.p = 0.5
repeats = 2
seed = 7
sweep.algorithms = passive, idbal
sweep.capacity_grid = 0.64
sweep.eta_grid = 0.0064
sweep.horizon_base = 8
"""


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    config = out / "sweep.cfg"
    config.write_text(SWEEP_CONFIG, encoding="utf-8")
    code = main(["sweep", "--config", str(config), "--out", str(out)])
    assert code == 0
    return out


class TestGenData:
    def test_writes_parseable_dataset(self, tmp_path, capsys):
        target = tmp_path / "toy.txt"
        code = main(["gen-data", "--out", str(target), "--count", "50", "--dim", "4", "--seed", "1"])
        assert code == 0
        data = parse_sparse_dataset(target.read_text(encoding="utf-8"))
        assert len(data) == 50
        assert "50 examples" in capsys.readouterr().out

    def test_config_file_overrides_flag_defaults(self, tmp_path):
        config = tmp_path / "gen.cfg"
        config.write_text("data.count = 30\ndata.dim = 3\n", encoding="utf-8")
        target = tmp_path / "toy.txt"
        assert main(["gen-data", "--config", str(config), "--out", str(target)]) == 0
        assert len(parse_sparse_dataset(target.read_text(encoding="utf-8"))) == 30

    def test_missing_out_flag_exits(self):
        with pytest.raises(SystemExit):
            main(["gen-data"])


class TestRun:
    def _args(self, tmp_path, *extra):
        return [
            "run",
            "--data.count", "300",
            "--data.dim", "4",
            "--policy.name", "identical",
            "--policy.p", "0.5",
            "--algo.capacity", "0.64",
            "--algo.eta", "0.0064",
            "--horizon", "32",
            "--out", str(tmp_path),
            *extra,
        ]

    def test_prints_trace_and_writes_csv(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "--algo.name", "idbal")) == 0
        out = capsys.readouterr().out
        assert "algorithm idbal" in out
        assert "final test error" in out
        trace = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()
        assert trace[0] == "consumed,queries,test_error"
        assert len(trace) > 1

    def test_passive_runs_too(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "--algo.name", "passive")) == 0
        assert "algorithm passive" in capsys.readouterr().out

    def test_matches_the_sweep_at_the_same_grid_point(self, sweep_out, tmp_path):
        # run and sweep make a grid point's run through one path, so the
        # trace's last row is the sweep's record for that repeat and horizon
        curves = (sweep_out / "curves.csv").read_text(encoding="utf-8").splitlines()
        for algorithm, repeat, horizon in (("idbal", "1", "16"), ("passive", "0", "64")):
            args = ["run", "--data.count", "240", "--data.dim", "4", "--data.seed", "3", "--policy.name", "identical",
                    "--policy.p", "0.5", "--seed", "7", "--repeat", repeat, "--algo.name", algorithm,
                    "--algo.capacity", "0.64", "--algo.eta", "0.0064", "--horizon", horizon, "--out", str(tmp_path)]
            assert main(args) == 0
            last = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()[-1]
            assert f"synthetic,{algorithm},{repeat},{last}" in curves

    def test_unknown_algorithm_exits_two(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "--algo.name", "boosting")) == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_dangling_override_exits_two(self, tmp_path, capsys):
        assert main(["run", "--horizon"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_horizon_exits_two(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "--horizon", "-100")) == 2
        assert "error: horizon must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_nan_eta_exits_two(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "--algo.eta", "nan")) == 2
        assert "error: capacity and eta must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_empty_test_split_exits_two(self, tmp_path, capsys):
        args = self._args(tmp_path, "--data.count", "60", "--split.test_fraction", "0.01")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "error: the test split is empty" in err and "split.test_fraction" in err


class TestSweep:
    def test_writes_all_outputs(self, sweep_out):
        for name in ("summary.csv", "curves.csv", "pairwise.csv", "records.json"):
            assert (sweep_out / name).exists()

    def test_summary_mentions_both_algorithms(self, sweep_out):
        rows = (sweep_out / "summary.csv").read_text(encoding="utf-8").splitlines()
        algorithms = {row.split(",")[1] for row in rows[1:]}
        assert algorithms == {"passive", "idbal"}

    def test_bad_config_exits_two(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("this is not key value\n", encoding="utf-8")
        assert main(["sweep", "--config", str(config)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "absent.cfg")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_test_split_exits_two(self, tmp_path, capsys):
        # sweep and run prepare a repeat through the same harness path
        args = ["sweep", "--data.count", "60", "--split.test_fraction", "0.01", "--repeats", "1",
                "--sweep.algorithms", "passive", "--sweep.eta_grid", "0.01", "--out", str(tmp_path)]
        assert main(args) == 2
        assert "error: the test split is empty" in capsys.readouterr().err


class TestReport:
    def test_rebuilds_identical_summary(self, sweep_out, tmp_path, capsys):
        code = main([
            "report",
            "--records", str(sweep_out / "records.json"),
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "summary.csv").read_bytes() == (sweep_out / "summary.csv").read_bytes()
        assert (tmp_path / "curves.csv").read_bytes() == (sweep_out / "curves.csv").read_bytes()
        assert "best AUC" in capsys.readouterr().out


class TestVerify:
    def test_small_suite_passes(self, tmp_path, capsys):
        code = main([
            "verify",
            "--seed", "0",
            "--fixtures", "2",
            "--trials", "2000",
            "--out", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "checks.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "name,passed,statistic,threshold,details"
        assert len(rows) > 1
        assert all(row.split(",")[1] == "1" for row in rows[1:])
        assert "checks passed" in capsys.readouterr().out

    def test_output_dir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env-out"))
        code = main(["verify", "--seed", "0", "--fixtures", "1", "--trials", "1000"])
        assert code == 0
        assert (tmp_path / "env-out" / "checks.csv").exists()
        capsys.readouterr()


    @pytest.mark.parametrize("trials", ["0", "-5", "1"])
    def test_too_few_trials_exits_two(self, tmp_path, capsys, trials):
        code = main(["verify", "--fixtures", "2", "--trials", trials, "--out", str(tmp_path)])
        assert code == 2
        assert "error: trials must be at least 2" in capsys.readouterr().err
        assert not (tmp_path / "checks.csv").exists()


class TestUnknownKeys:
    def test_misspelt_run_key_exits_two_before_running(self, tmp_path, capsys):
        assert main(["run", "--algo.capcity", "5", "--out", str(tmp_path / "run")]) == 2
        assert "unknown config key 'algo.capcity'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_misspelt_verify_flag_exits_two_before_checking(self, tmp_path, capsys):
        assert main(["verify", "--trails", "5", "--out", str(tmp_path / "verify")]) == 2
        captured = capsys.readouterr()
        assert "unknown config key 'trails'" in captured.err
        assert "checks passed" not in captured.out
        assert not (tmp_path / "verify").exists()

    def test_unknown_key_in_config_file_exits_two(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SWEEP_CONFIG + "sweep.repeats = 3\n", encoding="utf-8")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "sweep")]) == 2
        assert "unknown config key 'sweep.repeats'" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_known_keys_are_the_readme_table_plus_repeat(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("### Config keys", 1)[1].split("\n## ", 1)[0]
        documented = {
            key
            for line in table.splitlines()
            if line.startswith("| `")
            for key in re.findall(r"`([a-z_.0-9]+)`", line.split("|")[1])
        }
        assert CONFIG_KEYS == documented | {"repeat"}


class TestParserErrors:
    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])
