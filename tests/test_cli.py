"""Command line interface: each subcommand end to end on tiny inputs,
config file plumbing, inline overrides, and error exit codes."""
from __future__ import annotations

import csv
import hashlib
import inspect
import json
import math
import re
from pathlib import Path

import pytest

from idbal import harness
from idbal.cli import _COMMAND_KEYS, OUTPUT_DIR_ENV, _out_dir, main
from idbal.data import parse_sparse_dataset, row_keys, split_dataset
from idbal.harness import CONFIG_KEYS, CONFIG_TABLE, config_to_experiment
from idbal.learners import AlgoConfig
from idbal.oracle import run_verification_suite
from idbal.rng import child_seed

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
        code = main(["gen-data", "--out", str(target), "--data.count", "50", "--data.dim", "4", "--data.seed", "1"])
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

    def test_inline_flag_beats_the_config_file(self, tmp_path, capsys):
        config = tmp_path / "gen.cfg"
        config.write_text("data.count = 30\ndata.dim = 3\n", encoding="utf-8")
        target = tmp_path / "toy.txt"
        assert main(["gen-data", "--config", str(config), "--data.count", "50", "--out", str(target)]) == 0
        assert len(parse_sparse_dataset(target.read_text(encoding="utf-8"))) == 50
        assert "50 examples (3 features, data.seed 0)" in capsys.readouterr().out

    def test_data_seed_sets_the_draw_and_the_master_seed_does_not(self, tmp_path, capsys):
        target, size = tmp_path / "toy.txt", ["--data.count", "50", "--data.dim", "4"]
        assert main(["gen-data", *size, "--data.seed", "3", "--out", str(target)]) == 0
        # the bytes the removed short flags '--count 50 --dim 4 --seed 3' wrote
        assert hashlib.blake2b(target.read_bytes(), digest_size=8).hexdigest() == "513c648d749d5209"
        assert "(4 features, data.seed 3)" in capsys.readouterr().out
        # gen-data reads only data.count/dim/flip_prob/seed: the master seed is
        # an error, named, and nothing is written
        stray = tmp_path / "stray.txt"
        assert main(["gen-data", *size, "--seed", "3", "--out", str(stray)]) == 2
        assert "not 'seed'" in capsys.readouterr().err and not stray.exists()

    # inline --out is gen-data's own target flag, so the out key comes from a file
    @pytest.mark.parametrize(
        "key, where",
        [("policy.name", "inline"), ("data.source", "inline"), ("repeats", "inline"),
         ("policy.name", "file"), ("out", "file")],
    )
    def test_unread_key_exits_two_before_writing(self, tmp_path, capsys, key, where):
        target, config = tmp_path / "toy.txt", tmp_path / "gen.cfg"
        config.write_text("data.count = 30\n" + (f"{key} = uniform\n" if where == "file" else ""), encoding="utf-8")
        inline = [f"--{key}", "uniform"] if where == "inline" else []
        assert main(["gen-data", "--config", str(config), *inline, "--out", str(target)]) == 2
        assert f"not {key!r}" in capsys.readouterr().err and not target.exists()

    def test_missing_out_flag_exits(self):
        with pytest.raises(SystemExit):
            main(["gen-data"])


class TestRun:
    def _args(self, tmp_path, *extra):
        """run's args, each extra '--key value' pair in place of its default:
        a key given twice inline is an error."""
        pairs = {
            "--data.count": "300",
            "--data.dim": "4",
            "--policy.name": "identical",
            "--policy.p": "0.5",
            "--algo.capacity": "0.64",
            "--algo.eta": "0.0064",
            "--horizon": "32",
            "--out": str(tmp_path),
        } | dict(zip(extra[::2], extra[1::2]))
        return ["run", *(word for pair in pairs.items() for word in pair)]

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

    def test_readme_example_prints_what_the_readme_says(self, tmp_path, capsys):
        # the README shows this command and says it skips 91 of its 256 points;
        # a change to that output must update the README too
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        args = ["run", "--algo.name", "idbal", "--algo.capacity", "2621.44", "--algo.eta", "0.0064",
                "--data.count", "2400", "--data.dim", "10", "--policy.name", "uniform", "--horizon", "256"]
        assert "idbal " + " ".join(args) in re.sub(r"\\\n\s*", "", readme)
        assert "skips 91 of its 256 points" in " ".join(readme.split())
        assert main([*args, "--out", str(tmp_path)]) == 0
        assert "algorithm idbal: 160 queries, 5 inferred, 91 skipped" in capsys.readouterr().out

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

    def test_last_trace_row_is_the_sweeps_record(self, tmp_path):
        # the sweep scores each run's final classifier and run scores every
        # trace point: at one config, grid point and horizon the two agree
        data = ["--data.count", "600", "--data.dim", "5"]
        assert main(["sweep", *data, "--repeats", "1", "--sweep.algorithms", "passive,idbal",
                     "--sweep.capacity_grid", "0.64", "--sweep.eta_grid", "0.0064", "--out", str(tmp_path)]) == 0
        curves = (tmp_path / "curves.csv").read_text(encoding="utf-8").splitlines()
        for algorithm, want in (("passive", "80,80,0.208333"), ("idbal", "80,1,0.466667")):
            out = tmp_path / algorithm
            assert main(["run", *data, "--algo.name", algorithm, "--algo.capacity", "0.64", "--algo.eta", "0.0064",
                         "--horizon", "80", "--out", str(out)]) == 0
            last = (out / "trace.csv").read_text(encoding="utf-8").splitlines()[-1]
            assert last == want
            assert f"synthetic,{algorithm},0,{last}" in curves

    def _table_args(self, tmp_path, drop: int | None):
        """Args for a run on a gen-data file under a table policy written over
        its rows' keys, all of them or all but row drop."""
        data_path = tmp_path / "data.txt"
        assert main(["gen-data", "--out", str(data_path), "--data.count", "300", "--data.dim", "4",
                     "--data.seed", "2"]) == 0
        keys = row_keys(parse_sparse_dataset(data_path.read_text(encoding="utf-8")).matrix)
        table_path = tmp_path / "table.csv"
        lines = [f"{key},{0.25 + 0.5 * (i % 2)!r}" for i, key in enumerate(keys) if i != drop]
        table_path.write_text("\n".join(["instance,probability", *lines]) + "\n", encoding="utf-8")
        return ["run", "--data.source", "file", "--data.path", str(data_path), "--policy.name", "table",
                "--policy.table", str(table_path), "--split.test_fraction", "0.01", "--horizon", "32",
                "--out", str(tmp_path / "out")]

    def test_table_policy_from_a_file(self, tmp_path, capsys):
        assert main(self._table_args(tmp_path, drop=None)) == 0
        trace = (tmp_path / "out" / "trace.csv").read_text(encoding="utf-8").splitlines()
        assert trace[0] == "consumed,queries,test_error" and len(trace) > 1

    def test_table_policy_missing_a_row_exits_two(self, tmp_path, capsys):
        # row 0 is a logged or online row at this seed; 3 of the 300 rows
        # are test rows
        assert main(self._table_args(tmp_path, drop=0)) == 2
        assert "not covered" in capsys.readouterr().err

    def test_table_policy_missing_a_test_row_exits_two(self, tmp_path, capsys):
        # q0 belongs to a row, whichever split it lands in, so a table must
        # cover the test rows too; the file dataset data.txt is named "data"
        test = split_dataset(300, (0.01, 0.5), seed=child_seed(0, "data", 0, "split")).test
        assert main(self._table_args(tmp_path, drop=int(test[0]))) == 2
        assert "not covered" in capsys.readouterr().err

    def test_unknown_algorithm_exits_two(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "--algo.name", "boosting")) == 2
        assert "error: unknown algorithm 'boosting'" in capsys.readouterr().err

    def test_dangling_override_exits_two(self, tmp_path, capsys):
        assert main(["run", "--horizon"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_horizon_exits_two(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "--horizon", "-100")) == 2
        assert "error: horizon must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_negative_repeat_exits_two(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "--repeat", "-1")) == 2
        assert "error: repeat must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_nan_eta_exits_two(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "--algo.eta", "nan")) == 2
        assert "error: capacity and eta must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("scale", ["inf", "nan"])
    def test_non_finite_policy_scale_exits_two(self, tmp_path, capsys, scale):
        # an infinite uncertainty scale used to log every row with no label revealed
        args = ["run", "--data.count", "600", "--data.dim", "5", "--policy.name", "uncertainty",
                "--policy.scale", scale, "--horizon", "64", "--out", str(tmp_path)]
        assert main(args) == 2
        assert f"error: scale cannot be negative or non-finite, got {scale}" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("command, args, message", [
        ("run", ["--policy.name", "uniform", "--policy.p", "7"], "policy.name = uniform does not read 'policy.p'"),
        ("run", ["--policy.name", "uniform", "--policy.target", "5"],
         "policy.name = uniform does not read 'policy.target'"),
        ("run", ["--policy.name", "identical", "--policy.scale", "4"],
         "policy.name = identical does not read 'policy.scale'"),
        ("run", ["--policy.name", "identical", "--policy.table", "nowhere.csv"],
         "policy.name = identical does not read 'policy.table'"),
        ("sweep", ["--policy.name", "uniform", "--policy.p", "7"], "policy.name = uniform does not read 'policy.p'"),
        ("run", ["--data.source", "synthetic", "--data.path", "nowhere.txt"],
         "data.source = synthetic does not read 'data.path'"),
        ("sweep", ["--data.source", "file", "--data.path", "nowhere.txt"],
         "data.source = file does not read 'data.count'"),
    ])
    def test_key_the_policy_or_source_does_not_read_exits_two(self, tmp_path, capsys, monkeypatch,
                                                              command, args, message):
        for name in ("prepare_repeat", "run_protocol"):
            monkeypatch.setattr(f"idbal.cli.{name}", lambda *a, **k: pytest.fail("work started"))
        horizon = ["--horizon", "20"] if command == "run" else []
        out = tmp_path / "out"
        assert main([command, "--data.count", "300", *horizon, *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_data_source_exits_two(self, tmp_path, capsys):
        args = ["run", "--data.source", "flie", "--data.count", "300", "--horizon", "20", "--out", str(tmp_path)]
        assert main(args) == 2
        assert "'flie'" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_unparsable_value_names_its_key(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "--data.count", "abc")) == 2
        assert "error: data.count: invalid literal" in capsys.readouterr().err

    def test_empty_test_split_exits_two(self, tmp_path, capsys):
        args = self._args(tmp_path, "--data.count", "60", "--split.test_fraction", "0.01")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "error: the test split is empty" in err and "split.test_fraction" in err


def _printed_files(out: str) -> list[tuple[str, str]]:
    """The (name, path) of every 'NAME written to PATH' line."""
    return re.findall(r"^(\w+) written to (.+)$", out, re.MULTILINE)


class TestSweep:
    def test_writes_all_outputs(self, sweep_out):
        for name in ("summary.csv", "curves.csv", "pairwise.csv", "records.json"):
            assert (sweep_out / name).exists()

    def test_prints_every_file_it_wrote(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SWEEP_CONFIG, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        names = ("summary.csv", "curves.csv", "pairwise.csv", "records.json")
        assert _printed_files(capsys.readouterr().out) == [(Path(n).stem, str(out / n)) for n in names]
        assert sorted(path.name for path in out.iterdir()) == sorted(names)

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

    @pytest.mark.parametrize("key, value", [("sweep.capacity_grid", "0"), ("sweep.eta_grid", "nan")])
    def test_bad_grid_value_exits_two_before_any_run(self, tmp_path, capsys, monkeypatch, key, value):
        monkeypatch.setattr("idbal.cli.run_protocol", lambda experiment: pytest.fail("a run started"))
        out = tmp_path / "out"
        assert main(["sweep", f"--{key}", value, "--out", str(out)]) == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--sweep.algorithms", "passive,idbal,idbal", "--sweep.capacity_grid", "0.64,0.64"],
         "algorithms cannot repeat a value"),
        (["--sweep.capacity_grid", "0.64,0.64"], "capacity_grid cannot repeat a value"),
        (["--sweep.eta_grid", "0.0064,0.0064"], "eta_grid cannot repeat a value"),
        (["--sweep.algorithms", ","], "algorithms and parameter grids cannot be empty"),
    ], ids=["algorithm-and-capacity", "capacity", "eta", "no-algorithm"])
    def test_repeated_grid_point_exits_two_before_any_run(self, tmp_path, capsys, monkeypatch, args, message):
        monkeypatch.setattr("idbal.cli.run_protocol", lambda experiment: pytest.fail("a run started"))
        out = tmp_path / "out"
        assert main(["sweep", *args, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

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
        for name in ("summary.csv", "curves.csv", "pairwise.csv"):
            assert (tmp_path / name).read_bytes() == (sweep_out / name).read_bytes(), name
        assert "best AUC" in capsys.readouterr().out

    def test_prints_every_file_it_wrote(self, sweep_out, tmp_path, capsys):
        assert main(["report", "--records", str(sweep_out / "records.json"), "--out", str(tmp_path)]) == 0
        names = ("summary.csv", "curves.csv", "pairwise.csv")
        assert _printed_files(capsys.readouterr().out) == [(Path(n).stem, str(tmp_path / n)) for n in names]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)

    @pytest.mark.parametrize("edit, message", [
        (lambda row: {"dataset": row["dataset"], "algorithm": row["algorithm"]}, "row 1: missing fields ['capacity',"),
        (lambda row: row | {"extra": 1}, "row 1: missing fields [], unknown fields ['extra']"),
        (lambda row: list(row.values()), "row 1: not a JSON object"),
        (lambda row: row | {"horizon": "ten"}, "row 1: horizon must be int, got 'ten'"),
        (lambda row: row | {"queries": -5, "test_error": math.nan}, "row 1: queries must be non-negative, got -5"),
        (lambda row: row | {"eta": math.nan}, "row 1: eta must be positive and finite, got nan"),
    ], ids=["missing-field", "unknown-field", "not-an-object", "text-horizon", "negative-queries-nan-error",
            "nan-eta"])
    def test_malformed_record_exits_two(self, sweep_out, tmp_path, capsys, edit, message):
        # the edited first row, then a valid one
        rows = json.loads((sweep_out / "records.json").read_text(encoding="utf-8"))
        records = tmp_path / "records.json"
        records.write_text(json.dumps([edit(rows[0]), rows[1]]), encoding="utf-8")
        assert main(["report", "--records", str(records), "--out", str(tmp_path / "report")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_repeated_record_exits_two(self, sweep_out, tmp_path, capsys):
        # a copy of the first row with other outcomes would be averaged into its grid point
        rows = json.loads((sweep_out / "records.json").read_text(encoding="utf-8"))
        records = tmp_path / "records.json"
        records.write_text(json.dumps(rows + [rows[0] | {"queries": 0, "test_error": 0}]), encoding="utf-8")
        assert main(["report", "--records", str(records), "--out", str(tmp_path / "report")]) == 2
        assert f"error: row {len(rows) + 1}: repeats row 1's grid point" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_a_second_horizon_at_one_index_exits_two(self, sweep_out, tmp_path, capsys):
        # a third repeat of the first row's grid point, run on a longer schedule
        rows = json.loads((sweep_out / "records.json").read_text(encoding="utf-8"))
        first = rows[0]
        records = tmp_path / "records.json"
        records.write_text(json.dumps(rows + [first | {"repeat": 2, "horizon": 2 * first["horizon"]}]),
                           encoding="utf-8")
        assert main(["report", "--records", str(records), "--out", str(tmp_path / "report")]) == 2
        assert (f"error: row {len(rows) + 1}: horizon {2 * first['horizon']} at 'synthetic' horizon_index "
                f"{first['horizon_index']} differs from row 1's horizon {first['horizon']}") in capsys.readouterr().err
        assert not (tmp_path / "report").exists()


class TestVerify:
    def test_small_suite_passes(self, tmp_path, capsys):
        code = main([
            "verify",
            "--seed", "0",
            "--verify.fixtures", "2",
            "--out", str(tmp_path),
        ])
        assert code == 0
        with open(tmp_path / "checks.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "passed", "statistic", "threshold", "details"]
        assert len(rows) == 1 + 3 * 2
        assert all(row[3] == "1" for row in rows[1:] if row[0].startswith("variance-dominance"))
        # a details cell with commas in it is quoted, so every row reads back whole
        assert all(len(row) == 5 and row[1] == "1" for row in rows[1:])
        assert "checks passed" in capsys.readouterr().out

    def test_inline_flags_beat_the_config_file(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "verify.cfg"
        config.write_text("seed = 5\nverify.fixtures = 1\n", encoding="utf-8")
        calls = []

        def suite(seed, fixtures):
            calls.append((seed, fixtures))
            return []

        monkeypatch.setattr("idbal.cli.run_verification_suite", suite)
        args = ["verify", "--config", str(config), "--seed", "0", "--verify.fixtures", "3", "--out", str(tmp_path)]
        assert main(args) == 0
        assert calls == [(0, 3)]
        capsys.readouterr()

    def test_output_dir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env-out"))
        code = main(["verify", "--seed", "0", "--verify.fixtures", "1"])
        assert code == 0
        assert (tmp_path / "env-out" / "checks.csv").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("env", [True, False], ids=["env-set", "env-unset"])
    def test_empty_out_is_unset(self, tmp_path, capsys, monkeypatch, env):
        # an empty out falls back to $IDBAL_OUTDIR, else ./out, not the working directory
        monkeypatch.chdir(tmp_path)
        if env:
            monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "env-out"))
        else:
            monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        assert main(["verify", "--seed", "0", "--verify.fixtures", "1", "--out", ""]) == 0
        assert (tmp_path / ("env-out" if env else "out") / "checks.csv").exists()
        assert not (tmp_path / "checks.csv").exists()
        capsys.readouterr()

    def test_no_fixtures_exits_two(self, tmp_path, capsys):
        code = main(["verify", "--verify.fixtures", "-3", "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: fixtures must be at least 1, got -3" in captured.err
        assert "checks passed" not in captured.out
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

    @pytest.mark.parametrize("command, flag, value", [("gen-data", "--count", "5"), ("verify", "--fixtures", "2")])
    def test_short_flag_is_an_unknown_key(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        assert main([command, flag, value, "--out", str(out)]) == 2
        assert f"unknown config key {flag[2:]!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_in_config_file_exits_two(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(SWEEP_CONFIG + "sweep.repeats = 3\n", encoding="utf-8")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "sweep")]) == 2
        assert "unknown config key 'sweep.repeats'" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_key_repeated_in_the_file_exits_two(self, tmp_path, capsys):
        config = tmp_path / "verify.cfg"
        config.write_text("seed = 1\nverify.fixtures = 1\nseed = 2\n", encoding="utf-8")
        assert main(["verify", "--config", str(config), "--out", str(tmp_path / "verify")]) == 2
        assert "error: config line 3: key 'seed' repeats line 1" in capsys.readouterr().err
        assert not (tmp_path / "verify").exists()

    def test_key_repeated_inline_exits_two(self, tmp_path, capsys):
        args = ["verify", "--seed", "1", "--verify.fixtures", "1", "--seed", "2", "--out", str(tmp_path / "verify")]
        assert main(args) == 2
        assert "error: inline pair 3: key 'seed' repeats pair 1" in capsys.readouterr().err
        assert not (tmp_path / "verify").exists()

    def test_known_keys_are_the_readme_table_plus_repeat(self):
        documented = {key for keys, _ in _readme_config_rows() for key in keys}
        assert CONFIG_KEYS == documented | {"repeat"}


class TestUnreadKeys:
    def test_each_command_reads_its_own_keys(self):
        sweep_only = {key for key in CONFIG_KEYS if key.startswith("sweep.")} | {"repeats", "workers"}
        run_only = {key for key in CONFIG_KEYS if key.startswith("algo.")} | {"horizon", "repeat"}
        assert _COMMAND_KEYS["verify"] == {"seed", "verify.fixtures", "out"}
        assert _COMMAND_KEYS["report"] == {"out"}
        assert _COMMAND_KEYS["gen-data"] == {"data.count", "data.dim", "data.flip_prob", "data.seed"}
        assert _COMMAND_KEYS["run"] == CONFIG_KEYS - sweep_only - {"verify.fixtures"}
        assert _COMMAND_KEYS["sweep"] == CONFIG_KEYS - run_only - {"verify.fixtures"}

    @pytest.mark.parametrize("command, args, key", [
        ("run", ["--data.count", "300", "--horizon", "20", "--sweep.eta_grid", "0.5"], "sweep.eta_grid"),
        ("run", ["--repeats", "3"], "repeats"),
        ("run", ["--workers", "2"], "workers"),
        ("run", ["--verify.fixtures", "2"], "verify.fixtures"),
        ("sweep", ["--algo.eta", "0.5"], "algo.eta"),
        ("sweep", ["--horizon", "20"], "horizon"),
        ("sweep", ["--repeat", "1"], "repeat"),
        ("verify", ["--verify.fixtures", "1", "--algo.eta", "0.5"], "algo.eta"),
        ("verify", ["--data.source", "flie"], "data.source"),
        ("verify", ["--sweep.eta_grid", "-1"], "sweep.eta_grid"),
        ("report", ["--seed", "3"], "seed"),
    ])
    def test_unread_key_exits_two_before_any_work(self, tmp_path, capsys, monkeypatch, command, args, key):
        for name in ("run_point", "run_protocol", "run_verification_suite", "records_from_json"):
            monkeypatch.setattr(f"idbal.cli.{name}", lambda *a, **k: pytest.fail("work started"))
        records = ["--records", str(tmp_path / "records.json")] if command == "report" else []
        out = tmp_path / "out"
        assert main([command, *records, *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command} reads only ") and err.endswith(f", not {key!r}\n")
        assert not out.exists()

    def test_unread_key_in_the_file_exits_two(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("data.count = 300\nsweep.algorithms = passive\nrepeats = 2\n", encoding="utf-8")
        assert main(["run", "--config", str(config), "--horizon", "20", "--out", str(tmp_path / "run")]) == 2
        assert "not 'repeats', 'sweep.algorithms'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


def _readme_config_rows() -> list[tuple[list[str], str]]:
    """(keys, default cell) for each row of the README's config table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config keys", 1)[1].split("\n## ", 1)[0]
    cells = [line.split("|") for line in table.splitlines() if line.startswith("| `")]
    return [(re.findall(r"`([a-z_.0-9]+)`", row[1]), row[2].strip()) for row in cells]


def _parameter_defaults(function) -> dict[str, object]:
    return {name: p.default for name, p in inspect.signature(function).parameters.items()}


class _Ran(Exception):
    pass


class TestDefaults:
    def _empty_config_values(self, monkeypatch) -> dict[str, object]:
        """What each key reads as when no config sets it: the field or
        argument that CONFIG_TABLE says the key sets, as the readers build it."""
        experiment = config_to_experiment({})
        prepared_repeats = []

        def record_repeat(data, spec, dataset_name, master_seed, repeat, fractions):
            prepared_repeats.append(repeat)
            return harness.prepare_repeat(data, spec, dataset_name, master_seed, repeat, fractions)

        def stop_at_run_point(prepared, algorithm, capacity, eta, horizon):
            raise _Ran({"algorithm": algorithm, "repeat": prepared_repeats[-1], "horizon": horizon})

        monkeypatch.setattr("idbal.cli.prepare_repeat", record_repeat)
        monkeypatch.setattr("idbal.cli.run_point", stop_at_run_point)
        with pytest.raises(_Ran) as ran:
            main(["run"])
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        by_target = {
            "dataset": _parameter_defaults(harness._main_dataset),
            "synthetic": vars(experiment.datasets[0].synthetic),
            "policy": vars(experiment.policy),
            "experiment": vars(experiment),
            "algo": vars(AlgoConfig()),
            "run": ran.value.args[0],
            "verify": _parameter_defaults(run_verification_suite),
            "output": {"out": _out_dir({})},
        }
        return {key: by_target[target][name] for key, (target, name, _) in CONFIG_TABLE.items()}

    def test_readme_defaults_match_an_empty_config(self, monkeypatch):
        # only rows giving one plain number or backticked word per key
        values = self._empty_config_values(monkeypatch)
        checked = []
        for keys, cell in _readme_config_rows():
            words = [re.fullmatch(r"`([^` ]+)`|([0-9.]+)", tok.strip()) for tok in cell.split(",")]
            if len(words) != len(keys) or not all(words):
                continue
            for key, word in zip(keys, words):
                assert type(values[key])(word.group(1) or word.group(2)) == values[key], key
                checked.append(key)
        assert len(checked) >= 23, checked


class TestParserErrors:
    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])
