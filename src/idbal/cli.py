"""Command line entry point.

Subcommands:
  gen-data  write a synthetic sparse dataset to a text file
  run       one algorithm on one split; prints the query/error trace
  sweep     full paired benchmark protocol; writes summary.csv and curves.csv
  verify    exact-arithmetic estimator self-checks; writes checks.csv
  report    rebuild summary/curves from a saved records.json

All subcommands accept --config FILE with flat 'key = value' lines, and any
config key can be overridden inline as '--key value' (e.g. --seed 7
--policy.name uniform); that is the only way to set a key on the command
line. A key may be set once in the file and once inline, the inline value
winning. Each subcommand rejects every key it does not read (see
_COMMAND_KEYS). Output defaults to ./out or $IDBAL_OUTDIR.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .data import SyntheticSpec, format_sparse_dataset, generate_synthetic
from .harness import (
    CONFIG_TABLE,
    ExperimentConfig,
    ProtocolResult,
    apply_overrides,
    config_to_experiment,
    config_values,
    load_dataset,
    parse_config_text,
    prepare_repeat,
    rebuild_result,
    records_from_json,
    records_to_json,
    report,
    run_point,
    run_protocol,
    write_csv,
)
from .hypotheses import classification_error
from .learners import ALGORITHMS, AlgoConfig
from .oracle import run_verification_suite

OUTPUT_DIR_ENV = "IDBAL_OUTDIR"


def _named(*names: str) -> set[str]:
    """The config keys named, or prefixed, by the given words."""
    return {key for key in CONFIG_TABLE if key.partition(".")[0] in names}


# The config keys each subcommand reads; gen-data's --out flag is its own
# target, not the out key.
_COMMAND_KEYS = {
    "gen-data": {"data.count", "data.dim", "data.flip_prob", "data.seed"},
    "run": _named("data", "policy", "split", "seed", "algo", "horizon", "repeat", "out"),
    "sweep": _named("data", "policy", "split", "seed", "sweep", "repeats", "workers", "out"),
    "verify": {"seed", "verify.fixtures", "out"},
    "report": {"out"},
}


def _load_config(args: argparse.Namespace, extra: list[str]) -> dict[str, str]:
    """The config file's keys, overridden by the inline '--key value' pairs;
    a key the subcommand does not read, from either source, is an error."""
    config: dict[str, str] = {}
    if args.config:
        config = parse_config_text(Path(args.config).read_text(encoding="utf-8"))
    config = apply_overrides(config, extra)
    reads = _COMMAND_KEYS[args.command]
    unread = sorted(set(config) - reads)
    if unread:
        raise ValueError(f"{args.command} reads only {', '.join(sorted(reads))}, "
                         f"not {', '.join(map(repr, unread))}")
    return config


def _out_dir(config: dict[str, str]) -> Path:
    """The out key, else $IDBAL_OUTDIR, else ./out; an empty out is unset."""
    return config_values(config, "output").get("out") or Path(os.environ.get(OUTPUT_DIR_ENV, "out"))


def _cmd_gen_data(args: argparse.Namespace, extra: list[str]) -> int:
    config = _load_config(args, extra)
    spec = SyntheticSpec(**config_values(config, "synthetic"))
    data = generate_synthetic(spec)
    out_path = Path(args.target)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(format_sparse_dataset(data), encoding="utf-8")
    print(f"wrote {len(data)} examples ({spec.dim} features, data.seed {spec.seed}) to {out_path}")
    return 0


def _cmd_run(args: argparse.Namespace, extra: list[str]) -> int:
    config = _load_config(args, extra)
    run = config_values(config, "run")
    algorithm = run.get("algorithm", "idbal")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}")
    # split, logging and seed come from the same reader a sweep uses
    experiment = config_to_experiment(config)
    algo = AlgoConfig(**config_values(config, "algo"))
    dataset, seed, repeat = experiment.datasets[0], experiment.master_seed, run.get("repeat", 0)
    if repeat < 0:
        raise ValueError(f"repeat must be non-negative, got {repeat}")
    fractions = (experiment.test_fraction, experiment.logged_fraction)
    prepared = prepare_repeat(load_dataset(dataset), experiment.policy, dataset.name, seed, repeat, fractions)
    online = len(prepared.online)
    horizon = run.get("horizon", online)
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    horizon = min(horizon, online)
    result = run_point(prepared, algorithm, algo.capacity, algo.eta, horizon)
    # the run returns a classifier per trace point; score each on the test rows
    rows = [(p.consumed, p.queries, f"{classification_error(p.classifier, prepared.test):.6g}") for p in result.trace]
    print(f"dataset {dataset.name}: {len(prepared.logged)} logged ({int(prepared.logged.z.sum())} revealed), "
          f"{horizon} online, {len(prepared.test)} test")
    print(f"algorithm {algorithm}: {result.query_count} queries, "
          f"{result.inferred_count} inferred, {result.skipped_count} skipped")
    print(f"final test error {rows[-1][2]}")
    print("trace (consumed, queries, test_error):")
    for consumed, queries, error in rows:
        print(f"  {consumed:6d} {queries:6d} {error}")
    trace_path = write_csv(_out_dir(config) / "trace.csv", ("consumed", "queries", "test_error"), rows)
    print(f"trace written to {trace_path}")
    return 0


def _print_best(result: ProtocolResult, paths: dict[str, Path]) -> None:
    """Print each (dataset, algorithm)'s best grid point and where the
    summary and curves went; sweep and report both end with this."""
    for (dataset, algorithm), choice in sorted(result.best.items()):
        cap = "-" if choice.capacity is None else f"{choice.capacity:.6g}"
        print(f"{dataset:>16} {algorithm:>8}: best AUC {choice.auc:.6g} "
              f"(C={cap}, eta={choice.eta:.6g})")
    print(f"summary written to {paths['summary']}")
    print(f"curves written to {paths['curves']}")


def _cmd_sweep(args: argparse.Namespace, extra: list[str]) -> int:
    config = _load_config(args, extra)
    experiment = config_to_experiment(config, quick=args.quick)
    result = run_protocol(experiment)
    out = _out_dir(config)
    paths = report(result, out)
    (out / "records.json").write_text(records_to_json(result.records), encoding="utf-8")
    _print_best(result, paths)
    print(f"records written to {out / 'records.json'}")
    return 0


def _cmd_verify(args: argparse.Namespace, extra: list[str]) -> int:
    config = _load_config(args, extra)
    # the suite runs at the master seed a sweep of this config would use
    seed = config_values(config, "experiment").get("master_seed", ExperimentConfig.master_seed)
    rows = run_verification_suite(seed, **config_values(config, "verify"))
    checks_path = write_csv(
        _out_dir(config) / "checks.csv",
        ("name", "passed", "statistic", "threshold", "details"),
        ((row.name, int(row.passed), f"{row.statistic:.6g}", f"{row.threshold:.6g}", row.details) for row in rows),
    )
    failures = [row for row in rows if not row.passed]
    for row in rows:
        mark = "ok " if row.passed else "FAIL"
        print(f"[{mark}] {row.name}: statistic {row.statistic:.6g} "
              f"vs threshold {row.threshold:.6g} ({row.details})")
    print(f"{len(rows) - len(failures)}/{len(rows)} checks passed; written to {checks_path}")
    return 1 if failures else 0


def _cmd_report(args: argparse.Namespace, extra: list[str]) -> int:
    config = _load_config(args, extra)
    records = records_from_json(Path(args.records).read_text(encoding="utf-8"))
    result = rebuild_result(records)
    _print_best(result, report(result, _out_dir(config)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idbal",
        description="Active learning with logged observational data: "
                    "benchmarks, single runs, and verification checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="FILE", help="flat 'key = value' config file")

    gen = sub.add_parser("gen-data", parents=[config], help="write a synthetic sparse dataset")
    gen.add_argument("--out", dest="target", metavar="FILE", required=True, help="output text file")
    gen.set_defaults(func=_cmd_gen_data)

    run = sub.add_parser("run", parents=[config], help="run one algorithm on one split")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", parents=[config], help="paired benchmark over the parameter grid")
    sweep.add_argument("--quick", action="store_true",
                       help="4x4 grid and 5 repeats unless keys set them; no extra datasets")
    sweep.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser("verify", parents=[config], help="estimator and region self-checks")
    verify.set_defaults(func=_cmd_verify)

    rep = sub.add_parser("report", parents=[config], help="rebuild CSV reports from records.json")
    rep.add_argument("--records", required=True)
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        return args.func(args, extra)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
