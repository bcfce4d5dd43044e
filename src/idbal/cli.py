"""Command line entry point.

Subcommands:
  gen-data  write a synthetic sparse dataset to a text file
  run       one algorithm on one split; prints the query/error trace
  sweep     full paired benchmark protocol; writes summary.csv and curves.csv
  verify    exact-arithmetic and Monte Carlo self-checks; writes checks.csv
  report    rebuild summary/curves from a saved records.json

All subcommands accept --config FILE with flat 'key = value' lines, and any
config key can be overridden inline as '--key value' (e.g. --seed 7
--policy.name uniform). Output defaults to ./out or $IDBAL_OUTDIR.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .data import SyntheticSpec, format_sparse_dataset, generate_synthetic
from .harness import (
    ProtocolResult,
    apply_overrides,
    config_to_experiment,
    datasets_from_config,
    default_output_dir,
    load_dataset,
    parse_config_text,
    policy_from_config,
    prepare_repeat,
    rebuild_result,
    records_from_json,
    records_to_json,
    report,
    run_point,
    run_protocol,
    write_csv,
)
from .learners import ALGORITHMS
from .oracle import run_verification_suite


def _load_config(args: argparse.Namespace, extra: list[str]) -> dict[str, str]:
    config: dict[str, str] = {}
    if getattr(args, "config", None):
        config = parse_config_text(Path(args.config).read_text(encoding="utf-8"))
    return apply_overrides(config, extra)


def _out_dir(config: dict[str, str]) -> Path:
    if "out" in config:
        return Path(config["out"])
    return default_output_dir()


def _cmd_gen_data(args: argparse.Namespace, extra: list[str]) -> int:
    config = _load_config(args, extra)
    spec = SyntheticSpec(
        count=int(config.get("data.count", args.count)),
        dim=int(config.get("data.dim", args.dim)),
        flip_prob=float(config.get("data.flip_prob", args.flip_prob)),
        seed=int(config.get("data.seed", args.seed)),
    )
    data = generate_synthetic(spec)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(format_sparse_dataset(data), encoding="utf-8")
    print(f"wrote {len(data)} examples ({spec.dim} features) to {out_path}")
    return 0


def _cmd_run(args: argparse.Namespace, extra: list[str]) -> int:
    config = _load_config(args, extra)
    algorithm = config.get("algo.name", "idbal")
    if algorithm not in ALGORITHMS:
        print(f"unknown algorithm {algorithm!r}; choose from {sorted(ALGORITHMS)}", file=sys.stderr)
        return 2
    dataset = datasets_from_config(config)[0]
    seed = int(config.get("seed", "0"))
    repeat = int(config.get("repeat", "0"))
    fractions = (float(config.get("split.test_fraction", "0.2")), float(config.get("split.logged_fraction", "0.5")))
    prepared = prepare_repeat(load_dataset(dataset), policy_from_config(config), dataset.name, seed, repeat, fractions)
    online = len(prepared.online)
    horizon = int(config.get("horizon", str(online)))
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    horizon = min(horizon, online)
    capacity = float(config.get("algo.capacity", "0.01"))
    eta = float(config.get("algo.eta", "0.1"))
    result = run_point(prepared, dataset.name, seed, repeat, algorithm, capacity, eta, horizon)
    print(f"dataset {dataset.name}: {len(prepared.logged)} logged ({int(prepared.logged.z.sum())} revealed), "
          f"{horizon} online, {len(prepared.test)} test")
    print(f"algorithm {algorithm}: {result.query_count} queries, "
          f"{result.inferred_count} inferred, {result.skipped_count} skipped")
    print(f"final test error {result.final_test_error:.6g}")
    print("trace (consumed, queries, test_error):")
    for point in result.trace:
        print(f"  {point.consumed:6d} {point.queries:6d} {point.test_error:.6g}")
    trace_path = write_csv(
        _out_dir(config) / "trace.csv",
        ("consumed", "queries", "test_error"),
        ((point.consumed, point.queries, f"{point.test_error:.6g}") for point in result.trace),
    )
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
    rows = run_verification_suite(
        seed=int(config.get("seed", str(args.seed))),
        fixtures=int(config.get("verify.fixtures", str(args.fixtures))),
        trials=int(config.get("verify.trials", str(args.trials))),
    )
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

    gen = sub.add_parser("gen-data", help="write a synthetic sparse dataset")
    gen.add_argument("--out", required=True, help="output text file")
    gen.add_argument("--count", type=int, default=6000)
    gen.add_argument("--dim", type=int, default=30)
    gen.add_argument("--flip-prob", dest="flip_prob", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--config")
    gen.set_defaults(func=_cmd_gen_data)

    run = sub.add_parser("run", help="run one algorithm on one split")
    run.add_argument("--config")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="paired benchmark over the parameter grid")
    sweep.add_argument("--config")
    sweep.add_argument("--quick", action="store_true",
                       help="small grids, fewer repeats, two extra small datasets")
    sweep.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser("verify", help="estimator and region self-checks")
    verify.add_argument("--config")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--fixtures", type=int, default=20)
    verify.add_argument("--trials", type=int, default=20000)
    verify.set_defaults(func=_cmd_verify)

    rep = sub.add_parser("report", help="rebuild CSV reports from records.json")
    rep.add_argument("--records", required=True)
    rep.add_argument("--config")
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
