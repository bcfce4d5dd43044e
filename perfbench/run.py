"""Benchmark entry point for idbal.

    python3 perfbench/run.py --workload sweep-dense --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports the package from
`./src` and refuses to run anywhere else. Outputs (report files, sparse
input, spans, results) go under `./.perfbench_out/<workload>/`.

With `--trace 0` it sets up the workload several times (set-up = importing
idbal plus loading the input; medians are reported), then repeats whole
units of measured work while another unit still fits in `--seconds` (at
least one), and prints the end-to-end metrics. With `--trace 1` it runs one
untraced unit and one traced unit and prints the per-layer metrics. Either
way it checks the program's outputs, prints a human-readable summary, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}. The
exit code is 0 only when every output check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import idbal; print(time.perf_counter() - t)"
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "run_p50_ms": "ms",
    "run_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "final_error": "fraction",
}
# per-layer metric -> unit; "_s" metrics are self times from the spans
PER_LAYER_UNITS = {
    **{f"data.{n}_s": "s" for n in ("generate", "parse", "split", "logging", "dense")},
    "policies.prob_calls": "count",
    "policies.prob_s": "s",
    "policies.fit_s": "s",
    "policies.calibrate_s": "s",
    "estimators.sample_calls": "count",
    "estimators.sample_s": "s",
    "estimators.mis_error_calls": "count",
    "estimators.mis_error_s": "s",
    "hypotheses.test_error_calls": "count",
    "hypotheses.test_error_s": "s",
    "hypotheses.update_calls": "count",
    "hypotheses.update_s": "s",
    "hypotheses.region_calls": "count",
    "hypotheses.region_s": "s",
    "hypotheses.erm_calls": "count",
    "hypotheses.erm_s": "s",
    "learners.runs": "count",
    "learners.run_s": "s",
    "learners.self_s": "s",
    "learners.queries": "count",
    "learners.inferred": "count",
    "learners.skipped": "count",
    "learners.query_share": "fraction",
    "learners.diverged": "count",
    "learners.numeric_warnings": "count",
    "harness.aggregate_s": "s",
    "harness.report_s": "s",
    "harness.report_bytes": "bytes",
    "oracle.mc_s": "s",
    "oracle.geometry_s": "s",
    "oracle.checks": "count",
    "oracle.checks_failed": "count",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def import_interval(root: Path) -> tuple[float, float, float]:
    """(start, end, seconds): `import idbal` timed inside a fresh interpreter,
    and when that interpreter ran."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=root, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return start, time.perf_counter(), float(done.stdout.strip().splitlines()[-1])


def git_revision(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_revision(root),
    }


def end_to_end(probe, imports, loads, units, peak_rss_mb: float, normalised: bool) -> dict[str, float]:
    """The end-to-end metrics, in seconds at the probe's reference speed or,
    with normalised=False, in raw seconds (probe time excluded either way)."""
    span = probe.normalise if normalised else probe.raw
    scale = probe.scale if normalised else (lambda start, end: 1.0)
    run_ms = [1000.0 * span(r.start, r.end) for u in units for r in u.runs]
    return {
        "setup_s": statistics.median(s * scale(a, b) for a, b, s in imports)
        + statistics.median(span(a, b) for a, b in loads),
        "wall_s": statistics.median(span(u.start, u.end) for u in units),
        "run_p50_ms": percentile(run_ms, 50.0),
        "run_p90_ms": percentile(run_ms, 90.0),
        "peak_rss_mb": peak_rss_mb,
        "final_error": units[0].final_error,
    }


def per_layer(tracer, untraced, traced) -> dict[str, float]:
    totals = tracer.layer_totals()
    calls = lambda layer: totals.get(layer, (0, 0.0))[0]
    own = lambda layer: totals.get(layer, (0, 0.0))[1]
    runs = traced.runs
    consumed = sum(r.online for r in runs)
    queries = sum(r.queries for r in runs)
    metrics: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        layer, _, kind = name.rpartition("_")
        if kind == "calls":
            metrics[name] = calls(layer)
        elif kind == "s" and layer in totals:
            metrics[name] = own(layer)
    metrics.update({
        "learners.runs": calls("learners.run"),
        "learners.run_s": tracer.inclusive_seconds("learners.run"),
        "learners.self_s": own("learners.run"),
        "learners.queries": queries,
        "learners.inferred": sum(r.inferred for r in runs),
        "learners.skipped": sum(r.skipped for r in runs),
        "learners.query_share": queries / consumed if consumed else 0.0,
        "learners.diverged": sum(r.diverged for r in runs),
        "learners.numeric_warnings": traced.numeric_warnings,
        "harness.report_bytes": traced.report_bytes,
        "oracle.checks": traced.oracle_checks,
        "oracle.checks_failed": traced.oracle_failed,
        "traced_wall_s": traced.end - traced.start,
        "trace_overhead_s": (traced.end - traced.start) - (untraced.end - untraced.start),
    })
    return {name: float(metrics.get(name, 0.0)) for name in PER_LAYER_UNITS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # One core per workload: pin the BLAS pool before numpy loads, so a
    # matrix-vector product neither spreads over nor spin-waits on the
    # machine's other cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    root = Path.cwd()
    package = root / "src" / "idbal"
    if not (package / "__init__.py").is_file():
        print(f"error: no idbal sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import idbal

    if Path(idbal.__file__).resolve().parent != package.resolve():
        print(f"error: imported idbal from {idbal.__file__}, not from {package}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer
    from speed import SpeedProbe

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    out_dir = root / ".perfbench_out" / args.workload
    workload = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size][args.workload], out_dir)
    workload.prepare()

    if args.trace == 0:
        with SpeedProbe() as probe:
            imports = [import_interval(root) for _ in range(SETUP_REPEATS)]
            loads = []
            for _ in range(SETUP_REPEATS):
                inputs = None  # free the previous copy so peak RSS holds one input
                start = time.perf_counter()
                inputs = workload.load()
                loads.append((start, time.perf_counter()))
            units = []
            start = time.perf_counter()
            while True:
                units.append(workload.run(inputs))
                if time.perf_counter() - start + (units[-1].end - units[-1].start) > args.seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(probe, imports, loads, units, peak_rss_mb, normalised=True)
        raw = end_to_end(probe, imports, loads, units, peak_rss_mb, normalised=False)
        units_of = END_TO_END_UNITS
    else:
        inputs = workload.load()
        untraced = workload.run(inputs)
        tracer = Tracer()
        with tracer:
            tracer.call("bench.load", workload.load)
            traced = tracer.call("bench.unit", workload.run, inputs)
        tracer.write(out_dir / "spans.npz")
        units = [untraced, traced]
        metrics = raw = per_layer(tracer, untraced, traced)
        units_of = PER_LAYER_UNITS

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    digests = sorted({u.digest for u in units})
    if len(digests) > 1:
        failed += sum(u.attempted for u in units[1:])
        print(f"problem: outputs differ between identical units: {digests}")
    for problem in [p for u in units for p in u.problems][:20]:
        print(f"problem: {problem}")

    runs = sum(len(u.runs) for u in units)
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{len(units)} unit(s), {runs} learner runs")
    if args.trace == 0:
        print(f"times are at the probe's reference speed ({probe.samples} speed samples); "
              f"set-up is medians of {SETUP_REPEATS}, wall of {len(units)} unit(s)")
    for name, value in metrics.items():
        note = f"  raw {raw[name]:.6g}" if raw[name] != value else ""
        note += f"  (n={runs} runs)" if name.startswith("run_p") else ""
        print(f"{name:28s} {value:14.6g} {units_of[name]}{note}")
    for name, value in units[0].info.items():
        print(f"{name:28s} {value:14.6g} (informational)")
    print(f"{'failed_frac':28s} {failed / attempted:14.6g} fraction  ({failed} of {attempted})")
    print(f"outputs digest (informational): {' '.join(digests)}")
    env = environment(root)
    print(f"env: {json.dumps(env, sort_keys=True)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
    }
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "workload": args.workload, "seed": args.seed,
                    "digest": digests}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
