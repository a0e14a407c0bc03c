"""Command line of the end-to-end benchmark.

Four entry points (see README.md)::

    python3 benchmarks/e2e/__main__.py --workload W --seed N --seconds S --trace 0|1
    python -m benchmarks.e2e run --seed S [--out F]
    python -m benchmarks.e2e trace --seed S [--out F] [--spans DIR]
    python -m benchmarks.e2e compare --parent F... --change F...

Every repetition runs in a fresh subprocess (``rep``), one at a time,
so the process-global perf caches, trust epoch and requestId counter
start clean and the subprocess's ``ru_maxrss`` is its own.  This
module imports nothing from ``repro`` at import time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence

from benchmarks.e2e.stats import percentile, quartiles, verdict

__all__ = ["main"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MAIN = HERE / "__main__.py"
SPEC = ROOT / "BENCHMARK.json"

#: Repetitions per workload in a set, run round-robin across workloads.
REPS = 3
#: Traced repetitions in a traced run, between two untraced ones.
TRACED_REPS = 2
#: Fig. 9 join in simulated ms: (with TN, without TN).
FIG9_EXPECTED = (4008.0, 3000.0)
#: A repetition that takes longer is killed, so a run ends within 3 min.
REP_TIMEOUT_S = 120

#: Every metric ``run`` can report: name -> (unit, better).
METRICS: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p95_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "open_latency_p50_ms": ("ms", "lower"),
    "open_latency_p99_ms": ("ms", "lower"),
    "open_late_p99_ms": ("ms", "lower"),
    "retract_p50_ms": ("ms", "lower"),
    "failed_ratio": ("share", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_ms_p50": ("sim_ms", "lower"),
}
#: Deterministic metrics: any difference is a change.
EXACT = frozenset({"failed_ratio", "sim_ms_p50"})
#: ``run`` metrics that a traced one-workload run reports among the per-layer
#: metrics, from its untraced repetitions.
UNBOUNDED = (
    "latency_p95_ms", "latency_p99_ms", "open_latency_p50_ms",
    "open_latency_p99_ms", "open_late_p99_ms", "retract_p50_ms",
    "sim_ms_p50",
)


def _spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


# -- repetitions -------------------------------------------------------------


def _rep_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Fixed string hashing, so set and dict orders inside the program
    # repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(
    workload: str,
    seed: int,
    work_dir: str,
    *,
    ops: Optional[int] = None,
    open_ops: Optional[int] = None,
    seconds: Optional[float] = None,
    trace: bool = False,
    spans: Optional[str] = None,
) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    command = [
        sys.executable, str(MAIN), "rep", "--workload", workload,
        "--seed", str(seed), "--work-dir", work_dir,
    ]
    if ops is not None:
        command += ["--ops", str(ops)]
    if open_ops is not None:
        command += ["--open-ops", str(open_ops)]
    if seconds is not None:
        command += ["--seconds", repr(seconds)]
    if trace:
        command.append("--trace")
    if spans:
        command += ["--spans", spans]
    done = subprocess.run(
        command, cwd=ROOT, env=_rep_env(), capture_output=True, text=True,
        timeout=REP_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload} repetition exited {done.returncode} without a "
            f"record:\n{done.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def _cmd_rep(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    from benchmarks.e2e import workloads
    from benchmarks.e2e.tracer import Tracer

    tracer = Tracer().install() if args.trace else None
    try:
        record = workloads.run_repetition(
            args.workload, args.seed, args.work_dir, started,
            ops=args.ops, open_ops=args.open_ops, seconds=args.seconds,
            tracer=tracer,
        )
        if tracer is not None and args.spans:
            tracer.write_spans(args.spans)
    finally:
        if tracer is not None:
            tracer.restore()
    print(json.dumps(record))
    return 1 if record["errors"] else 0


# -- metrics -----------------------------------------------------------------


def summarize(records: Sequence[dict]) -> dict[str, float]:
    """End-to-end metrics of untraced repetitions of one workload.

    Percentiles pool the samples of every repetition; rates, set-up
    time and memory take the median over repetitions."""
    latencies = [x for r in records for x in r["latencies_ms"]]
    attempted = sum(r["ops"] + r["open_ops"] for r in records)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "ops_per_s": statistics.median(
            r["ops"] / r["closed_wall_s"] for r in records
        ),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "latency_p99_ms": percentile(latencies, 99),
        "failed_ratio": sum(r["failed"] for r in records) / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    pooled = {
        key: [x for r in records for x in r[key]]
        for key in ("open_latencies_ms", "open_late_ms", "retract_ms", "sim_ms")
    }
    if pooled["open_latencies_ms"]:
        metrics["open_latency_p50_ms"] = percentile(
            pooled["open_latencies_ms"], 50
        )
        metrics["open_latency_p99_ms"] = percentile(
            pooled["open_latencies_ms"], 99
        )
        metrics["open_late_p99_ms"] = percentile(pooled["open_late_ms"], 99)
    if pooled["retract_ms"]:
        metrics["retract_p50_ms"] = percentile(pooled["retract_ms"], 50)
    if pooled["sim_ms"]:
        metrics["sim_ms_p50"] = percentile(pooled["sim_ms"], 50)
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    untraced: Sequence[dict], traced: Sequence[dict]
) -> dict[str, float]:
    """Per-layer metrics of traced repetitions, against untraced
    repetitions of the same operations."""
    from benchmarks.e2e.tracer import BOUNDARIES, SETUP_BOUNDARIES

    ops = sum(r["ops"] + r["open_ops"] for r in traced)
    busy_ns = sum(r["busy_wall_s"] for r in traced) * 1e9
    setup_ns = sum(r["setup_s"] for r in traced) * 1e9
    metrics: dict[str, float] = {}
    for name in BOUNDARIES:
        if name in SETUP_BOUNDARIES:
            # Keys are made only while fixtures are built: per set-up.
            phase, per, whole = "setup", len(traced), setup_ns
        else:
            phase, per, whole = "measured", ops, busy_ns
        calls = sum(r["layers"][phase][name]["calls"] for r in traced)
        self_ns = sum(r["layers"][phase][name]["self_ns"] for r in traced)
        metrics[f"{name}.calls_per_op"] = calls / per
        metrics[f"{name}.self_us_per_op"] = self_ns / 1e3 / per
        metrics[f"{name}.self_share"] = self_ns / whole

    def total(key: str) -> int:
        return sum(r["counters"].get(key, 0) for r in traced)

    for cache in ("xpath_ast", "canonical_xml", "element_digest",
                  "signature_verify"):
        hits = total(f"perf.{cache}.hits")
        metrics[f"perf.{cache}.hit_ratio"] = _ratio(
            hits, hits + total(f"perf.{cache}.misses")
        )
    hits = total("sequence_hits")
    metrics["negotiation.sequence_cache.hit_ratio"] = _ratio(
        hits, hits + total("sequence_misses")
    )
    metrics["services.resilience.attempts_per_call"] = _ratio(
        total("resilience_attempts"), total("resilience_calls")
    )
    metrics["hardening.admission.shed_ratio"] = _ratio(
        total("admission_shed"), total("admission_offered")
    )
    metrics["hardening.guard.rejected_ratio"] = _ratio(
        total("guard_rejected"), total("guard_validated")
    )
    metrics["storage.wal.records_per_op"] = total("wal_records") / ops
    metrics["storage.wal.bytes_per_op"] = total("wal_bytes") / ops
    metrics["trust.evicted_per_retract"] = _ratio(
        total("evicted"), total("retractions")
    )
    metrics["trace.coverage"] = (
        sum(r["layers"]["measured_root_ns"] for r in traced) / busy_ns
    )
    # Median closed-loop latencies: robust to a burst of host noise
    # that a sum of wall time would absorb.
    metrics["trace.overhead"] = percentile(
        [x for r in traced for x in r["latencies_ms"]], 50
    ) / percentile([x for r in untraced for x in r["latencies_ms"]], 50) - 1.0
    # End-to-end numbers too noisy for a regression bound on a shared
    # host, or measured on one workload only; 0 where not measured.
    plain = summarize(untraced)
    for name in UNBOUNDED:
        metrics[name] = plain.get(name, 0.0)
    return metrics


def gate(records: Sequence[dict]) -> list[str]:
    """Every wrong output in ``records``, as messages (empty = correct)."""
    from benchmarks.e2e.tracer import SETUP_BOUNDARIES

    problems = []
    for record in records:
        where = f"{record['workload']} (seed {record['seed']})"
        problems += [f"{where}: {error}" for error in record["errors"]]
        hidden = record["error_count"] - len(record["errors"])
        if hidden > 0:
            problems.append(f"{where}: {hidden} more wrong outputs")
        layers = record.get("layers")
        if layers is None:
            continue
        for name in record["expected"]:
            if layers["measured"][name]["calls"] == 0:
                problems.append(f"{where}: boundary {name} recorded no calls")
        for name in SETUP_BOUNDARIES:
            if layers["setup"][name]["calls"] == 0:
                problems.append(f"{where}: boundary {name} recorded no calls")
    return problems


def fig9_gate() -> list[str]:
    """The Fig. 9 canary: join time in simulated ms with and without TN."""
    from benchmarks.e2e.workloads import fig9_canary

    measured = fig9_canary()
    if measured != FIG9_EXPECTED:
        return [
            f"fig9 canary: join with/without TN took {measured} simulated "
            f"ms, expected {FIG9_EXPECTED}"
        ]
    return []


@contextmanager
def _work_dir() -> Iterator[str]:
    """A scratch directory inside the checkout, removed afterwards."""
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it


def _ensure_src_on_path() -> None:
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


# -- one workload ------------------------------------------------------------


def _traced_pairs(
    workload: str, seed: int, seconds: float, work_dir: str,
    spans_dir: Optional[str] = None,
) -> tuple[list[dict], list[dict]]:
    """Untraced, traced, traced, untraced repetitions of ``workload``.

    The first measures ``seconds / 4``; the other three run exactly its
    operations, so counts per operation compare, and the symmetric order
    cancels a steady drift in machine speed out of ``trace.overhead``.
    """
    first = _spawn(workload, seed, work_dir, seconds=seconds / 4)
    same = {"ops": first["ops"], "open_ops": first["open_ops"]}
    traced = [
        _spawn(
            workload, seed, work_dir, **same, trace=True,
            spans=(
                os.path.join(spans_dir, f"{workload}-{index}.jsonl")
                if spans_dir else None
            ),
        )
        for index in range(TRACED_REPS)
    ]
    last = _spawn(workload, seed, work_dir, **same)
    return [first, last], traced


def _cmd_workload(args: argparse.Namespace) -> int:
    spec = _spec()
    with _work_dir() as work_dir:
        if args.trace:
            untraced, traced = _traced_pairs(
                args.workload, args.seed, args.seconds, work_dir
            )
            records, scope = untraced + traced, traced
            values = layer_metrics(untraced, traced)
            wanted = spec["per_layer"]
        else:
            records = [
                _spawn(
                    args.workload, args.seed, work_dir,
                    seconds=args.seconds / REPS,
                )
                for _ in range(REPS)
            ]
            scope = records
            values = summarize(records)
            wanted = spec["end_to_end"]
    problems = gate(records)
    if args.workload == "vo-lifecycle":
        problems += fig9_gate()
    _report_problems(problems)
    result = {
        "correct": not problems,
        "attempted": sum(r["ops"] + r["open_ops"] for r in scope),
        "failed": sum(r["failed"] for r in scope),
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]], "unit": metric["unit"],
            }
            for metric in wanted
        },
    }
    print(json.dumps(result))
    return 1 if problems else 0


# -- run / trace ---------------------------------------------------------------


def _print_metrics(workload: str, metrics: dict[str, float]) -> None:
    units = {metric["name"]: metric["unit"] for metric in _spec()["per_layer"]}
    units.update((name, unit) for name, (unit, _) in METRICS.items())
    for name, value in metrics.items():
        print(f"{workload:20} {name:45} {value:14.6g} {units[name]}")


def _cmd_run(args: argparse.Namespace) -> int:
    from benchmarks.e2e.workloads import SET_COUNTS, WORKLOADS

    records: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    with _work_dir() as work_dir:
        for _ in range(REPS):
            for name in WORKLOADS:
                ops, open_ops = SET_COUNTS[name]
                records[name].append(_spawn(
                    name, args.seed, work_dir, ops=ops, open_ops=open_ops,
                ))
    problems = fig9_gate()
    report: dict = {"seed": args.seed, "reps": REPS, "workloads": {}}
    for name in WORKLOADS:
        problems += gate(records[name])
        metrics = summarize(records[name])
        _print_metrics(name, metrics)
        report["workloads"][name] = {
            "metrics": {
                key: {"value": value, "unit": METRICS[key][0]}
                for key, value in metrics.items()
            },
            "reps": [_rep_summary(record) for record in records[name]],
        }
    return _finish(report, problems, args.out)


def _cmd_trace(args: argparse.Namespace) -> int:
    from benchmarks.e2e.workloads import WORKLOADS

    seconds = _spec()["run_seconds"]
    spans_dir = os.path.abspath(args.spans) if args.spans else None
    if spans_dir:
        os.makedirs(spans_dir, exist_ok=True)
    report: dict = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    problems: list[str] = []
    with _work_dir() as work_dir:
        for name in WORKLOADS:
            untraced, traced = _traced_pairs(
                name, args.seed, seconds, work_dir, spans_dir
            )
            problems += gate(untraced + traced)
            metrics = layer_metrics(untraced, traced)
            _print_metrics(name, metrics)
            report["workloads"][name] = {"metrics": metrics}
    return _finish(report, problems, args.out)


def _report_problems(problems: Sequence[str]) -> None:
    for problem in problems:
        print(f"WRONG OUTPUT: {problem}", file=sys.stderr)


def _finish(report: dict, problems: list[str], out: Optional[str]) -> int:
    """Record the gate outcome in ``report``, write it, pick the exit code."""
    report["correct"] = not problems
    report["problems"] = problems
    _report_problems(problems)
    if out:
        _write_json(out, report)
    return 1 if problems else 0


def _rep_summary(record: dict) -> dict:
    """A repetition without its raw samples, plus its own metrics."""
    summary = {
        key: value for key, value in record.items()
        if not isinstance(value, list) or key == "errors"
    }
    summary["metrics"] = summarize([record])
    return summary


def _write_json(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


# -- compare -------------------------------------------------------------------


def _load_sets(paths: Sequence[str]) -> list[dict]:
    sets = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    return sets


def _cmd_compare(args: argparse.Namespace) -> int:
    bounds = {metric["name"]: metric["bound"] for metric in _spec()["end_to_end"]}
    parents = _load_sets(args.parent)
    changes = _load_sets(args.change)
    print(
        f"{'workload':20} {'metric':22} {'parent q1/med/q3':>36} "
        f"{'change q1/med/q3':>36}  verdict"
    )
    verdicts = []
    for workload in parents[0]["workloads"]:
        for metric, (_, better) in METRICS.items():
            parent = _values(parents, workload, metric)
            change = _values(changes, workload, metric)
            if not parent or not change:
                continue
            bound = 0.0 if metric in EXACT else bounds.get(metric)
            result = verdict(parent, change, better, bound)
            verdicts.append(result)
            print(
                f"{workload:20} {metric:22} {_fmt(parent):>36} "
                f"{_fmt(change):>36}  {result}"
                + ("" if bound is not None else " (no bound)")
            )
    print(
        "summary: " + ", ".join(
            f"{name} {verdicts.count(name)}"
            for name in ("better", "worse", "unresolved", "unchanged")
        )
    )
    return 1 if "worse" in verdicts else 0


def _values(sets: Sequence[dict], workload: str, metric: str) -> list[float]:
    values = []
    for document in sets:
        entry = document["workloads"].get(workload, {}).get("metrics", {})
        if metric in entry:
            values.append(entry[metric]["value"])
    return values


def _fmt(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{q1:.4g}/{median:.4g}/{q3:.4g}"


# -- parsing -------------------------------------------------------------------


def _positive(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _build_parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    from benchmarks.e2e.workloads import WORKLOADS

    single = argparse.ArgumentParser(
        prog="benchmarks/e2e",
        description="Run one workload and print one JSON result line "
                    "(subcommands: run, trace, compare).",
    )
    single.add_argument("--workload", required=True, choices=WORKLOADS)
    single.add_argument("--seed", type=int, required=True)
    single.add_argument("--seconds", type=_positive, required=True)
    single.add_argument("--trace", type=int, choices=(0, 1), default=0)
    single.set_defaults(func=_cmd_workload)

    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="one full set: every workload x 3")
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--out", help="write the set as JSON here")
    run.set_defaults(func=_cmd_run)
    trace = sub.add_parser("trace", help="per-layer metrics of a traced run")
    trace.add_argument("--seed", type=int, required=True)
    trace.add_argument("--out", help="write the report as JSON here")
    trace.add_argument("--spans", help="write each workload's spans here")
    trace.set_defaults(func=_cmd_trace)
    compare = sub.add_parser("compare", help="parent sets vs change sets")
    compare.add_argument("--parent", nargs="+", required=True)
    compare.add_argument("--change", nargs="+", required=True)
    compare.set_defaults(func=_cmd_compare)
    rep = sub.add_parser("rep", help="one repetition (used internally)")
    rep.add_argument("--workload", required=True, choices=WORKLOADS)
    rep.add_argument("--seed", type=int, required=True)
    rep.add_argument("--work-dir", required=True)
    rep.add_argument("--ops", type=int)
    rep.add_argument("--open-ops", type=int)
    rep.add_argument("--seconds", type=_positive)
    rep.add_argument("--trace", action="store_true")
    rep.add_argument("--spans")
    rep.set_defaults(func=_cmd_rep)
    return single, parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _ensure_src_on_path()
    single, parser = _build_parsers()
    if argv and argv[0] in {"run", "trace", "compare", "rep"}:
        args = parser.parse_args(argv)
    else:
        args = single.parse_args(argv)
    return args.func(args)
