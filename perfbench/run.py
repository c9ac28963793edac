"""Benchmark of the fcperm command line: one workload per run.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` in
fresh interpreters (``worker.py``); this process makes the seeded requests,
times the set-up, checks every output against the independent oracles, and
prints one JSON object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the same untraced run is followed by one traced round, and the metrics are
the per-layer ones, including the tracing overhead (traced minus untraced)
of every end-to-end metric.  Exit status: 0 when every output is right, 1
when a check failed, 2 when the benchmark could not run.

Other modes: ``--mutant NAME`` (see ``mutants.py``) and ``--record-cases``
(the case counts behind ``workloads.VERIFY_CASES``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracles
import speed
import workloads
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TIME_LIMIT = 170.0  # seconds; a run must end within 180
SETUP_PROBES = 11
SPEED_SAMPLES_PER_PROBE = 20
GC_EACH_REQUEST = {"verify-registry": True, "frontier-census": True, "query-mix": False}
CLI_KINDS = ("analyze", "rsk", "core", "words-count", "words-list", "dot-heap")
E2E_UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(started: float) -> float:
    left = TIME_LIMIT - (perf_counter() - started)
    if left < 5:
        raise BenchError("out of time")
    return left


def measure_setup(trace: bool, started: float) -> float:
    """Median time, at the reference speed, from starting a fresh
    interpreter until ``import fcperm.cli`` (and, traced, installing the
    wrappers) has returned."""
    argv = [sys.executable, str(WORKER), "--probe"] + (["--trace"] if trace else [])
    times, samples = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            _, err = proc.communicate(timeout=_remaining(started))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("set-up probe timed out")
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {err.decode(errors='replace').strip()[-500:]}")
        times.append(t1 - t0)
        samples += [speed.timed_kernel() for _ in range(SPEED_SAMPLES_PER_PROBE)]
    return statistics.median(times) * speed.scale(samples)


def run_worker(plan: dict, started: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)],
            input=json.dumps(plan),
            capture_output=True,
            text=True,
            env=_env(),
            cwd=ROOT,
            timeout=_remaining(started),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-1000:]}")
    return json.loads(proc.stdout)


def scaled_latencies(result) -> list[list[float]]:
    """Request times of every round, at the reference speed."""
    rounds = result["latencies"]
    flat = [timing for lat in rounds for timing in lat]
    scales = iter(speed.local_scales(result["speed_samples"], [(t0, t1) for t0, t1, _ in flat]))
    return [[d * next(scales) for _, _, d in lat] for lat in rounds]


def summarize(failed_mask, result, setup_s) -> dict:
    """The end-to-end metrics of one worker run, at the reference speed."""
    per_request = [statistics.median(column) for column in zip(*scaled_latencies(result))]
    round_s = sum(per_request)
    ok = [t for t, failed in zip(per_request, failed_mask) if not failed]
    q = statistics.quantiles(ok, n=100, method="inclusive")
    return {
        "setup_s": setup_s,
        "round_s": round_s,
        "request_p50_ms": statistics.median(ok) * 1e3,
        "request_p99_ms": q[98] * 1e3,
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
    }


def layer_metrics(requests, untraced, traced, e2e, traced_e2e) -> dict:
    figures = dict(traced["trace"])
    per_request = [statistics.median(column) for column in zip(*scaled_latencies(untraced))]
    for kind in CLI_KINDS:
        times = [t for (k, _), t in zip(requests, per_request) if k == kind]
        figures[f"cli.{kind}.p50_ms"] = statistics.median(times) * 1e3 if times else 0.0
    check_time = {argv[2]: t for (k, argv), t in zip(requests, per_request) if k == "verify"}
    for check in sorted(workloads.VERIFY_CASES):
        figures[f"checks.{check}.s"] = check_time.get(check, 0.0)
    for name in E2E_UNITS:
        figures[f"trace_overhead.{name}"] = traced_e2e[name] - e2e[name]
    for name in ("request_p50_ms", "request_p99_ms"):
        figures[name] = e2e[name]
    figures["speed.slowdown"] = 1 / speed.scale([d for _, d in untraced["speed_samples"]])
    return figures


def layer_units() -> dict:
    """Unit and better direction of every per-layer metric, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = ("count", "lower")
        units[f"{layer}.self_s"] = ("s", "lower")
    for name in ("words.words_listed", "words.class_words", "heaps.extensions_listed",
                 "permutations.constructed", "patterns.fc_tests"):
        units[name] = ("count", "lower")
    units["weak_order.fc_yield"] = ("ratio", "higher")
    for name in ("rsk.rsk_calls", "rsk.row2_calls", "crowding.witness_scans"):
        units[name] = ("count", "lower")
    units["request_p50_ms"] = ("ms", "lower")
    units["request_p99_ms"] = ("ms", "lower")
    units["cli.rsk_per_analyze"] = ("calls/request", "lower")
    units["cli.build_parser_s"] = ("s", "lower")
    for kind in CLI_KINDS:
        units[f"cli.{kind}.p50_ms"] = ("ms", "lower")
    for check in sorted(workloads.VERIFY_CASES):
        units[f"checks.{check}.s"] = ("s", "lower")
    units["trace.wall_s"] = ("s", "lower")
    units["bench.self_s"] = ("s", "lower")
    units["trace.spans"] = ("count", "lower")
    units["speed.slowdown"] = ("ratio", "lower")
    for name, unit in E2E_UNITS.items():
        units[f"trace_overhead.{name}"] = (unit, "lower")
    return units


def bench(args) -> dict:
    started = perf_counter()
    if not (ROOT / "src" / "fcperm" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {ROOT / 'src' / 'fcperm' / 'cli.py'} is missing")
    problems = oracles.self_check()
    if problems:
        raise BenchError(f"oracle self-check failed: {problems}")
    build, check = workloads.WORKLOADS[args.workload]
    requests = build(random.Random(args.seed))
    plan = {
        "root": str(ROOT),
        "requests": requests,
        "seconds": args.seconds,
        "trace": False,
        "gc_each_request": GC_EACH_REQUEST[args.workload],
        "mutant": args.mutant,
    }
    setup_s = measure_setup(False, started)
    result = run_worker(plan, started)

    outputs = result["outputs"]
    failed_mask = [workloads.is_known_failure(kind, record) for (kind, _), record in zip(requests, outputs)]
    try:
        problems = check(requests, outputs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"malformed output: {exc!r}"]
    if args.workload == "verify-registry":
        problems += workloads.check_registry(result["registry"])
    for round_index, index, record in result["mismatches"]:
        problems.append(f"round {round_index + 1} output of request {index} differs from round 1: {record!r:.300}")
    rounds = len(result["latencies"])
    report = {
        "correct": not problems,
        "attempted": rounds * len(requests),
        "failed": rounds * sum(failed_mask),
        "problems": problems[:20],
    }
    e2e = summarize(failed_mask, result, setup_s)
    if not args.trace:
        report["metrics"] = e2e
        return report

    traced_setup = measure_setup(True, started)
    spans_dir = ROOT / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}"
    traced = run_worker(dict(plan, trace=True, spans_dir=str(spans_dir)), started)
    traced_e2e = summarize(failed_mask, traced, traced_setup)
    report["metrics"] = layer_metrics(requests, result, traced, e2e, traced_e2e)
    return report


def record_cases() -> int:
    """Print the case count each pinned check reports, for VERIFY_CASES."""
    requests = workloads.verify_registry(random.Random(0))
    plan = {"root": str(ROOT), "requests": requests, "seconds": 0.0, "trace": False,
            "gc_each_request": False, "mutant": None}
    result = run_worker(plan, perf_counter())
    cases = {argv[2]: json.loads(out)["cases"] for (_, argv), (_, out, _) in zip(requests, result["outputs"])}
    print(json.dumps(dict(sorted(cases.items())), indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mutant", help="patch in a deliberately wrong function (see mutants.py)")
    parser.add_argument("--record-cases", action="store_true", help="print the registry's case counts")
    args = parser.parse_args(argv)

    if args.workload is None and not args.record_cases:
        parser.error("--workload is required")

    try:
        if args.record_cases:
            return record_cases()
        report = bench(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for problem in report.pop("problems"):
        print(f"check failed: {problem}", file=sys.stderr)
    units = layer_units() if args.trace else {k: (u, None) for k, u in E2E_UNITS.items()}
    metrics = report["metrics"]
    report["metrics"] = {name: {"value": metrics[name], "unit": units[name][0]} for name in units}
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
