"""One fresh, single-threaded interpreter running one workload's requests.

``worker.py --probe [--trace]`` imports ``fcperm.cli`` (and installs the
tracer), prints ``ready`` and exits: the set-up probe.

``worker.py`` reads a plan as JSON on stdin, sends every request through
``fcperm.cli.main(argv)`` with stdout and stderr captured, repeats whole
rounds of the plan while the next round still fits in ``seconds`` (always
at least one), and prints one JSON object with the request timings, the
speed samples (``speed.py``), the outputs of the first round, any later
output that differs from it, the peak RSS, the registry's check ids and,
when traced, the per-layer figures.
"""

import sys

if __name__ == "__main__" and sys.argv[1:2] == ["--probe"]:
    import fcperm.cli  # noqa: F401  (the import is what the probe times)

    if "--trace" in sys.argv:
        from tracer import Tracer, install

        install(Tracer())
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    sys.exit(0)

import contextlib
import gc
import io
import json
import resource
import statistics
import traceback
from pathlib import Path
from time import perf_counter

import speed


def _call(cli, argv, sampler):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        sampled = sampler.spent
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a result the checks must see
            rc = "exception"
            err.write(traceback.format_exc())
        t1 = perf_counter()
    return (t0, t1, t1 - t0 - (sampler.spent - sampled)), [rc, out.getvalue(), err.getvalue()]


def _charge_to(tracer):
    """Count a speed sample as a call made by the open frame, so that it
    stays out of every layer's self time."""
    inside = tracer.inside

    def charge(d):
        inside[-1] += d

    return charge


def run(plan):
    root = Path(plan["root"])
    import fcperm
    import fcperm.checks
    import fcperm.cli as cli

    source = Path(fcperm.__file__).resolve()
    if root / "src" not in source.parents:
        raise SystemExit(f"fcperm imported from {source}, not from {root / 'src'}")

    if plan.get("mutant"):
        import mutants

        mutants.apply(plan["mutant"])

    tracer = None
    if plan["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    requests = plan["requests"]
    seconds = plan["seconds"]
    rsk_id = tracer.fid("rsk.rsk") if tracer else -1
    rsk_per_request = []
    latencies, outputs, mismatches, round_walls = [], [], [], []
    sampler = speed.Sampler(charge=_charge_to(tracer) if tracer else None)
    start = perf_counter()
    with sampler:
        while True:
            gc.collect()
            t_round = perf_counter()
            lat = []
            for index, (kind, argv) in enumerate(requests):
                if plan["gc_each_request"]:
                    gc.collect()
                if tracer:
                    tracer.request[0] = index
                    rsk_before = tracer.calls[rsk_id] if rsk_id >= 0 else 0
                d, record = _call(cli, argv, sampler)
                lat.append(d)
                if tracer and rsk_id >= 0:
                    rsk_per_request.append(tracer.calls[rsk_id] - rsk_before)
                if not latencies:
                    outputs.append(record)
                elif record != outputs[index] and len(mismatches) < 10:
                    mismatches.append([len(latencies), index, record])
            latencies.append(lat)
            round_walls.append(perf_counter() - t_round)
            elapsed = perf_counter() - start
            if tracer or elapsed + statistics.median(round_walls) > seconds:
                break

    if not sampler.samples:
        sampler.samples.append((perf_counter(), speed.timed_kernel()))
    result = {
        "latencies": latencies,
        "speed_samples": sampler.samples,
        "outputs": outputs,
        "mismatches": mismatches,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "registry": sorted(fcperm.checks.CHECKS),
        "trace": None,
    }
    if tracer:
        result["trace"] = trace_figures(tracer, requests, rsk_per_request, round_walls[0])
        if plan.get("spans_dir"):
            tracer.dump(Path(plan["spans_dir"]))
    return result


def trace_figures(tracer, requests, rsk_per_request, wall):
    from tracer import LAYERS

    calls = tracer.layer_calls()
    fid = tracer.fid

    def count(name, table):
        i = fid(name)
        return table[i] if i >= 0 else 0

    analyze = [n for (kind, _), n in zip(requests, rsk_per_request) if kind == "analyze"]
    fc_tests_in_fc_elements = tracer.calls_under(
        "patterns.is_fully_commutative", "weak_order.fc_elements"
    )
    figures = {}
    for i, layer in enumerate(LAYERS):
        figures[f"{layer}.calls"] = calls[i]
        figures[f"{layer}.self_s"] = tracer.self_time[i]
    figures.update(
        {
            "words.words_listed": count("words.iter_reduced_words", tracer.yielded),
            "words.class_words": count("words.commutation_class", tracer.returned),
            "heaps.extensions_listed": count("heaps.labeled_linear_extensions", tracer.returned),
            "permutations.constructed": count("permutations.Permutation.__post_init__", tracer.calls),
            "patterns.fc_tests": count("patterns.is_fully_commutative", tracer.calls),
            "weak_order.fc_yield": (
                count("weak_order.fc_elements", tracer.returned) / fc_tests_in_fc_elements
                if fc_tests_in_fc_elements
                else 0.0
            ),
            "rsk.rsk_calls": count("rsk.rsk", tracer.calls),
            "rsk.row2_calls": count("rsk.row2", tracer.calls),
            "crowding.witness_scans": count("crowding.find_crowded_witness", tracer.calls),
            "cli.rsk_per_analyze": sum(analyze) / len(analyze) if analyze else 0.0,
            "cli.build_parser_s": tracer.mean_busy("cli.build_parser"),
            "trace.wall_s": wall,
            "bench.self_s": wall - sum(tracer.self_time),
            "trace.spans": len(tracer.span_func),
        }
    )
    return figures


if __name__ == "__main__":
    result = run(json.load(sys.stdin))
    sys.__stdout__.write(json.dumps(result))
    sys.__stdout__.flush()
