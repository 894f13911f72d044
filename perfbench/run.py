#!/usr/bin/env python3
"""Benchmark chorddiag end to end and layer by layer.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Runs one workload (census, series_cold, estimate_sweep or verify; see
README.md) as a closed loop from a single caller: each pass sends the
workload's request set in a seeded order, one request after the other, and
passes repeat until the next one would overrun ``--seconds``. Every output
is checked against the digests in reference.json; census counts are also
checked against the gf series coefficients.

``--trace 0`` reports the end-to-end metrics; nothing is wrapped. Their
times are scaled to seconds of a reference machine by the speed meter that
runs with every request (workloads.SpeedMeter, README.md).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced passes, plus the tracing overhead from the
pairs. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full result, with the
environment, goes to perfbench/out/. The exit status is 0 when every output
was correct, 1 when one was not, and 2 when the checkout has no chorddiag
sources.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import random
import resource
import shutil
import statistics
import sys
import time

import tracer
import workloads
from workloads import FULL, HERE, ROOT

OUT = HERE / "out"
SETUP_SPAWNS = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "kernel.ns_per_diagram": "ns",
    "kernel.diagrams": "count",
    "kernel.python_ns_per_diagram": "ns",
    "oracle.pool_efficiency": "ratio",
    "oracle.partition_skew": "ratio",
    "oracle.diagram_s": "s",
    "oracle.diagram_calls": "count",
    "gf.busy_s": "s",
    "gf.self_s": "s",
    "gf.calls": "count",
    "gf.cache_hits": "count",
    "gf.cache_misses": "count",
    **{f"gf.cache_hits.{f}": "count" for f in tracer.CACHED_GF},
    **{f"gf.cache_misses.{f}": "count" for f in tracer.CACHED_GF},
    "gf.distinct_orders.series_two_connected": "count",
    "series.busy_s": "s",
    "series.reverse_s": "s",
    "series.compose_s": "s",
    "series.mul_s": "s",
    "series.mul_calls": "count",
    "series.max_order": "count",
    "alien.busy_s": "s",
    "alien.self_s": "s",
    "asymptotics.busy_s": "s",
    "asymptotics.self_s": "s",
    "asymptotics.calls": "count",
    "qft.busy_s": "s",
    "qft.diagrams": "count",
    **{f"cli.suite_s.{s}": "s" for s in ("lemmas", "proposition", "chain-rule", "tables", "bijection")},
    "bench.trace_overhead": "ratio",
}


# -- executing one pass -------------------------------------------------------------
#
# Each executor serves one pass and returns (records, extra, figures): the
# timed request records, untimed check records, and one per-layer figure
# dict per traced process. Traced passes write their spans to files named
# after ``spans_path``.


def serve_census(keys, traced, sizes, spans_path):
    """In this process; the only workload that starts threads (at most nproc)."""
    from chorddiag import gf

    if not traced:
        return [workloads.serve(key) for key in keys], [], []
    n = sizes.census_n
    diagrams = gf.double_factorial_odd(n)
    tracing = tracer.Tracer()
    tracing.instrument()
    try:
        records = [workloads.serve(key, metered=False) for key in keys]
        with tracing.span("bench.python_reference", diagrams=diagrams):
            extra = [workloads.serve(f"census:{n}:python", metered=False)]
    finally:
        tracing.restore()
    tracing.dump(f"{spans_path}.jsonl.gz")
    return records, extra, [tracer.figures(tracing.spans, tracing.cache_counts(), workloads.nproc())]


def serve_series_cold(keys, traced, sizes, spans_path):
    """One fresh interpreter per request, so no cache can help."""
    records, figures = [], []
    for i, key in enumerate(keys):
        path = f"{spans_path}-req{i}.jsonl.gz" if traced else None
        report = workloads.run_child({"keys": [key], "trace": traced, "spans": path})
        records += report.get("records") or [_child_failure(key, report)]
        figures += [report["figures"]] if "figures" in report else []
    return records, [], figures


def serve_estimate_sweep(keys, traced, sizes, spans_path):
    """One fresh interpreter per session: cold at its start, warm after."""
    path = f"{spans_path}.jsonl.gz" if traced else None
    report = workloads.run_child({"keys": keys, "trace": traced, "spans": path})
    records = report.get("records") or [_child_failure(key, report) for key in keys]
    return records, [], [report["figures"]] if "figures" in report else []


def serve_verify(keys, traced, sizes, spans_path):
    job = {"trace": True, "spans": f"{spans_path}.jsonl.gz"} if traced else None
    record, figures = workloads.run_verify(sizes.verify_order, job)
    return [record], [], [figures] if figures else []


def _child_failure(key, report):
    return {"key": key, "latency_s": None, "error": report.get("error", "no report")}


EXECUTORS = {
    "census": serve_census,
    "series_cold": serve_series_cold,
    "estimate_sweep": serve_estimate_sweep,
    "verify": serve_verify,
}


# -- the run ----------------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, sizes=FULL, reference=None):
    """Run one workload for about ``seconds`` and return the full result dict."""
    reference = workloads.load_reference() if reference is None else reference
    rng = random.Random(seed)
    env = environment(seed)
    setup_s = None if trace else measure_setup()
    expected = census_expected(sizes.census_n)
    span_dir = OUT / f"spans-{workload}-seed{seed}"
    if trace:
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)

    # Every pass repeats the same seeded order, so a request meets the same
    # cache state in each pass and its latencies can be compared across passes.
    keys = workloads.plan(workload, sizes, rng)
    passes = []
    started = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        spans_path = str(span_dir / f"pass{len(passes)}")
        pass_start = time.perf_counter()
        records, extra, figures = EXECUTORS[workload](keys, traced, sizes, spans_path)
        passes.append(
            {
                "traced": traced,
                "elapsed_s": time.perf_counter() - pass_start,
                "records": records,
                "extra": extra,
                "figures": combine(figures),
            }
        )
        if len(passes) >= (2 if trace else 1):
            typical = statistics.median(p["elapsed_s"] for p in passes)
            if time.perf_counter() - started + typical > seconds:
                break

    failures = []
    for p in passes:
        for record in p["records"] + p["extra"]:
            problem = check(record, reference, expected)
            if problem:
                failures.append({"key": record["key"], "problem": problem})
    attempted = sum(len(p["records"]) + len(p["extra"]) for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    rss_kb = resource.getrusage(
        resource.RUSAGE_SELF if workload == "census" else resource.RUSAGE_CHILDREN
    ).ru_maxrss

    result = {
        "workload": workload,
        "environment": env,
        "passes": len(passes),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "latencies": [
            {
                "traced": p["traced"],
                "requests": [[r["key"], r["latency_s"], r.get("speed_scale")] for r in p["records"]],
            }
            for p in passes
        ],
    }
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        layer = {
            name: statistics.median(p["figures"].get(name, 0) for p in traced_passes)
            for name in PER_LAYER
            if name != "bench.trace_overhead"
        }
        layer["bench.trace_overhead"] = (
            statistics.median(pass_wall(p) for p in traced_passes)
            / statistics.median(pass_wall(p) for p in untraced)
            - 1
        )
        result["metrics"] = {name: {"value": layer[name], "unit": PER_LAYER[name]} for name in PER_LAYER}
    else:
        latencies = request_latencies(untraced)
        p50, tail, percentile, samples = latency_stats(latencies)
        values = {
            "setup_s": setup_s,
            "wall_s": sum(latencies.values()),
            "req_p50_s": p50,
            "req_tail_s": tail,
            "peak_rss_mb": rss_kb / 1024,
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        unscaled = request_latencies(untraced, scaled=False)
        raw_p50, raw_tail, _, _ = latency_stats(unscaled)
        result["unscaled"] = {"wall_s": sum(unscaled.values()), "req_p50_s": raw_p50, "req_tail_s": raw_tail}
        result["req_tail_percentile"] = percentile
        result["req_tail_samples"] = samples
        result["failed_frac"] = len(failures) / attempted
        result.update(throughput(workload, untraced[0], values["wall_s"]))
    return result


def pass_wall(p) -> float:
    """Wall time of a pass's timed requests: the sum of their latencies."""
    return sum(r["latency_s"] or 0.0 for r in p["records"])


def request_latencies(passes, scaled: bool = True) -> dict[str, float]:
    """Each request's median latency over the run's passes.

    Every pass repeats the same order, so a request meets the same cache
    state in each. Scaled, each latency is first multiplied by its
    ``speed_scale``, which converts it to seconds of the reference machine:
    the machine's speed can change by half from one minute to the next (see
    README.md), and the speed meter run with the request measures by how
    much.
    """
    samples: dict[str, list[float]] = {}
    for p in passes:
        for r in p["records"]:
            if r["latency_s"] is not None:
                scale = r["speed_scale"] if scaled else 1.0
                samples.setdefault(r["key"], []).append(r["latency_s"] * scale)
    return {key: statistics.median(values) for key, values in samples.items()}


def latency_stats(latencies: dict[str, float]):
    """(median, tail value, tail percentile, sample count) of per-request latencies.

    The tail is the latency at the highest rank that has at least ten
    samples beyond it, but never below the median: a request set of fewer
    than 21 requests has no such rank above its middle.
    """
    ordered = sorted(latencies.values())
    if not ordered:  # every request failed before it could be timed
        return 0.0, 0.0, 0.0, 0
    p50 = statistics.median(ordered)
    rank = max(len(ordered) - 11, len(ordered) // 2)
    return p50, max(ordered[rank], p50), 100 * (rank + 1) / len(ordered), len(ordered)


def throughput(workload, one_pass, wall_s) -> dict:
    """Work of one pass per second of ``wall_s``, for the workloads where it applies."""
    if workload == "census":
        name, work = "diagrams_per_s", lambda r: r.get("counts", {}).get("all", 0)
    elif workload == "series_cold":
        name, work = "coeffs_per_s", lambda r: r.get("coeffs", 0)
    else:
        return {}
    return {name: sum(map(work, one_pass["records"])) / (wall_s or float("inf"))}


def combine(figures) -> dict:
    """Sum the figures of the processes of one pass (the order reached: max)."""
    out: dict = {}
    for fig in figures:
        for name, value in fig.items():
            if name == "series.max_order":
                out[name] = max(out.get(name, value), value)
            else:
                out[name] = out.get(name, 0) + value
    return out


def check(record, reference, expected) -> str | None:
    if "error" in record:
        return record["error"]
    want = reference.get(record["key"])
    if want is None:
        return "no reference digest for this request"
    if record["digest"] != want:
        return f"output digest {record['digest']} differs from reference {want}"
    if "counts" in record and record["counts"] != expected:
        return f"census counts {record['counts']} differ from gf coefficients {expected}"
    return None


def census_expected(n: int) -> dict[str, int]:
    """Census counts as the gf series predict them: D_n, C_n and C2_n."""
    from chorddiag import gf

    return {
        "all": int(gf.series_all_diagrams(n)[n]),
        "connected": int(gf.series_connected(max(n, 1))[n]),
        "2connected": int(gf.series_two_connected(max(n, 2))[n]),
    }


def measure_setup() -> float:
    """Median time for a fresh interpreter to import chorddiag and pick its kernel.

    Each spawn is timed from this process, pinned to the child's CPU and
    bracketed by the speed meter, and scaled to seconds of the reference
    machine.
    """
    code = "import chorddiag; chorddiag.census_backend()"
    times = []
    for spawn in range(SETUP_SPAWNS + 1):
        with workloads.on_child_cpu(), workloads.SpeedMeter(ticking=False) as meter:
            start = time.perf_counter()
            done = workloads.spawn([sys.executable, "-c", code], timeout=60)
            elapsed = time.perf_counter() - start
        done.check_returncode()
        if spawn:  # the first spawn only warms the bytecode cache
            times.append(elapsed * meter.scale)
    return statistics.median(times)


def environment(seed) -> dict:
    import chorddiag

    return {
        "python": platform.python_version(),
        "nproc": workloads.nproc(),
        "census_backend": chorddiag.census_backend(),
        "gcc": shutil.which("gcc") is not None,
        "cython": importlib.util.find_spec("Cython") is not None,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read directly (it may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(result, seed, trace) -> None:
    """Print every metric by name and unit, save the result file, end with the JSON line."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{result['workload']}_seed{seed}_trace{trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"workload {result['workload']}: {result['passes']} passes, environment {json.dumps(result['environment'])}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    if not trace:
        print(
            f"  {'req_tail_s is at percentile':<44} {result['req_tail_percentile']:.4g} "
            f"of {result['req_tail_samples']} samples"
        )
        for name, value in result["unscaled"].items():
            print(f"  {name + ' unscaled':<44} {value:.6g} s")
        for name, unit in (("diagrams_per_s", "1/s"), ("coeffs_per_s", "1/s")):
            if name in result:
                print(f"  {name:<44} {result[name]:.6g} {unit}")
        print(f"  {'failed_frac':<44} {result['failed_frac']:.6g} ({result['failed']}/{result['attempted']})")
    for failure in result["failures"]:
        print(f"  FAILED {failure['key']}: {failure['problem']}")
    print(f"  result file {path.relative_to(ROOT)}")
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.use_checkout()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(result, args.seed, args.trace)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
