"""The requests the benchmark sends to chorddiag, and how their outputs are checked.

A request is a short string key, such as ``prob:27`` or ``series:C2:61``.
``perform`` executes it through chorddiag's public functions, ``canonical``
renders its output as text, and the text's digest is compared with the one
stored in ``reference.json``. Every module attribute is looked up at call
time, so a tracer that wraps those attributes sees each call.

Nothing here imports chorddiag at module level: the caller first puts the
checkout's ``src`` directory on ``sys.path`` (see ``use_checkout``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("census", "series_cold", "estimate_sweep", "verify")

# Families a researcher asks for by name during an estimate session.
SWEEP_FAMILIES = ("D", "C", "C1", "C2", "S")

# The child must finish well inside the benchmark's 180 s limit per run.
CHILD_TIMEOUT_S = 150

# The speed meter (see SpeedMeter): how often it samples the machine while
# a request runs, how many samples it takes before and after, and what one
# sample takes on the reference machine (a 2-vCPU Xeon virtual machine in its
# fast state). Latencies are reported as seconds of that machine.
TICK_S = 0.02
BRACKET_SAMPLES = 8
SAMPLE_REFERENCE_S = 0.00052


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; the seed only orders the requests."""

    census_n: int
    # (kind, family, order) per cold series request.
    series: tuple[tuple[str, str, int], ...]
    prob_n: tuple[int, ...]
    estimate_n: tuple[int, ...]
    estimate_terms: tuple[int, ...]
    family_orders: tuple[int, ...]
    verify_order: int


# The cold series orders are aligned so that C2 (order 61), S (order 60,
# which needs C2 to 61) and the 2-connected image (order 58, which needs C2
# to 58 + 3) all revert C^2/x at order 61: the three heavy requests do the
# same reversion plus their own last step, so their latencies cluster and
# the latency percentiles do not jump between request kinds.
FULL = Sizes(
    census_n=7,
    series=(
        ("series", "C", 60),
        ("series", "C2", 61),
        ("series", "S", 60),
        ("alien", "C", 60),
        ("alien", "C2", 58),
    ),
    prob_n=tuple(range(20, 41)),
    estimate_n=(20, 25, 30, 35, 40),
    estimate_terms=(2, 4, 6, 8, 10),
    family_orders=(20, 25, 30, 35, 40),
    verify_order=30,
)

# Toy sizes for the self-test: every request kind, a fraction of the work.
TOY = Sizes(
    census_n=5,
    series=(
        ("series", "C", 12),
        ("series", "C2", 13),
        ("series", "S", 12),
        ("alien", "C", 12),
        ("alien", "C2", 10),
    ),
    prob_n=(10, 11, 12),
    estimate_n=(10, 14),
    estimate_terms=(2, 4),
    family_orders=(10, 14),
    verify_order=8,
)


def use_checkout() -> None:
    """Import chorddiag from this checkout's ``src``, or exit with status 2."""
    if not (SRC / "chorddiag" / "__init__.py").is_file():
        print(f"error: no chorddiag sources under {SRC}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chorddiag

    if Path(chorddiag.__file__).resolve().parent != SRC / "chorddiag":
        print(f"error: imported chorddiag from {chorddiag.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _pin_to_one_cpu() -> None:
    """Keep a single-threaded child on one CPU; migrations add noise to its timings."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@contextlib.contextmanager
def on_child_cpu():
    """Run the calling thread on the CPU the children are pinned to, then unpin it."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(affinity)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, affinity)


def _speed_sample() -> float:
    """Time a fixed pure-Python Fraction loop, about half a millisecond long.

    The loop is the benchmark's own code, so a change to chorddiag does not
    move it; the machine's speed at the moment does.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i * i + 1)
    return time.perf_counter() - start


class SpeedMeter:
    """Measure how fast the machine runs while a request runs.

    A shared virtual machine's CPU can run at half its speed for seconds or
    minutes (see README.md). The meter times a fixed loop before and after
    the request and, from a SIGALRM handler, every TICK_S while it runs, in
    the same thread and so on the same CPU. ``scale`` converts the request's
    latency to seconds of the reference machine; ``spent_s`` is the time the
    samples took so far, which the caller takes off the latency. A no-op
    when ``enabled`` is false (``scale`` is then None). Without ``ticking``
    it only samples before and after, for a request served by a child
    process on the CPU this thread runs on.
    """

    def __init__(self, enabled: bool = True, ticking: bool = True):
        self.enabled = enabled
        self.ticking = ticking
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self, *_signal) -> None:
        took = _speed_sample()
        self.samples.append(took)
        self.spent_s += took

    def __enter__(self) -> SpeedMeter:
        if self.enabled:
            for _ in range(BRACKET_SAMPLES):
                self._sample()
        if self.enabled and self.ticking:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled and self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        if self.enabled:
            for _ in range(BRACKET_SAMPLES):
                self._sample()

    @property
    def scale(self) -> float | None:
        return SAMPLE_REFERENCE_S / statistics.mean(self.samples) if self.samples else None


def spawn(command: list[str], stdin: str | None = None, timeout: float = CHILD_TIMEOUT_S):
    """Run one single-threaded Python process with chorddiag imported from ``src``.

    Only the census, which runs in the benchmark's own process, starts
    threads; every child is pinned to one CPU. The benchmark's process has
    no threads while it spawns, which is what ``preexec_fn`` requires.
    """
    return subprocess.run(
        command,
        input=stdin,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=timeout,
        preexec_fn=_pin_to_one_cpu,
    )


def plan(workload: str, sizes: Sizes, rng) -> list[str]:
    """One pass of a workload: the same request set each time, seeded order."""
    if workload == "census":
        keys = [f"census:{sizes.census_n}:{mode}" for mode in ("w1", "pool", "parts")]
    elif workload == "series_cold":
        keys = [f"{kind}:{family}:{order}" for kind, family, order in sizes.series]
    elif workload == "estimate_sweep":
        keys = (
            [f"prob:{n}" for n in sizes.prob_n]
            + [f"est:{n}:{t}" for n in sizes.estimate_n for t in sizes.estimate_terms]
            + [f"series:{f}:{o}" for f in SWEEP_FAMILIES for o in sizes.family_orders]
        )
    elif workload == "verify":
        keys = [f"verify:{sizes.verify_order}"]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    rng.shuffle(keys)
    return keys


def all_keys(sizes: Sizes) -> list[str]:
    """Every request key any seed can produce at these sizes."""
    keys = [f"census:{sizes.census_n}:python"]
    for workload in WORKLOADS:
        keys += sorted(plan(workload, sizes, random.Random(0)))
    return keys


# -- in-process requests ----------------------------------------------------------


def perform(key: str):
    """Execute one request through chorddiag's public functions."""
    from chorddiag import alien, asymptotics, gf, oracle

    kind, *rest = key.split(":")
    if kind == "census":
        n, mode = int(rest[0]), rest[1]
        if mode == "w1":
            return oracle.class_census(n, workers=1)
        if mode == "pool":
            return oracle.class_census(n, workers=nproc())
        if mode == "parts":
            return [oracle.class_census(n, root_partner=rp) for rp in range(2, 2 * n + 1)]
        if mode == "python":
            total, connected, two = oracle.pure_python_census_module().class_census(n)
            return {"all": total, "connected": connected, "2connected": two}
    elif kind == "series":
        return gf.series_family(rest[0], int(rest[1]))
    elif kind == "alien":
        build = alien.alien_connected if rest[0] == "C" else alien.alien_two_connected
        return build(int(rest[1]))
    elif kind == "prob":
        return asymptotics.probability_check(int(rest[0]))
    elif kind == "est":
        n, terms = int(rest[0]), int(rest[1])
        return asymptotics.estimate(alien.alien_two_connected(terms - 1), n, terms)
    raise ValueError(f"unknown request {key!r}")


def census_totals(output) -> dict[str, int]:
    """(all, connected, 2-connected) counts of a census request, parts summed."""
    parts = output if isinstance(output, list) else [output]
    return {c: sum(p[c] for p in parts) for c in ("all", "connected", "2connected")}


def canonical(key: str, output) -> str:
    """The exact output of a request as text; its digest is the reference."""
    kind = key.split(":")[0]
    if kind == "census":
        parts = output if isinstance(output, list) else [output]
        return ";".join(",".join(f"{c}={v}" for c, v in p.items()) for p in parts)
    if kind == "series":
        return _coefficients(output)
    if kind == "alien":
        prefactor = f"e^{output.e_exp}*(2pi)^({output.sqrt_two_pi_exp}/2)"
        return prefactor + " " + _coefficients(output.series)
    if kind == "prob":
        return " ".join(
            (
                str(output.ratio),
                output.model.to_decimal_string(),
                output.deviation.to_decimal_string(),
            )
        )
    if kind == "est":
        return output.to_decimal_string()
    raise ValueError(f"unknown request {key!r}")


def _coefficients(series) -> str:
    return ",".join(str(c) for c in series.coefficients)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def serve(key: str, metered: bool = True) -> dict:
    """Time one request and describe its output; an exception is a failed request.

    ``latency_s`` leaves out the speed meter's own samples; ``speed_scale``
    (None when not ``metered``) converts it to seconds of the reference
    machine.
    """
    error = None
    with SpeedMeter(metered) as meter:
        start, spent = time.perf_counter(), meter.spent_s
        try:
            output = perform(key)
        except Exception as exc:  # a failed request is counted, not fatal
            error = repr(exc)
        latency = time.perf_counter() - start - (meter.spent_s - spent)
    record = {"key": key, "latency_s": latency, "speed_scale": meter.scale}
    if error is not None:
        record["error"] = error
        return record
    record["digest"] = digest(canonical(key, output))
    kind = key.split(":")[0]
    if kind == "census":
        record["counts"] = census_totals(output)
    elif kind in ("series", "alien"):
        series = output if kind == "series" else output.series
        record["coeffs"] = series.order + 1
    return record


# -- processes ----------------------------------------------------------------------


def run_child(job: dict) -> dict:
    """Serve ``job`` in a fresh interpreter (see child.py); returns its report."""
    command = [sys.executable, str(HERE / "child.py")]
    try:
        done = spawn(command, stdin=json.dumps(job))
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"child exited {done.returncode}: {done.stderr.strip()[-500:]}"}
    report = json.loads(lines[-1])
    report["output"] = lines[:-1]
    return report


_SUITE_DONE = re.compile(r"suite \S+: done in [0-9.]+s")


def verify_command(order: int) -> list[str]:
    return ["verify", "--suite", "all", "--order", str(order)]


def run_verify(order: int, trace_job: dict | None = None) -> tuple[dict, dict | None]:
    """``chorddiag verify`` as a fresh process, timed from spawn to return.

    child.py calls the CLI's ``main`` with the verify arguments, under the
    speed meter, or, when traced, after wrapping the layers; the request is
    timed from spawn until ``main`` returns, less the meter's own samples.
    Returns the request record and, when traced, the child's per-layer
    figures.
    """
    key = f"verify:{order}"
    start = time.monotonic()
    report = run_child({"trace": False, **(trace_job or {}), "verify": order})
    stderr = report.get("error", "")
    record = {"key": key, "latency_s": None, "speed_scale": report.get("speed_scale")}
    if "returned" in report:
        record["latency_s"] = report["returned"] - start - report["spent_s"]
    lines = report.get("output", [])
    passes = [line for line in lines if line.startswith("PASS ")]
    others = [
        line for line in lines if not line.startswith("PASS ") and not _SUITE_DONE.fullmatch(line)
    ]
    if report.get("status") != 0 or others or not passes:
        record["error"] = (
            f"exit {report.get('status')}; unexpected lines {others[:3]}; {stderr.strip()[-300:]}"
        )
    else:
        record["digest"] = digest("\n".join(passes))
    return record, report.get("figures")


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text())
