#!/usr/bin/env python3
"""Self-test of the benchmark itself, not of chorddiag.

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and checks that each
passes the output gate and emits exactly the metrics BENCHMARK.json lists.
Then checks that a corrupted reference digest trips the gate, and that the
benchmark exits non-zero without a result line in a directory that holds
only BENCHMARK.json and the benchmark's own files. Prints one PASS or FAIL
line per check and exits 0 when all pass. Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess

import run
import workloads
from workloads import HERE, ROOT, TOY


def main() -> int:
    workloads.use_checkout()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    expect(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "workload names match BENCHMARK.json",
    )
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    reference = workloads.load_reference()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run.run_workload(workload, 7, 1, trace, TOY, reference)
            label = f"{workload} trace {trace}"
            expect(result["correct"] and result["failed"] == 0, f"{label}: outputs match the reference")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(emitted == declared[trace], f"{label}: metric names and units match BENCHMARK.json")
            if trace == 0:
                expect(
                    all(m["value"] > 0 for m in result["metrics"].values()),
                    f"{label}: every end-to-end metric is above zero",
                )

    key = f"census:{TOY.census_n}:w1"
    corrupted = {**reference, key: "0" * 16}
    result = run.run_workload("census", 7, 1, 0, TOY, corrupted)
    expect(
        not result["correct"] and any(f["key"] == key for f in result["failures"]),
        "a corrupted reference digest fails the gate",
    )

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [*spec["command"], "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    shutil.rmtree(bare)
    expect(
        done.returncode != 0 and not done.stdout.strip(),
        "without chorddiag sources: non-zero exit and no result",
    )

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
