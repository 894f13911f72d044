"""Serve benchmark requests in a fresh interpreter, so they start from cold caches.

Reads one JSON job on standard input and prints one JSON report as the last
line of standard output:

- ``{"keys": [...], "trace": bool, "spans": path|null}`` serves the keys in
  order and reports one record per request, each timed inside this process;
- ``{"verify": order, "trace": bool, "spans": path|null}`` runs the CLI's
  ``verify --suite all`` (its PASS lines come first on standard output) and
  reports the exit status, when ``main`` returned and the speed meter's
  figures (see workloads.SpeedMeter).

When ``trace`` is set the layers are wrapped before the first request, the
speed meter is off, and the report carries the per-layer figures; ``spans``
names a gzip file to write the raw spans to.
"""

from __future__ import annotations

import json
import sys
import time

import tracer
import workloads


def main() -> int:
    job = json.loads(sys.stdin.read())
    workloads.use_checkout()
    tracing = tracer.Tracer() if job.get("trace") else None
    if tracing is not None:
        tracing.instrument()
    report: dict = {}
    if "verify" in job:
        from chorddiag import cli

        with workloads.SpeedMeter(tracing is None) as meter:
            report["status"] = cli.main(workloads.verify_command(job["verify"]))
            sys.stdout.flush()
            # CLOCK_MONOTONIC is shared by all processes, so the parent can
            # time spawn-to-return without counting what follows.
            report["returned"] = time.monotonic()
            report["spent_s"] = meter.spent_s
        report["speed_scale"] = meter.scale
    else:
        report["records"] = [workloads.serve(key, metered=tracing is None) for key in job["keys"]]
    if tracing is not None:
        tracing.restore()
        report["figures"] = tracer.figures(tracing.spans, tracing.cache_counts())
        if job.get("spans"):
            tracing.dump(job["spans"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
