#!/usr/bin/env python3
"""Record reference.json: the digest of every request's exact output, at both sizes.

    python3 perfbench/record_reference.py

The benchmark fails any request whose output digest differs from the one
recorded here, so run this only when an output is meant to change, and say
so where the change is described.
"""

from __future__ import annotations

import json

import workloads


def main() -> int:
    workloads.use_checkout()
    digests = {}
    for sizes in (workloads.FULL, workloads.TOY):
        for key in workloads.all_keys(sizes):
            if key.startswith("verify:"):
                record, _ = workloads.run_verify(sizes.verify_order)
            else:
                record = workloads.serve(key)
            if "error" in record:
                raise SystemExit(f"{key}: {record['error']}")
            digests[key] = record["digest"]
            print(f"{key:<24} {record['digest']}  {record['latency_s']:.3f} s", flush=True)
    workloads.REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
