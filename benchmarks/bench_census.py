#!/usr/bin/env python3
"""Benchmark the compiled census kernel against the pure-Python fallback.

The census is the hot loop of the package: it counts the (2n-1)!!
diagrams on n chords by connectivity, walking every connected one and
skipping disconnected subtrees in bulk. Run

    python benchmarks/bench_census.py --max-n 7

to see both kernels side by side (n = 8 is fine for the compiled kernel,
slow in pure Python). Every row's counts are compared with the coefficients
of the series D, C and C2; the exit status is 1 when any kernel disagrees.
"""

import argparse
import sys
import time

from chorddiag import _census_py

try:
    from chorddiag import _census
except ImportError:
    _census = None

from chorddiag import gf
from chorddiag.gf import double_factorial_odd


def time_call(fn, n: int) -> tuple[float, tuple]:
    started = time.perf_counter()
    result = fn(n)
    return time.perf_counter() - started, tuple(result)


def expected_counts(n: int) -> tuple[int, int, int]:
    """(all, connected, 2-connected) on n chords, read off the series."""
    return tuple(
        int(series(n)[n])
        for series in (gf.series_all_diagrams, gf.series_connected, gf.series_two_connected)
    )


def check(kernel: str, n: int, counts: tuple) -> bool:
    expected = expected_counts(n)
    if counts != expected:
        print(
            f"error: {kernel} kernel at n={n} gave {counts}, series give {expected}",
            file=sys.stderr,
        )
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=7)
    parser.add_argument(
        "--compiled-extra",
        type=int,
        default=1,
        help="extra sizes to run on the compiled kernel only",
    )
    args = parser.parse_args()

    ok = True
    print(f"{'n':>3} {'diagrams':>12} {'pure (s)':>10} {'compiled (s)':>13} {'speedup':>9}")
    for n in range(args.min_n, args.max_n + 1):
        pure_time, pure_counts = time_call(_census_py.class_census, n)
        ok &= check("pure", n, pure_counts)
        line = f"{n:>3} {double_factorial_odd(n):>12} {pure_time:>10.3f}"
        if _census is not None:
            fast_time, fast_counts = time_call(_census.class_census, n)
            ok &= check("compiled", n, fast_counts)
            speedup = pure_time / fast_time if fast_time else float("inf")
            line += f" {fast_time:>13.3f} {speedup:>8.1f}x"
        else:
            line += f" {'n/a':>13} {'n/a':>9}"
        print(line)

    if _census is not None and args.compiled_extra > 0:
        for n in range(args.max_n + 1, args.max_n + args.compiled_extra + 1):
            fast_time, counts = time_call(_census.class_census, n)
            ok &= check("compiled", n, counts)
            print(
                f"{n:>3} {double_factorial_odd(n):>12} {'skipped':>10} "
                f"{fast_time:>13.3f}  (counts: all={counts[0]}, "
                f"connected={counts[1]}, 2connected={counts[2]})"
            )
    if _census is None:
        print(
            "compiled kernel not built; run `python setup.py build_ext --inplace` "
            "with a C compiler to compare"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
