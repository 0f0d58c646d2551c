#!/usr/bin/env python
"""Diff two ``BENCH_*.json`` artifacts and gate CI on the result.

Two checks, combinable in one invocation:

* regression gate (default when two artifacts are given): every benchmark
  present in both files must not be slower than ``baseline * (1 + t)``
  with ``t`` the ``--threshold`` (default 0.20, i.e. 20%).  Benchmarks
  present in only one artifact are reported as ``new`` / ``removed``
  (informational, never a failure); only the degenerate case of *zero*
  shared names fails, because a rename must not turn the gate green by
  vacuity — pass ``--allow-disjoint`` for intentional wholesale renames;
* speedup gate (``--check-speedup NAME``): within the *current* artifact,
  ``NAME[stacked]`` must be at least ``--min-speedup`` (default 1.5x)
  faster than ``NAME[shards]`` — the claim behind the kernel engine
  running stacked whenever its operands allow, which this repo's CI
  enforces on ``test_block_dot`` and ``test_block_axpy``.

A candidate artifact that is *missing* an entry referenced by
``--check-speedup`` is a configuration error, not a failed gate — the
benchmark was renamed or never ran, and silently "failing" (or worse,
passing) would hide that.  It exits with status 2 and a message naming
the file and every missing entry.

Exit status 0 when all gates pass, 1 when a gate fails, 2 on a
hard configuration error.  Examples::

    python scripts/compare_bench.py benchmarks/BENCH_kernels.json \
        bench-out/BENCH_kernels.json
    python scripts/compare_bench.py bench-out/BENCH_kernels.json \
        --check-speedup test_block_dot --check-speedup test_block_axpy
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.artifacts import compare_artifacts, load_artifact  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline BENCH_*.json (or the only "
                        "artifact when just --check-speedup is wanted)")
    parser.add_argument("current", nargs="?", default=None,
                        help="current BENCH_*.json to compare against baseline")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional wall-time regression "
                        "(default: 0.20)")
    parser.add_argument("--allow-disjoint", action="store_true",
                        help="do not fail when baseline and current share "
                        "no benchmark names (intentional wholesale rename)")
    parser.add_argument("--check-speedup", action="append", default=[],
                        metavar="NAME",
                        help="require NAME[stacked] >= --min-speedup x faster "
                        "than NAME[shards] in the current artifact "
                        "(repeatable)")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="required stacked-vs-shards speedup "
                        "(default: 1.5)")
    args = parser.parse_args(argv)

    baseline = load_artifact(args.baseline)
    current = load_artifact(args.current) if args.current else baseline
    failed = False

    if args.current:
        base_names = set(baseline.names())
        cur_names = set(current.names())
        shared = base_names & cur_names
        # One-sided entries are expected churn, not an error: report them
        # so a reviewer sees coverage changes, gate only the shared set.
        for name in sorted(cur_names - base_names):
            print(f"new benchmark (not gated): {name}")
        for name in sorted(base_names - cur_names):
            print(f"removed benchmark: {name}")
        if baseline.benchmarks and not shared and not args.allow_disjoint:
            # A rename must not turn the gate green by vacuity.
            print("GATE VACUOUS: no benchmark names shared between "
                  f"{args.baseline} and {args.current} "
                  "(pass --allow-disjoint if intentional)")
            failed = True
        regressions = compare_artifacts(baseline, current,
                                        threshold=args.threshold)
        for reg in regressions:
            print(f"REGRESSION {reg}")
            failed = True
        if shared and not regressions:
            print(f"regression gate ok: {len(shared)} shared benchmarks "
                  f"within {args.threshold:.0%} of baseline")

    if args.check_speedup:
        candidate = args.current if args.current else args.baseline
        have = set(current.names())
        missing = [entry for name in args.check_speedup
                   for entry in (f"{name}[shards]", f"{name}[stacked]")
                   if entry not in have]
        if missing:
            # Hard error, not a failed gate: the artifact cannot answer
            # the question it is being asked (renamed/never-ran bench).
            print(f"ERROR: {candidate} is missing "
                  f"{len(missing)} entr{'y' if len(missing) == 1 else 'ies'} "
                  f"required by --check-speedup: {', '.join(missing)}")
            print("(benchmark renamed or did not run; fix the bench "
                  "invocation or the --check-speedup names)")
            return 2

    for name in args.check_speedup:
        speedup = current.speedup(f"{name}[shards]", f"{name}[stacked]")
        ok = speedup >= args.min_speedup
        tag = "ok" if ok else "TOO SLOW"
        print(f"speedup {tag}: {name} stacked is {speedup:.2f}x vs shards "
              f"(required {args.min_speedup:.2f}x)")
        failed = failed or not ok

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
