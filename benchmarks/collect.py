"""Merge ``benchmarks/out/BENCH_*.json`` into one trajectory summary.

Standalone entry point over :mod:`repro.benchtrack` — run after any
bench to refresh ``BENCH_summary.json``, or with ``--check`` in CI to
ratio-gate a fresh run against the committed reduced-scale baseline
(see ``benchmarks/baselines/``).  Exits non-zero when the gate fails.

``--check`` accepts a summary file, a single ``BENCH_*.json`` artifact,
or the whole ``benchmarks/baselines/`` directory (artifacts merged).

Usage::

    PYTHONPATH=src python benchmarks/collect.py
    PYTHONPATH=src python benchmarks/collect.py \\
        --check benchmarks/baselines --min-ratio 0.5
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:
    from repro import benchtrack
except ImportError:  # bare invocation without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro import benchtrack

DEFAULT_OUT = Path(__file__).resolve().parent / "out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=DEFAULT_OUT,
        help="directory holding BENCH_*.json artifacts",
    )
    parser.add_argument(
        "--check",
        type=Path,
        metavar="BASELINE",
        help="baseline to ratio-gate against: summary file, single "
        "BENCH_*.json artifact, or a directory of them (CI mode)",
    )
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=0.5,
        help="speedups must hold this fraction of baseline (default 0.5)",
    )
    args = parser.parse_args(argv)

    summary = benchtrack.summarize(args.out_dir)
    target = benchtrack.write_summary(args.out_dir)
    print(f"wrote {target} ({len(summary['artifacts'])} artifacts)")

    if args.check is None:
        return 0
    baseline = benchtrack.load_baseline(args.check)
    failures = benchtrack.check_against_baseline(
        summary, baseline, min_ratio=args.min_ratio
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"baseline check passed against {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
