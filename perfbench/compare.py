"""Compare two benchmark results, flagging any difference in their stamps.

    python3 perfbench/compare.py BASE.json NEW.json

``run.py`` writes one result file per run under ``.perfbench/results/``.
Two results measured on different hosts, Python or NumPy versions, job
counts, guard rates or server settings are not comparable as they
stand: the differing stamp fields are printed above the comparison and
the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import sys


def stamp_differences(base: dict, new: dict) -> list[str]:
    keys = sorted(set(base) | set(new))
    return [f"{key}: {base.get(key)!r} -> {new.get(key)!r}"
            for key in keys if base.get(key) != new.get(key)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)

    differences = stamp_differences(base["stamp"], new["stamp"])
    if differences:
        print("STAMP MISMATCH — these results were measured differently:")
        for line in differences:
            print(f"  {line}")
    print(f"{'metric':<28} {'base':>14} {'new':>14} {'change':>8}")
    for name, entry in base["metrics"].items():
        if name not in new["metrics"]:
            print(f"{name:<28} {entry['value']:>14.4f} {'missing':>14}")
            continue
        old, now = entry["value"], new["metrics"][name]["value"]
        change = f"{(now - old) / old:+.1%}" if old else "n/a"
        print(f"{name:<28} {old:>14.4f} {now:>14.4f} {change:>8} "
              f"{entry['unit']}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
