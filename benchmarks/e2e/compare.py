#!/usr/bin/env python3
"""Read two bench-e2e result sets against the benchmark's own bounds.

    python benchmarks/e2e/compare.py A/result.json B/result.json

For every workload x end-to-end metric it prints both medians with their
quartiles, the ratio B/A with its base, the bound, and a verdict:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — not worse, but the run-to-run spread (interquartile
  range over the median, the wider of the two sides) exceeds the bound,
  so "no change" cannot be told from "changed" — unless every run of B
  reads better than every run of A, which is ``ok``;
* ``ok``         — neither.

Clock metrics use the relative bound recorded in the result file (from
BENCHMARK.json).  The four seeded counts compare two runs of the *same*
seed, so they get the absolute rules of the issue that defined them.
Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys

#: metric -> how much worse B may read than A, in the metric's own unit
ABSOLUTE = {
    "failed_share": 0.0,
    "online_accuracy": 0.005,
    "adapt_steps_per_frame": 0.0,
    "sim_deadline_miss_share": 0.005,
}


def worse_by(row_a: dict, row_b: dict) -> float:
    """How much worse B's median is than A's (positive = worse)."""
    delta = row_b["median"] - row_a["median"]
    return -delta if row_a["better"] == "higher" else delta


def verdict(name: str, row_a: dict, row_b: dict) -> str:
    gap = worse_by(row_a, row_b)
    if name in ABSOLUTE:
        if name == "adapt_steps_per_frame":  # exact: a change either way
            return "ok" if gap == 0 else "worse"  # is a behaviour change
        return "worse" if gap > ABSOLUTE[name] + 1e-12 else "ok"
    bound = row_a["bound"]
    base = abs(row_a["median"])
    if gap > bound * base:
        return "worse"
    spread = max(
        (row["q3"] - row["q1"]) / abs(row["median"]) for row in (row_a, row_b)
    )
    if spread > bound:
        higher = row_a["better"] == "higher"
        clean_win = (
            min(row_b["values"]) > max(row_a["values"]) if higher
            else max(row_b["values"]) < min(row_a["values"])
        )
        return "ok" if clean_win else "unresolved"
    return "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        side_a = json.load(fh)
    with open(argv[1]) as fh:
        side_b = json.load(fh)
    if side_a["seed"] != side_b["seed"]:
        print(f"note: seeds differ (A {side_a['seed']}, B {side_b['seed']}); "
              "the seeded counts are not comparable", file=sys.stderr)
    any_worse = False
    print(f"{'workload':15s} {'metric':24s} {'A median [q1,q3]':>32s} "
          f"{'B median [q1,q3]':>32s} {'B/A':>8s} {'bound':>8s}  verdict")
    for workload, table_a in side_a["workloads"].items():
        table_b = side_b["workloads"].get(workload)
        if table_b is None:
            print(f"{workload:15s} missing from B")
            any_worse = True
            continue
        for name, row_a in table_a["end_to_end"].items():
            row_b = table_b["end_to_end"][name]
            outcome = verdict(name, row_a, row_b)
            any_worse |= outcome == "worse"
            ratio = row_b["median"] / row_a["median"] if row_a["median"] else float("nan")
            bound = (f"{ABSOLUTE[name]:+.3f}" if name in ABSOLUTE
                     else f"{row_a['bound']:.0%}")
            cells = [
                f"{row['median']:.5g} [{row['q1']:.5g},{row['q3']:.5g}]"
                for row in (row_a, row_b)
            ]
            print(f"{workload:15s} {name:24s} {cells[0]:>32s} {cells[1]:>32s} "
                  f"{ratio:8.4f} {bound:>8s}  {outcome}"
                  f"  (base {row_a['median']:.5g} {row_a['unit']})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
