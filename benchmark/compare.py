#!/usr/bin/env python3
"""Compare two sets of recorded benchmark runs (stdlib only).

Usage: compare.py BASE.jsonl NEW.jsonl

Each file is a history.jsonl written by benchmark/run.py (one run record
per line). For every (workload, trace) pair present in both files the
script prints each metric's median and quartiles on both sides and the
relative change of the medians; end-to-end metrics worse by more than their
BENCHMARK.json bound are marked REGRESSED.

Runs are comparable only when they were measured on the same kind of host:
the fingerprints (nproc, L3 size, dispatched SIMD tier, thread count,
compiler) must be identical across both files, and the median DRAM triads
of the two files must agree within TRIAD_TOLERANCE. Otherwise the script
refuses and exits 3.

Exit status: 0 compared, 1 a regression beyond a bound, 2 usage error,
3 fingerprints differ.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINT_KEYS = ("nproc", "l3_bytes", "simd_tier", "threads", "compiler")
TRIAD_TOLERANCE = 0.25


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def fingerprint_mismatch(base, new):
    """Returns a reason string when the two sets' hosts differ, else None.

    The static keys must match in every record. The triad moves from run to
    run with the memory traffic of whatever else shares the host, so the
    sets are compared on their median triad."""
    ref = base[0]["fingerprint"]
    for r in base + new:
        for k in FINGERPRINT_KEYS:
            if r["fingerprint"].get(k) != ref.get(k):
                return f"{k}: {ref.get(k)!r} vs {r['fingerprint'].get(k)!r}"
    tb = statistics.median(r["fingerprint"]["triad_gbs"] for r in base)
    tn = statistics.median(r["fingerprint"]["triad_gbs"] for r in new)
    if max(tb, tn) > min(tb, tn) * (1 + TRIAD_TOLERANCE):
        return f"median triad_gbs {tb:.1f} vs {tn:.1f} GB/s"
    return None


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("compare.py: empty history file", file=sys.stderr)
        return 2
    reason = fingerprint_mismatch(base, new)
    if reason:
        print(f"compare.py: refusing, host fingerprints differ ({reason})",
              file=sys.stderr)
        return 3
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    def group(records):
        g = defaultdict(lambda: defaultdict(list))
        for r in records:
            if r["size"] != "full":
                continue
            for name, m in r["result"]["metrics"].items():
                g[(r["workload"], r["trace"])][name].append(m["value"])
        return g

    gb, gn = group(base), group(new)
    regressed = False
    for key in sorted(set(gb) & set(gn)):
        print(f"== {key[0]} (trace {key[1]}): "
              f"{len(next(iter(gb[key].values())))} vs "
              f"{len(next(iter(gn[key].values())))} runs")
        for name in gb[key]:
            if name not in gn[key]:
                continue
            bq1, bmed, bq3 = summary(gb[key][name])
            nq1, nmed, nq3 = summary(gn[key][name])
            change = (nmed - bmed) / bmed if bmed else 0.0
            flag = ""
            if name in e2e:
                worse = change if e2e[name]["better"] == "lower" else -change
                if worse > e2e[name]["bound"]:
                    flag = "  REGRESSED"
                    regressed = True
            print(f"  {name:32s} {bmed:12.5g} [{bq1:.4g}, {bq3:.4g}]  ->"
                  f" {nmed:12.5g} [{nq1:.4g}, {nq3:.4g}]  {change:+.2%}{flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
