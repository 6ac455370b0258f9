#!/usr/bin/env python3
"""CLI-contract test for bench_main.

Pins the argument-handling policy the CI pipeline and the serve-layer job
workspaces depend on:

  * unknown flags and missing flag arguments exit 2 with a usage message,
  * an unwritable --out path fails FAST (the writability probe runs before
    any timed entry, so a typo'd path cannot waste a full bench run),
  * a valid --only + --out run exits 0 and writes a parseable JSON report
    with the gecos-bench-v5 schema,
  * every entry carries a "gates" list of {name, value, bound, pass} and no
    bound-only gate_* field; a gated entry reports its gate passing,
  * an --only filter matching nothing is an error, not a silent no-op,
  * report numbers carry more than 9 significant digits, so they parse back
    to the doubles the 1e-10 gates compared.

Usage: bench_cli_test.py /path/to/bench_main
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import time


def significant_digits(number):
    """Significant digits of a JSON number token such as -1.25e-05."""
    mantissa = number.lower().split("e")[0].lstrip("-").replace(".", "")
    return len(mantissa.lstrip("0"))


def run(args, timeout=600):
    return subprocess.run(
        args, capture_output=True, text=True, timeout=timeout
    )


def main():
    if len(sys.argv) != 2:
        print("usage: bench_cli_test.py /path/to/bench_main", file=sys.stderr)
        return 2
    bench = sys.argv[1]
    failures = 0

    def check(name, cond, detail=""):
        nonlocal failures
        if cond:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")

    # Unknown flag: exit 2, usage on stderr, nothing run.
    r = run([bench, "--frobnicate"])
    check("unknown flag exits 2", r.returncode == 2, f"rc={r.returncode}")
    check(
        "unknown flag names itself",
        "--frobnicate" in r.stderr and "usage" in r.stderr,
        r.stderr[:200],
    )

    # --out without its PATH argument: exit 2.
    r = run([bench, "--out"])
    check("--out without arg exits 2", r.returncode == 2, f"rc={r.returncode}")
    check("--out error names the flag", "--out" in r.stderr, r.stderr[:200])

    # Unwritable --out: the probe rejects it before any timed work, so this
    # must come back in seconds, not bench-run minutes.
    bad_out = "/no/such/dir/bench.json"
    t0 = time.monotonic()
    r = run([bench, "--quick", "--out", bad_out])
    elapsed = time.monotonic() - t0
    check("unwritable --out exits 2", r.returncode == 2, f"rc={r.returncode}")
    check(
        "unwritable --out names the path",
        bad_out in r.stderr,
        r.stderr[:200],
    )
    check(
        "unwritable --out fails fast",
        elapsed < 30.0,
        f"took {elapsed:.1f}s — probe ran after the bench?",
    )

    # --only with a filter matching no entry: an error, not an empty report.
    r = run([bench, "--quick", "--only", "no_such_entry_xyz"])
    check("empty --only filter exits 2", r.returncode == 2,
          f"rc={r.returncode}")

    # --list prints entry names without running anything.
    r = run([bench, "--list"], timeout=60)
    check("--list exits 0", r.returncode == 0, f"rc={r.returncode}")
    entries = [line for line in r.stdout.split() if line]
    check("--list prints entries", len(entries) >= 5, r.stdout[:200])

    # Valid --only + --out: exit 0 and a parseable v5 report at the path.
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        r = run([bench, "--quick", "--repeat", "1", "--only", "fermion",
                 "--out", out])
        check("valid --only run exits 0", r.returncode == 0,
              f"rc={r.returncode} stderr={r.stderr[:300]}")
        check("--out file exists", os.path.exists(out), out)
        if os.path.exists(out):
            with open(out) as f:
                text = f.read()
            report = json.loads(text)
            ratio = re.search(r'"pauli_vs_scb_build_ratio": ([-+.0-9eE]+)',
                              text)
            check("float fields print more than 9 significant digits",
                  ratio is not None and significant_digits(ratio.group(1)) > 9,
                  ratio.group(0) if ratio else text[:300])
            check(
                "report schema is gecos-bench-v5",
                report.get("schema") == "gecos-bench-v5",
                str(report.get("schema")),
            )
            entries = report.get("benchmarks", [])
            names = [b.get("name", "") for b in entries]
            check("filtered entries all match", names != [] and all(
                "fermion" in n for n in names), str(names))
            check("every entry has a gates list",
                  all(isinstance(b.get("gates"), list) for b in entries),
                  str(names))

    # Gated entries: each gate is in the report's gates list, passing and
    # within its bound, and no bound is left behind as a gate_* field
    # (spectral_thermal carried gate_max_sigma_dev before the gates list).
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        r = run([bench, "--quick", "--repeat", "1", "--only",
                 "fermion_apply_xcheck", "--only", "spectral_thermal",
                 "--out", out])
        check("gated entries run exits 0", r.returncode == 0,
              f"rc={r.returncode} stderr={r.stderr[:300]}")
        entries = []
        if os.path.exists(out):
            with open(out) as f:
                entries = json.load(f).get("benchmarks", [])
        gate_fields = [f"{b.get('name')}.{k}" for b in entries
                       for k in b if k.startswith("gate_")]
        check("no entry carries a gate_* field",
              len(entries) == 2 and gate_fields == [], str(gate_fields))
        gates = entries[0].get("gates", []) if entries else []
        gate = next((g for g in gates
                     if g.get("name") == "scb_vs_pauli_max_diff"), None)
        check("xcheck reports its scb_vs_pauli_max_diff gate",
              gate is not None, str(entries)[:300])
        if gate is not None:
            check("xcheck gate passes", gate.get("pass") is True, str(gate))
            check("xcheck gate value <= bound",
                  gate.get("value", 1.0) <= gate.get("bound", 0.0),
                  str(gate))

    print(f"bench_cli_test: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
