#!/usr/bin/env python3
"""Run one workload of the gecos benchmark and print its result line.

Usage (from the repository root):

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds gecos_bench (benchmark/CMakeLists.txt, which builds the repository's
own `gecos` library and `gecosd` daemon) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the workload. The last line of
standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics (0 for a layer the workload
does not run in the measured process), and the trace files the run wrote
are validated with tools/trace_report.py. The line before it carries
the host fingerprint and a digest of the seed-generated inputs. Every run
is also appended to <build dir>/history.jsonl, which benchmark/compare.py
reads.

Test-only options: --size tiny runs smoke-scale problems; --perturb-reference
shifts the pinned reference values so the checks must fail.
"""

import argparse
import fcntl
import glob
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sector_ground", "full_ground", "trotter_quench", "serve_jobs")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def build(bdir):
    """Configures (once) and builds gecos_bench + gecosd; returns success."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cfg = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(os.cpu_count() or 1)
        cmd = ["cmake", "--build", bdir, "-j", jobs,
               "--target", "gecos_bench", "gecosd"]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_child(cmd):
    """Runs cmd in its own process group (so a daemon it spawned dies with
    it on timeout); returns (returncode, stdout)."""
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        log(f"timed out: {' '.join(cmd)}")
        return 1, ""
    finally:
        # A gecos_bench that crashed can leave its daemon behind in the group.
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return p.returncode, out


def per_layer_metrics(emitted):
    """The per-layer metrics of BENCHMARK.json in its order: the value the
    program emitted, or 0 for a layer the workload does not run in the
    measured process. Returns None when the program emitted a metric that
    BENCHMARK.json does not declare, or one under another unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    bad = [n for n, m in emitted.items() if units.get(n) != m["unit"]]
    if bad:
        log(f"undeclared metrics or units: {', '.join(sorted(bad))}")
        return None
    return {m["name"]: emitted.get(m["name"], {"value": 0, "unit": m["unit"]})
            for m in declared}


def last_json(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def trace_valid(path):
    """Validates a trace file with the repository's trace_report.py."""
    tool = os.path.join(ROOT, "tools", "trace_report.py")
    if not os.path.exists(path):
        log(f"missing trace file {path}")
        return False
    if not os.path.exists(tool):
        log(f"missing {tool}")
        return False
    r = subprocess.run([sys.executable, tool, path, "--top", "5"],
                       stdout=sys.stderr, cwd=ROOT)
    return r.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--perturb-reference", action="store_true")
    a = ap.parse_args()

    if not (os.path.exists(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"the gecos sources are missing next to {HERE}")
        return 2
    bdir = build_dir()
    if not build(bdir):
        log("build failed")
        return 1
    exe = os.path.join(bdir, "gecos_bench")
    gecosd = os.path.join(bdir, "gecos", "gecosd")
    out_dir = os.path.join(bdir, "out")
    os.makedirs(out_dir, exist_ok=True)
    for stale in glob.glob(os.path.join(out_dir, "*.trace.json")):
        os.remove(stale)

    rc, out = run_child([exe, "--fingerprint"])
    if rc != 0:
        log("fingerprint failed")
        return 1
    fingerprint = last_json(out)

    # Relative paths keep the daemon's unix socket path short.
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--size", a.size, "--out-dir", os.path.relpath(out_dir, ROOT),
           "--gecosd", gecosd]
    if a.perturb_reference:
        cmd.append("--perturb-reference")
    rc, out = run_child(cmd)
    if rc != 0:
        log(f"workload {a.workload} exited with {rc}")
        return 1
    raw = last_json(out)

    metrics = raw["metrics"]
    correct = raw["failed"] == 0 and raw["attempted"] > 0
    if a.trace:
        metrics["mem.triad_gbs"] = {"value": fingerprint["triad_gbs"],
                                    "unit": "GB/s"}
        metrics = per_layer_metrics(metrics)
        if metrics is None:
            return 1
        traces = [os.path.join(out_dir, f"{a.workload}.trace.json")]
        if a.workload == "serve_jobs":
            daemon = glob.glob(os.path.join(out_dir, "gecosd-*.trace.json"))
            if not daemon:
                log("gecosd wrote no trace")
                correct = False
            traces += daemon
        correct = all([trace_valid(t) for t in traces]) and correct

    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace, "size": a.size,
              "fingerprint": fingerprint,
              "input_digest": raw["input_digest"], "result": result}
    with open(os.path.join(bdir, "history.jsonl"), "a") as h:
        h.write(json.dumps(record) + "\n")
    print(json.dumps({"fingerprint": fingerprint,
                      "input_digest": raw["input_digest"]}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
