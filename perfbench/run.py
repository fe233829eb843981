#!/usr/bin/env python3
"""Wall-clock benchmark of meshsearch: build, run one workload, report.

Run from the root of a source tree:

    python3 perfbench/run.py --workload service_mixed --seed 1 \
        --seconds 10 --trace 0

It configures and builds perfbench/ (which compiles the library from src/)
under .bench_build/, runs the workload in its own process, echoes that
process's report, prints a host fingerprint, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json;
with --trace 1 they are its per_layer metrics (a layer the workload never
calls reads 0). The exit status is 0 when every answer matched the oracle
and every deterministic count repeated, 1 when not, and 2 when the sources
or the build are missing or broken (no result line is printed then).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(os.cpu_count() or 1, 4))
# Engine threads of the timed passes. One, because on a host whose cores
# other tenants share a thread per core made run-to-run times far less
# steady (README.md); the traced run adds a pass with a thread per core for
# the cross-thread checks and the per-layer speedup.
ENGINE_THREADS = 1


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the source root " + ROOT)
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
             "-j", str(BUILD_JOBS)],
        ):
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=880)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s did not finish: %s" % (cmd[:2], e))
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(BUILD_DIR, "perfbench")


def source_digest():
    """sha256 over the library and benchmark sources, for the fingerprint
    (the checkout need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    binary = build()
    spans = os.path.join(BUILD_DIR, "spans-%s-%d.json" % (args.workload,
                                                          args.seed))
    # The library reads MESHSEARCH_* at run time (threads, stats, paranoid
    # shadow checks); pin them so every run measures the same program.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MESHSEARCH_")}
    env["MESHSEARCH_THREADS"] = str(ENGINE_THREADS)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        fail("workload printed no result (exit status %d)" % done.returncode)
    for line in lines[:-1]:
        print(line)

    print("host: " + json.dumps({
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "compiler": raw.get("compiler"),
        "build_type": raw.get("build_type"),
        "engine_threads": raw.get("threads"),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "spans": os.path.relpath(spans, ROOT) if args.trace else None,
    }))

    got = raw["metrics"]
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        name = m["name"]
        if name in got:
            if got[name]["unit"] != m["unit"]:
                fail("metric %s: unit %s, BENCHMARK.json says %s"
                     % (name, got[name]["unit"], m["unit"]))
            value = got[name]["value"]
        elif args.trace:
            value = 0  # this workload never calls into that layer
        else:
            fail("workload did not report end-to-end metric " + name)
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": bool(raw["correct"]) and done.returncode == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }))
    return 0 if raw["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
