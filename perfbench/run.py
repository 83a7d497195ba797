#!/usr/bin/env python3
"""Repository benchmark: build the library and the perfbench binary in
Release from this checkout, run one workload, and print its result.

    python3 perfbench/run.py --workload campaign_steady --seed 1 \
        --seconds 20 --trace 0

Workloads: campaign_steady, campaign_churn, multiscale_chain, feedback_kv.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/README.md). The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; build output goes to standard
error. Everything is built and written under .bench_build/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
WORKLOADS = ("campaign_steady", "campaign_churn", "multiscale_chain",
             "feedback_kv")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def pool_size():
    return max(1, min(os.cpu_count() or 1, 4))


def build():
    """Configures the Release tree once, then builds it incrementally. The
    binary itself refuses a non-Release, sanitizer or telemetry-off build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    # Compiler temporaries stay inside the checkout too.
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(pool_size())],
                   stdout=sys.stderr, env=env, check=True)


def git_sha():
    """HEAD of the checkout when it is a git work tree, else 'unavailable'."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def src_digest():
    """SHA-256 over the measured sources (src/ and perfbench/), by path."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, in order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def complete(measured, declared, trace):
    """The declared metrics in declared order. A per-layer metric the
    workload does not exercise reads 0; anything else missing, undeclared
    or in another unit is a benchmark bug."""
    units = dict(declared)
    for name, metric in measured.items():
        if units.get(name) != metric["unit"]:
            fail(f"metric {name} ({metric['unit']}) is not declared")
    out = {}
    for name, unit in declared:
        if name in measured:
            out[name] = measured[name]
        elif trace:
            out[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} was not measured")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    declared = declared_metrics(args.trace)

    work_dir = os.path.join(ROOT, ".bench_build", f"work-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    # Library-internal pools (KvCluster fan-out, shared engine pool) follow
    # MUMMI_POOL_SIZE; pin them to the same size as the benchmark's pools.
    env = dict(os.environ, MUMMI_POOL_SIZE=str(pool_size()), TMPDIR=TMP_DIR)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")

    try:
        result = json.loads(lines[-1])
        metrics = complete(result["metrics"], declared, args.trace)
        final = {key: result[key] for key in ("correct", "attempted", "failed")}
    except (ValueError, KeyError, TypeError, AttributeError):
        fail(f"{args.workload} printed no result line")
    final["metrics"] = metrics
    print("\n".join(lines[:-1]))
    print(json.dumps(final))
    return 0

if __name__ == "__main__":
    sys.exit(main())
