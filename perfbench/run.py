#!/usr/bin/env python3
"""The repo benchmark: builds llamp from this checkout's sources and runs
one workload.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --smoke

Workloads: serve_mixed, mc_uq, cold_campaign (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is non-zero when the build
fails or any result's bytes differ from the threads-1 reference.
--smoke runs every workload (serve_mixed too, which BENCHMARK.json does not
list) briefly in both modes and checks that each metric BENCHMARK.json
names is reported with its unit.

Seed 7919 is held out: claims are validated on it, never tuned on it.
Build output, spans and per-run records go under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "perfbench_runner")
WORKLOADS = ("serve_mixed", "mc_uq", "cold_campaign")
# A run must end within 180 s; the runner gets the rest after the build.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then (re)build the runner; output goes to build.log."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", BENCH_DIR, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=log, check=True)
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", "perfbench_runner",
             "-j", str(os.cpu_count() or 1)],
            stdout=log, stderr=log, check=True)


def commit():
    """HEAD when this checkout is itself a git work tree, else "none"."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2:
        return "none"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def source_digest():
    """sha256 over the program's and the benchmark's sources: identifies
    the code measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def runner_command(workload, seed, seconds, trace, extra=()):
    """The runner's command line.  Records are named by source digest and
    start time, so every run is kept and each names the code that made it."""
    os.makedirs(os.path.join(BUILD, "runs"), exist_ok=True)
    digest = source_digest()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    stem = os.path.join(
        BUILD, "runs", f"{workload}-seed{seed}-trace{trace}-"
        f"{digest.split(':')[1]}-{stamp}")
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--record-out", stem + ".json", "--commit", commit(),
           "--source-digest", digest]
    if trace:
        cmd += ["--trace-out", stem + ".spans.json"]
    return cmd + list(extra)


def last_json(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def smoke():
    """Every workload briefly, both modes: each metric named in
    BENCHMARK.json must be reported with its unit, and nothing may fail."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = runner_command(w, 1, 0.5, trace)
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=RUN_TIMEOUT_S)
            result = last_json(out.stdout)
            if out.returncode != 0 or not result or not result["correct"]:
                problems.append(f"{w} trace={trace}: exit {out.returncode}, "
                                f"result {result}")
                continue
            got = result["metrics"]
            if got.get("probe.mismatches", {}).get("value", 0) != 0:
                problems.append(f"{w} trace={trace}: a layer probe no longer "
                                "reproduces the engine's bytes")
            for m in spec[section]:
                if m["name"] not in got:
                    problems.append(f"{w} trace={trace}: missing {m['name']}")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{w} trace={trace}: {m['name']} unit "
                                    f"{got[m['name']]['unit']} != {m['unit']}")
            print(f"smoke {w} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} results checked")
    for p in problems:
        print("smoke FAIL " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload or --smoke is required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed ({e}); see {BUILD}/build.log",
              file=sys.stderr)
        return 1
    if args.smoke:
        return smoke()
    extra = ["--corrupt-reference"] if args.corrupt_reference else []
    cmd = runner_command(args.workload, args.seed, args.seconds, args.trace,
                         extra)
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
