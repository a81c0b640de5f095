#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py                      # every workload, both passes
    python3 perfbench/run.py --workload retwis_dense --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test          # runner == harness::RunOnce

Run it from the repository root. It configures and builds perfbench/ (which
compiles ../src) into $CARGO_TARGET_DIR, or .bench_build when that is unset,
then runs one process per workload so that peak RSS never carries over from
one workload to the next. With one --workload the last stdout line is that
workload's JSON result; with --workload all it is a summary. The exit code is
0 only when the build succeeded and every output check passed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["retwis_dense", "retwis_saturated", "ycsbt_lineup"]
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("simulator sources (src/) not found next to perfbench/")
        return None
    cmds = []
    if not (out / "CMakeCache.txt").is_file():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    cmds.append(["cmake", "--build", str(out), "-j", "4", "--target",
                 "perfbench"])
    for cmd in cmds:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return out / "perfbench"


def check_determinism(binary, workload, seed, digest):
    """Every run of one seed must simulate the same thing, in any process.

    Digests are stored per binary, so a rebuild after a source change starts
    afresh instead of failing against the old program's outputs.
    """
    build_id = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    path = binary.parent / "digests" / build_id / f"{workload}-{seed}"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_file():
        previous = path.read_text().strip()
        if previous != digest:
            log(f"{workload} seed {seed}: simulated outputs differ from an "
                f"earlier run of the same seed ({previous} != {digest})")
            return False
        return True
    path.write_text(digest + "\n")
    return True


def run_workload(binary, out, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (ok, result, digest)."""
    spans = out / "spans" / f"{workload}-{seed}.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--spans-out", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return False, None, None
    lines = proc.stdout.strip().splitlines()
    result, digest = None, None
    for line in lines[:-1]:
        print(line)
        if line.startswith("sim-digest "):
            digest = line.split()[1]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None or digest is None:
        log(f"{workload}: benchmark printed no result (exit {proc.returncode})")
        return False, None, None
    ok = proc.returncode == 0 and result.get("correct") is True
    if not check_determinism(binary, workload, seed, digest):
        ok = False
    result["correct"] = ok
    return ok, result, digest


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=None,
                   help="0: end-to-end metrics; 1: per-layer metrics from a "
                        "traced pass (default: 0, or both with 'all')")
    p.add_argument("--self-test", action="store_true",
                   help="check the runner against harness::RunOnce on short "
                        "cells of every workload, then exit")
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 2
    if args.self_test:
        return subprocess.run([str(binary), "--identity", "--seed",
                               str(args.seed)]).returncode

    if args.workload != "all":
        ok, result, _ = run_workload(binary, out, args.workload, args.seed,
                                     args.seconds, args.trace == 1)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
        return 0 if ok else 1

    passes = [0, 1] if args.trace is None else [args.trace]
    summary = {}
    all_ok = True
    for workload in WORKLOADS:
        digests = set()
        for trace in passes:
            print(f"### {workload} (trace {trace})", flush=True)
            ok, result, digest = run_workload(binary, out, workload,
                                              args.seed, args.seconds,
                                              trace == 1)
            print(json.dumps(result), flush=True)
            all_ok = all_ok and ok
            digests.add(digest)
            summary[f"{workload}/trace{trace}"] = ok
        if len(digests) != 1:
            log(f"{workload}: traced and untraced passes simulated "
                "different outputs")
            all_ok = False
    print(json.dumps({"correct": all_ok, "runs": summary}), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
