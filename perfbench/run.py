#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload census-benign --seed 1 --seconds 25 --trace 0

The script builds the perfbench Go program from source into .bench_build,
then runs it one iteration per process until --seconds have passed. Every
iteration sets the workload up afresh, runs it, and checks its output
against perfbench/golden.json. With --trace 0 the result carries the
end-to-end metrics of BENCHMARK.json; with --trace 1 untraced and traced
iterations alternate, and the result carries the per-layer metrics from the
traced ones plus the tracing overhead against the untraced ones. Each value
is the median over the run's iterations.

Standard output holds the environment record, one line per iteration and,
as its last line, the result object. The exit code is 0 only when every
iteration ran and passed its correctness gate.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
WORK = BUILD / "work"
BUILD_TIMEOUT_S = 840
ITERATION_TIMEOUT_S = 120


def go_env():
    """Keeps the Go toolchain's caches and config inside the checkout."""
    env = dict(os.environ)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOMODCACHE=str(BUILD / "gomodcache"),
        GOPATH=str(BUILD / "gopath"),
        GOTMPDIR=str(BUILD / "tmp"),
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    env.pop("GOMAXPROCS", None)  # the runtime default: one per usable CPU
    return env


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            ["go", "build", "-trimpath", "-o", str(BINARY), "."],
            cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build: {e}")
    if proc.returncode != 0:
        fail("build failed")


def source_digest():
    """SHA-256 over the Go sources and module files the binary is built from,
    identifying the code when the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for f in filenames:
            if f.endswith(".go") or f in ("go.mod", "go.sum", "golden.json"):
                paths.append(Path(dirpath) / f)
    for p in sorted(paths):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def environment(env):
    proc = subprocess.run([str(BINARY), "-env"], env=env, capture_output=True,
                          text=True, timeout=ITERATION_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"environment: {proc.stderr.strip()}")
    record = json.loads(proc.stdout)
    record["commit"] = commit()
    record["source_sha256"] = source_digest()
    return record


def iterate(env, workload, seed, traced):
    """Runs one iteration in its own process and returns its sample."""
    cmd = [str(BINARY), "-workload", workload, "-seed", str(seed),
           "-trace", "1" if traced else "0", "-work", str(WORK),
           "-golden", str(HERE / "golden.json")]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} iteration exceeded {ITERATION_TIMEOUT_S}s")
    if proc.returncode != 0:
        fail(f"{workload} iteration failed: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} iteration printed nothing")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    traced = args.trace == 1
    wanted = spec["per_layer"] if traced else spec["end_to_end"]

    env = go_env()
    build(env)
    WORK.mkdir(parents=True, exist_ok=True)
    print(json.dumps({"env": environment(env)}), flush=True)

    # Traced runs alternate untraced and traced iterations so the overhead
    # compares iterations that saw the same machine conditions.
    # A round is one iteration, or one untraced and one traced iteration.
    # Another round starts only while it would end no more than half a
    # round past the deadline, so a run lasts about --seconds.
    kinds = [False, True] if traced else [False]
    samples = {False: [], True: []}
    start = time.monotonic()
    deadline = start + args.seconds
    rounds = 0
    while rounds == 0 or time.monotonic() + (time.monotonic() - start) / rounds / 2 < deadline:
        for kind in kinds:
            s = iterate(env, args.workload, args.seed, kind)
            samples[kind].append(s)
            print(json.dumps(s, separators=(",", ":")), flush=True)
        rounds += 1

    measured = samples[traced]
    every = samples[False] + samples[True]
    correct = all(s["ok"] for s in every)
    for s in every:
        for p in s.get("problems", []):
            print(f"perfbench: {s['workload']} seed {s['world_seed']}: {p}", file=sys.stderr)

    values = {}
    for s in measured:
        for name, v in s["layers" if traced else "e2e"].items():
            values.setdefault(name, []).append(v)
    if traced:
        # Process CPU time drifts with the speed of a shared machine's CPUs
        # by more than any regression bound, so it is reported per layer,
        # from the untraced iterations.
        values["process.cpu_s"] = [s["e2e"]["cpu_s"] for s in samples[False]]
        untraced = statistics.median(s["e2e"]["study_s"] for s in samples[False])
        with_trace = statistics.median(s["e2e"]["study_s"] for s in samples[True])
        values["trace.overhead_ratio"] = [with_trace / untraced - 1]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}

    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in every),
        "failed": sum(s["failed"] for s in every),
        "metrics": metrics,
    }), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
