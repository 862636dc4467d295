#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is the Rust package next
to this file; it is built offline into $CARGO_TARGET_DIR (default
.bench_build). The last line of standard output is the result object;
the line before it records the host the result was measured on. Traces
and a copy of each result go to $CARGO_TARGET_DIR/perfbench/.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("http_campaign", "ingest_replay", "restart")
RUN_TIMEOUT_S = 170
SELF_TEST_SEED = 7
# glibc adapts its mmap and trim thresholds to the large blocks a process
# frees, so snapshot timings of one process settled in one of two modes,
# 25 % apart, depending on what it happened to free first. Fixed
# thresholds keep every run in the same mode.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    if not (ROOT / "crates" / "serve" / "Cargo.toml").is_file():
        fail("the service sources are missing: run from the root of a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return target_dir() / "release" / "perfbench"


def read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def command_output(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """Identifies the measured sources when the checkout has no git."""
    digest = hashlib.sha256()
    files = [p for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench")
             for p in sorted((ROOT / top).rglob("*") if (ROOT / top).is_dir() else [ROOT / top])
             if p.is_file() and "target" not in p.parts]
    for p in files:
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def cpu_max():
    v2 = read("/sys/fs/cgroup/cpu.max")
    if v2:
        return v2
    quota = read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    return f"{quota} {period}" if quota and period else "unknown"


def host(workload, seed):
    model = next((line.split(":", 1)[1].strip()
                  for line in (read("/proc/cpuinfo") or "").splitlines()
                  if line.startswith("model name")), "unknown")
    commit = command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cgroup_cpu_max": cpu_max(),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "commit": commit or source_digest(),
        "workload": workload,
        "seed": seed,
    }


def run(binary, workload, seed, seconds, trace, small=False):
    """Runs one workload; returns (exit code, result object or None, stdout)."""
    out_dir = target_dir() / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(out_dir / f"spans-{stem}.json")]
    if small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, **MALLOC_ENV), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S}s", 1)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode or 1, None, proc.stdout
    record = {"host": host(workload, seed), "result": result}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return proc.returncode, result, "\n".join(lines[:-1] + [json.dumps({"host": record["host"]})])


def self_test(binary):
    """Runs every workload small, traced and untraced, and checks each
    metric's name and unit against BENCHMARK.json and every gate."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}", 1)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload} trace {trace}"
            found = []
            code, result, _ = run(binary, workload, SELF_TEST_SEED, 1, trace, small=True)
            if code != 0 or result is None:
                found.append(f"exit {code}")
            else:
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    found.append(f"result keys {sorted(result)}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    found.append(f"correct={result['correct']} failed={result['failed']} "
                                 f"attempted={result['attempted']}")
                want = [(m["name"], m["unit"]) for m in spec[key]]
                got = [(name, m["unit"]) for name, m in result["metrics"].items()]
                if got != want:
                    found.append(f"metrics {got} != {want}")
                for name, m in result["metrics"].items():
                    value = m["value"]
                    if not isinstance(value, (int, float)) or not math.isfinite(value):
                        found.append(f"{name} = {value!r}")
                    elif trace == 0 and value == 0:
                        found.append(f"{name} is 0")
            print(f"self-test {where}: {'; '.join(found) or 'ok'}", file=sys.stderr)
            problems += found
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")
    binary = build()
    if args.self_test:
        self_test(binary)
    code, result, text = run(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        sys.stderr.write(text)
        fail(f"{args.workload} printed no result", code or 1)
    print(text)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
