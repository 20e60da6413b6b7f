#!/usr/bin/env python3
"""Build and run the Mithril simulator benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload benign-mithril --seed 1 --seconds 30 --trace 0

Builds the `mithril-perfbench` package (perfbench/Cargo.toml, release,
offline) into $CARGO_TARGET_DIR (default: .bench_build at the root), then
runs it once for the workload. The binary prints a readable table, a
detail record and, as the last line of stdout, the result object
{"correct", "attempted", "failed", "metrics"}. This script adds the host
context (nproc, CPU model, rustc version, commit or source digest, seed)
to the detail record, so a number is never read without the machine it
came from. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["benign-mithril", "noisy-neighbor-qos", "sweep-full", "benign-mithril-obs"]
# A run measures for --seconds; this leaves room for the repetition in
# flight when time runs out, inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the simulator's sources: identifies the code measured
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml"] + sorted(
        p for p in (ROOT / "crates").rglob("*") if p.is_file() and p.suffix in (".rs", ".toml")
    )
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def host_context(args):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "rustc": first_line(["rustc", "--version"]),
        "commit": first_line(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", default="1", help="workload seed (default 1; 'heldout' selects the held-out seed)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    binary = Path(env["CARGO_TARGET_DIR"])
    if not binary.is_absolute():
        binary = ROOT / binary
    binary = binary / "release" / "mithril-perfbench"
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", args.seed,
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--context", json.dumps(host_context(args), sort_keys=True),
    ]
    # glibc adapts its mmap threshold to the program's allocation history,
    # so whether System::new gets fresh pages or recycled heap (1.2 ms or
    # 3.6 ms of set-up on the same workload) flipped between runs. Pinning
    # the threshold at its default makes every run allocate like a fresh
    # process.
    env["GLIBC_TUNABLES"] = "glibc.malloc.mmap_threshold=131072"
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
