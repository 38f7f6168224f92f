#!/usr/bin/env python3
"""Build and run the fleet-engine host benchmark.

Run from the repository root:

    python3 fleetbench/run.py --workload city --seed 7 --seconds 45 --trace 0

Builds the `fleetbench` package in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs one measurement of the workload. The
last line of standard output is the result object. When the build or the
measurement fails, exits non-zero without printing a result.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("city", "trace")
# A run ends well inside the three minutes one measurement may take.
RUN_TIMEOUT_S = 170
# Everything the measured program is built from.
SOURCE_ROOTS = (
    "Cargo.toml",
    "crates",
    "fleetbench/Cargo.toml",
    "fleetbench/src",
    "fleetbench/digests.txt",
)
SOURCE_SUFFIXES = {".rs", ".toml", ".txt"}
# glibc's default mmap threshold, made fixed (see main).
MMAP_THRESHOLD = "glibc.malloc.mmap_threshold=131072"


def commit(root):
    """The checked-out commit, read from `.git` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest(root):
    """SHA-256 over the paths and bytes of the sources the run builds."""
    h = hashlib.sha256()
    files = []
    for name in SOURCE_ROOTS:
        p = root / name
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            files.extend(f for f in p.rglob("*") if f.is_file() and f.suffix in SOURCE_SUFFIXES)
    for f in sorted(files):
        h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be non-negative and --seconds positive")

    root = Path.cwd()
    manifest = Path(__file__).resolve().parent / "Cargo.toml"
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("fleetbench: build failed", file=sys.stderr)
        return 1

    cmd = [
        str(target / "release" / "fleetbench"), "run",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--commit", commit(root),
        "--source-digest", source_digest(root),
    ]
    # A fixed mmap threshold turns off glibc's dynamic one, which moves with
    # the sizes freed earlier in the process. Large buffers then always come
    # from and return to the kernel, so the peak resident set tracks live
    # data rather than the allocator's history.
    tunables = ":".join(t for t in (os.environ.get("GLIBC_TUNABLES"), MMAP_THRESHOLD) if t)
    # Own process group, so a timeout also stops the set-up processes the
    # benchmark starts.
    proc = subprocess.Popen(cmd, env=dict(env, GLIBC_TUNABLES=tunables), start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("fleetbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
