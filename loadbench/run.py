#!/usr/bin/env python3
"""Build the release ixtuned and the load generator, then run one benchmark pass.

Usage, from the repository root:

    python3 loadbench/run.py --workload paper-greedy-warm|paper-mcts|synth-cold-durable \
        --seed N --seconds S --trace 0|1

Both builds are offline and go to $CARGO_TARGET_DIR (default `.bench_build`
under the repository root). The load generator's last stdout line is the result
JSON; scratch data dirs, span dumps and full reports go under
`.loadbench/`. Exits non-zero, printing no result, when a build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The load generator watches its own time limit; this is the backstop.
RUN_TIMEOUT_S = 175


def cargo_build(manifest, *extra, target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Cargo's output goes to stderr: stdout carries only the result.
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(root_manifest):
        print("loadbench: no Cargo.toml at the repository root", file=sys.stderr)
        return 1
    if not cargo_build(root_manifest, "-p", "ixtune-service", "--bin", "ixtuned",
                       target_dir=target_dir):
        print("loadbench: building ixtuned failed", file=sys.stderr)
        return 1
    if not cargo_build(os.path.join(HERE, "Cargo.toml"), target_dir=target_dir):
        print("loadbench: building the load generator failed", file=sys.stderr)
        return 1
    loadgen = os.path.join(target_dir, "release", "ixtune-loadbench")
    cmd = [loadgen, *sys.argv[1:],
           "--daemon", os.path.join(target_dir, "release", "ixtuned"),
           "--work-dir", os.path.join(ROOT, ".loadbench"),
           "--commit", git_commit()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"loadbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
