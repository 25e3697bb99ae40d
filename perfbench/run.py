#!/usr/bin/env python3
"""Build the program and the benchmark from this checkout, then run one
workload of the benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the checkout. Build outputs go to
$CARGO_TARGET_DIR (default: .bench_build), and so does every scratch file
of the run. The last line of standard output is the run's JSON result;
build progress goes to standard error. Workloads and metrics are listed
in BENCHMARK.json, and what each per-layer metric should move in
perfbench/layers.json.
"""

import os
import signal
import subprocess
import sys

# A run must end within this many seconds once the build is done.
RUN_TIMEOUT_S = 170


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    manifest = os.path.join("perfbench", "Cargo.toml")
    # One package graph builds both binaries, so the program's crates are
    # compiled once and shared by the benchmark and `certchain`.
    for target in (["-p", "perfbench"], ["-p", "certchain-cli", "--bin", "certchain"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + target
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    release = os.path.join(build_dir, "release")
    cmd = [os.path.join(release, "perfbench")] + sys.argv[1:] + [
        "--certchain", os.path.join(release, "certchain"),
        "--build-dir", build_dir,
    ]
    # Its own process group, so a run that overstays is stopped together
    # with any daemon it started.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
