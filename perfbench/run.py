#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace <0|1>

Run from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build` in the checkout); the benchmark's scratch files
go to `.bench_build/perfbench-work` and are removed as the run ends,
except the traced run's span file. The last line of stdout is the
result object printed by the benchmark binary.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args):
    done = subprocess.run(["cargo", "build", "--release", "--offline", "-q", *args], cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"run.py: cargo build {' '.join(args)} failed")


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    # The daemon from the repository workspace, with its own profile.
    build(["-p", "ppdt-cli", "--bin", "ppdt"])
    build(["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")])
    # Run the benchmark, and the daemon it spawns, on one CPU. On a
    # small VM two busy vCPUs can run up to 2.5x slower than one, and
    # how often that happens during a run would decide the numbers; on
    # one CPU they follow the work done.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    release = os.path.join(target, "release")
    work = os.path.join(target, "perfbench-work")
    argv = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--ppdt", os.path.join(release, "ppdt"),
        "--work-dir", work,
    ]
    os.execv(argv[0], argv)


if __name__ == "__main__":
    main()
