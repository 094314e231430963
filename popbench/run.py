#!/usr/bin/env python3
"""Builds the popmon benchmark and runs one workload.

    python3 popbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds `popbench` and the `popmond` daemon
from source in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the workload pinned to one CPU with one
solver thread. The last
line of standard output is the JSON result; build output goes to
standard error. Exits non-zero if the build fails, an argument is wrong,
or an answer check fails.
"""

import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("serve_whatif", "serve_wire", "batch_sweep")


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse(argv):
    if len(argv) % 2:
        fail("arguments come in --flag value pairs")
    args = dict(zip(argv[::2], argv[1::2]))
    expected = {"--workload", "--seed", "--seconds", "--trace"}
    if set(args) != expected:
        fail(f"expected exactly {sorted(expected)}, got {sorted(args)}")
    if args["--workload"] not in WORKLOADS:
        fail(f"--workload must be one of {WORKLOADS}")
    return args


def main():
    args = parse(sys.argv[1:])
    manifest = os.path.join("popbench", "Cargo.toml")
    for needed in (manifest, os.path.join("crates", "popmond", "Cargo.toml")):
        if not os.path.isfile(needed):
            fail(f"{needed} not found; run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target, POPMON_THREADS="1")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest,
         "-p", "popbench", "-p", "popmond", "--bins"],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    # The closed loop is sequential: client, daemon and solver share one
    # CPU, so a request hands over by a local context switch instead of a
    # cross-CPU wake-up, whose cost on a virtual machine varies far more
    # than the code under test. Child processes inherit the pinning.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    release = os.path.join(target, "release")
    # The benchmark and the daemons it starts share a new process group,
    # so whatever way this script ends, none of them outlives it.
    bench = subprocess.Popen(
        [os.path.join(release, "popbench"),
         *(x for flag in ("--workload", "--seed", "--seconds", "--trace")
           for x in (flag, args[flag])),
         "--popmond", os.path.join(release, "popmond"),
         "--trace-dir", os.path.join(target, "popbench-trace")],
        env=env, start_new_session=True,
    )
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        code = bench.wait()
    finally:
        stop_group(bench)
    sys.exit(code)


def stop_group(proc):
    """Kills what is left of `proc`'s process group and waits for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    main()
