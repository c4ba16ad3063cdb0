#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 repobench/run.py --workload sim-figure --seed 1 --seconds 25 --trace 0

It builds repobench/repobench.exe and bin/wmm_bench.exe with dune, runs
the workload, and passes its output through: the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
Progress and diagnostics go to stderr.  Exits non-zero, printing no
result, when the sources are missing or the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sim-figure", "verdict-certify", "serve-mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("repobench: " + msg, file=sys.stderr)
    sys.exit(2)


def one_cpu():
    """Restrict the calling process, and the processes it starts, to
    the highest-numbered CPU it may run on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    a = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: not a source checkout" % ROOT)
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./repobench/repobench.exe", "./bin/wmm_bench.exe"],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        fail("build failed (exit %d)" % code)
    exe = os.path.join("_build", "default", "repobench", "repobench.exe")
    # serve-mix is a closed loop: the client and the daemon never run
    # at once.  On one CPU every hand-off between them is a context
    # switch; spread over two, each is a wake-up of the other CPU,
    # whose latency on a shared virtual machine varies from run to run.
    pin = one_cpu if a.workload == "serve-mix" else None
    code = run(
        [exe, "run", "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", a.trace],
        RUN_TIMEOUT_S, env=env, preexec_fn=pin)
    sys.exit(code)


if __name__ == "__main__":
    main()
