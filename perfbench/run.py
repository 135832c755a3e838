#!/usr/bin/env python3
"""Builds the simulator and the benchmark from source, then runs one
workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The last line of standard output
is the result as one JSON object; the exit code is non-zero, with no
result printed, when the build or the run fails.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"
EL_SIM = "_build/default/bin/el_sim_cli.exe"
RUN_TIMEOUT_S = 170


def build():
    # The shared dune cache lives outside the checkout; keep it out.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./perfbench/bench.exe",
           "./bin/el_sim_cli.exe"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode == 0


def run(args):
    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--el-sim", EL_SIM]
    if args.tiny:
        cmd.append("--tiny")
    # Its own process group, so a timeout also stops any server it
    # spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out or was interrupted", file=sys.stderr)
        return 1
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        print(f"perfbench: bench.exe failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test size: every path, briefly")
    args = p.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
