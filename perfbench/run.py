#!/usr/bin/env python3
"""Build and run one benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload ycsbt-closed --seed 1 --seconds 30 --trace 0

Builds perfbench/main.exe and bin/meerkat_node.exe with dune, runs the
workload, and forwards its output: one line per metric, a `host` line
with the host stamp, and as the last line the JSON result. The exit
status is the runner's: 0 when every correctness gate passed, 1 when
one failed (the result is still printed), 2 on a usage or build error.
Spans and stamped results are written under .perfbench/.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("ycsbt-closed", "retwis-open", "cluster-ycsbt")
OUT_DIR = ".perfbench"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        return fail("run me from the root of a meerkat checkout "
                    "(dune-project, lib/ and bin/ are missing)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/main.exe",
         "bin/meerkat_node.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        return fail("build failed")

    cmd = [
        os.path.join("_build", "default", "perfbench", "main.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--node-exe", os.path.join("_build", "default", "bin", "meerkat_node.exe"),
        "--out-dir", OUT_DIR,
        "--commit", commit(),
    ]
    # Its own process group, so a timeout also stops the cluster nodes
    # the runner forked.
    run = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                           start_new_session=True)
    try:
        out, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
