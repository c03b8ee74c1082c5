#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 rmtbench/run.py --workload solve|serve|attack|certified \
        --seed N --seconds S --trace 0|1

Builds rmtbench/rmtbench.exe with dune (shared cache off, so nothing is
written outside the checkout), runs it with the same arguments and passes
its output through.  With --trace 1 the span log of the traced half goes
to rmtbench/out/<workload>-spans.jsonl.  The last line printed is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("solve", "serve", "attack", "certified")
EXE = os.path.join("_build", "default", "rmtbench", "rmtbench.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"rmtbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(env):
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    if not os.path.isfile("dune-project"):
        fail("not at the root of a checkout (no dune-project)")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", EXE],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace == 1:
        out_dir = os.path.join("rmtbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, f"{args.workload}-spans.jsonl")]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
        "correct", "attempted", "failed", "metrics"
    }:
        sys.stdout.write(proc.stdout)
        fail(f"no result line (exit code {proc.returncode})")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
