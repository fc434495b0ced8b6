#!/usr/bin/env python3
"""Build predlab and its benchmark from source, then run one workload.

    python3 perfbench/run.py --workload registry|figures|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the root of a predlab source tree. The last line of standard
output is the result object of perfbench/bench.ml; everything the build
prints goes to standard error. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
REQUIRED = ["dune-project", "bin/predlab.ml", "lib/core/experiments.ml", "perfbench/dune"]
BENCH = "_build/default/perfbench/bench.exe"
PREDLAB = "_build/default/bin/predlab.exe"


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git commit when the tree is a checkout, else a digest of the sources."""
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ["dune-project", "bin", "lib", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["registry", "figures", "serve_mix"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail("not a predlab source tree (missing " + ", ".join(missing) + ")", 2)

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "perfbench",
             PREDLAB[len("_build/default/"):],
             BENCH[len("_build/default/"):]],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 3)
    if build.returncode != 0:
        fail("build failed", 3)

    cmd = [BENCH, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--predlab", PREDLAB, "--commit", source_id()]
    # Own process group, so a run past its budget is stopped with every
    # daemon and predlab process it started.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
