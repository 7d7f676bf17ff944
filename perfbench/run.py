#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds the driver (perfbench/pbench.exe)
and the server (bin/permserver.exe) from source with dune, runs the
driver for one workload, passes its output through and checks that the
last line reports exactly the metrics BENCHMARK.json lists for the
mode. Exits non-zero, without a result line of its own, when the
source tree is incomplete, the build fails, the driver fails or times
out, or any answer is wrong.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
TARGETS = ["./perfbench/pbench.exe", "./bin/permserver.exe"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, env=None, stdout=None):
    """Run cmd in its own process group; on timeout kill the whole group
    (the driver's server included) and wait for it."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout), 1)
    return proc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    for need in ["dune-project", "BENCHMARK.json", "lib", "bin/permserver.ml", "perfbench/dune"]:
        if not os.path.exists(need):
            fail("run from the repository root: %s is missing" % need)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = run_group(["dune", "build", "--root", ".", *TARGETS], BUILD_TIMEOUT_S, env=env,
                      stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed", 1)

    cmd = ["./_build/default/perfbench/pbench.exe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "%g" % args.seconds, "--trace", args.trace,
           "--server", "./_build/default/bin/permserver.exe",
           "--out", "perfbench/out"]
    out_path = os.path.join("perfbench", "out")
    os.makedirs(out_path, exist_ok=True)
    log = os.path.join(out_path, "last-%s.out" % args.workload)
    with open(log, "w+") as f:
        proc = run_group(cmd, RUN_TIMEOUT_S, stdout=f)
        f.seek(0)
        lines = f.read().splitlines()
    for line in lines:
        print(line)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode, 1)

    result = json.loads(lines[-1])
    want = spec["per_layer" if args.trace == "1" else "end_to_end"]
    names = sorted(m["name"] for m in want)
    if sorted(result["metrics"]) != names:
        fail("driver metrics %s differ from BENCHMARK.json %s" % (sorted(result["metrics"]), names), 1)
    for m in want:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            fail("unit of %s differs from BENCHMARK.json" % m["name"], 1)


if __name__ == "__main__":
    main()
