#!/usr/bin/env python3
"""Build and run the ROADS benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `roads-perfbench` crate in this directory (release, offline)
into $CARGO_TARGET_DIR (default `.bench_build`), runs it as its own
process, and passes its standard output through. The last line is the
result object. The run fails, printing no result, if the build fails,
the program exits non-zero or overruns its time limit, or its metric
names differ from those `BENCHMARK.json` declares.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    if "--trace" not in argv:
        fail("--trace is required")
    trace = argv[argv.index("--trace") + 1] == "1"
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, cwd=ROOT,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(os.path.abspath(os.path.join(ROOT, target)), "release", "roads-perfbench")
    try:
        run = subprocess.run([exe, *argv], cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"benchmark exited with {run.returncode}: {lines[-1]}")
    result = json.loads(lines[-1])
    got, want = set(result["metrics"]), declared_metrics(trace)
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(want - got)}, extra {sorted(got - want)}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
