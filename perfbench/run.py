#!/usr/bin/env python3
"""Build and run the LocoFS wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bigdir --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see perfbench/main.go).
The binary is built from source into the build directory ($CARGO_TARGET_DIR
or .bench_build), with the Go build cache, temporary files and the durable
workload's stores kept there too, so nothing is written outside the
checkout. The last line of standard output is the JSON result.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.abspath(build)
    for d in ("gocache", "gopath", "tmp", "data", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOENV": "off",
        # The go command keeps telemetry counters under the user config dir.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
    })
    binary = os.path.join(build, "perfbench")
    res = subprocess.run(["go", "-C", here, "build", "-o", binary, "."],
                         env=env, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    args = [binary, "--data", os.path.join(build, "data")] + sys.argv[1:]
    try:
        res = subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
