#!/usr/bin/env python3
"""Build the host benchmark from source, then run one workload.

Usage (from the repository root):

    python3 hostbench/run.py --workload cnn-topk --seed 1 --seconds 10 --trace 0

The build goes to the directory named by CARGO_TARGET_DIR (relative paths
are taken from the repository root), or to .bench_build. Build output goes
to standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero, without a result, when the repository sources
are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("hostbench: the repository sources (CMakeLists.txt, src/) "
              "are not next to hostbench/", file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "hostbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          env=env).returncode != 0:
            print("hostbench: build failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out, "hostbench")


def main(argv):
    exe = build(build_dir())
    if exe is None:
        return 2
    sys.stdout.flush()
    return subprocess.run([exe] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
