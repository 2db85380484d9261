#!/usr/bin/env python3
"""Builds and runs the daosim benchmark from the root of a source tree.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures perfbench/CMakeLists.txt (which compiles ../src) into the build
directory named by CARGO_TARGET_DIR (default .bench_build), builds the
`perfbench` binary, runs it, and passes its report through. The last stdout
line is the result JSON: {"correct", "attempted", "failed", "metrics"}.
Build output goes to stderr. Exits non-zero, printing no result, when the
sources are missing, the build fails or the run fails its checks.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no daosim sources under {os.path.join(ROOT, 'src')}")
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, build_root)), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    binary = build()
    try:
        proc = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail(f"benchmark printed nothing (exit code {proc.returncode})", proc.returncode or 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"benchmark exited with code {proc.returncode} without a result",
             proc.returncode or 1)
    # Re-emit the result with the shortest exact float representation.
    print(json.dumps(result))
    if proc.returncode != 0:
        fail(f"benchmark checks failed (exit code {proc.returncode})", proc.returncode)


if __name__ == "__main__":
    main()
