#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the nnlut library from ../src plus the perfbench program)
under $CARGO_TARGET_DIR (default .bench_build)/perfbench; later calls only
re-check the build. A build tree configured from another checkout is
refused rather than reused, so two checkouts never share one binary. The program's report lines start with "# "; its last
line is the JSON result. The exit code is the program's: non-zero when the
build fails or any correctness check fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))


def cached_source(out):
    """CMAKE_HOME_DIRECTORY of the build tree `out`, or None if unconfigured."""
    try:
        with open(os.path.join(out, "CMakeCache.txt"), encoding="utf-8") as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except FileNotFoundError:
        pass
    return None


def build(target):
    """Configure (once) and build `target`; build output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    source = cached_source(out)
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        print(f"perfbench: {out} was configured from {source}, not {HERE}; "
              "remove it or set CARGO_TARGET_DIR to another directory",
              file=sys.stderr)
        return None
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=False)
        if r.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return os.path.join(out, target)


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    binary = build("perfbench")
    if binary is None:
        return 1
    workdir = os.path.join(build_dir(), "work")
    try:
        r = subprocess.run([binary, *argv, "--workdir", workdir],
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return r.returncode


def self_test():
    """The C++ self-tests, then the Python ones (which run the benchmark)."""
    selftest = build("perfbench_selftest")
    if selftest is None or build("perfbench") is None:
        return 1
    if subprocess.run([selftest], check=False).returncode != 0:
        return 1
    r = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                        os.path.join(HERE, "tests"), "-v"], check=False)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
