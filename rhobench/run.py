#!/usr/bin/env python3
"""Build and run one workload of the rhoHammer simulator benchmark.

Run from the repository root:

    python3 rhobench/run.py --workload sweep_ddr4 --seed 1 --seconds 10 --trace 0

Workloads: sweep_ddr4, bypass_ddr5, revng (see BENCHMARK.json). The
script builds the benchmark (rhobench/CMakeLists.txt, which compiles
the simulator from src/) into .bench_build/ in Release mode, then runs
.bench_build/rhobench with the given arguments plus --commit, an
identifier of the sources measured. With --trace 1 the traced pass's
spans are written as Chrome trace JSON under .bench_build/spans/.

The benchmark's last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Build output goes to
standard error. The exit status is the benchmark's, or 2 when the
sources are missing or the build fails.
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "rhobench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "rhobench")
SPANS_DIR = ".bench_build/spans"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the benchmark target."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources not found at src/; cannot build")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    jobs = str(max(1, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "rhobench",
                       "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def source_id():
    """Git commit when available, plus a hash of the measured sources."""
    h = hashlib.sha256()
    for top in ("src", "rhobench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    commit = "nogit"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and re.fullmatch(r"[0-9a-f]+",
                                                out.stdout.strip()):
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"{commit}.src-{h.hexdigest()[:16]}"


def flag_value(args, flag):
    """The value after `flag`, or None (validation is the binary's job)."""
    for i in range(len(args) - 1):
        if args[i] == flag:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    if not build():
        return 2
    extra = ["--commit", source_id()]
    if flag_value(args, "--trace") == "1" and "--spans" not in args:
        tag = "-".join(re.sub(r"[^A-Za-z0-9_]", "", v or "")
                       for v in (flag_value(args, "--workload"),
                                 flag_value(args, "--seed")))
        os.makedirs(os.path.join(ROOT, SPANS_DIR), exist_ok=True)
        extra += ["--spans", f"{SPANS_DIR}/{tag}.json"]
    try:
        return subprocess.run([BINARY] + args + extra, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1


if __name__ == "__main__":
    sys.exit(main())
