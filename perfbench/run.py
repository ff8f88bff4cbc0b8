#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bank-read --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload file-stack --trace 1     # per-layer run
    python3 perfbench/run.py --selftest                          # unit tests + smoke

The build goes to $CARGO_TARGET_DIR (default .bench_build), run artefacts
(result history, span files, scratch volumes) to .bench_out.  Every other
argument is passed to the `perfbench` program; see perfbench/README.md.
The last line of standard output is its JSON result; build output goes
to standard error.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 175  # a run must end within 180 s


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    """Configures (once) and builds `targets`; output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return out


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the system sources and the benchmark, by path."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def run(cmd, timeout):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % timeout)
        return 1


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no system sources at %s\n"
                         % os.path.join(ROOT, "src"))
        return 1
    selftest = "--selftest" in argv
    out = build(["perfbench", "perfbench_test"] if selftest else ["perfbench"])
    if out is None:
        return 1
    program = os.path.join(out, "perfbench")
    if selftest:
        status = run([os.path.join(out, "perfbench_test")], 600)
        return status or run([program, "--smoke", "--out-dir", OUT_DIR], 600)
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.stdout.flush()
    return run([program] + argv + ["--out-dir", OUT_DIR,
                                  "--git-sha", git_sha(),
                                  "--source-digest", source_digest()],
               RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
