#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the root of a source checkout:

    python3 e2e_bench/run.py --workload sweep-table --seed 1 --seconds 10 --trace 0

Builds the repository's library, `synccount_serve` and the benchmark driver
from source (CMake, Release) into $CARGO_TARGET_DIR (default `.bench_build`),
then runs the driver, whose last stdout line is the JSON result. Build output
goes to stderr. Exits non-zero without a result when the checkout has no
sources to build or the build fails.

    python3 e2e_bench/run.py --record-digests 0-39

recomputes the per-seed reference digests in e2e_bench/digests.json (only
after a deliberate change of the benchmark's inputs or of result bytes).
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-table", "sweep-towers", "serve-table", "synth-n4f1")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return path


def build(out):
    """Configures and builds; returns (driver, serve) paths or None."""
    for need in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"e2e_bench: no {need} in {ROOT}: nothing to build",
                  file=sys.stderr)
            return None
    if shutil.which("cmake") is None:
        print("e2e_bench: cmake not found", file=sys.stderr)
        return None
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "e2e_bench", "synccount_serve",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            print(f"e2e_bench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    driver = os.path.join(out, "e2e_bench")
    serve = os.path.join(out, "repo", "synccount_serve")
    for exe in (driver, serve):
        if not os.access(exe, os.X_OK):
            print(f"e2e_bench: missing build product {exe}", file=sys.stderr)
            return None
    return driver, serve


def short_path(path):
    """Relative to the working directory when that is shorter (Unix socket
    paths under the work directory must fit in 107 bytes)."""
    rel = os.path.relpath(path)
    return rel if len(rel) < len(path) else path


def record_digests(driver, serve, work, seeds_arg):
    lo, _, hi = seeds_arg.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    path = os.path.join(HERE, "digests.json")
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    for workload in WORKLOADS:
        table = doc["digests"].setdefault(workload, {})
        for seed in seeds:
            out = subprocess.run(
                [driver, "--workload", workload, "--seed", str(seed),
                 "--digest-only", "--serve-bin", serve, "--work-dir", work,
                 "--digests", path],
                stdout=subprocess.PIPE, check=True, text=True)
            table[str(seed)] = out.stdout.strip().splitlines()[-1]
            print(f"{workload} seed {seed}: {table[str(seed)]}", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main(argv):
    out = build_dir()
    built = build(out)
    if built is None:
        return 2
    driver, serve = built
    work = short_path(os.path.join(out, "runs", str(os.getpid())))
    os.makedirs(work, exist_ok=True)
    try:
        if len(argv) == 2 and argv[0] == "--record-digests":
            return record_digests(driver, serve, work, argv[1])
        cmd = [driver, *argv, "--serve-bin", serve, "--work-dir", work,
               "--digests", os.path.join(HERE, "digests.json"),
               "--spans-dir", os.path.join(out, "spans")]
        cmd += ["--benchmark-json", os.path.join(ROOT, "BENCHMARK.json")]
        return subprocess.run(cmd, check=False).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
