#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --selftest

Run from the root of a checkout.  Builds the library, the `tpc_serve` daemon
and the benchmark program tpc_e2e from source (CMake, RelWithDebInfo) into
$CARGO_TARGET_DIR/e2ebench-<hash of the checkout's path> (default
CARGO_TARGET_DIR: .bench_build), then runs one workload.  Checkouts that
share one CARGO_TARGET_DIR (a parent and a change) so each get their own
build tree, and a tree configured from another checkout is refused.  Build output goes to stderr; stdout carries tpc_e2e's report
line and, last, the result line
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Sockets, snapshots, daemon logs and span files go to .bench_run/.

--selftest builds and runs tpc_e2e's arithmetic and input tests and the
tests of this script and of the compare command.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mixed", "batch_cold", "schema_dtd")


def log(msg):
    print("e2ebench: " + msg, file=sys.stderr, flush=True)


def build_dir(root=ROOT):
    """The build tree of the checkout at `root`, named after its path."""
    tag = hashlib.sha256(os.path.realpath(root).encode()).hexdigest()[:12]
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "e2ebench-" + tag)


def cache_source(out):
    """The source directory the build tree `out` was configured from, or
    None when it is not configured."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except FileNotFoundError:
        return None
    return ""


def build_steps(out, source=HERE):
    """The commands that build `source` into `out`: configure (when `out`
    is not configured yet) and build.  None when `out` was configured from
    another source directory, whose binaries it would run."""
    configured = cache_source(out)
    if configured is not None and os.path.realpath(configured) != os.path.realpath(source):
        return None
    steps = []
    if configured is None:
        steps.append(["cmake", "-S", source, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    return steps


def build():
    """Configures (once) and builds; returns the build directory or None."""
    out = build_dir()
    steps = build_steps(out)
    if steps is None:
        log("%s was configured from %s, not from this checkout" %
            (out, cache_source(out)))
        return None
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return out


def build_type(out):
    with open(os.path.join(out, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def git_commit():
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except OSError:
        pass
    return "none (not a git checkout)"


def source_digest():
    """sha256 over the sources the build reads: the library, the daemon and
    the benchmark itself.  Identifies the code under test where git cannot."""
    h = hashlib.sha256()
    paths = []
    for top in ("src", "e2ebench"):
        for d, _, files in os.walk(os.path.join(ROOT, top)):
            paths += [os.path.join(d, f) for f in files]
    paths.append(os.path.join(ROOT, "examples", "tpc_serve.cpp"))
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_child(cmd):
    """Runs `cmd`, forwarding its output; kills it if we are interrupted."""
    child = subprocess.Popen(cmd)
    try:
        return child.wait()
    except BaseException:
        child.kill()
        child.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    out = build()
    if out is None:
        return 2
    if args.selftest:
        rc = run_child([os.path.join(out, "e2e_selftest")])
        rc2 = run_child([sys.executable, "-m", "unittest", "discover", "-q",
                         "-s", HERE, "-p", "test_*.py"])
        return rc or rc2

    work = ".bench_run"
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "tpc_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--stamp", "git_commit=" + git_commit(),
           "--stamp", "source_digest=" + source_digest(),
           "--stamp", "build_type=" + build_type(out)]
    sys.stdout.flush()
    return run_child(cmd)


if __name__ == "__main__":
    sys.exit(main())
