#!/usr/bin/env python3
"""Whole-join host-time benchmark: build the driver from source, run one workload.

Run from anywhere inside a checkout of the repository:

    python3 e2ebench/run.py --workload rack10 --seed 1 --seconds 30 --trace 0

The first call configures and builds e2ebench/e2e_join (and the library
modules it links, straight from ../src) under .bench_build/e2ebench; later
calls only rebuild what changed. The driver's stdout is relayed unchanged, so
the last line is the JSON result: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run, whose bench spans land in
.bench_build/e2ebench/spans/. README.md in this directory explains both.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
WORKLOADS = ("rack10", "pair2_fine", "rack4_skew")
# Library environment knobs removed from the children's environment: a stray
# RDMAJOIN_SCALE_UP must not resize a pinned workload (the driver does not
# read it either), and RDMAJOIN_LOG_LEVEL would add logging cost to the
# timed calls.
IGNORED_ENV = ("RDMAJOIN_SCALE_UP", "RDMAJOIN_LOG_LEVEL")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env():
    """Environment of the build and the driver: the library knobs removed, and
    temporary files (the compiler's) kept inside the checkout."""
    env = {k: v for k, v in os.environ.items() if k not in IGNORED_ENV}
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(command, timeout, **kwargs):
    """Runs `command` in its own process group; returns (exit code, stdout).

    On a timeout or an interrupt the whole group (make, compilers, driver) is
    killed and reaped before the exception propagates."""
    proc = subprocess.Popen(command, start_new_session=True, env=child_env(),
                            **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_join",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code, _ = run_child(step, BUILD_TIMEOUT_S, stdout=log,
                                    stderr=subprocess.STDOUT)
            except subprocess.TimeoutExpired:
                fail(f"build timed out after {BUILD_TIMEOUT_S} s; see {log_path}")
            if code != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(step[:2])}); see {log_path}")
    return BUILD / "e2e_join"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny pinned scale, for the smoke tests only")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    driver = build()
    command = [str(driver), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.smoke:
        command.append("--smoke")
    if args.trace == 1:
        spans_dir = BUILD / "spans"
        spans_dir.mkdir(exist_ok=True)
        suffix = "-smoke" if args.smoke else ""
        command.append(
            f"--spans-out={spans_dir / f'{args.workload}-seed{args.seed}{suffix}.json'}")
    for name in IGNORED_ENV:
        if name in os.environ:
            print(f"e2ebench: ignoring {name}; workload scales are pinned",
                  file=sys.stderr)
    try:
        code, stdout = run_child(command, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                 text=True)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out after {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"driver exited with code {code}", 1 if code < 0 else code)
    lines = stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("driver printed no JSON result line")
    if set(result) != RESULT_KEYS:
        fail(f"driver result has keys {sorted(result)}")
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
