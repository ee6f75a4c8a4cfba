#!/usr/bin/env python3
"""TMan end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload range-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (which compiles the repository's src/ in Release mode)
into $CARGO_TARGET_DIR or .bench_build, then runs one workload. The last
line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. Results, host details and span
files are also written under .bench_out/.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("range-cold", "similarity-hot", "ingest-mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout, env):
    """Runs a build step; its output goes to stderr only if it fails. The
    step runs in its own process group, which is killed and waited for if
    the step times out or this script is stopped."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return False
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        sys.stderr.write(out.decode(errors="replace")[-8000:])
        log("failed: " + " ".join(cmd))
        return False
    return True


def build(build_dir, target):
    # Compiler temporaries stay inside the build tree.
    tmp = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, env):
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", build_dir, "--target", target,
                      "-j", jobs], BUILD_TIMEOUT_S, env):
        return None
    return os.path.join(build_dir, target)


def git_sha():
    """HEAD of the repository this checkout is the root of, else "none"."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = proc.stdout.decode().split()
    if proc.returncode != 0 or len(lines) != 2:
        return "none"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def source_sha256():
    """Digest of the benchmarked sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def manifest_mismatch(metrics, trace):
    """Metrics of BENCHMARK.json missing from `metrics` or in another unit,
    and metrics not in it: every workload reports all of its section."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    section = manifest["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    wrong = [name for name, unit in units.items()
             if metrics.get(name, {}).get("unit") != unit]
    return wrong + sorted(set(metrics) - set(units))


def run(cmd, timeout):
    """Runs the benchmark binary; returns (exit code, stdout text). The child
    is killed and waited for on every way out, a signal to this script too."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out after %d s" % timeout)
        return 1, ""
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out.decode(errors="replace")


def exit_on_signal(signum, _frame):
    # SystemExit unwinds through run()'s cleanup.
    sys.exit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, exit_on_signal)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the self-test of the helpers")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = ".bench_out"
    target = "perfbench_selftest" if args.selftest else "tman_perfbench"
    binary = build(build_dir, target)
    if binary is None:
        return 1

    if args.selftest:
        code, out = run([binary, "--work-dir", out_dir], RUN_TIMEOUT_S)
        sys.stdout.write(out)
        return code

    code, out = run([binary, "--workload", args.workload,
                     "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--trace", str(args.trace),
                     "--out-dir", out_dir,
                     "--git-sha", git_sha(),
                     "--source-sha256", source_sha256()], RUN_TIMEOUT_S)
    if code != 0:
        log("benchmark exited with code %d" % code)
        return code if code > 0 else 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no result line")
        return 1
    if set(result) != RESULT_KEYS:
        log("malformed result line")
        return 1
    missing = manifest_mismatch(result["metrics"], args.trace)
    if missing:
        log("result does not match BENCHMARK.json: " + ", ".join(missing))
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
