#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload image-conv --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. Builds perfbench/ (the library, the
example_model_server daemon and the perfbench_run program) into
$CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), trains the demo fixtures once, then runs
perfbench_run, whose last stdout line is the result object. Exits non-zero
without a result when the sources are missing or the build fails.
"""
import argparse
import ctypes
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die_with_parent():
    """Child processes are killed when this script dies."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)
    except OSError:
        pass


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", bdir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          preexec_fn=die_with_parent).returncode != 0:
            return False
    return True


def source_digest():
    """sha256 over the sources the benchmark builds (checkouts without .git)."""
    roots = [os.path.join(REPO, "src"), HERE]
    files = [os.path.join(REPO, "examples", "model_server.cpp")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in filenames]
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_info():
    if not os.path.isdir(os.path.join(REPO, ".git")):
        return "unavailable", "unavailable"
    try:
        sha = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        status = subprocess.run(
            ["git", "-C", REPO, "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, check=True).stdout
        return sha, "1" if status.strip() else "0"
    except (OSError, subprocess.CalledProcessError):
        return "unavailable", "unavailable"


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(bdir, spec, workload, seed, seconds, trace, extra=()):
    """Runs one measurement; returns (exit code, stdout lines)."""
    p50_bound = next(m["bound"] for m in spec["end_to_end"]
                     if m["name"] == "latency_p50_us")
    sha, dirty = git_info()
    cmd = [os.path.join(bdir, "perfbench_run"), "run",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--fixtures", os.path.join(bdir, "fixtures"),
           "--daemon", os.path.join(bdir, "example_model_server"),
           "--work", os.path.join(bdir, "work"),
           "--p50-bound", str(p50_bound),
           "--git-sha", sha, "--git-dirty", dirty,
           "--source-digest", source_digest(), *extra]
    env = dict(os.environ, OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=die_with_parent)
    except subprocess.TimeoutExpired:
        log(f"{workload}: perfbench_run timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def last_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def self_test(bdir, spec):
    """Short runs of every workload: every metric named in BENCHMARK.json is
    emitted with its unit, and a corrupted expectation fails the run."""
    failures = []
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = measure(bdir, spec, workload["name"], 1, 1, trace,
                                  ["--smoke"])
            result = last_result(lines)
            what = f"{workload['name']} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                reasons = [line for line in lines
                           if line.startswith(("INVALID", "MISMATCH", "error"))]
                failures.append(f"{what}: exit {code}, result {result} "
                                f"{reasons}")
                continue
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{what}: metrics {sorted(got.items())} != "
                                f"{sorted(want.items())}")
            else:
                log(f"self-test: {what}: {len(got)} metrics ok")
    first = spec["workloads"][0]["name"]
    code, lines = measure(bdir, spec, first, 1, 1, 0,
                          ["--smoke", "--corrupt-expectation"])
    result = last_result(lines)
    if code == 0 or result is None or result["correct"] or result["metrics"]:
        failures.append(f"corrupted expectation was not caught: exit {code}, "
                        f"result {result}")
    else:
        log("self-test: corrupted expectation fails the run")
    for failure in failures:
        log(f"self-test FAILED: {failure}")
    print("self-test " + ("passed" if not failures else "failed"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not (os.path.isdir(os.path.join(REPO, "src")) and
            os.path.isfile(os.path.join(REPO, "examples", "model_server.cpp"))):
        log("repository sources (src/, examples/model_server.cpp) not found")
        return 2
    spec = load_spec()
    if not args.self_test and not args.workload:
        log("--workload is required (BENCHMARK.json lists the gated ones)")
        return 2
    bdir = build_dir()
    if not build(bdir):
        log("build failed")
        return 1
    prepare = [os.path.join(bdir, "perfbench_run"), "prepare",
               "--fixtures", os.path.join(bdir, "fixtures")]
    if subprocess.run(prepare, stdout=sys.stderr,
                      env=dict(os.environ, OMP_NUM_THREADS="1"),
                      preexec_fn=die_with_parent).returncode != 0:
        log("fixture preparation failed")
        return 1
    if args.self_test:
        return self_test(bdir, spec)
    code, lines = measure(bdir, spec, args.workload, args.seed,
                          args.seconds, args.trace)
    for line in lines:
        print(line)
    if code == 0 and last_result(lines) is None:
        log("perfbench_run printed no result object")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
