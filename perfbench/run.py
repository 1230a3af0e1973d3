#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload plan|serve|fleet|tune \\
        --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
edacloud libraries and the driver (Release) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later calls rebuild only what changed.
Build output goes to stderr. The driver's stdout is passed through once its
last line, the result object, names exactly the metrics BENCHMARK.json
lists for the mode; otherwise nothing is printed and the exit code is
nonzero. See perfbench/README.md for the workloads and metrics.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no edacloud sources next to perfbench/ (src/ is missing)")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for step in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    trace = "--trace" in argv[:-1] and argv[argv.index("--trace") + 1] == "1"
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    try:
        run = subprocess.run([binary] + argv, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    lines = run.stdout.strip().splitlines()
    if run.returncode == 2 or not lines:
        sys.exit(run.returncode or 2)  # usage error: the driver said why
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the driver's last line is not a result object")
    names = list(result.get("metrics", {}))
    if names != expected_metrics(trace):
        fail(f"metrics {names} differ from BENCHMARK.json")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
