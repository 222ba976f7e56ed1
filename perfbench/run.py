#!/usr/bin/env python3
"""The repository's benchmark: two workloads, measured end to end and
layer by layer from outside the program.

    python3 perfbench/run.py --workload pair_xes --seed 1 --seconds 45 \
        --trace 0 [--record runs.jsonl]
    python3 perfbench/run.py --compare before.jsonl after.jsonl

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the library, ems_serve and perfbench_driver) under
.bench_build/ (or $CARGO_TARGET_DIR). The driver generates every input
from --seed, runs the workload against those files and checks every
output; this script turns its raw measurements into metrics and prints
them as one JSON object on the last line of standard output. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones. A failed
correctness check prints "correct": false and exits 1; a run that cannot
build or run exits nonzero without a result. --record appends the run
to a JSON-lines file; --compare reports two such files side by side and
exits 1 when an exact count changed or a median got worse than its
bound. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
import metrics  # noqa: E402  (after dont_write_bytecode)

WORKLOADS = ("pair_xes", "serve_mixed")
DRIVER_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the benchmark package."""
    for needed in ("src/CMakeLists.txt", "tools/ems_serve.cc",
                   "perfbench/CMakeLists.txt"):
        if not (root / needed).is_file():
            log(f"perfbench: {needed} is missing; run from a source checkout")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=root).returncode != 0:
            log("perfbench: build failed")
            return False
    return True


def stop_group(pgid):
    """Kills whatever is left of the driver's process group and waits
    until the group is empty."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_driver(cmd):
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        return None
    finally:
        proc.kill()  # no-op once it has exited
        proc.wait()
        stop_group(proc.pid)


def bench(args):
    root = Path(__file__).resolve().parent.parent
    out_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = out_root / "perfbench"
    if not build(root, build_dir):
        return 2
    work = out_root / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    traces = out_root / "traces"
    traces.mkdir(exist_ok=True)
    raw_path = work / "raw.json"
    cmd = [str(build_dir / "perfbench_driver"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work={work}", f"--out={raw_path}",
           f"--trace-out={traces / f'{args.workload}-seed{args.seed}.json'}",
           f"--serve-bin={build_dir / 'ems_serve'}"]
    try:
        code = run_driver(cmd)
        if code is None or not raw_path.is_file():
            return 1
        raw = json.loads(raw_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, attempted, failed = metrics.per_layer(raw)
        detail = {}
    else:
        values, attempted, failed, detail = metrics.end_to_end(raw)
    correct = code == 0 and not raw["mismatches"]
    for mismatch in raw["mismatches"]:
        log(f"perfbench: MISMATCH {mismatch}")
    for name, m in values.items():
        log(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    for name, value in detail.items():
        log(f"  ({name} = {value:g})")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": values}
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "seconds": args.seconds, "trace": args.trace,
                                "detail": detail, "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def compare(path_a, path_b):
    def load(path):
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]

    root = Path(__file__).resolve().parent.parent
    bounds = {}
    spec = root / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m
                  for m in json.loads(spec.read_text())["end_to_end"]}
    lines, flags = metrics.compare(load(path_a), load(path_b), bounds)
    print(f"{path_a}  ->  {path_b}")
    print("\n".join(lines))
    for flag in flags:
        print(f"FLAG {flag}")
    return 1 if flags else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append this run to a JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --record files")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
