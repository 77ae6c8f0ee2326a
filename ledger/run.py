#!/usr/bin/env python3
"""Perf-ledger entry point: builds the ledger binary from source, runs one
workload and checks that its result line carries exactly the metrics
BENCHMARK.json declares.

    python3 ledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to .bench_build/ledger (Release,
no sanitizer); a traced sim run also writes its Chrome trace-event JSON to
.bench_build/traces/. Nothing else is written.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "ledger"
WORKLOADS = ("boutique_overload", "alibaba_sharded", "boutique_split",
             "gateway_contended")


def fail(message):
    print(f"ledger: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "models/base_policy.txt"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found under {ROOT}: the ledger builds the "
                 "repository from source and needs its committed policy")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = [
            "cmake", "-S", str(ROOT), "-B", str(BUILD), *generator,
            "-DCMAKE_BUILD_TYPE=Release", "-DTOPFULL_SANITIZE=",
            f"-DCMAKE_PROJECT_topfull_INCLUDE={HERE / 'attach.cmake'}",
        ]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", str(BUILD), "--target", "topfull_ledger",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / "ledger" / "topfull_ledger"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               args.trace]
    if args.trace == "1" and args.workload != "gateway_contended":
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("TOPFULL_")}
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"topfull_ledger exited with {proc.returncode}")
    result = json.loads(lines[-1])
    printed = list(result["metrics"])
    declared = declared_metrics(args.trace == "1")
    if printed != declared:
        fail(f"metrics {printed} do not match BENCHMARK.json {declared}")
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
