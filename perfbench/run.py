#!/usr/bin/env python3
"""Runs one workload of the smfl benchmark and prints its metrics.

    python3 perfbench/run.py --workload impute_tall --seed 1 --seconds 50 --trace 0

Builds the benchmark program (perfbench/main.cc, linked against the library
sources in src/) into .bench_build/, runs the workload in one process (which
picks min(4, nproc) threads itself), converts every raw measurement from the
unit the program took it in to the unit BENCHMARK.json declares, checks the
outputs, and prints as its last line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end_to_end metrics, --trace 1 the per_layer ones
(and prints the per-layer table above the result). perfbench/README.md
describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "smfl_perfbench")
RUN_TIMEOUT_S = 170
# Runs by hand like the workloads in BENCHMARK.json, but is not one of them
# (perfbench/README.md says why).
MANUAL_WORKLOAD = "foldin_serve"

# (source unit, declared unit) -> factor. A pair missing here is an error:
# a value is never reported under a unit it was not converted to.
CONVERSIONS = {
    ("ns", "s"): 1e-9,
    ("us", "s"): 1e-6,
    ("KiB", "MB"): 1024 / 1e6,
    ("flop/ns", "GFLOP/s"): 1.0,
}
SAME_UNITS = {"count", "ratio", "normalized", "B"}


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def convert(name, value, src, dst):
    if src == dst and src in SAME_UNITS:
        return value
    factor = CONVERSIONS.get((src, dst))
    if factor is None:
        raise BenchError(f"{name}: no conversion from '{src}' to '{dst}'")
    return value * factor


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "smfl_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=880)


def run_binary(args, work_dir):
    cmd = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work-dir={work_dir}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"smfl_perfbench exited with {proc.returncode}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError("smfl_perfbench printed nothing")
    return json.loads(lines[-1])


# The benchmark's spans that tile one traced job (or, for foldin_serve, one
# FoldIn call); with trace.untraced_s they add up to the whole.
JOB_SPANS = ["data.parse_s", "data.normalize_s", "spatial.graph_build_s",
             "core.fit_s", "core.recover_s", "data.write_s"]
CALL_SPANS = ["foldin.batch_span_s"]


def coverage_line(workload, metrics):
    parts, whole = ((CALL_SPANS, "foldin.call_s")
                    if workload == "foldin_serve" else
                    (JOB_SPANS, "trace.job_s"))
    total = sum(metrics[p]["value"] for p in parts + ["trace.untraced_s"])
    return (f"span coverage: {' + '.join(parts)} + trace.untraced_s = "
            f"{total:.6g} s; {whole} = {metrics[whole]['value']:.6g} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        raise BenchError("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]} | {
            MANUAL_WORKLOAD}:
        raise BenchError(f"unknown workload '{args.workload}'")
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)

    build()
    work_dir = os.path.join(ROOT, ".bench_build", "work",
                            f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        raw = run_binary(args, work_dir)
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        if raw["spans_file"]:
            spans = os.path.join(
                traces, f"{args.workload}-seed{args.seed}-spans.json")
            shutil.move(raw["spans_file"], spans)
            raw["spans_file"] = os.path.relpath(spans, ROOT)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    measured = raw["measurements"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        name = m["name"]
        if name not in measured:
            raise BenchError(f"smfl_perfbench did not measure '{name}'")
        src = measured[name]
        if not isinstance(src["value"], (int, float)):
            raise BenchError(f"{name}: not a finite number")
        value = convert(name, src["value"], src["unit"], m["unit"])
        metrics[name] = {"value": value, "unit": m["unit"]}

    attempted, failed = raw["attempted"], raw["failed"]
    failures = list(raw["failures"])
    # rmse_hidden must stay within the recorded reference.
    attempted += 1
    rmse = measured["rmse_hidden"]["value"]
    limit = (reference["rmse_hidden"][args.workload] *
             (1 + reference["tolerance"]))
    if not rmse <= limit:
        failed += 1
        failures.append(f"rmse_hidden {rmse:.6g} above {limit:.6g}")
    for f in failures:
        log(f"check failed: {f}")

    provenance = dict(raw["provenance"], workload=args.workload,
                      trace=args.trace)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if args.trace:
        job = measured["job_s"]
        print(f"per-layer metrics, {args.workload}, seed {args.seed} "
              f"(untraced job {convert('job_s', job['value'], job['unit'], 's'):.6g} s):")
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
        print(coverage_line(args.workload, metrics))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(
            results,
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w") as f:
        json.dump(dict(result, provenance=provenance, failures=failures,
                       spans_file=raw["spans_file"], raw=measured), f,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the build or the benchmark program before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        log(f"error: {e}")
        sys.exit(1)
