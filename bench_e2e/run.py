#!/usr/bin/env python3
"""Builds bench_e2e from source and runs it.

One workload (the interface BENCHMARK.json names):

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the package into .bench_build/ (incremental after the first run),
runs that workload in its own process and passes its output through; the
last line is the JSON result object.

The whole suite (no --workload): every workload of BENCHMARK.json, each in
its own process, `--runs` times. Prints every metric as
`workload metric value unit` and writes BENCH_e2e.json ($BENCH_DIR, else the
current directory) with a host block. With `--trace 1` each workload also
gets a traced run, whose per-layer metrics and tracing overhead (traced /
untraced throughput) are recorded beside the end-to-end ones. Exits non-zero
if any run fails a correctness check.

Run from the repository root. Only the Python standard library is used.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Configures and builds the bench_e2e target; returns its path."""
    log = sys.stderr
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], stdout=log, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_e2e",
                    "-j", str(os.cpu_count() or 1)], stdout=log, check=True)
    return os.path.join(BUILD, "bench_e2e")


def run_workload(binary, workload, args, trace, stream):
    """Runs one workload process. Returns (exit code, output lines)."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds,
           "--work-dir=" + os.path.join(BUILD, "run"),
           "--golden=" + os.path.join(HERE, "golden.txt")]
    if args.setups:
        cmd.append("--setups=%d" % args.setups)
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if stream:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, lines


def parse(lines):
    """The result object (last line) and the `# host` fields."""
    host = {}
    for line in lines:
        if line.startswith("# host "):
            host = dict(f.split("=", 1) for f in line[len("# host "):].split())
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return result, host


def suite(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    runs = []
    host = {
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "repro_scale": float(os.environ.get("REPRO_SCALE", "1") or 1),
        "seed": args.seed,
        "io_backend": {},
    }
    for _ in range(args.runs):
        run = {}
        for workload in workloads:
            entry = {}
            for trace in ([False, True] if args.trace else [False]):
                code, lines = run_workload(binary, workload, args, trace,
                                           stream=False)
                result, child_host = parse(lines)
                for line in lines:
                    if not line.startswith(("{", "#")):
                        print(line)
                if code != 0 or result is None or not result["correct"]:
                    print("%s: run failed (exit %d)" % (workload, code),
                          file=sys.stderr)
                    ok = False
                    continue
                host["compiler"] = child_host.get("compiler")
                host["build_type"] = child_host.get("build")
                host["io_backend"][workload] = child_host.get("io_backend")
                key = "per_layer" if trace else "metrics"
                entry[key] = {k: v["value"]
                              for k, v in result["metrics"].items()}
                entry["units"] = dict(
                    entry.get("units", {}),
                    **{k: v["unit"] for k, v in result["metrics"].items()})
                entry.update(correct=result["correct"],
                             attempted=result["attempted"],
                             failed=result["failed"])
            metrics = entry.get("metrics", {})
            traced = entry.get("per_layer", {})
            if metrics.get("throughput_qps") and "trace.throughput_qps" in \
                    traced:
                entry["trace_overhead"] = (traced["trace.throughput_qps"] /
                                           metrics["throughput_qps"])
                print("%s trace.overhead %.6g ratio"
                      % (workload, entry["trace_overhead"]))
            run[workload] = entry
        runs.append({"workloads": run})
    out_dir = os.environ.get("BENCH_DIR") or "."
    path = os.path.join(out_dir, "BENCH_e2e.json")
    with open(path, "w") as f:
        json.dump({"name": "e2e", "host": host, "seconds": args.seconds,
                   "runs": runs}, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + path, file=sys.stderr)
    return 0 if ok else 1


def main():
    # subprocess.run kills and reaps its child on any exception, so turning
    # SIGTERM into SystemExit stops the workload process with us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (else all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed work per workload run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="suite passes recorded in BENCH_e2e.json")
    parser.add_argument("--setups", type=int, default=0,
                        help="set-ups per run (0: the benchmark's default)")
    parser.add_argument("--binary",
                        help="use this bench_e2e instead of building one")
    args = parser.parse_args()
    try:
        binary = args.binary or build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("bench_e2e: build failed: %s" % e, file=sys.stderr)
        return 2
    if args.workload:
        code, _ = run_workload(binary, args.workload, args, args.trace,
                               stream=True)
        return code
    return suite(binary, args)


if __name__ == "__main__":
    sys.exit(main())
