#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_mixed|fewshot_train|screen_bulk
                             [--seed N] [--seconds N] [--trace 0|1]

Builds the libraries, the cgps_serve daemon and the cgps_perfbench harness
from this checkout (CMake, into $CARGO_TARGET_DIR or .bench_build), pins every
CIRCUITGPS_* / CGPS_* variable the program reads (the caller's values are
dropped), runs the harness three times (each for a third of --seconds) and
prints the reports. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). Exits non-zero when an output check fails, when a declared
metric is missing, or when the program cannot be built or run.
"""
import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve_mixed", "fewshot_train", "screen_bulk")
PROCESSES = 3
HARNESS_TIMEOUT_S = 55  # per process; a run stays within 180 s

# What the benchmark measures, whatever the caller's shell says. An empty
# value means "unset" (that feature off, or left to the harness, which sets
# the run log and the daemon's access log itself in its own work directory).
DEFAULT_PINS = {
    "CIRCUITGPS_EXEC": "eager",
    "CIRCUITGPS_BACKEND": "scalar",
    "CIRCUITGPS_QUANT": "off",
    "CIRCUITGPS_THREADS": "1",
    "CIRCUITGPS_TRACE": "",
    "CIRCUITGPS_RUN_LOG": "",
    "CIRCUITGPS_SERVE_PORT": "0",
    "CIRCUITGPS_SERVE_MAX_BATCH": "64",
    "CIRCUITGPS_SERVE_QUEUE_CAP": "1024",
    "CIRCUITGPS_SERVE_DEADLINE_MS": "100",
    "CIRCUITGPS_SERVE_ACCESS_LOG": "",
    "CIRCUITGPS_SERVE_SLOW_MS": "",
    "CGPS_LOG_LEVEL": "warn",
}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out-seed", type=int, default=None,
                        help="seed kept for re-checking claims; recorded only")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", nargs="+", action="extend", default=[],
                        metavar="NAME=VALUE", help="override a pinned variable")
    parser.add_argument("--perturb-check", action="store_true",
                        help="flip one checked prediction; the run must then fail")
    return parser.parse_args()


def pinned_env(pins):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("CIRCUITGPS_", "CGPS_"))}
    for name, value in pins.items():
        if value:
            env[name] = value
    return env


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "cgps_serve.cpp").is_file():
        fail(f"{ROOT} holds no program sources (src/, tools/) to build", code=2)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
                  "--target", "cgps_perfbench", "cgps_serve"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_harness(cmd, env):
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The harness and the daemons it spawned share its process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # anything it left behind
        except ProcessLookupError:
            pass
    return proc.returncode, out


def median_metrics(runs):
    """Per metric, the median over the processes; None unless all reported it."""
    merged = {}
    for name, m in runs[0].items():
        values = [r[name]["value"] for r in runs
                  if name in r and isinstance(r[name]["value"], (int, float))]
        merged[name] = {"value": statistics.median(values) if len(values) == len(runs) else None,
                        "unit": m["unit"]}
    return merged


def declared_metrics(kind):
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    return [m["name"] for m in json.loads(spec.read_text())[kind]]


def main():
    args = parse_args()
    pins = dict(DEFAULT_PINS)
    for entry in args.pin:
        name, sep, value = entry.partition("=")
        if not sep or not name.startswith(("CIRCUITGPS_", "CGPS_")):
            fail(f"--pin wants CIRCUITGPS_NAME=VALUE, got {entry!r}", code=2)
        pins[name] = value

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(build_dir)
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}" +
          (f", held-out seed {args.held_out_seed}" if args.held_out_seed is not None else ""))
    print("pinned: " + " ".join(f"{k}={v}" for k, v in pins.items()))
    sys.stdout.flush()

    # The run is PROCESSES harness processes on the same inputs, each given
    # an equal share of --seconds; every metric is the median over them. On
    # a shared host one process can run markedly slower than the next for
    # its whole life, and a median of several does not follow one outlier.
    started = time.monotonic()
    reports = []
    for k in range(PROCESSES):
        work_dir = (build_dir / "runs" /
                    f"{args.workload}-seed{args.seed}-trace{args.trace}" / f"p{k}")
        work_dir.mkdir(parents=True, exist_ok=True)
        cmd = [str(build_dir / "cgps_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(max(1, round(args.seconds / PROCESSES))),
               "--trace", str(args.trace), "--serve-bin", str(build_dir / "cgps_serve"),
               "--work-dir", str(work_dir)]
        if args.perturb_check:
            cmd.append("--perturb-check")
        print(f"-- process {k + 1} of {PROCESSES}")
        code, out = run_harness(cmd, pinned_env(pins))
        lines = out.rstrip("\n").split("\n")
        for line in lines[:-1]:
            print(line)
        try:
            report = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            fail(f"harness exited {code} without a result")
        if code != 0:
            report["check_failures"].append(f"harness process {k + 1} exited {code}")
        reports.append(report)
    print(f"harness wall time {time.monotonic() - started:.1f} s")
    report = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "check_failures": [f for r in reports for f in r["check_failures"]],
        "e2e": median_metrics([r["e2e"] for r in reports]),
        "layers": median_metrics([r["layers"] for r in reports]),
    }

    kind = "per_layer" if args.trace else "end_to_end"
    values = report["layers"] if args.trace else report["e2e"]
    names = declared_metrics(kind) or list(values)
    problems = list(report["check_failures"])
    metrics = {}
    for name in names:
        m = values.get(name)
        if m is None or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name} missing or not finite")
            continue
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    for name, m in values.items():
        print(f"  {name:34s} {m['value']!r} {m['unit']}")

    # Tracing overhead: the traced run's end-to-end figures against the last
    # untraced run of the same workload, seed and length in this build tree.
    saved = build_dir / "results" / f"{args.workload}-seed{args.seed}-s{args.seconds}.json"
    if not args.trace:
        saved.parent.mkdir(parents=True, exist_ok=True)
        saved.write_text(json.dumps(report["e2e"]))
    elif saved.is_file():
        untraced = json.loads(saved.read_text())
        print("tracing overhead (traced vs untraced end-to-end, same seed):")
        for name, m in report["e2e"].items():
            base = untraced.get(name, {}).get("value")
            if base:
                print(f"  {name:34s} {base!r} -> {m['value']!r} "
                      f"({100.0 * (m['value'] - base) / base:+.2f}%)")

    correct = report["correct"] and not problems
    for p in problems:
        print(f"FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
