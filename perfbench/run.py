"""Benchmark command for rankguard.

    python3 perfbench/run.py --workload mc_grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # all four, one process
    python3 perfbench/run.py --quick                   # every workload, small, all checks

Workloads: mc_grid, sim_methods, power_curve, big_test (see README.md).
With --trace 0 a run reports the end-to-end metrics setup_s, op_s_p50,
work_per_s and peak_rss_mb; with --trace 1 it runs the same operations,
then times calls into each layer once and reports the per-layer metrics
and trace.overhead_s, the time those layer timings add to the run. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit status is 0 when every check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from source import OUT

HERE = Path(__file__).resolve().parent
# big_test last: peak RSS is a lifetime maximum, and big_test's is three
# times the others', so with --workload all it would hide theirs
NAMES = ("mc_grid", "sim_methods", "power_curve", "big_test")
MIN_OPS = 3  # the slow workloads still give a median of three per run
SETUP_PROBES = 3


def probe(target: str, seed: int, quick: bool) -> float:
    """Seconds from starting a fresh interpreter to the probe's ready point."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), target, str(seed), "1" if quick else "0"],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(done.stdout.split()[-1]) - start


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def operate(name: str, seed: int, seconds: float, quick: bool, workdir: Path) -> dict:
    """Build the workload, warm it, run whole operations for `seconds` (at
    least MIN_OPS), then check every output. Only the operations are timed;
    preparing their arguments and keeping their outputs is not."""
    import workloads

    wl = workloads.build(name, seed, quick, workdir)
    wl.warm()
    times, records = [], []
    attempted = failed = work = 0
    start = time.perf_counter()
    while attempted < (1 if quick else MIN_OPS) or time.perf_counter() - start < seconds:
        job = wl.prepare(attempted)
        attempted += 1
        op_start = time.perf_counter()
        try:
            raw = wl.run(job)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            failed += 1
            continue
        times.append(time.perf_counter() - op_start)
        work += wl.work(job)
        records.append(wl.record(job, raw))
    rss = peak_rss_mb()  # before the checks, which hold copies of the inputs
    return {"failures": wl.check(records), "attempted": attempted, "failed": failed,
            "op_s": times, "work": work, "rss": rss}


def end_to_end(name: str, seed: int, seconds: float, quick: bool, workdir: Path) -> dict:
    setup_s = statistics.median(
        probe(name, seed, quick) for _ in range(1 if quick else SETUP_PROBES)
    )
    result = operate(name, seed, seconds, quick, workdir)
    times = result["op_s"]
    result["metrics"] = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "work_per_s": (result["work"] / sum(times), "1/s"),
        "peak_rss_mb": (result["rss"], "MB"),
    }
    return result


def per_layer(seed: int, workdir: Path) -> dict:
    """Every per-layer metric, and the time measuring them took."""
    import layers

    import_s = statistics.median(probe("import", seed, False) for _ in range(SETUP_PROBES))
    start = time.perf_counter()
    metrics = layers.measure(seed, workdir, import_s)
    metrics["trace.overhead_s"] = (time.perf_counter() - start, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, one operation per workload, every check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    names = NAMES if args.workload == "all" else (args.workload,)
    seconds = 0.0 if args.quick else args.seconds

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        step = operate if args.trace else end_to_end
        results = {name: step(name, args.seed, seconds, args.quick, workdir) for name in names}
        layer_metrics = per_layer(args.seed, workdir) if args.trace else {}
    finally:
        shutil.rmtree(workdir)

    prefix = len(names) > 1
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}

    def report(shown: str, key: str, metric: str, value: float, unit: str) -> None:
        summary["metrics"][key] = {"value": value, "unit": unit}
        print(f"{shown:12s} {metric:34s} {value:14.6g} {unit}")

    for name, result in results.items():
        for failure in result["failures"]:
            print(f"CHECK FAILED [{name}] {failure}", file=sys.stderr)
        summary["correct"] &= not result["failures"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, (value, unit) in result.get("metrics", {}).items():
            report(name, f"{name}.{metric}" if prefix else metric, metric, value, unit)
        print(f"{name:12s} attempted {result['attempted']} failed {result['failed']} "
              f"checks {'passed' if not result['failures'] else 'FAILED'}")
    for metric, (value, unit) in layer_metrics.items():
        report("layers", metric, metric, value, unit)
    line = json.dumps(summary)
    tag = "quick" if args.quick else f"trace{args.trace}"
    detail = {**summary, "op_s": {name: result["op_s"] for name, result in results.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-{tag}.json").write_text(json.dumps(detail))
    print(line)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
