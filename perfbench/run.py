"""The TIP benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload rx-oltp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs it again with spans around every layer entry
point and reports per-layer metrics, the exact counts of the count pass
and the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Host
fingerprint, sample counts and run metadata go to the lines above it
and to ``.perfbench-work/results/``.  The exit code is 1 when any
answer was wrong, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("rx-oltp", "rx-browse", "graph-analytics")

#: name -> (unit, which direction is better) of every end-to-end
#: metric, in report order.
END_TO_END = {
    "throughput_ops_s": ("ops/s", "higher"),
    "rows_s": ("rows/s", "higher"),
    "read_p50_ms": ("ms", "lower"),
    "read_p99_ms": ("ms", "lower"),
    "write_p50_ms": ("ms", "lower"),
    "write_p99_ms": ("ms", "lower"),
    "analytic_p50_ms": ("ms", "lower"),
    "analytic_p90_ms": ("ms", "lower"),
    "engine_cpu_ms_per_op": ("ms/op", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "graph-analytics":
        import graph

        return graph.run(seed, seconds, trace)
    import rx

    return rx.run(name, seed, seconds, trace)


def report(name: str, result: dict, specs: dict) -> None:
    """Human-readable lines; everything but the final JSON line."""
    meta = result["meta"]
    print(f"== {name}  seed={meta['seed']}  trace={meta['trace']}  "
          f"host={json.dumps(meta['host'], sort_keys=True)}")
    print(f"   attempted={result['attempted']}  failed={result['failed']}  "
          f"error_ratio={result['failed'] / result['attempted']:.6f}")
    if "samples" in meta:
        print(f"   samples {json.dumps(meta['samples'], sort_keys=True)}")
    if "host_steal_s" in meta:
        print(f"   host CPU steal in the window: {meta['host_steal_s']:.2f} s")
    for metric, value in result["metrics"].items():
        print(f"   {metric:34s} {value:14.6f} {specs[metric][0]}")
    for label, counts in meta.get("count_pass", {}).items():
        print(f"   count pass {label}: {json.dumps(counts, sort_keys=True)}")


def run_each(args) -> int:
    """``--workload all``: every workload in a process of its own, so
    none inherits another's memory or caches; their result lines are
    merged under ``<workload>/`` prefixes."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: {name} printed no result (exit code {done.returncode})",
                  file=sys.stderr)
            return done.returncode or 1
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the TIP sources are not in {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_each(args)
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    from common import host_fingerprint, work_dir
    from layers import per_layer_specs

    specs = per_layer_specs() if args.trace else END_TO_END
    name = args.workload
    result = run_workload(name, args.seed, args.seconds, bool(args.trace))
    result["meta"].update(host=host_fingerprint(), seed=args.seed, trace=args.trace,
                          workload=name, seconds=args.seconds)
    report(name, result, specs)
    path = os.path.join(work_dir("results"),
                        f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True, default=str)
    correct = result["failed"] == 0 and result["correct"]
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {metric: {"value": value, "unit": specs[metric][0]}
                    for metric, value in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
