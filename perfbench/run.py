"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run's work is fixed by the workload
and --seconds alone: ROUND_S holds the measured cost of one round on the
reference machine (see README.md), and a run does round(S / ROUND_S) whole
rounds, at least MIN_ROUNDS.  A faster program finishes sooner; the amount of work
never depends on how fast it runs.

The operations are split over up to MAX_WORKERS fresh worker processes,
started one after another with the BLAS thread variables set to 1 before
numpy loads.  Every worker times its own set-up, and setup_s is the median
of these times.  The last line of standard output is the JSON result; a
record of the run goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# seconds per round on the reference machine, and operations per round
ROUND_S = {"spectra": 16.5, "words": 1.6, "field": 2.3, "algebra": 4.3}
ROUND_OPS = {"spectra": 3, "words": 1, "field": 1, "algebra": 3}
MIN_ROUNDS = 2
MAX_WORKERS = 4
DEADLINE_S = 170.0
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def plan(workload: str, seconds: int) -> list[tuple[int, int]]:
    """(first, count) operation ranges, one per working worker process."""
    rounds = max(MIN_ROUNDS, round(seconds / ROUND_S[workload]))
    ops = rounds * ROUND_OPS[workload]
    workers = min(ops, MAX_WORKERS)
    bounds = [ops * i // workers for i in range(workers + 1)]
    return [(a, b - a) for a, b in zip(bounds, bounds[1:])]


def run_worker(args, first: int, count: int, result: Path, deadline: float):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--first", str(first), "--count", str(count),
           "--result", str(result)]
    if args.trace:
        cmd.append("--trace")
    env = dict(os.environ, **{k: BLAS_THREADS for k in BLAS_ENV})
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    if proc.stderr:
        print(proc.stderr[-4000:], file=sys.stderr)
    data = json.loads(result.read_text())
    data["setup_s"] = data["ready_at"] - spawned
    return data


def machine_record(workers: list[dict]) -> dict:
    first = workers[0]
    return {
        "machine": platform.node(),
        "cpu": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "openblas": first["openblas"],
        "blas_threads_env": first["blas_env"],
        "blas_threads_runtime": first["blas_threads"],
        "program_threads": first["program_threads"],
    }


def layer_metrics(workers: list[dict]) -> dict:
    raw: dict[str, float] = {}
    peaks: dict[str, float] = {}
    for w in workers:
        for key, value in w["raw"].items():
            raw[key] = raw.get(key, 0.0) + value
        for key, value in w["peaks"].items():
            peaks[key] = max(peaks.get(key, 0.0), value)
    values = {name: raw.get(name, 0.0) for name in PER_LAYER}
    values.update({name: peaks.get(name, 0.0) for name in PER_LAYER if name in peaks})
    nodes = raw.get("brownfield.logdet_field.nodes", 0.0)
    values["brownfield.logdet_field.node_us"] = (
        1e6 * raw.get("brownfield.logdet_field.s", 0.0) / nodes if nodes else 0.0
    )
    values["cli.self_s"] = raw.get("cli.s", 0.0)
    traced = sum(t for w in workers for t in w["traced_op_s"])
    plain = sum(t for w in workers for t in w["op_s"])
    values["trace.wall_s"] = traced
    values["trace.overhead_s"] = traced - plain
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "freeprob" / "__init__.py").is_file():
        print(f"no freeprob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ranges = plan(args.workload, args.seconds)
    try:
        workers = [run_worker(args, first, count, run_dir / f"work{i}.json", deadline)
                   for i, (first, count) in enumerate(ranges)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    op_s = [t for w in workers for t in w["op_s"]]
    problems = [p for w in workers for p in w["problems"]]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = len(op_s) + sum(len(w["traced_op_s"]) for w in workers)
    failed = sum(w["failed"] for w in workers)
    if args.trace:
        metrics = layer_metrics(workers)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(w["setup_s"] for w in workers), "unit": "s"},
            "wall_s": {"value": sum(op_s), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_s), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(w["maxrss_mb"] for w in workers), "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **machine_record(workers),
        "attempted": attempted,
        "failed": failed,
        "workers": [{"first": a, "count": c} for a, c in ranges],
        "setup_samples_s": [w["setup_s"] for w in workers],
        "op_s": op_s,
        "result": result,
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    (records / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        spans = [s for w in workers for s in w["spans"]]
        (records / f"{name}-spans.json").write_text(json.dumps(spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
