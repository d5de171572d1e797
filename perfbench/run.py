"""spinconc benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload exact --seed 101 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere; the checkout is the directory above this file.  Each
workload runs in a fresh interpreter (worker.py), so set-up time and peak
RSS belong to that workload alone.  Set-up is measured SETUP_PROBES more
times in set-up-only interpreters and reported as the median.  Every run
writes into its own temporary directory under `.perfbench_runs/` and
removes it afterwards; a traced run leaves its spans in
`.perfbench_runs/<workload>-s<seed>-spans.json`.

Untraced runs report wall_s, cpu_s, setup_s and peak_rss_mb; traced runs
report the per-layer metrics.  Each metric is printed as `name value unit`,
then fail_frac, and the last line is one JSON object.  The exit code is 1
when an output gate failed and 2 when the checkout or a worker is broken.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".perfbench_runs")
# Listed here rather than imported from workloads.py, which imports spinconc:
# the launcher must run, and refuse, in a checkout without the package.
NAMES = ["exact", "hightemp", "lowtemp", "tail-chain"]
DEFAULT_SEEDS = {"exact": 101, "hightemp": 20260818, "lowtemp": 20260818,
                 "tail-chain": 7}
SETUP_PROBES = 2
# a run must end within 180 s; leave room to report
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], timeout: float) -> tuple[dict, float]:
    """Start worker.py, wait for it, return (its JSON result, start time)."""
    started = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                          stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1]), started


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False) -> dict:
    t0 = time.monotonic()
    os.makedirs(RUNS, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=RUNS)
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(trace)] + (["--tiny"] if tiny else [])
    try:
        setups = []
        for probe in range(SETUP_PROBES):
            res, started = _worker(common + ["--work-dir", os.path.join(work, f"setup{probe}"),
                                             "--setup-only"],
                                   DEADLINE_S - (time.monotonic() - t0))
            setups.append(res["ready"] - started)
        sidecar = os.path.join(RUNS, f"{name}-s{seed}-spans.json")
        res, started = _worker(common + ["--work-dir", os.path.join(work, "main"),
                                         "--sidecar", sidecar],
                               DEADLINE_S - (time.monotonic() - t0))
        setups.append(res["ready"] - started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["wall"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(res["cpu"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics, "walls": res["wall"],
            "threads": res["threads"]}


def _print(prefix: str, out: dict) -> None:
    for key, metric in out["metrics"].items():
        print(f"{prefix}{key} {metric['value']:.6g} {metric['unit']}")
    print(f"{prefix}fail_frac {out['failed'] / out['attempted']:.6g} ratio "
          f"({out['failed']} of {out['attempted']} operations)")
    t = out["threads"]
    print(f"{prefix}threads cpu_count={t['cpu_count']} "
          f"battery_workers={t['battery_workers']} openblas={t['openblas']}")
    walls = out["walls"]
    print(f"{prefix}untraced calls timed: {len(walls)}, wall min {min(walls):.4g} s, "
          f"max {max(walls):.4g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spinconc benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "spinconc", "__init__.py")):
        print(f"no spinconc sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
            results[name] = run_workload(name, seed, args.seconds, args.trace, args.tiny)
    except (BenchError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 2
    for name, out in results.items():
        _print(f"{name}." if len(names) > 1 else "", out)
    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": final["correct"], "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
