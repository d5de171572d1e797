"""One workload in one fresh interpreter: set-up, timed calls, gate, metrics.

Started by run.py, never by hand.  Set-up is everything from interpreter
start to the first timed call: importing spinconc from the checkout's
`src/` and building the workload's inputs.  The worker reports the
monotonic clock reading at the end of set-up, so run.py can measure set-up
from the moment it started the process.

Untraced (`--trace 0`): calls repeat until `--seconds` have passed and the
per-call wall and CPU times are reported.  Traced (`--trace 1`): untraced
and traced calls alternate; the per-layer metrics come from the traced
calls and the tracing overhead from the difference of the two medians.
The result is one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_CALLS = 3
MIN_CALLS_PER_KIND = 2

# The layers the traced run reports, with their counts (see README.md).
TIMED = ["models.glauber_block_batch", "coupling.coupled_glauber_disagreement",
         "models.glauber_batch", "coupling.coupling_rows_all",
         "coupling.envelope_and_moment_matrices", "verify.backbone_check",
         "bounds.martingale_decomposition",
         "bounds.MartingaleDecomposition.orthogonality_error",
         "bounds.operator_norm_l2", "models.exact_joint", "models.dobrushin_matrix",
         "verify.fit_decay_constant", "verify.ell_statistic", "verify.write_artifacts"]
SAMPLERS = ["models.glauber_block_batch", "coupling.coupled_glauber_disagreement",
            "models.glauber_batch"]
CALL_COUNTS = ["coupling.coupling_rows_all", "bounds.operator_norm_l2",
               "verify.ell_statistic"]


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _one_call(workload, work_dir: str, index: int):
    """Run and check one call; returns (wall, cpu, attempted, failed)."""
    out_dir = os.path.join(work_dir, f"call{index}")
    wall0, cpu0 = time.perf_counter(), _cpu()
    try:
        code = workload.call(out_dir)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        code = None
    wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
    if code is None:
        return wall, cpu, 1, 1
    attempted, failed = workload.check(out_dir)
    # the invocation itself is one more operation
    return wall, cpu, attempted + 1, failed + (code != 0)


def _calls(workload, work_dir: str, seconds: float, min_calls: int, tracer=None,
           package=None):
    """Calls until `seconds` have passed; with a tracer every other call is
    traced, so drift in machine speed hits both kinds alike.  Returns the
    untraced and the traced calls."""
    untraced, traced = [], []
    t_end = time.perf_counter() + seconds
    while (len(untraced) < min_calls or len(traced) < (min_calls if tracer else 0)
           or time.perf_counter() < t_end):
        index = len(untraced) + len(traced)
        if tracer is None or index % 2 == 0:
            untraced.append(_one_call(workload, work_dir, index))
            continue
        tracer.run = index
        tracer.install(package)
        try:
            with tracer.span("workload"):
                traced.append(_one_call(workload, work_dir, index))
        finally:
            tracer.uninstall()
            tracer.joint_keys.clear()
    return untraced, traced


def layer_metrics(tracer, n_calls: int) -> dict:
    """Per-call self time and counts per traced layer, from the spans."""
    from spans import self_times

    agg = defaultdict(lambda: {"s": 0.0, "calls": 0, "bands": set(),
                               "site_updates": 0, "states": 0})
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        layer = agg[span.name]
        layer["s"] += own
        layer["calls"] += 1
        for key, value in span.attrs.items():
            if key == "band":
                layer["bands"].add(value)
            else:
                layer[key] += value
    out = {}
    for name in TIMED:
        out[f"{name}.s"] = (agg[name]["s"] / n_calls, "s")
    for name in SAMPLERS:
        updates, busy = agg[name]["site_updates"], agg[name]["s"]
        out[f"{name}.site_updates"] = (updates / n_calls, "count")
        out[f"{name}.mups"] = (updates / busy / 1e6 if busy > 0 else 0.0, "Mupdates/s")
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (agg[name]["calls"] / n_calls, "count")
    bands = agg["coupling.coupling_rows_all"]
    out["coupling.coupling_rows_all.unique_ratio"] = (
        len(bands["bands"]) / bands["calls"] if bands["calls"] else 0.0, "ratio")
    out["models.exact_joint.states"] = (agg["models.exact_joint"]["states"] / n_calls, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--sidecar", default=None)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spinconc
    import workloads

    if not os.path.abspath(spinconc.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"spinconc was imported from {spinconc.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    os.makedirs(args.work_dir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.work_dir,
                                                  args.tiny, ROOT)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace == 0:
        calls, traced = _calls(workload, args.work_dir, args.seconds, MIN_CALLS)
    else:
        from spans import Tracer

        tracer = Tracer()
        calls, traced = _calls(workload, args.work_dir, args.seconds, MIN_CALLS_PER_KIND,
                               tracer, spinconc)
        layers = layer_metrics(tracer, len(traced))
        traced_wall = statistics.median(c[0] for c in traced)
        layers["trace.wall_s"] = (traced_wall, "s")
        layers["trace.overhead_s"] = (traced_wall - statistics.median(c[0] for c in calls), "s")
        result["layers"] = layers
        if args.sidecar:
            tracer.write(args.sidecar)
    everything = calls + traced
    result.update({
        "wall": [c[0] for c in calls],
        "cpu": [c[1] for c in calls],
        "attempted": sum(c[2] for c in everything),
        "failed": sum(c[3] for c in everything),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": {"cpu_count": os.cpu_count(),
                    # exact_battery's pool size at its default threads=0
                    "battery_workers": os.cpu_count() or 1,
                    "openblas": _openblas_threads()},
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
