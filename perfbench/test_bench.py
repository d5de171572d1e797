"""Self-test of the benchmark at the smallest inputs.

    python3 -m pytest perfbench/test_bench.py -q

Checks that every metric BENCHMARK.json names comes out present, finite and
with its stated unit; that a deliberately corrupted output raises fail_frac
above 0 on every workload; and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spinconc.bounds import report_from_json  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.NAMES)
def test_every_metric_present_finite_with_unit(name, trace):
    proc = _bench(ROOT, "--workload", name, "--seed", "1", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = _spec()["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert f"\n{m['name']} " in "\n" + proc.stdout
    assert "\nfail_frac 0 ratio" in proc.stdout


def _corrupt_report(out_dir: str, pattern: str, edit) -> None:
    path = next(p for p in os.listdir(out_dir) if p.startswith(pattern) and p.endswith(".json")
                and not p.endswith("_meta.json"))
    path = os.path.join(out_dir, path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload["rows"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with open(path, encoding="utf-8") as fh:
        report_from_json(fh.read())  # the corrupted file is still a valid report


def _first(rows, bound):
    return next(r for r in rows if r["bound"] == bound)


def _corrupt_tail_csv(out_dir: str) -> None:
    path = os.path.join(out_dir, next(p for p in os.listdir(out_dir)
                                      if p.endswith("_estimates.csv")))
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[3].split(",")  # the t = 2 point
    cells[2] = cells[3] = cells[4] = "0.0"  # estimate, lo, hi
    lines[3] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


CORRUPTIONS = {
    "exact": lambda d: _corrupt_report(
        d, "exact", lambda rows: rows[0].update(verdict="fail")),
    "hightemp": lambda d: _corrupt_report(
        d, "hightemp_", lambda rows: _first(rows, "percolation_condition").update(
            verdict="unresolved")),
    "lowtemp": lambda d: _corrupt_report(
        d, "lowtemp_", lambda rows: rows.remove(_first(rows, "tail_stretched_heldout"))),
    "tail-chain": _corrupt_tail_csv,
}


@pytest.mark.parametrize("name", run.NAMES)
def test_corrupted_output_raises_fail_frac(name, tmp_path):
    workload = workloads.WORKLOADS[name](1, str(tmp_path), True, ROOT)
    out_dir = str(tmp_path / "out")
    with contextlib.redirect_stdout(io.StringIO()):
        assert workload.call(out_dir) == 0
    attempted, failed = workload.check(out_dir)
    assert attempted >= 1 and failed == 0
    CORRUPTIONS[name](out_dir)
    attempted, failed = workload.check(out_dir)
    assert failed / attempted > 0


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(str(tmp_path), "--workload", "exact", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spans_nest_per_thread_and_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)), None)
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)], None)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    recs = tracer.spans
    outers = [i for i, s in enumerate(recs) if s.name == "outer"]
    assert len(outers) == 2 and all(recs[i].parent is None for i in outers)
    for s in recs:
        if s.name == "inner":
            assert s.parent in outers and recs[s.parent].thread == s.thread
    own = spans.self_times(recs)
    for i in outers:
        children = sum(s.end - s.start for s in recs if s.parent == i)
        assert own[i] == pytest.approx(recs[i].end - recs[i].start - children)
        assert 0.0 <= own[i] < recs[i].end - recs[i].start
