"""The four benchmark workloads: inputs, the timed call, and the output gate.

Each workload is built once per process from its seed (that is set-up) and
then called repeatedly; every call writes into its own output directory and
is checked from the files it wrote.  A gate returns (attempted, failed)
operations, where an operation is a report row with a pass/fail/unresolved
verdict, a tail point checked against an exact reference, or the invocation
itself.
"""

from __future__ import annotations

import csv
import glob
import json
import os

from scipy import stats

from spinconc import cli, fields, models, verify
from spinconc.bounds import report_from_json

# 4x4 volumes (2^16 states) sit beside the battery's 2^6..2^10 joints so both
# the Python-overhead and the array-work regimes of the exact layer show.
EXACT_EXTRA_VOLUMES = [(3, 3, 0.3, "plus"), (4, 4, 0.1, "plus"),
                       (4, 4, 0.2, "plus"), (4, 4, 0.25, "free")]
HIGHTEMP_SAMPLES = 10000
LOWTEMP_COUNTS = {"n_pair": 5000, "n_tail": 6250, "n_ell": 1250}
TAIL_CHAIN_CONFIG = {
    "model": {"kind": "markov", "n_sites": 6, "initial": [0.5, 0.5],
              "transition": [[0.8, 0.2], [0.3, 0.7]]},
    "function": {"kind": "total_spin"},
    "t_grid": [0.5, 1.0, 2.0, 4.0],
    "n_samples": 1000,
    "sweeps": 15,
}
# chance that the tail-chain gate flags one correct point
TAIL_MISS_RATE = 1e-5

# Smallest inputs the package accepts, for the benchmark's self-test only.
TINY = {
    "exact": EXACT_EXTRA_VOLUMES[:1],
    "hightemp": {"n_samples": 1000, "sweeps": 5},
    "lowtemp": {"rows": 8, "cols": 8, "n_pair": 4000, "n_tail": 6000, "n_ell": 500,
                "sweeps": 30},
    "tail-chain": {"sweeps": 3},
}


def _report(out_dir: str, pattern: str):
    paths = glob.glob(os.path.join(out_dir, pattern))
    if len(paths) != 1:
        return None
    with open(paths[0], "r", encoding="utf-8") as fh:
        return report_from_json(fh.read())


def _write_json(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def verdict_ops(report) -> tuple[int, int]:
    """Rows that carry a verdict, and how many of them failed."""
    judged = [r for r in report.rows if r.verdict in ("pass", "fail", "unresolved")]
    return len(judged), sum(1 for r in judged if r.verdict == "fail")


class Exact:
    """`verify.exact_battery` over the battery plus Ising volumes up to 4x4."""

    name = "exact"

    def __init__(self, seed: int, work_dir: str, tiny: bool = False, root: str = "."):
        extra = TINY["exact"] if tiny else EXACT_EXTRA_VOLUMES
        self.model_list = verify.battery_models(seed) + [
            models.ising_rect(r, c, beta, boundary) for r, c, beta, boundary in extra]

    def call(self, out_dir: str) -> int:
        report = verify.exact_battery(model_list=self.model_list, t_points=20)
        verify.write_artifacts(out_dir, "exact", report=report)
        return 0

    def check(self, out_dir: str) -> tuple[int, int]:
        report = _report(out_dir, "exact.json")
        if report is None:
            return 1, 1
        return verdict_ops(report)


class Hightemp:
    """`spinconc hightemp` on the committed 8x8 config at a reduced N."""

    name = "hightemp"

    def __init__(self, seed: int, work_dir: str, tiny: bool = False, root: str = "."):
        with open(os.path.join(root, "configs", "hightemp_8x8.json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg["n_samples"] = HIGHTEMP_SAMPLES
        cfg.update(TINY["hightemp"] if tiny else {})
        cfg["seed"] = seed
        self.config = _write_json(os.path.join(work_dir, "hightemp.json"), cfg)

    def call(self, out_dir: str) -> int:
        return cli.run(["hightemp", "--config", self.config, "--out", out_dir])

    def check(self, out_dir: str) -> tuple[int, int]:
        """Criterion-8 conditions: the percolation row and every resolvable
        tail row pass."""
        report = _report(out_dir, "hightemp_*.json")
        if report is None:
            return 1, 1
        attempted, failed = verdict_ops(report)
        for r in report.rows:
            must_pass = (r.bound == "percolation_condition"
                         or (r.bound == "tail_exponential" and r.params.get("resolvable")))
            if must_pass and r.verdict == "unresolved":
                failed += 1
        if not any(r.bound == "percolation_condition" for r in report.rows):
            attempted, failed = attempted + 1, failed + 1
        return attempted, failed


class Lowtemp:
    """`spinconc lowtemp` on the committed 16x16 config, counts cut to 1/16."""

    name = "lowtemp"

    def __init__(self, seed: int, work_dir: str, tiny: bool = False, root: str = "."):
        with open(os.path.join(root, "configs", "lowtemp_16x16.json"), encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg.update(LOWTEMP_COUNTS)
        cfg.update(TINY["lowtemp"] if tiny else {})
        cfg["seed"] = seed
        self.n_heldout = len(cfg["quantiles"])
        self.config = _write_json(os.path.join(work_dir, "lowtemp.json"), cfg)

    def call(self, out_dir: str) -> int:
        return cli.run(["lowtemp", "--config", self.config, "--out", out_dir])

    def check(self, out_dir: str) -> tuple[int, int]:
        """Criterion-9 conditions: the rank test and every held-out row pass;
        a missing held-out row counts as a failed operation."""
        report = _report(out_dir, "lowtemp_*.json")
        if report is None:
            return 1, 1
        attempted, failed = verdict_ops(report)
        rank = [r for r in report.rows if r.bound == "decay_rank_test"]
        held = [r for r in report.rows if r.bound == "tail_stretched_heldout"]
        missing = (1 - len(rank)) + (self.n_heldout - len(held))
        failed += sum(1 for r in rank + held if r.verdict == "unresolved") + missing
        return attempted + missing, failed


class TailChain:
    """`spinconc tail` on a 6-site Markov chain, against its exact tails."""

    name = "tail-chain"

    def __init__(self, seed: int, work_dir: str, tiny: bool = False, root: str = "."):
        cfg = dict(TAIL_CHAIN_CONFIG, seed=seed)
        cfg.update(TINY["tail-chain"] if tiny else {})
        self.config = _write_json(os.path.join(work_dir, "tail.json"), cfg)
        joint = models.exact_joint(models.model_from_config(cfg["model"]))
        g = fields.build_function(cfg["function"], joint.sites, joint.alphabet)
        table = joint.function_table(g)
        self.exact = {float(t): joint.exact_tail(table, float(t)) for t in cfg["t_grid"]}

    def call(self, out_dir: str) -> int:
        return cli.run(["tail", "--config", self.config, "--out", out_dir])

    def check(self, out_dir: str) -> tuple[int, int]:
        """Each estimate's upper end must reach the exact P(|g-Eg| >= t).

        The upper end is the program's own `hi` widened to a one-sided
        Clopper-Pearson bound at level 1 - TAIL_MISS_RATE.  The program's
        99% `hi` alone misses a correct answer with probability 0.5% per
        point whenever no atom of g falls between t_effective and t (here
        t = 2 and t = 4), which would flip the gate on about one seed in a
        hundred with nothing broken.
        """
        paths = glob.glob(os.path.join(out_dir, "tail_*_estimates.csv"))
        if len(paths) != 1:
            return 1, 1
        with open(paths[0], "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        upper = {}
        for r in rows:
            n = int(r["n_samples"])
            k = round(float(r["estimate"]) * n)
            wide = 1.0 if k >= n else float(stats.beta.ppf(1.0 - TAIL_MISS_RATE, k + 1, n - k))
            upper[float(r["t"])] = max(float(r["hi"]), wide)
        failed = sum(1 for t, p in self.exact.items()
                     if t not in upper or upper[t] < p)
        return len(self.exact), failed


WORKLOADS = {cls.name: cls for cls in (Exact, Hightemp, Lowtemp, TailChain)}
