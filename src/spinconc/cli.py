"""Command-line entry point.

Every subcommand reads a JSON config, runs one experiment, writes its
machine-readable artifacts (JSON + CSV) into the output directory, and
prints a one-screen summary.  Artifact names embed a digest of the
effective configuration and the seed, so reruns with the same inputs
land on the same files with identical bytes.

Exit codes: 0 = no exact-path failure, 1 = some exactly evaluated check
failed, 2 = invalid configuration or arguments, 3 = capacity exceeded.
Monte Carlo refutations stay visible in the report files and the summary
but do not flip the process status.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

import numpy as np

from spinconc import bounds, coupling, fields, models, verify
from spinconc.bounds import BoundReport, BoundRow, classify_tail_row, report_from_json
from spinconc.errors import CapacityError, ConfigError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_CAPACITY = 3


def _matrix_csv(matrix: np.ndarray) -> str:
    lines = [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(matrix)]
    return "\n".join(lines) + "\n"


def _print_summary(report: BoundReport, paths: list[str]) -> None:
    print(f"experiment: {report.meta.get('experiment', '?')}")
    print(report.summary())
    by_name = Counter((r.bound, r.verdict) for r in report.rows)
    names = []
    for r in report.rows:
        if r.bound not in names:
            names.append(r.bound)
    for name in names:
        cells = ", ".join(f"{v} {by_name[(name, v)]}"
                          for v in ("pass", "fail", "unresolved", "info")
                          if by_name.get((name, v)))
        print(f"  {name:<28} {cells}")
    for p in paths:
        print(f"wrote {p}")


def _exact_failures(report: BoundReport) -> int:
    return sum(1 for r in report.rows
               if r.verdict == "fail" and r.observed_kind == "exact")


def _status(report: BoundReport) -> int:
    return EXIT_CHECK_FAILED if _exact_failures(report) else EXIT_OK


def _required_seed(cfg: dict, args) -> int:
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("a seed is required (config key 'seed' or --seed)")
    return int(seed)


def _load(args) -> dict:
    return verify.load_config(args.config) if args.config else {}


def _cmd_battery(args) -> int:
    cfg = _load(args)
    extras = set(cfg) - {"seed", "t_points"}
    if extras:
        raise ConfigError(f"unknown battery config keys: {sorted(extras)}")
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 101))
    t_points = int(cfg.get("t_points", 20))
    effective = {"t_points": t_points}
    report = verify.exact_battery(threads=args.threads, t_points=t_points, seed=seed)
    stem = f"battery_{verify.config_digest(effective, seed)}_s{seed}"
    paths = verify.write_artifacts(args.out, stem, report=report)
    _print_summary(report, paths)
    return _status(report)


def _cmd_tail(args) -> int:
    cfg = _load(args)
    allowed = {"seed", "model", "function", "t_grid", "n_samples", "sweeps", "start"}
    extras = set(cfg) - allowed
    if extras:
        raise ConfigError(f"unknown tail config keys: {sorted(extras)}")
    seed = _required_seed(cfg, args)
    model_cfg = cfg.get("model", {"kind": "ising", "volume": [4, 4], "beta": 0.2})
    model = models.model_from_config(model_cfg)
    fn_cfg = cfg.get("function", {"kind": "magnetization"})
    try:
        g = fields.build_function(fn_cfg, model.sites, model.alphabet)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad function config: {exc}") from exc
    n_samples = int(args.samples if args.samples is not None
                    else cfg.get("n_samples", 20000))
    sweeps = int(cfg.get("sweeps", 30))
    start = cfg.get("start", "plus")
    t_grid = [float(t) for t in cfg.get("t_grid", [0.05, 0.1, 0.2, 0.4])]
    effective = {"model": model_cfg, "function": fn_cfg, "t_grid": t_grid,
                 "n_samples": n_samples, "sweeps": sweeps, "start": start}
    estimates = verify.empirical_tail(model, g, t_grid, n_samples, sweeps,
                                      seed, start)
    stem = f"tail_{verify.config_digest(effective, seed)}_s{seed}"
    meta = {"experiment": "empirical_tail", "model": model.name,
            "function": g.name, "config": effective, "seed": seed}
    blob = json.dumps({"meta": meta,
                       "estimates": [vars(e) for e in estimates]},
                      sort_keys=True, separators=(",", ":"))
    paths = verify.write_artifacts(
        args.out, stem, tables={"estimates.csv": verify.tails_to_csv(estimates),
                                "meta.json": blob + "\n"})
    print(f"experiment: empirical_tail  model: {model.name}  function: {g.name}")
    for e in estimates:
        print(f"  t={e.t:<10.6g} tail={e.estimate:<12.6g} "
              f"ci99=[{e.lo:.6g}, {e.hi:.6g}]")
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_coupling_matrix(args) -> int:
    cfg = _load(args)
    allowed = {"seed", "model", "p_orders"}
    extras = set(cfg) - allowed
    if extras:
        raise ConfigError(f"unknown coupling-matrix config keys: {sorted(extras)}")
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    model_cfg = cfg.get("model", {"kind": "ising", "volume": [3, 3], "beta": 0.3})
    p_orders = tuple(int(p) for p in cfg.get("p_orders", [2, 4]))
    model = models.model_from_config(model_cfg)
    joint = models.exact_joint(model)
    data = coupling.envelope_and_moment_matrices(joint, p_orders=p_orders)
    effective = {"model": model_cfg, "p_orders": list(p_orders)}
    stem = f"couplingmatrix_{verify.config_digest(effective, seed)}_s{seed}"
    norms = {"envelope": bounds.operator_norm_l2(data.envelope)}
    tables = {"envelope.csv": _matrix_csv(data.envelope),
              "lower.csv": _matrix_csv(data.lower_envelope),
              "upper.csv": _matrix_csv(data.upper_envelope)}
    for q, mat in data.moment.items():
        tables[f"moment{q}.csv"] = _matrix_csv(mat)
        norms[f"moment{q}"] = bounds.operator_norm_l2(mat)
    meta = {"experiment": "coupling_matrices", "model": model.name,
            "config": effective, "seed": seed, "operator_norms": norms}
    tables["meta.json"] = json.dumps(meta, sort_keys=True,
                                     separators=(",", ":")) + "\n"
    paths = verify.write_artifacts(args.out, stem, tables=tables)
    print(f"experiment: coupling_matrices  model: {model.name}")
    for name, value in norms.items():
        print(f"  |{name}|_2->2 = {value:.12g}")
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_transport(args) -> int:
    cfg = _load(args)
    allowed = {"seed", "n_instances", "support_cap", "gibbs_pair"}
    extras = set(cfg) - allowed
    if extras:
        raise ConfigError(f"unknown transport config keys: {sorted(extras)}")
    seed = _required_seed(cfg, args)
    n_instances = int(cfg.get("n_instances", 50))
    support_cap = int(cfg.get("support_cap", 16))
    effective = {"n_instances": n_instances, "support_cap": support_cap,
                 "gibbs_pair": bool(cfg.get("gibbs_pair", True))}
    rng = np.random.default_rng(seed)
    report = BoundReport(meta={"experiment": "transport_suite",
                               "config": effective, "seed": seed})
    side_cap = max(2, int(np.sqrt(support_cap)))
    for idx in range(n_instances):
        a = int(rng.integers(2, side_cap + 1))
        b = int(rng.integers(2, side_cap + 1))
        p = rng.dirichlet(np.ones(a))
        q = rng.dirichlet(np.ones(b))
        cost = rng.uniform(0.0, 1.0, size=(a, b))
        plan = coupling.kr_optimal_coupling(p, q, cost)
        report.add(classify_tail_row(
            BoundRow("random_pair", f"instance_{idx}", "transport_dual_gap",
                     {"shape": [a, b]}, 0.0, observed=plan.dual_gap,
                     observed_kind="exact"), tol=1e-9))
        report.add(classify_tail_row(
            BoundRow("random_pair", f"instance_{idx}", "transport_marginals",
                     {"shape": [a, b]}, 0.0, observed=plan.marginal_error,
                     observed_kind="exact"), tol=1e-12))
    if effective["gibbs_pair"]:
        jp = models.exact_joint(models.ising_rect(2, 2, 0.4, "plus"))
        jq = models.exact_joint(models.ising_rect(2, 2, 0.4, "minus"))
        fns = [fields.magnetization(jp.sites), fields.single_spin(jp.sites[0])]
        vals = np.asarray(jp.alphabet.values)
        # per-site budget = alphabet span, the largest any observable can move
        phi = float(vals.max() - vals.min()) * np.ones(len(jp.sites))
        chain = coupling.verify_transport_chain(jp, jq, fns, phi)
        report.add(classify_tail_row(
            BoundRow("ising[2x2]_b0.4", "pair", "transport_chain",
                     {"functions": [f.name for f in fns]},
                     0.0, observed=0.0 if chain.all_ok else 1.0,
                     observed_kind="exact",
                     note="mean-gap/disagreement chain on the +/- boundary pair"),
            tol=0.0))
    stem = f"transport_{verify.config_digest(effective, seed)}_s{seed}"
    paths = verify.write_artifacts(args.out, stem, report=report)
    _print_summary(report, paths)
    return _status(report)


def _cmd_hightemp(args) -> int:
    cfg = _load(args)
    if args.seed is not None:
        cfg["seed"] = int(args.seed)
    if args.samples is not None:
        cfg["n_samples"] = int(args.samples)
    config = verify.hightemp_config_from_dict(cfg)
    report = verify.hightemp_experiment(config)
    stem = f"hightemp_{verify.config_digest(config.as_dict(), config.seed)}_s{config.seed}"
    paths = verify.write_artifacts(args.out, stem, report=report)
    _print_summary(report, paths)
    return _status(report)


def _cmd_lowtemp(args) -> int:
    cfg = _load(args)
    if args.seed is not None:
        cfg["seed"] = int(args.seed)
    if args.samples is not None:
        cfg["n_tail"] = int(args.samples)
    config = verify.lowtemp_config_from_dict(cfg)
    profile, report = verify.lowtemp_experiment(config)
    stem = f"lowtemp_{verify.config_digest(config.as_dict(), config.seed)}_s{config.seed}"
    lines = ["j,ell_tail,psi"]
    psi = np.asarray(profile.psi, dtype=float)
    for j, tail in enumerate(np.asarray(profile.ell0_tail, dtype=float), start=1):
        psi_j = repr(float(psi[j - 1])) if j - 1 < len(psi) else ""
        lines.append(f"{j},{float(tail)!r},{psi_j}")
    paths = verify.write_artifacts(args.out, stem, report=report,
                                   tables={"profile.csv": "\n".join(lines) + "\n"})
    _print_summary(report, paths)
    return _status(report)


def _cmd_report(args) -> int:
    if not args.config:
        raise ConfigError("report needs --config pointing at a report JSON")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            report = report_from_json(fh.read())
    except FileNotFoundError as exc:
        raise ConfigError(f"report file not found: {args.config}") from exc
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(f"not a report file: {exc}") from exc
    _print_summary(report, [])
    worst = [r for r in report.rows if r.verdict == "fail"]
    for r in worst[:10]:
        print(f"  FAIL {r.model} {r.function} {r.bound}: "
              f"observed {r.observed!r} vs bound {r.theoretical!r}")
    return _status(report)


_COMMANDS = {
    "battery": _cmd_battery,
    "tail": _cmd_tail,
    "coupling-matrix": _cmd_coupling_matrix,
    "transport": _cmd_transport,
    "hightemp": _cmd_hightemp,
    "lowtemp": _cmd_lowtemp,
    "report": _cmd_report,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinconc",
        description="Exact and Monte Carlo checks of coupling-matrix "
                    "concentration bounds on finite spin systems.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
        ("battery", "run every exact check over the model battery"),
        ("tail", "Monte Carlo tail estimates for one model and observable"),
        ("coupling-matrix", "enumerate envelope and moment coupling matrices"),
        ("transport", "optimal-transport solver checks on random instances"),
        ("hightemp", "high-temperature tail experiment with exact gating"),
        ("lowtemp", "low-temperature decay and held-out tail experiment"),
        ("report", "re-render a previously written report JSON"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default="artifacts",
                       help="output directory (default: artifacts)")
        p.add_argument("--samples", type=int, default=None,
                       help="override the main sample count")
        if name == "battery":
            p.add_argument("--threads", type=int, default=0,
                           help="battery worker threads, 0 = all cores")
    return parser


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags already
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.subcommand](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
