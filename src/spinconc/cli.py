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
from collections.abc import Callable
from dataclasses import dataclass, field

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


def _summary_lines(report: BoundReport) -> list[str]:
    lines = [f"experiment: {report.meta.get('experiment', '?')}", report.summary()]
    by_name = Counter((r.bound, r.verdict) for r in report.rows)
    names = []
    for r in report.rows:
        if r.bound not in names:
            names.append(r.bound)
    for name in names:
        cells = ", ".join(f"{v} {by_name[(name, v)]}"
                          for v in ("pass", "fail", "unresolved", "info")
                          if by_name.get((name, v)))
        lines.append(f"  {name:<28} {cells}")
    return lines


def _exact_failures(report: BoundReport) -> int:
    return sum(1 for r in report.rows
               if r.verdict == "fail" and r.observed_kind == "exact")


def _status(report: BoundReport) -> int:
    return EXIT_CHECK_FAILED if _exact_failures(report) else EXIT_OK


# ---------------------------------------------------------------------------
# per-command configs and runs
# ---------------------------------------------------------------------------
# run(config, digested) -> (report or None, tables, summary lines of a
# run without a report); `digested` is the config dict the stem digests.
# Runs call verify through the module, so patched attributes are seen.

@dataclass
class BatteryConfig:
    seed: int = 101
    t_points: int = 20


def _run_battery(config: BatteryConfig, digested: dict):
    report = verify.exact_battery(verify.battery_models(config.seed), config.t_points)
    report.meta["battery_seed"] = config.seed
    return report, {}, []


@dataclass
class TailConfig:
    seed: int
    model: dict = field(default_factory=lambda: {"kind": "ising", "volume": [4, 4], "beta": 0.2})
    function: dict = field(default_factory=lambda: {"kind": "magnetization"})
    t_grid: tuple = (0.05, 0.1, 0.2, 0.4)
    n_samples: int = 20000
    sweeps: int = 30


def _run_tail(config: TailConfig, digested: dict):
    model = models.model_from_config(config.model)
    try:
        g = fields.build_function(config.function, model.sites, model.alphabet)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad function config: {exc}") from exc
    if not set(g.sites) <= set(model.sites):
        raise ConfigError(f"function {g.name} reads sites outside the model volume")
    estimates, cert = verify.empirical_tail(model, g, config.t_grid, config.n_samples,
                                            config.sweeps, config.seed)
    meta = {"experiment": "empirical_tail", "model": model.name,
            "function": g.name, "config": digested, "seed": config.seed}
    if cert is not None:
        meta["mixing_certificate"] = vars(cert)
    blob = json.dumps({"meta": meta,
                       "estimates": [vars(e) for e in estimates]},
                      sort_keys=True, separators=(",", ":"))
    tables = {"estimates.csv": verify.tails_to_csv(estimates), "meta.json": blob + "\n"}
    lines = [f"experiment: empirical_tail  model: {model.name}  function: {g.name}"]
    lines += [f"  t={e.t:<10.6g} tail={e.estimate:<12.6g} ci99=[{e.lo:.6g}, {e.hi:.6g}]"
              for e in estimates]
    if cert is not None:
        lines.append(f"  mixing: {cert.apart} of {cert.pairs} pairs apart after "
                     f"{cert.sweeps} sweeps, d_TV <= {cert.hi:.6g} (widens every interval)")
    return None, tables, lines


@dataclass
class CouplingMatrixConfig:
    seed: int = 0
    model: dict = field(default_factory=lambda: {"kind": "ising", "volume": [3, 3], "beta": 0.3})
    p_orders: tuple = (2, 4)


def _run_coupling_matrix(config: CouplingMatrixConfig, digested: dict):
    if min(config.p_orders, default=1) < 1:
        raise ConfigError("p_orders entries must be at least 1")
    model = models.model_from_config(config.model)
    joint = models.exact_joint(model)
    data = coupling.envelope_and_moment_matrices(joint, p_orders=config.p_orders,
                                                 lower=True)
    norms = {"envelope": bounds.operator_norm_l2(data.envelope)}
    tables = {"envelope.csv": _matrix_csv(data.envelope),
              "lower.csv": _matrix_csv(data.lower_envelope),
              "upper.csv": _matrix_csv(data.upper_envelope)}
    for q, mat in data.moment.items():
        tables[f"moment{q}.csv"] = _matrix_csv(mat)
        norms[f"moment{q}"] = bounds.operator_norm_l2(mat)
    meta = {"experiment": "coupling_matrices", "model": model.name,
            "config": digested, "seed": config.seed, "operator_norms": norms}
    tables["meta.json"] = json.dumps(meta, sort_keys=True,
                                     separators=(",", ":")) + "\n"
    lines = [f"experiment: coupling_matrices  model: {model.name}"]
    lines += [f"  |{name}|_2->2 = {value:.12g}" for name, value in norms.items()]
    return None, tables, lines


#: the largest side of a random transport instance: at most 16 support points
SIDE_CAP = 4


@dataclass
class TransportConfig:
    seed: int
    n_instances: int = 50


def _run_transport(config: TransportConfig, digested: dict):
    if config.n_instances < 1:
        raise ConfigError("n_instances must be at least 1")
    rng = np.random.default_rng(config.seed)
    report = BoundReport(meta={"experiment": "transport_suite",
                               "config": digested, "seed": config.seed})
    for idx in range(config.n_instances):
        a = int(rng.integers(2, SIDE_CAP + 1))
        b = int(rng.integers(2, SIDE_CAP + 1))
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
    return report, {}, []


def _run_hightemp(config: verify.HightempConfig, digested: dict):
    return verify.hightemp_experiment(config), {}, []


def _run_lowtemp(config: verify.LowtempConfig, digested: dict):
    ell_tail, psi, report = verify.lowtemp_experiment(config)
    lines = ["j,ell_tail,psi"]
    for j, tail in enumerate(ell_tail, start=1):
        psi_j = repr(float(psi[j - 1])) if j - 1 < len(psi) else ""
        lines.append(f"{j},{float(tail)!r},{psi_j}")
    return report, {"profile.csv": "\n".join(lines) + "\n"}, []


# ---------------------------------------------------------------------------
# the command table and the one path every command takes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Command:
    help: str
    config: type
    run: Callable
    samples: str | None     # the config field --samples sets; None: no --samples


_COMMANDS = {
    "battery": _Command("run every exact check over the model battery",
                        BatteryConfig, _run_battery, None),
    "tail": _Command("Monte Carlo tail estimates for one model and observable",
                     TailConfig, _run_tail, "n_samples"),
    "coupling-matrix": _Command("enumerate envelope and moment coupling matrices",
                                CouplingMatrixConfig, _run_coupling_matrix, None),
    "transport": _Command("optimal-transport solver checks on random instances",
                          TransportConfig, _run_transport, None),
    "hightemp": _Command("high-temperature tail experiment with exact gating",
                         verify.HightempConfig, _run_hightemp, "n_samples"),
    "lowtemp": _Command("low-temperature decay and held-out tail experiment",
                        verify.LowtempConfig, _run_lowtemp, "n_tail"),
}


def _configure(name: str, args):
    """The validated config of one command, its digested dict and its stem."""
    command = _COMMANDS[name]
    cfg = verify.load_config(args.config) if args.config else {}
    if args.seed is not None:
        cfg["seed"] = args.seed
    if command.samples and args.samples is not None:
        cfg[command.samples] = args.samples
    config = verify._config_from_dict(command.config, cfg, name)
    digested = verify.config_dict(config)
    del digested["seed"]  # the digest hashes it beside the config
    digest = verify.config_digest(digested, config.seed)
    return config, digested, f"{name.replace('-', '')}_{digest}_s{config.seed}"


def _run_command(name: str, args) -> int:
    config, digested, stem = _configure(name, args)
    report, tables, lines = _COMMANDS[name].run(config, digested)
    paths = verify.write_artifacts(args.out, stem, report=report, tables=tables)
    if report is not None:
        lines = _summary_lines(report)
    print("\n".join(lines + [f"wrote {p}" for p in paths]))
    return EXIT_OK if report is None else _status(report)


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
    print("\n".join(_summary_lines(report)))
    worst = [r for r in report.rows if r.verdict == "fail"]
    for r in worst[:10]:
        print(f"  FAIL {r.model} {r.function} {r.bound}: "
              f"observed {r.observed!r} vs bound {r.theoretical!r}")
    return _status(report)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinconc",
        description="Exact and Monte Carlo checks of coupling-matrix "
                    "concentration bounds on finite spin systems.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="set the config's seed")
        p.add_argument("--out", default="artifacts",
                       help="output directory (default: artifacts)")
        if command.samples:
            p.add_argument("--samples", type=int, default=None,
                           help=f"set the config's {command.samples}")
    p = sub.add_parser("report", help="re-render a previously written report JSON")
    p.add_argument("--config", default=None, help="report JSON path")
    return parser


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags already
        return int(exc.code or 0)
    try:
        if args.subcommand == "report":
            return _cmd_report(args)
        return _run_command(args.subcommand, args)
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
