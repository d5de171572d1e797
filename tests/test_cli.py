import filecmp
import json
from pathlib import Path

import pytest

from spinconc import coupling, models
from spinconc.cli import _configure, _parser, run

ROOT = Path(__file__).resolve().parents[1]


def _files(path):
    return sorted(p.name for p in path.iterdir())


def test_battery_runs_clean(tmp_path):
    out = str(tmp_path)
    assert run(["battery", "--out", out]) == 0
    names = _files(tmp_path)
    assert len(names) == 2
    assert names[0].startswith("battery_") and "_s101" in names[0]
    with open(tmp_path / names[1], "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    assert blob["meta"]["experiment"] == "exact_battery"
    assert blob["meta"]["battery_seed"] == 101
    assert all(r["verdict"] == "pass" for r in blob["rows"])


def test_battery_reproduces_committed_artifacts(tmp_path):
    config = ROOT / "configs" / "battery_small.json"
    assert run(["battery", "--config", str(config), "--out", str(tmp_path)]) == 0
    stem = "battery_0175aa03_s101"
    assert _files(tmp_path) == [f"{stem}.csv", f"{stem}.json"]
    for name in _files(tmp_path):
        assert filecmp.cmp(tmp_path / name, ROOT / "artifacts" / name, shallow=False)


def test_hightemp_reproduces_committed_artifacts(tmp_path):
    config = ROOT / "configs" / "hightemp_8x8.json"
    assert run(["hightemp", "--config", str(config), "--out", str(tmp_path)]) == 0
    stem = "hightemp_9418f63e_s20260818"
    assert _files(tmp_path) == [f"{stem}.csv", f"{stem}.json"]
    for name in _files(tmp_path):
        assert filecmp.cmp(tmp_path / name, ROOT / "artifacts" / name, shallow=False)


def test_missing_config_is_exit_2(tmp_path):
    assert run(["tail", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path)]) == 2


def test_invalid_json_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(["battery", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_unknown_config_key_is_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "typo_key": 2}))
    assert run(["transport", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_seed_is_required_for_sampling(tmp_path):
    assert run(["tail", "--out", str(tmp_path)]) == 2
    assert run(["transport", "--out", str(tmp_path)]) == 2


def test_unknown_subcommand_is_exit_2(tmp_path, capsys):
    assert run(["bogus"]) == 2
    # no command takes --threads: the battery runs on every core
    for command in ("battery", "hightemp"):
        assert run([command, "--seed", "1", "--threads", "2", "--out", str(tmp_path)]) == 2
    # --samples belongs to tail, hightemp and lowtemp alone
    for command in ("battery", "coupling-matrix", "transport"):
        assert run([command, "--seed", "1", "--samples", "5", "--out", str(tmp_path)]) == 2
    # report reads --config alone
    report = str(ROOT / "artifacts" / "battery_0175aa03_s101.json")
    for flag in ("--seed", "--samples", "--out"):
        assert run(["report", "--config", report, flag, "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, cfg", [
    ("hightemp", {"seed": 1, "rows": "x"}),
    ("transport", {"seed": 1, "n_instances": "abc"}),
    ("lowtemp", {"seed": 1, "quantiles": 0.5}),
    ("tail", {"seed": 1, "function": "magnetization"}),
    ("tail", {"seed": 1, "model": {"kind": "ising", "volume": [4, 4], "beta": "hot"}}),
    ("tail", {"seed": 1, "model": {"kind": "ising", "volume": [0, 4], "beta": 0.2}}),
    ("battery", 5),
    # integer keys refuse fractions and booleans
    ("hightemp", {"seed": 1, "rows": 8.7}),
    ("hightemp", {"seed": 1, "rows": True}),
    # ranges are checked by the experiment before its first sample
    ("hightemp", {"seed": 1, "rows": 0}),
    ("lowtemp", {"seed": 1, "quantiles": [1.5]}),
    ("tail", {"seed": 1, "sweeps": -1}),
    ("lowtemp", {"seed": 1, "n_tail": 1000}),  # what `--samples 1000` sets
    # an empty tail grid checks nothing
    ("battery", {"t_points": 0}),
    # a JSON boolean is not a number
    ("hightemp", {"seed": 1, "beta": True}),
    ("tail", {"seed": 1, "t_grid": [True, 0.1]}),
    ("tail", {"seed": 1, "model": {"kind": "ising", "volume": [4, 4], "beta": True}}),
    ("coupling-matrix", {"p_orders": [0]}),
    # numbers in model and function specs follow the same rules
    ("tail", {"seed": 1, "model": {"kind": "ising", "volume": [2.7, 2], "beta": 0.2}}),
    ("tail", {"seed": 1, "model": {"kind": "ising", "volume": [2, 2], "beta": 0.2,
                                   "external_field": True}}),
    ("tail", {"seed": 1, "model": {"kind": "iid", "n_sites": 4, "p_plus": True}}),
    ("tail", {"seed": 1, "function": {"kind": "majority", "count": True}}),
    ("tail", {"seed": 1, "t_grid": ["0.5"]}),
    ("tail", {"seed": 1, "function": {"kind": "magnetization", "normalized": "no"}}),
    # hightemp checks its tail batch before the fit joint
    ("hightemp", {"seed": 1, "sweeps": -1}),
    ("hightemp", {"seed": 1, "n_samples": 999}),
    # a string is not a number, even one that parses as an integer
    ("hightemp", {"seed": 1, "rows": "8"}),
    # a majority needs between one site and the whole volume
    ("tail", {"seed": 1, "function": {"kind": "majority", "count": 0}}),
    # transport checks its ranges before the first LP
    ("transport", {"seed": 1, "n_instances": -3}),
    # numpy's generators take no negative seed
    ("battery", {"seed": -1}),
    ("tail", {"seed": -1}),
    ("coupling-matrix", {"seed": -1}),
    ("transport", {"seed": -1}),
    ("hightemp", {"seed": -1}),
    ("lowtemp", {"seed": -1}),
    # a dict boundary names collar sites only: not an inside site, not a far one
    ("tail", {"seed": 1, "model": {"kind": "ising", "volume": [2, 2], "beta": 0.3,
                                   "boundary": {"0,0": "+"}}}),
    ("tail", {"seed": 1, "model": {"kind": "ising", "volume": [2, 2], "beta": 0.3,
                                   "boundary": {"5,5": "-"}}}),
    # a tail grid that checks nothing, or a t no tail is defined at
    ("tail", {"seed": 1, "t_grid": [], "n_samples": 1000}),
    ("tail", {"seed": 1, "t_grid": [0.1, -0.2], "n_samples": 1000}),
    ("tail", {"seed": 1, "t_grid": [0.1, float("nan")], "n_samples": 1000}),
    # a dict-boundary symbol outside the alphabet
    ("tail", {"seed": 1, "model": {"kind": "ising", "volume": [2, 2], "beta": 0.3,
                                   "boundary": {"-1,0": "x"}}}),
    # product and chain laws must be laws: the exact and the sampled paths
    # read anything else differently
    ("tail", {"seed": 1, "model": {"kind": "iid", "n_sites": 4, "p_plus": 1.5}}),
    ("coupling-matrix", {"model": {"kind": "iid", "n_sites": 4, "p_plus": 1.5}}),
    ("tail", {"seed": 1, "model": {"kind": "product", "n_sites": 2, "p_plus": [0.5, -0.1]}}),
    ("tail", {"seed": 1, "model": {"kind": "markov", "n_sites": 4, "initial": [0.3, 0.3],
                                   "transition": [[0.5, 0.5], [0.5, 0.5]]}}),
    ("tail", {"seed": 1, "model": {"kind": "markov", "n_sites": 4, "initial": [1.2, -0.2],
                                   "transition": [[0.5, 0.5], [0.5, 0.5]]}}),
    ("tail", {"seed": 1, "model": {"kind": "markov", "n_sites": 4, "initial": [0.5, 0.5],
                                   "transition": [[1.5, -0.5], [0.5, 0.5]]}}),
    # a key the spec does not read, and a volume that is not two sides
    ("tail", {"seed": 1, "model": {"kind": "ising", "volume": [3, 3], "beta": 0.2,
                                   "boundry": "minus"}}),
    ("tail", {"seed": 1, "model": {"kind": "ising", "volume": [3, 3, 7], "beta": 0.2}}),
    ("tail", {"seed": 1, "function": {"kind": "magnetization", "normalised": False}}),
    # a bad t_grid on a product model, which draws exactly, not through the kernel
    ("tail", {"seed": 1, "model": {"kind": "iid", "n_sites": 4}, "t_grid": [-1.0]}),
])
def test_malformed_config_is_exit_2(tmp_path, capsys, monkeypatch, command, cfg):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a malformed config reached a sampler or a joint")

    # every sampler builds its chunk jobs through models._batch
    for module, name in ((models, "_batch"), (coupling, "kr_optimal_coupling"),
                         (models, "exact_joint")):
        monkeypatch.setattr(module, name, no_sampling)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([*command.split(), "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("tail", "start", "plus"),
    ("hightemp", "start", "plus"),
    ("lowtemp", "start", "plus"),
    ("lowtemp", "frozen", 0),
    ("transport", "gibbs_pair", True),
    # the levels every run left at one value are module constants now
    ("lowtemp", "theta", 0.9),
    ("lowtemp", "kappa", 3.0),
    ("lowtemp", "spearman_dmax", 3),
    ("lowtemp", "p_list", [1, 2, 3]),
    ("lowtemp", "rho_grid", [0.25, 0.5]),
    ("lowtemp", "eps", 0.5),
    ("hightemp", "t_multipliers", [0.5, 1.0, 2.0, 4.0, 8.0]),
    ("hightemp", "fit_rows", 4),
    ("hightemp", "fit_cols", 4),
    ("transport", "support_cap", 16),
])
def test_retired_config_key_is_exit_2(tmp_path, capsys, monkeypatch, command, key, value):
    # every chain starts all-plus, the pair chain pins the spiral origin, the
    # transport suite always checks its Gibbs pair, and the levels above are
    # fixed: a config that still sets one of these keys, even to the one
    # value it had, names it and stops
    def no_sampling(*args, **kwargs):
        raise AssertionError("a config with a retired key reached a sampler or a joint")

    for module, name in ((models, "_batch"), (models, "exact_joint"),
                         (coupling, "kr_optimal_coupling")):
        monkeypatch.setattr(module, name, no_sampling)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, key: value}))
    assert run([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and repr(key) in err


def test_function_outside_the_model_is_exit_2(tmp_path, capsys):
    for function in ({"kind": "single_spin", "site": 5},
                     {"kind": "single_spin", "site": [9, 9]}):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "function": function}))
        assert run(["tail", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, flags, stem", [
    ("battery", "battery_small.json", [], "battery_0175aa03_s101"),
    ("tail", "tail_4x4.json", [], "tail_017154f5_s7"),
    ("coupling-matrix", "coupling_3x3.json", [], "couplingmatrix_19d9e2af_s0"),
    ("transport", "transport_small.json", [], "transport_91ce8641_s9"),
    ("hightemp", "hightemp_8x8.json", [], "hightemp_9418f63e_s20260818"),
    ("lowtemp", "lowtemp_16x16.json", [], "lowtemp_304ececf_s20260818"),
    # --samples sets tail's n_samples and lowtemp's n_tail
    ("tail", "tail_4x4.json", ["--samples", "5000"], "tail_02997169_s7"),
    ("lowtemp", "lowtemp_16x16.json", ["--samples", "5000"], "lowtemp_d34f1b2c_s20260818"),
    # --seed is applied before the digest, which hashes it beside the config
    ("tail", "tail_4x4.json", ["--seed", "8"], "tail_432bada1_s8"),
    ("hightemp", "hightemp_8x8.json", ["--seed", "8"], "hightemp_ce3bd95c_s8"),
])
def test_committed_config_stems(command, config, flags, stem):
    args = _parser().parse_args([command, "--config", str(ROOT / "configs" / config), *flags])
    assert _configure(command, args)[2] == stem


def test_capacity_overflow_is_exit_3(tmp_path):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(
        {"model": {"kind": "ising", "volume": [6, 6], "beta": 0.2}}))
    assert run(["coupling-matrix", "--config", str(cfg),
                "--out", str(tmp_path)]) == 3


_OVER_CAP = models.MAX_REPLICAS + 1


@pytest.mark.parametrize("command, cfg", [
    ("tail", {"seed": 1, "n_samples": _OVER_CAP}),
    ("hightemp", {"seed": 1, "n_samples": _OVER_CAP}),
    ("lowtemp", {"seed": 1, "n_pair": _OVER_CAP}),
    ("lowtemp", {"seed": 1, "n_ell": _OVER_CAP}),
    ("lowtemp", {"seed": 1, "n_tail": _OVER_CAP}),
])
def test_replica_count_above_the_cap_is_exit_3_before_any_sample(
        tmp_path, capsys, monkeypatch, command, cfg):
    def no_sampling(*args, **kwargs):
        raise AssertionError("an over-cap count reached the heat-bath kernel")

    for module in (models, coupling):
        monkeypatch.setattr(module, "_heat_bath", no_sampling)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "replica cap" in capsys.readouterr().err


def test_tail_seed_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["tail", "--seed", "7", "--samples", "2000",
                    "--out", str(out)]) == 0
    names = _files(a)
    assert names == _files(b)
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False)
    assert any("_s7_" in n for n in names)


def test_tail_writes_the_mixing_certificate_of_a_sampled_law_only(tmp_path):
    # the default 4x4 Ising law is kernel-sampled and certified; a Markov
    # chain's law is drawn exactly and gets no certificate
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"seed": 7, "model": {
        "kind": "markov", "n_sites": 6, "initial": [0.5, 0.5],
        "transition": [[0.8, 0.2], [0.3, 0.7]]}, "function": {"kind": "total_spin"}}))
    metas = []
    for name, args in (("ising", ["--seed", "7"]), ("chain", ["--config", str(chain)])):
        out = tmp_path / name
        assert run(["tail", *args, "--samples", "2000", "--out", str(out)]) == 0
        [path] = [n for n in _files(out) if n.endswith("_meta.json")]
        metas.append(json.loads((out / path).read_text())["meta"])
    assert metas[0]["mixing_certificate"]["pairs"] == 6144
    assert "mixing_certificate" not in metas[1]


def test_transport_suite_passes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "n_instances": 10}))
    assert run(["transport", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_hightemp_cold_volume_fails_the_gate(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "rows": 4, "cols": 4, "beta": 1.0,
                               "n_samples": 1000, "sweeps": 5}))
    assert run(["hightemp", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_report_rerenders_artifacts(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "n_instances": 5}))
    assert run(["transport", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    report_path = next(p for p in tmp_path.iterdir() if p.suffix == ".json"
                       and p.name.startswith("transport_"))
    capsys.readouterr()
    assert run(["report", "--config", str(report_path)]) == 0
    shown = capsys.readouterr().out
    assert "transport_dual_gap" in shown
    assert run(["report", "--config", str(cfg)]) == 2  # not a report file
