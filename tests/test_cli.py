import filecmp
import json
from pathlib import Path

import pytest

from spinconc.cli import run

ROOT = Path(__file__).resolve().parents[1]


def _files(path):
    return sorted(p.name for p in path.iterdir())


def test_battery_runs_clean(tmp_path):
    out = str(tmp_path)
    assert run(["battery", "--out", out, "--threads", "4"]) == 0
    names = _files(tmp_path)
    assert len(names) == 2
    assert names[0].startswith("battery_") and "_s101" in names[0]
    with open(tmp_path / names[1], "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    assert blob["meta"]["experiment"] == "exact_battery"
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
    stem = "hightemp_eb29d58b_s20260818"
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


def test_unknown_subcommand_is_exit_2(capsys):
    assert run(["bogus"]) == 2
    # --threads belongs to the battery alone
    assert run(["hightemp", "--seed", "1", "--threads", "2"]) == 2
    capsys.readouterr()


def test_capacity_overflow_is_exit_3(tmp_path):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps(
        {"model": {"kind": "ising", "volume": [6, 6], "beta": 0.2}}))
    assert run(["coupling-matrix", "--config", str(cfg),
                "--out", str(tmp_path)]) == 3


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
