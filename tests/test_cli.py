"""Command-line interface: subcommands, exit codes, outputs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fedchain import scenario
from fedchain.cli import main


@pytest.fixture()
def config_path(tmp_path):
    doc = {
        "seed": 3,
        "rounds": 4,
        "fairness_interval": 2,
        "dataset": {
            "n_clients": 3,
            "samples_per_client": [8, 8, 8],
            "dim": 3,
            "noise": 0.05,
            "behaviors": ["honest", "honest", "honest"],
        },
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_then_audit(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "complete" in printed

    assert main(["audit", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "ok" in printed


def test_run_summary_is_the_report_summary(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    (run_dir,) = out.iterdir()
    report = json.loads((run_dir / "report.json").read_text())
    summary = report["summary"]
    assert capsys.readouterr().out.splitlines() == [
        f"run {report['run_id']} complete: {summary['rounds']} rounds, "
        f"{summary['clients']} clients, total payout {summary['total_payout']}",
        f"artifacts: {run_dir}",
    ]


def test_run_writes_artifacts(config_path, tmp_path):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out)])
    run_dirs = list(out.iterdir())
    assert len(run_dirs) == 1
    names = {p.name for p in run_dirs[0].iterdir()}
    assert {"report.json", "gas.csv", "rewards.csv", "ledger.bin", "attribution.jsonl", "blobs"} <= names


def test_gas_sweep_prints_csv(config_path, tmp_path, capsys):
    csv_out = tmp_path / "gas.csv"
    code = main([
        "gas-sweep", "--config", str(config_path), "--sizes", "10,100", "--out", str(csv_out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.splitlines()[0] == "param_size,register,submit,aggregate,validate,distribute"
    assert csv_out.read_text() == printed


def assert_one_line_config_error(capsys, caplog):
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write --out: ") and err.count("\n") == 1
    assert not caplog.records  # no "unhandled failure" traceback


def test_run_out_on_a_file_exits_2_before_the_run(config_path, tmp_path, capsys, caplog,
                                                  monkeypatch):
    out = tmp_path / "out"
    out.write_text("")
    monkeypatch.setattr(scenario, "run_scenario", lambda _: pytest.fail("the scenario ran"))
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert_one_line_config_error(capsys, caplog)


def test_gas_sweep_out_on_a_directory_exits_2(config_path, tmp_path, capsys, caplog):
    code = main(["gas-sweep", "--config", str(config_path), "--sizes", "10", "--out",
                 str(tmp_path)])
    assert code == 2
    assert_one_line_config_error(capsys, caplog)


def test_config_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 1}))  # missing rounds/dataset
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("content", [
    b'{"seed": 1, "min_stake": ' + b"9" * 5000 + b"}",  # over json's integer-digit limit
    b'{"seed": 1, "rounds": "\xff"}',  # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,  # nested past the recursion limit
], ids=["5000_digit_int", "not_utf8", "nested_100000_deep"])
def test_undecodable_config_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "config error: config is not valid JSON: " in capsys.readouterr().err


def test_zero_gas_intercept_exits_2(tmp_path, capsys):
    doc = {
        "seed": 1,
        "rounds": 1,
        "gas": {"system_cost": 0},
        "dataset": {"n_clients": 1, "samples_per_client": [5], "dim": 2, "noise": 0.0},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "bad gas model" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("alpha", 10**40), ("tau", "1" + "0" * 40)])
def test_out_of_range_decimal_exits_2(config_path, tmp_path, capsys, key, value):
    doc = json.loads(config_path.read_text())
    config_path.write_text(json.dumps({**doc, key: value}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert f"config error: {key}: fixed-point value out of range" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2


def test_unreadable_config_path_exits_2(tmp_path, capsys):
    # a directory cannot be read as a config file
    assert main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: config file cannot be read" in err
    assert "Traceback" not in err


def test_audit_without_run_exits_1(tmp_path, capsys):
    assert main(["audit", "--out", str(tmp_path)]) == 1
    assert "error" in capsys.readouterr().err


def test_unexpected_failure_exits_1(config_path, tmp_path, capsys, caplog, monkeypatch):
    def fail(config):
        raise RuntimeError("boom")

    monkeypatch.setattr(scenario, "run_scenario", fail)
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    assert "error: boom" in capsys.readouterr().err.splitlines()
    assert [r.getMessage() for r in caplog.records] == ["unhandled failure"]


def test_audit_detects_tamper_exits_1(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out)])
    run_dir = next(out.iterdir())
    blob = sorted((run_dir / "blobs").iterdir())[0]
    data = bytearray(blob.read_bytes())
    data[-1] ^= 0xFF
    blob.write_bytes(bytes(data))
    assert main(["audit", "--out", str(out)]) == 1


def test_audit_names_a_tampered_csv(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out)])
    (next(out.iterdir()) / "rewards.csv").write_text("round,client,score,payout\n")
    capsys.readouterr()
    assert main(["audit", "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "  rewards.csv: differs\n" in printed and "  gas.csv: ok\n" in printed


def test_bad_sizes_exits_2(config_path, tmp_path):
    assert main(["gas-sweep", "--config", str(config_path), "--sizes", "ten"]) == 2


def test_audit_names_a_missing_report(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", "--config", str(config_path), "--out", str(out)])
    (next(out.iterdir()) / "report.json").unlink()
    capsys.readouterr()
    assert main(["audit", "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "FAILED (chain: ok)" in printed and "  report.json: missing\n" in printed


def test_module_entry_point_runs_and_audits(tmp_path):
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def fedchain(*args):
        return subprocess.run([sys.executable, "-m", "fedchain", *args], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)

    out = tmp_path / "out"
    done = fedchain("run", "--config", "configs/baseline.json", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert fedchain("audit", "--out", str(out)).returncode == 0
    (next(out.iterdir()) / "report.json").unlink()
    done = fedchain("audit", "--out", str(out))
    assert done.returncode == 1 and "report.json: missing" in done.stdout
