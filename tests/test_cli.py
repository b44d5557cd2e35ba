import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from privest.cli import main
from privest.experiments import parse_csv


def test_mech_sample_writes_draws(tmp_path):
    out = tmp_path / "draws.csv"
    code = main([
        "mech-sample", "--mechanism", "l2_ball", "--x", "0.3,0.4", "--eps", "1.0",
        "--radius", "1", "--n", "50", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "z0,z1"
    assert len(lines) == 51
    from privest.core import PrivacyLevel
    from privest.mechanisms import l2_bound_B

    bound = l2_bound_B(2, 1.0, PrivacyLevel(1.0))
    row = np.array([float(v) for v in lines[1].split(",")])
    assert np.linalg.norm(row) == pytest.approx(bound, rel=1e-12)


def test_mech_sample_scalar_channel(tmp_path):
    out = tmp_path / "rr.csv"
    assert main([
        "mech-sample", "--mechanism", "sign_rr", "--x", "1", "--eps", str(math.log(3.0)),
        "--n", "200", "--seed", "0", "--out", str(out),
    ]) == 0
    values = {float(line) for line in out.read_text().splitlines()[1:]}
    assert all(abs(abs(v) - 2.0) < 1e-9 for v in values)


def test_bench_preset_roundtrip(tmp_path):
    out = tmp_path / "bench.csv"
    summary = tmp_path / "summary.csv"
    code = main([
        "bench", "--preset", "sparse-mean", "--seed", "5", "--out", str(out),
        "--summary-out", str(summary),
    ])
    assert code == 0
    records = parse_csv(out)
    assert records and {r.mechanism for r in records} == {"optimal", "nonprivate"}
    assert summary.read_text().startswith("experiment,mechanism,n,mean,p5,p95")


def test_bench_config_and_determinism(tmp_path):
    config = {
        "name": "cfg_run",
        "estimator": "mean_vector",
        "mechanism": "optimal",
        "eps": 0.5,
        "n_grid": [64, 128],
        "d": 2,
        "replicates": 3,
        "generator": {"kind": "bernoulli_product", "freqs": [0.3, 0.6]},
        "seed": 7,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["bench", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_bench_requires_source(tmp_path):
    assert main(["bench", "--out", str(tmp_path / "x.csv")]) == 2


def test_bench_bad_config_returns_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"name": "x"}))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


def _run_cli(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "privest.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_out_of_domain_record_exits_2_without_traceback(tmp_path):
    proc = _run_cli(
        "mech-sample", "--mechanism", "l2_ball", "--x", "2,0", "--out", str(tmp_path / "o.csv")
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [proc.stderr.strip()]
    assert "exceeds the channel radius" in proc.stderr
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("mechanism", ["linf_ball", "l2_ball"])
def test_nan_record_exits_2(tmp_path, mechanism):
    proc = _run_cli(
        "mech-sample", "--mechanism", mechanism, "--x", "nan,0", "--n", "3",
        "--out", str(tmp_path / "z.csv"),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "exceeds the channel radius" in proc.stderr
    assert not (tmp_path / "z.csv").exists()


def test_io_error_returns_3(tmp_path):
    assert main([
        "bench", "--preset", "sparse-mean", "--out", str(tmp_path / "nodir" / "x.csv"),
    ]) == 3


def test_estimate_outputs_json(tmp_path, capsys):
    cfg = tmp_path / "est.json"
    cfg.write_text(json.dumps({
        "estimator": "median",
        "n": 500,
        "eps": 1.0,
        "seed": 3,
        "generator": {"kind": "bounded_uniform", "radius": 1.0},
        "options": {"radius": 1.0},
    }))
    assert main(["estimate", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimator"] == "median"
    assert -1.0 <= payload["estimate"] <= 1.0


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "est.json"
    cfg.write_text(json.dumps({
        "estimator": "mean_scalar",
        "n": 100,
        "eps": 1.0,
        "generator": {"kind": "bounded_uniform", "radius": 1.0},
        "options": {"moment_k": "inf"},
    }))
    monkeypatch.setenv("LDP_SEED", "21")
    assert main(["estimate", "--config", str(cfg)]) == 0
    first = json.loads(capsys.readouterr().out)["estimate"]
    assert main(["estimate", "--config", str(cfg)]) == 0
    second = json.loads(capsys.readouterr().out)["estimate"]
    assert first == second
    monkeypatch.setenv("LDP_SEED", "22")
    assert main(["estimate", "--config", str(cfg)]) == 0
    third = json.loads(capsys.readouterr().out)["estimate"]
    assert third != first


def test_rates_curve(tmp_path):
    out = tmp_path / "rates.csv"
    assert main([
        "rates", "--curve", "mean", "--k", "2", "--eps", "1.0",
        "--n-grid", "100,10000", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "label,n,value"
    assert lines[2].endswith("0.01") or "0.01" in lines[2]


def test_audit_subcommand_passes(capsys):
    assert main(["audit", "--eps", "1.0", "--d-max", "4", "--mc", "50000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("PASS") for line in lines)
    assert not any(line.startswith("FAIL") for line in lines)
