import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privest import audit
from privest.cli import _CHANNELS, build_parser, main
from privest.core import ConfigError, ParameterError, PrivacyLevel, make_rng
from privest.estimators import (
    MomentAssumption,
    density_estimate,
    private_logistic_sgd,
    private_mean_scalar,
    private_mean_vector,
    private_median_sgd,
    sparse_mean,
)
from privest.experiments import ESTIMATORS, parse_csv, spec_from_config
from privest.generators import make_generator
from privest.mechanisms import Channel


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


@pytest.mark.parametrize("mechanism", ["sign_rr", "naive_median", "truncated_laplace"])
def test_mech_sample_scalar_channel_rejects_a_vector_record(tmp_path, capsys, mechanism):
    out = tmp_path / "z.csv"
    assert main(["mech-sample", "--mechanism", mechanism, "--x", "1,1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "records have dimension 1" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--x", "abc"), ("--x", ","), ("--x", "1,-"),
                                         ("--x", "0.1,,0.2"), ("--x", "0.3,"), ("--x", ",0.3"),
                                         ("--n", "-1"), ("--n", "0"), ("--n", "1e3")])
def test_mech_sample_bad_argument_exits_2(tmp_path, capsys, flag, value):
    out = tmp_path / "z.csv"
    argv = ["mech-sample", "--mechanism", "linf_ball", f"{flag}={value}", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not out.exists()


# mech-sample name -> (flags, the channel those flags name, built directly); eps 0.7, n 30
_NAMED_CHANNELS = {
    "l2_ball": (["--x=0.3,-0.4", "--radius=2"], lambda lv: Channel.l2_ball(2, 2.0, lv)),
    "linf_ball": (["--x=0.3,-0.4,1.5", "--radius=2"],
                  lambda lv: Channel.linf_ball(3, 2.0, lv)),
    "sign_rr": (["--x=-1"], lambda lv: Channel.sign_rr(lv)),
    "laplace_vector": (["--x=0.3,0.4", "--radius=2", "--sensitivity-norm=l2_paper"],
                       lambda lv: Channel.laplace_vector(2, 2.0, lv, "l2_paper")),
    "naive_median": (["--x=0.2", "--radius=2"], lambda lv: Channel.naive_median(2.0, lv)),
    "truncated_laplace": (["--x=0.2", "--radius=2", "--moment-k=4"],
                          lambda lv: Channel.truncated_laplace(MomentAssumption(4.0, 2.0), 30, lv)),
}


def test_every_mech_sample_name_is_checked():
    assert sorted(_NAMED_CHANNELS) == sorted(_CHANNELS)


@pytest.mark.parametrize("name", sorted(_NAMED_CHANNELS))
def test_mech_sample_draws_the_channel_of_its_name(tmp_path, name):
    flags, build = _NAMED_CHANNELS[name]
    argv = ["mech-sample", f"--mechanism={name}", *flags, "--eps=0.7", "--n=30", "--seed=5",
            "--out", str(tmp_path / "z.csv")]
    args, level = build_parser().parse_args(argv), PrivacyLevel(0.7)
    x = np.array([float(v) for v in args.x.split(",")])
    assert _CHANNELS[name](args, x.size, level).kind == name == build(level).kind
    assert main(argv) == 0
    rows = (tmp_path / "z.csv").read_text().splitlines()[1:]
    got = np.array([[float(v) for v in row.split(",")] for row in rows])
    want = build(level).privatize_batch(np.broadcast_to(x, (30, x.size)), make_rng(5))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("mechanism", ["l2_ball", "linf_ball", "laplace_vector", "naive_median"])
@pytest.mark.parametrize("radius", ["inf", "nan", "0"])
def test_mech_sample_rejects_a_bad_radius(tmp_path, capsys, mechanism, radius):
    out = tmp_path / "z.csv"
    x = "0" if mechanism == "naive_median" else "0.1,0.2"
    assert main(["mech-sample", "--mechanism", mechanism, "--x", x, "--radius", radius,
                 "--n", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: radius must be finite and > 0, got {float(radius)!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--mechanism=sign_rr", "--x=1", "--eps=5e-324"],
    ["--mechanism=l2_ball", "--x=0.1", "--eps=1e-310"],
    ["--mechanism=naive_median", "--x=0.5", "--eps=1e-300", "--radius=1e10"],
    ["--mechanism=laplace_vector", "--x=0.1,0.2", "--eps=1.2e-308"],
    ["--mechanism=l2_ball", "--x=0.1,0.2", "--eps=1.2e-308"],
    ["--mechanism=linf_ball", "--x=0.1", "--radius=1e308"],
], ids=["phi-divides-by-zero", "phi-overflows", "laplace-scale-overflows",
        "laplace-draws-could-overflow", "l2-bound-overflows", "linf-bound-overflows"])
def test_mech_sample_rejects_a_tiny_eps_before_any_draw(tmp_path, capsys, flags):
    out = tmp_path / "z.csv"
    assert main(["mech-sample", *flags, "--out", str(out)]) == 2
    assert _one_config_error_line(capsys)
    assert not out.exists()


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


def test_bench_config_checks_every_radius_before_any_arm(tmp_path, capsys, monkeypatch):
    import privest.cli

    arms = []
    monkeypatch.setattr(privest.cli, "run_experiment", lambda spec, **kw: arms.append(spec) or [])
    good = {
        "name": "salary", "estimator": "median", "mechanism": "optimal", "eps": 1.0,
        "n_grid": [64], "replicates": 1, "generator": {"kind": "lognormal"},
    }
    # the default radius, twice the true median, is 0 on the centred uniform
    centred = {**good, "name": "centred", "generator": {"kind": "bounded_uniform"}}
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps([good, centred]))
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
    assert "options.radius must be finite and > 0, got 0.0" in capsys.readouterr().err
    assert arms == [] and not out.exists()


@pytest.mark.parametrize("eps", ["inf", "nan", 0.0, 1e-310, 5e-324])
def test_bench_config_checks_every_eps_before_any_arm(tmp_path, capsys, monkeypatch, eps):
    import privest.cli

    arms = []
    monkeypatch.setattr(privest.cli, "run_experiment", lambda spec, **kw: arms.append(spec) or [])
    good = {**_BENCH, "name": "good"}
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps([good, {**good, "name": "bad", "eps": eps}]))
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
    assert _one_config_error_line(capsys)
    assert arms == [] and not out.exists()


@pytest.mark.parametrize("argv", [[], ["--seed", "-1"]], ids=["config", "override"])
def test_bench_config_checks_every_seed_before_any_arm(tmp_path, capsys, monkeypatch, argv):
    import privest.cli

    arms = []
    monkeypatch.setattr(privest.cli, "run_experiment", lambda spec, **kw: arms.append(spec) or [])
    good = {**_BENCH, "name": "good"}
    bad = {**good, "name": "bad", "seed": -1} if not argv else good
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps([good, bad]))
    assert main(["bench", "--config", str(cfg), "--out", str(out), *argv]) == 2
    assert capsys.readouterr().err == "configuration error: seed must be >= 0, got -1\n"
    assert arms == [] and not out.exists()


@pytest.mark.parametrize("env, argv, seeds", [
    ("5", [], [7, 5]),  # an entry without a seed takes LDP_SEED
    (None, [], [7, 0]),  # then 0
    ("abc", ["--seed", "3"], [3, 3]),  # --seed first: LDP_SEED is never read
], ids=["env", "zero", "flag"])
def test_bench_config_seed_precedence(tmp_path, monkeypatch, env, argv, seeds):
    """As in estimate: --seed, then the entry's own seed, then LDP_SEED, then 0."""
    import privest.cli

    arms = []
    monkeypatch.setattr(privest.cli, "run_experiment", lambda spec, **kw: arms.append(spec) or [])
    if env is None:
        monkeypatch.delenv("LDP_SEED", raising=False)
    else:
        monkeypatch.setenv("LDP_SEED", env)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{**_BENCH, "name": "own", "seed": 7}, {**_BENCH, "name": "none"}]))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), *argv]) == 0
    assert [spec.seed for spec in arms] == seeds


def test_bench_config_with_seeds_ignores_a_bad_seed_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LDP_SEED", "abc")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_BENCH, "seed": 7}))
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
    cfg.write_text(json.dumps(_BENCH))  # now LDP_SEED is used, and rejected
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b.csv")]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: LDP_SEED must be an integer, got 'abc'\n"


@pytest.mark.filterwarnings("error")  # numpy's overflow warning would be a second stderr line
@pytest.mark.parametrize("estimator, generator", [
    ("mean_scalar", {"kind": "bounded_uniform"}),
    ("density", {"kind": "trig_density", "coeffs": [0.3]}),
])
def test_a_metric_that_overflows_exits_2_naming_its_cell(tmp_path, capsys, estimator, generator):
    # at eps 1e-300 the estimate is finite but its squared error overflows
    config = {"name": "tiny", "estimator": estimator, "mechanism": "optimal", "eps": 1e-300,
              "n_grid": [64, 128], "replicates": 1, "generator": generator}
    out = tmp_path / "tiny.csv"
    assert main(["bench", "--config", _write(tmp_path, config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: arm tiny/optimal at n = 64, eps = 1e-300: the ")
    assert err.endswith(" is inf, not a finite float\n") and err.count("\n") == 1
    assert not out.exists()


def test_mech_sample_names_an_underflowing_truncation_level(tmp_path, capsys):
    out = tmp_path / "q.csv"
    argv = ["mech-sample", "--mechanism", "truncated_laplace", "--moment-k", "2",
            "--eps", "1e-200", "--x", "0.5", "--n", "3", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == ("configuration error: truncation level T at n = 3, "
                                       "eps = 1e-200 must be finite and > 0, got 0.0\n")
    assert not out.exists()


@pytest.mark.parametrize("change, key", [
    ({"d": 2}, "d"),
    ({"estimator": "median", "generator": {"kind": "lognormal"},
      "options": {"radius_multiplier": 4.0}}, "radius_multiplier"),
], ids=["d", "radius_multiplier"])
def test_bench_config_with_a_removed_field_exits_2(tmp_path, capsys, change, key):
    out = tmp_path / "b.csv"
    assert main(["bench", "--config", _write(tmp_path, {**_BENCH, **change}),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: unknown") and err.count("\n") == 1
    assert f"['{key}']" in err and not out.exists()


@pytest.mark.parametrize("generator, options", [
    ({"kind": "bounded_uniform"}, {"radius": 1.0}),
    ({"kind": "lognormal"}, {"radius": 50000}),
], ids=["uniform", "lognormal"])
def test_bench_config_median_with_a_radius_runs(tmp_path, generator, options):
    config = {
        "name": "m", "estimator": "median", "mechanism": "optimal", "eps": 1.0,
        "n_grid": [16], "replicates": 1, "generator": generator, "options": options,
    }
    cfg, out = tmp_path / "cfg.json", tmp_path / "x.csv"
    cfg.write_text(json.dumps(config))
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(parse_csv(out)) == 1


def _run_cli(*args, timeout=120):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "privest.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


def test_out_of_domain_record_exits_2_without_traceback(tmp_path):
    proc = _run_cli(
        "mech-sample", "--mechanism", "l2_ball", "--x", "2,0", "--out", str(tmp_path / "o.csv")
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "input error: record 0: ||x||_2 = 2 exceeds the radius 1\n"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("mechanism", ["linf_ball", "l2_ball"])
def test_nan_record_exits_2(tmp_path, mechanism):
    proc = _run_cli(
        "mech-sample", "--mechanism", mechanism, "--x", "nan,0", "--n", "3",
        "--out", str(tmp_path / "z.csv"),
    )
    assert proc.returncode == 2
    norm = {"linf_ball": "inf", "l2_ball": "2"}[mechanism]
    assert proc.stderr == f"input error: record 0: ||x||_{norm} = nan exceeds the radius 1\n"
    assert not (tmp_path / "z.csv").exists()


@pytest.mark.parametrize("mechanism", ["naive_median", "truncated_laplace"])
def test_nan_scalar_record_exits_2(tmp_path, mechanism):
    proc = _run_cli(
        "mech-sample", "--mechanism", mechanism, "--x", "nan", "--n", "3",
        "--out", str(tmp_path / "o.csv"),
    )
    assert proc.returncode == 2
    assert proc.stderr == "input error: record 0 is NaN\n"
    assert not (tmp_path / "o.csv").exists()


def test_overflowing_record_norm_prints_one_error_line(tmp_path):
    proc = _run_cli(
        "mech-sample", "--mechanism", "l2_ball", "--x", "1e200,0",
        "--out", str(tmp_path / "o.csv"),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error:")
    assert proc.stderr.count("\n") == 1  # no numpy overflow warning before it
    assert not (tmp_path / "o.csv").exists()


def test_nan_laplace_vector_record_exits_2(tmp_path):
    proc = _run_cli(
        "mech-sample", "--mechanism", "laplace_vector", "--x", "nan,0", "--n", "2",
        "--out", str(tmp_path / "z.csv"),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "l1 mode expects coordinates" in proc.stderr
    assert not (tmp_path / "z.csv").exists()


def test_bench_invalid_sgd_settings_return_2(tmp_path, capsys):
    cfg = tmp_path / "lg.json"
    cfg.write_text(json.dumps({
        "name": "lg", "estimator": "logistic", "mechanism": "optimal", "eps": 1.0,
        "n_grid": [64], "replicates": 2,
        "generator": {"kind": "logistic_model", "theta": [0.0, 0.0]},
        "options": {"gamma0": -1.0, "beta_exp": 3.0},
    }))
    out = tmp_path / "lg.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
    assert "gamma0 must be > 0" in capsys.readouterr().err
    assert not out.exists()


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


def _write(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


def _one_config_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("configuration error:") and err.count("\n") == 1


_BENCH = {
    "name": "b", "estimator": "mean_vector", "mechanism": "optimal", "eps": 0.5,
    "n_grid": [64, 128], "replicates": 2,
    "generator": {"kind": "bernoulli_product", "freqs": [0.3, 0.6]},
}


@pytest.mark.parametrize("config", [
    {**_BENCH, "replicates": 10**12},
    # an order of 20 or more basis functions at n = 16
    {**_BENCH, "estimator": "density", "eps": 1e100, "n_grid": [16, 32],
     "generator": {"kind": "trig_density", "coeffs": [0.3]}},
], ids=["replicates", "basis-order"])
def test_bench_config_too_large_for_its_grid_exits_2(tmp_path, capsys, config):
    out = tmp_path / "x.csv"
    assert main(["bench", "--config", _write(tmp_path, config), "--out", str(out)]) == 2
    assert _one_config_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--preset", "drug-use"], ["--full"],
                                   ["--preset", "drug-use", "--full"]],
                         ids=["preset", "full", "preset-full"])
def test_bench_config_rejects_preset_and_full(tmp_path, capsys, extra):
    out = tmp_path / "x.csv"
    assert main(["bench", "--config", _write(tmp_path, _BENCH), *extra, "--out", str(out)]) == 2
    assert _one_config_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("n", [10**12, 2**61])
def test_a_sample_above_the_size_ceiling_exits_2_before_any_draw(tmp_path, capsys, n):
    # n x d numbers could not be allocated: rejected when the spec is built, on any host
    assert main(["estimate", "--config", _write(tmp_path, {**_ESTIMATE, "n": n})]) == 2
    assert _one_config_error_line(capsys)
    out = tmp_path / "x.csv"
    config = {**_BENCH, "n_grid": [100, n]}
    assert main(["bench", "--config", _write(tmp_path, config), "--out", str(out)]) == 2
    assert _one_config_error_line(capsys)
    assert not out.exists()


def test_a_memory_error_exits_2_with_one_input_error_line(tmp_path, capsys, monkeypatch):
    import privest.cli

    def allocate(spec, **kw):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (10**12,)")

    monkeypatch.setattr(privest.cli, "run_experiment", allocate)
    out = tmp_path / "x.csv"
    assert main(["bench", "--config", _write(tmp_path, _BENCH), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("change", [
    {"n_grid": ["a"]}, {"n_grid": [100.9]}, {"eps": "x"}, {"replicates": 2.7},
    {"generator": [1]}, {"metric": "excess_risk"}, {"options": {"geometry": "bogus"}},
], ids=["n_grid-str", "n_grid-float", "eps-str", "replicates-float", "generator-list",
        "metric", "geometry"])
def test_bench_malformed_config_exits_2(tmp_path, capsys, change):
    out = tmp_path / "b.csv"
    assert main(["bench", "--config", _write(tmp_path, {**_BENCH, **change}),
                 "--out", str(out)]) == 2
    assert _one_config_error_line(capsys)
    assert not out.exists()


_ESTIMATE = {"estimator": "mean_scalar", "n": 100, "generator": {"kind": "bounded_uniform"}}


@pytest.mark.parametrize("config", [
    {**_ESTIMATE, "n": "abc"},
    {**_ESTIMATE, "n": 100.5},
    {"estimator": "mean_scalar", "n": 100},
    {**_ESTIMATE, "estimator": "logistic", "generator": {"kind": "lognormal"}},
    {**_ESTIMATE, "mechanism": "laplace_baseline"},
    {**_ESTIMATE, "options": {"radiuss": 1.0}},
    {**_ESTIMATE, "seed": "seven"},
    [_ESTIMATE],
], ids=["n-str", "n-float", "no-generator", "logistic-lognormal", "mechanism-key",
        "unknown-option", "seed-str", "list"])
def test_estimate_malformed_config_exits_2(tmp_path, capsys, config):
    assert main(["estimate", "--config", _write(tmp_path, config)]) == 2
    assert _one_config_error_line(capsys)


def test_estimate_density_order_above_n_exits_2(tmp_path, capsys):
    # at n = 3 and eps 10 the private order (n eps^2)^(1/4) = 4.16 exceeds n
    config = {"estimator": "density", "n": 3, "eps": 10.0,
              "generator": {"kind": "trig_density", "coeffs": [0.3]}}
    assert main(["estimate", "--config", _write(tmp_path, config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: basis order 4.16179 exceeds n = 3")
    assert err.count("\n") == 1


_STRING_VECTOR = {"kind": "fixed_vector", "value": "ab"}


def test_estimate_string_vector_parameter_exits_2(tmp_path, capsys):
    config = {"estimator": "mean_vector", "n": 100, "generator": _STRING_VECTOR}
    assert main(["estimate", "--config", _write(tmp_path, config)]) == 2
    assert _one_config_error_line(capsys)


def test_bench_string_vector_parameter_exits_2(tmp_path, capsys):
    config = {**_BENCH, "generator": {"kind": "bernoulli_product", "freqs": "ab"}}
    out = tmp_path / "b.csv"
    assert main(["bench", "--config", _write(tmp_path, config), "--out", str(out)]) == 2
    assert _one_config_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("estimator, generator", [
    ("mean_scalar", {"kind": "bounded_uniform", "radius": math.inf}),
    ("mean_scalar", {"kind": "heavy_tail_k", "k": 2.0, "radius_k": math.inf}),
    ("mean_scalar", {"kind": "lognormal", "mu": math.inf}),
    ("mean_scalar", {"kind": "lognormal", "sigma": math.nan}),
    ("logistic", {"kind": "logistic_model", "theta": [math.nan, 1.0]}),
], ids=["uniform-radius", "heavy-tail-radius_k", "lognormal-mu", "lognormal-sigma",
        "logistic-theta"])
def test_estimate_non_finite_generator_parameter_exits_2(tmp_path, capsys, estimator, generator):
    # json.dumps writes the Infinity and NaN literals, which json.load reads back
    config = {"estimator": estimator, "n": 100, "generator": generator}
    assert main(["estimate", "--config", _write(tmp_path, config)]) == 2
    assert _one_config_error_line(capsys)


def test_generator_config_error_keeps_its_message():
    with pytest.raises(ConfigError) as excinfo:
        make_generator({"kind": "fixed_vector", "value": []})
    assert str(excinfo.value) == "fixed vector must be non-empty"


def test_non_integer_seed_env_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LDP_SEED", "abc")
    assert main(["estimate", "--config", _write(tmp_path, _ESTIMATE)]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: LDP_SEED must be an integer, got 'abc'\n"


_LEVEL = PrivacyLevel(0.8)

# case -> (estimator, generator, options, the library estimator on (data, rng));
# the printed estimate equals the library's bit for bit, at d = 1 too
_LIBRARY = {
    "mean_scalar": ("mean_scalar", {"kind": "heavy_tail_k", "k": 3.0}, {"moment_k": 3.0},
                    lambda x, rng: private_mean_scalar(x, MomentAssumption(3.0), _LEVEL, rng)),
    "mean_vector": ("mean_vector", {"kind": "bernoulli_product", "freqs": [0.2, 0.7, 0.4]}, {},
                    lambda x, rng: private_mean_vector(x - 0.5, "linf", 0.5, _LEVEL, rng) + 0.5),
    "mean_vector_d1_linf": ("mean_vector", {"kind": "fixed_vector", "value": [0.3]},
                            {"geometry": "linf"},
                            lambda x, rng: private_mean_vector(x, "linf", 1.0, _LEVEL, rng)),
    "mean_vector_d1_l2": ("mean_vector", {"kind": "fixed_vector", "value": [0.3]},
                          {"geometry": "l2"},
                          lambda x, rng: private_mean_vector(x, "l2", 1.0, _LEVEL, rng)),
    "median": ("median", {"kind": "lognormal"}, {},
               lambda x, rng: private_median_sgd(x, 2.0 * math.exp(10.0), _LEVEL, rng, True)),
    "sparse": ("sparse", {"kind": "fixed_vector", "value": [1.0, 0.0, 0.0, 0.0]}, {"lam": 0.1},
               lambda x, rng: sparse_mean(x, 1.0, _LEVEL, rng, lam=0.1)),
    "logistic": ("logistic", {"kind": "logistic_model", "theta": [0.5, -0.5, 0.0]}, {},
                 lambda s, rng: private_logistic_sgd(s, "l2", math.sqrt(3.0), _LEVEL, rng,
                                                     1.0, 0.6, 5.0)),
    "density": ("density", {"kind": "trig_density", "coeffs": [0.5, 0.0, 0.25]}, {},
                lambda x, rng: density_estimate(x, 1.0, _LEVEL, rng).coeffs),
}


@pytest.mark.parametrize("case", sorted(_LIBRARY))
def test_estimate_is_one_run_of_the_library_estimator(tmp_path, capsys, case):
    estimator, generator, options, reference = _LIBRARY[case]
    n, seed = 3000, 5
    config = {"estimator": estimator, "n": n, "eps": 0.8, "seed": seed,
              "generator": generator, "options": options}
    assert main(["estimate", "--config", _write(tmp_path, config)]) == 0
    got = json.loads(capsys.readouterr().out)["estimate"]
    data = make_generator(generator).sample(n, make_rng(seed, 0, 0))
    # the noise stream of replicate 0 of bench's optimal arm (arm tag 1)
    assert got == np.asarray(reference(data, make_rng(seed, 2, 1, 0))).tolist()


@pytest.mark.parametrize("case", sorted(_LIBRARY))
def test_estimate_is_replicate_0_of_the_bench_optimal_arm(tmp_path, capsys, case):
    # the printed estimate scores exactly the value bench writes for replicate 0 at n
    estimator, generator, options, _ = _LIBRARY[case]
    n, seed = 3000, 5
    config = {"estimator": estimator, "n": n, "eps": 0.8, "seed": seed,
              "generator": generator, "options": options}
    assert main(["estimate", "--config", _write(tmp_path, config)]) == 0
    got = json.loads(capsys.readouterr().out)["estimate"]
    arm = {"name": case, "estimator": estimator, "mechanism": "optimal", "eps": 0.8,
           "n_grid": [n], "replicates": 1, "generator": generator, "seed": seed,
           "options": options}
    out = tmp_path / "b.csv"
    assert main(["bench", "--config", _write(tmp_path, arm), "--out", str(out)]) == 0
    (record,) = parse_csv(out)
    spec = spec_from_config(arm)
    score = ESTIMATORS[estimator].scorer(spec, spec.build_generator())
    assert score(np.asarray(got)) == record.value


_SPARSE_D1 = {"kind": "fixed_vector", "value": [1.0]}
_SPARSE_D4 = {"kind": "fixed_vector", "value": [1.0, 0.0, 0.0, 0.0]}
_DENSITY = {"kind": "trig_density", "coeffs": [0.5, 0.0, 0.25]}
_LOGISTIC = {"kind": "logistic_model", "theta": [0.5, -0.5]}


def _logistic_library(**options):
    return lambda s, rng: private_logistic_sgd(s, "l2", math.sqrt(2.0), _LEVEL, rng, **options)


# case -> (estimator, generator, options, n_grid, the library estimator on (data, rng)),
# each an input the library estimator rejects; bench runs it on every mechanism,
# estimate at n = n_grid[0]
_REJECTED = {
    "sparse-d1": ("sparse", _SPARSE_D1, {}, [64],
                  lambda x, rng: sparse_mean(x, 1.0, _LEVEL, rng)),
    "density-beta-half": ("density", _DENSITY, {"beta": 0.5}, [64],
                          lambda x, rng: density_estimate(x, 0.5, _LEVEL, rng)),
    # rejected before the scorer builds its basis, whose order depends on beta
    "density-beta-neg1": ("density", _DENSITY, {"beta": -1}, [64],
                          lambda x, rng: density_estimate(x, -1.0, _LEVEL, rng)),
    "density-beta-neg-half": ("density", _DENSITY, {"beta": -0.5}, [64],
                              lambda x, rng: density_estimate(x, -0.5, _LEVEL, rng)),
    "density-beta-nan": ("density", _DENSITY, {"beta": "nan"}, [64],
                         lambda x, rng: density_estimate(x, math.nan, _LEVEL, rng)),
    "density-n1": ("density", _DENSITY, {}, [1, 64],
                   lambda x, rng: density_estimate(x, 1.0, _LEVEL, rng, grid=[1, 64])),
    "proj_radius-0": ("logistic", _LOGISTIC, {"proj_radius": 0}, [64],
                      _logistic_library(proj_radius=0.0)),
    "proj_radius-neg": ("logistic", _LOGISTIC, {"proj_radius": -1}, [64],
                        _logistic_library(proj_radius=-1.0)),
    "proj_radius-nan": ("logistic", _LOGISTIC, {"proj_radius": "nan"}, [64],
                        _logistic_library(proj_radius=math.nan)),
    "lam-neg": ("sparse", _SPARSE_D4, {"lam": -1}, [64],
                lambda x, rng: sparse_mean(x, 1.0, _LEVEL, rng, lam=-1.0)),
    "gamma0-0": ("logistic", _LOGISTIC, {"gamma0": 0}, [64], _logistic_library(gamma0=0.0)),
    "beta_exp-1": ("logistic", _LOGISTIC, {"beta_exp": 1.0}, [64],
                   _logistic_library(beta_exp=1.0)),
    "moment_k-1": ("mean_scalar", {"kind": "bounded_uniform"}, {"moment_k": 1.0}, [64],
                   lambda x, rng: private_mean_scalar(x, MomentAssumption(1.0), _LEVEL, rng)),
}


@pytest.mark.parametrize("case", list(_REJECTED))
def test_bench_estimate_and_library_reject_the_same_inputs(tmp_path, capsys, case):
    estimator, generator, options, n_grid, library = _REJECTED[case]
    data = make_generator(generator).sample(n_grid[-1], make_rng(0, 0, 0))
    with pytest.raises(ParameterError):
        library(data, make_rng(0, 2, 0))
    out = tmp_path / "b.csv"
    for mechanism in ESTIMATORS[estimator].mechanisms:
        spec = {"name": case, "estimator": estimator, "mechanism": mechanism, "eps": 0.8,
                "n_grid": n_grid, "replicates": 1, "generator": generator, "options": options}
        code = main(["bench", "--config", _write(tmp_path, spec), "--out", str(out)])
        assert code == 2, mechanism
        assert _one_config_error_line(capsys), mechanism
        assert not out.exists(), mechanism
    config = {"estimator": estimator, "n": n_grid[0], "eps": 0.8, "generator": generator,
              "options": options}
    assert main(["estimate", "--config", _write(tmp_path, config)]) == 2
    assert _one_config_error_line(capsys)


def test_rates_curve(tmp_path):
    out = tmp_path / "rates.csv"
    assert main([
        "rates", "--curve", "mean", "--k", "2", "--eps", "1.0",
        "--n-grid", "100,10000", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "label,n,value"
    assert lines[2].endswith("0.01") or "0.01" in lines[2]


@pytest.mark.parametrize("curve, label, fn, kwargs", [
    ("mean", "mean_rate_k2_eps2", "mean_rate", {"k": 2.0, "eps_form": "eps2"}),
    ("median", "median_rate_eps2", "median_rate", {"radius": 1.0, "eps_form": "eps2"}),
    ("sparse", "sparse_mean_lower_exp", "sparse_mean_lower", {"d": 8}),
    ("logistic", "logistic_lower_exp", "logistic_lower", {"d": 8}),
    ("density", "density_rate_beta1_eps2", "density_rate", {"beta": 1.0, "eps_form": "eps2"}),
    # every beta that series_bandwidth accepts; the exponent 2 beta / (2 beta + 2) was inf / inf
    ("density", "density_rate_beta1e+308_eps2", "density_rate",
     {"beta": 1e308, "eps_form": "eps2"}),
    ("density", "density_rate_betainf_eps2", "density_rate",
     {"beta": math.inf, "eps_form": "eps2"}),
])
def test_rates_rows_for_every_curve(tmp_path, curve, label, fn, kwargs):
    from privest import bounds

    out = tmp_path / "rates.csv"
    grid = (1024, 4096, 16384, 65536)
    # the beta 1 case runs without --beta, so it pins the CLI default
    beta = ["--beta", str(kwargs["beta"])] if kwargs.get("beta", 1.0) != 1.0 else []
    assert main(["rates", "--curve", curve, "--eps", "0.7", *beta, "--out", str(out)]) == 0
    rows = [f"{label},{n},{format(getattr(bounds, fn)(n=n, eps=0.7, **kwargs), '.17g')}"
            for n in grid]
    assert out.read_bytes() == ("\n".join(["label,n,value", *rows]) + "\n").encode()


@pytest.mark.parametrize("curve, grid", [("sparse", "0,10"), ("density", "-5,10")])
def test_rates_rejects_non_positive_n(tmp_path, capsys, curve, grid):
    out = tmp_path / "rates.csv"
    assert main(["rates", "--curve", curve, f"--n-grid={grid}", "--out", str(out)]) == 2
    assert "--n-grid entries must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("curve", ["sparse", "logistic", "mean", "median", "density"])
@pytest.mark.parametrize("eps", ["0", "-1", "nan", "inf", "400"])
def test_rates_rejects_a_bad_eps(tmp_path, capsys, curve, eps):
    # 400 is a privacy level whose (e^eps - 1)^2 overflows a float
    out = tmp_path / "rates.csv"
    code = main(["rates", "--curve", curve, f"--eps={eps}", "--eps-form=exp", "--out", str(out)])
    assert code == 2
    assert _one_config_error_line(capsys)
    assert not out.exists()


def test_rates_rejects_an_infinite_median_radius(tmp_path, capsys):
    out = tmp_path / "rates.csv"
    assert main(["rates", "--curve", "median", "--radius", "inf", "--out", str(out)]) == 2
    assert _one_config_error_line(capsys)
    assert not out.exists()


# at eps 1e-160, eps^2 and (e^eps - 1)^2 are subnormal, so (n eps^2)^-1 overflows, where a
# float ** raises: density_rate reads inf there, and mean_rate its cap of 1
@pytest.mark.parametrize("argv, value", [
    (["--curve=median", "--radius=1e-300", "--eps=1e100"], "0.0"),  # the value underflows
    (["--curve=sparse", "--eps=1e-160"], "inf"),
    *((["--curve=density", f"--beta={beta}", "--eps=1e-160", f"--eps-form={form}"], "inf")
      for beta in ("inf", "1e308") for form in ("eps2", "exp")),
])
def test_rates_rejects_a_value_that_is_not_finite_and_positive(tmp_path, capsys, argv, value):
    out = tmp_path / "rates.csv"
    assert main(["rates", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: rate values must be finite and > 0, got {value} at n = 1024\n")
    assert not out.exists()


@pytest.mark.parametrize("eps_form", ["eps2", "exp"])
@pytest.mark.parametrize("k", ["inf", "1e308"])
def test_rates_mean_reads_its_cap_where_the_power_overflows(tmp_path, k, eps_form):
    out = tmp_path / "rates.csv"
    argv = ["rates", "--curve=mean", f"--k={k}", "--eps=1e-160", f"--eps-form={eps_form}"]
    assert main([*argv, "--n-grid=16,1024", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert rows == [f"mean_rate_k{float(k):g}_{eps_form},{n},1" for n in (16, 1024)]


@pytest.mark.parametrize("grid", ["1e3", "100,abc", "2.5"])
def test_rates_rejects_non_integer_n(tmp_path, capsys, grid):
    out = tmp_path / "rates.csv"
    assert main(["rates", "--curve", "mean", f"--n-grid={grid}", "--out", str(out)]) == 2
    assert "--n-grid entries must be integers" in capsys.readouterr().err
    assert not out.exists()


def test_audit_subcommand_passes(capsys):
    assert main(["audit", "--eps", "1.0", "--d-max", "4", "--mc", "50000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("PASS") for line in lines)
    assert not any(line.startswith("FAIL") for line in lines)


def test_audit_passes_at_eps_20(capsys):
    # 1 - pi_eps by subtraction is off by ~5e-8 relative at eps = 20
    assert main(["audit", "--eps", "20", "--d-max", "2", "--mc", "1000"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("d_max", ["0", "-3"])
def test_audit_rejects_a_d_max_below_one(capsys, d_max):
    assert main(["audit", f"--d-max={d_max}", "--mc", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: --d-max must be >= 1, got {d_max}\n"


@pytest.mark.parametrize("d_max", ["21", "400"])
def test_audit_rejects_a_d_max_above_the_cap_before_any_enumeration(capsys, d_max):
    assert main(["audit", f"--d-max={d_max}", "--mc", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: --d-max must be <= 20, got {d_max}\n"


def test_audit_checks_mc_before_any_enumeration(capsys):
    assert main(["audit", "--d-max", "2", "--mc", "500"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: --mc must be >= 1000, got 500\n"


def test_audit_cube_check_reaches_d16_quickly():
    # one vertex per dimension: an all-vertex check would cost 4^16 vertex products here
    proc = _run_cli("audit", "--d-max", "16", "--mc", "1000", timeout=60)
    assert proc.returncode == 0, proc.stderr
    cube = [line for line in proc.stdout.splitlines() if "cube halfspace mean" in line]
    assert len(cube) == 16 and all(line.startswith("PASS") for line in cube)


def _run_in_process(argv, out=None):
    """``main(argv)``'s exit code and stderr, its stdout into ``out``; an uncaught exception
    propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(out or io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_documented_exit(code, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code in (2, 3):
        assert err.count("\n") == 1
        assert err.startswith(("configuration error:", "input error:", "I/O error:"))


def _assert_finite_csv(path, column=slice(None)):
    """Every value a CLI CSV holds (in ``column`` of each row) is a finite float."""
    rows = Path(path).read_text().splitlines()[1:]
    assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(",")[column])


_X_TOKENS = list("0123456789,.-e") + ["nan", "inf", "abc"]
# phi_eps ~ 2 / eps: finite at 1e-300, infinite at 1e-310, a division by zero at 5e-324;
# at 1.2e-308 phi is finite, but B overflows for d >= 2 and a Laplace draw could
_EPS_TOKENS = ["1", "0.5", "800", "1e-300", "1.2e-308", "1e-310", "5e-324"]
# above the 10**8-number size ceiling only, so that no case allocates: 10**8 + 1 at any d,
# then the int64 ceiling and an int no float holds
_ABOVE_CEILING = [10**8 + 1, 2**63, 10**400]
_NON_INT_TOKENS = ["nan", "1.5", "abc", "1e3"]  # an int flag's argparse type rejects each
_BIG_INT = "1" + "0" * 400  # no float holds it
_RATE_TOKENS = ["0", "-1", "-2.5", "nan", "inf", "1e308", _BIG_INT]
_SEED_TOKENS = ["0", "7", "-1", str(2**63), _BIG_INT, *_NON_INT_TOKENS]


def _flags(flags):
    """``--flag=value`` tokens for each flag whose drawn value is not None (its default)."""
    return [f"{flag}={value}" for flag, value in flags.items() if value is not None]


# coordinates of records in every channel's domain at each radius >= 1 (--radius's default is
# 1): sign_rr takes the signs, laplace_vector's l1 calibration [0, 1]^d, and the rest (l2_paper
# too) ||x||_2 <= 1, which holds for d <= 3 coordinates of at most 0.5 in absolute value
_SIGNS, _UNIT, _BALL = ["1", "-1"], ["0", "0.25", "0.5"], ["-0.5", "-0.25", "0", "0.25", "0.5"]
_SCALAR_CHANNELS = ("sign_rr", "naive_median", "truncated_laplace")


@st.composite
def _mech_sample_args(draw):
    """mech-sample's argv without --out.  In about a third of the examples every part is valid:
    a record of the drawn channel's domain (an l2_paper one outside [0, 1]^d), n >= 1, an eps
    with finite phi and B, and each flag its default or a value that keeps the record inside
    the domain.  Otherwise each part is drawn from the tokens, and most examples fail."""
    valid = draw(st.sampled_from([True, False, False]))
    mechanism = draw(st.sampled_from(sorted(_CHANNELS)))
    norm = draw(st.sampled_from([None, "l1", "l2_paper"]))  # only laplace_vector reads it
    if valid:
        d = 1 if mechanism in _SCALAR_CHANNELS else draw(st.integers(1, 3))
        if mechanism == "sign_rr":
            x = [draw(st.sampled_from(_SIGNS))]
        elif mechanism == "laplace_vector" and norm == "l2_paper":
            x = ["-0.5", *draw(st.lists(st.sampled_from(_BALL), min_size=d - 1, max_size=d - 1))]
        else:
            pool = _UNIT if mechanism == "laplace_vector" else _BALL
            x = draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d))
        x, n = ",".join(x), draw(st.integers(1, 50))
        eps = draw(st.sampled_from(_EPS_TOKENS[:4]))  # phi and B finite
        flags = draw(st.fixed_dictionaries({"--seed": st.sampled_from([None, "0", "7"]),
                                            "--radius": st.sampled_from([None, "1", "2.5"]),
                                            "--moment-k": st.sampled_from([None, "2", "4.5"])}))
    else:
        x = draw(st.lists(st.sampled_from(_X_TOKENS), max_size=10).map("".join))
        n = draw(st.integers(-3, 50) | st.sampled_from([*_ABOVE_CEILING, *_NON_INT_TOKENS]))
        eps = draw(st.sampled_from(_EPS_TOKENS))
        flags = draw(st.fixed_dictionaries(
            {"--seed": st.none() | st.sampled_from(_SEED_TOKENS),
             "--radius": st.none() | st.sampled_from(_RATE_TOKENS),
             "--moment-k": st.none() | st.sampled_from(_RATE_TOKENS)}))
    return ["mech-sample", "--mechanism", mechanism, f"--x={x}", f"--n={n}", f"--eps={eps}",
            *_flags({**flags, "--sensitivity-norm": norm})]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(args=_mech_sample_args())
def test_mech_sample_argv_exits_as_documented(args):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "z.csv")
        code, err = _run_in_process([*args, "--out", out])
        _assert_documented_exit(code, err)
        if code == 0:
            _assert_finite_csv(out)


# each flag's default (None) or a token; --n-grid, which privest parses, takes every token,
# also as the second entry of a grid
_RATE_FLAGS = {"--k": _RATE_TOKENS, "--beta": _RATE_TOKENS, "--radius": _RATE_TOKENS,
               "--d": ["0", "-1", "1", "2", _BIG_INT, "nan", "1.5", "abc"],
               "--n-grid": [*_RATE_TOKENS, *(f"16,{token}" for token in _RATE_TOKENS)]}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(curve=st.sampled_from(["mean", "median", "sparse", "logistic", "density"]),
       eps=st.sampled_from(["1", "0.5", "30", "400", "1e-155", "1e-160", "1e-200", "1e-300",
                            "1e-310", "5e-324", "0", "-1", "nan", "inf"]),
       eps_form=st.sampled_from(["eps2", "exp"]),
       flags=st.fixed_dictionaries({flag: st.sampled_from([None, *tokens])
                                    for flag, tokens in _RATE_FLAGS.items()}))
def test_rates_argv_exits_as_documented(curve, eps, eps_form, flags):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "rates.csv")
        argv = ["rates", "--curve", curve, f"--eps={eps}", f"--eps-form={eps_form}", "--out", out,
                *_flags(flags)]
        code, err = _run_in_process(argv)
        _assert_documented_exit(code, err)
        if code == 0:
            _assert_finite_csv(out, column=slice(2, None))
        else:
            assert not os.path.exists(out)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(d_max=st.integers(-2, 3) | st.sampled_from(_NON_INT_TOKENS),
       mc=st.integers(-5, 2000) | st.sampled_from([1000, *_ABOVE_CEILING, *_NON_INT_TOKENS]),
       seed=st.none() | st.sampled_from(_SEED_TOKENS))
def test_audit_argv_exits_as_documented(d_max, mc, seed):
    out = io.StringIO()
    code, err = _run_in_process(["audit", f"--d-max={d_max}", f"--mc={mc}",
                                 *_flags({"--seed": seed})], out)
    _assert_documented_exit(code, err)
    if code == 2:  # at the default eps, every such error is an argv error, before any row
        assert out.getvalue() == ""


@pytest.mark.parametrize("argv, env", [(["--seed", "-1"], None), ([], "-1")],
                         ids=["flag", "LDP_SEED"])
def test_audit_checks_the_seed_before_any_row(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("LDP_SEED", env)
    assert main(["audit", "--d-max", "2", "--mc", "1000", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("eps", ["0.5", "20"])
def test_audit_prints_the_rows_of_audit_checks(capsys, eps):
    rows = audit.checks(PrivacyLevel(float(eps)), 9, 1000, make_rng(5, 3, 0))
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail else ''}"
             for name, ok, detail in rows]
    assert main(["audit", "--eps", eps, "--d-max", "9", "--mc", "1000", "--seed", "5"]) == 0
    assert capsys.readouterr().out.splitlines() == [*lines, "0 failure(s)"]


_ARGV_EPS_TOKENS = [*_EPS_TOKENS, "0", "-1", "nan", "inf", "abc"]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning is a second stderr line
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(eps=st.sampled_from([None, *_ARGV_EPS_TOKENS]),
       seed=st.sampled_from([None, *_SEED_TOKENS]))
def test_estimate_argv_exits_as_documented(eps, seed):
    config = {"estimator": "mean_scalar", "n": 32, "seed": 1,
              "generator": {"kind": "bounded_uniform", "radius": 1.0}}
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["estimate", "--config", _write(Path(tmp), config),
                *([] if eps is None else [f"--eps={eps}"]),
                *([] if seed is None else [f"--seed={seed}"])]
        out = io.StringIO()
        code, err = _run_in_process(argv, out)
        _assert_documented_exit(code, err)
        assert code in (0, 2, 3)
        if code == 0:
            assert np.isfinite(json.loads(out.getvalue())["estimate"]).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(eps=st.sampled_from([None, *_ARGV_EPS_TOKENS]),
       seed=st.sampled_from([None, *_SEED_TOKENS]),
       preset=st.sampled_from([None, "bogus", "sparse-mean"]), config=st.booleans(),
       full=st.booleans())
def test_bench_argv_exits_as_documented(eps, seed, preset, config, full):
    spec = {"name": "argv", "estimator": "mean_scalar", "mechanism": "optimal", "eps": 1.0,
            "n_grid": [16, 32], "replicates": 1, "seed": 1,
            "generator": {"kind": "bounded_uniform", "radius": 1.0}}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "b.csv")
        # --full only beside --config, which refuses it: no full-scale preset runs here
        argv = ["bench", "--out", out,
                *(["--config", _write(Path(tmp), spec)] if config else []),
                *_flags({"--eps": eps, "--seed": seed, "--preset": preset}),
                *(["--full"] if full and config else [])]
        code, err = _run_in_process(argv)
        _assert_documented_exit(code, err)
        assert code in (0, 2, 3)
        if code == 0:
            _assert_finite_csv(out, column=slice(6, None))
        else:
            assert not os.path.exists(out)


# Config fuzz: a valid config per estimator (together they use every generator kind), with
# keys dropped, added or set to wrong types and extreme numbers in spec fields, options
# and generator parameters.  Grids are small and there is one replicate, so each run is quick.
_FUZZ_BASES = [
    ("mean_scalar", {"kind": "heavy_tail_k", "k": 3.0, "radius_k": 1.0},
     {"moment_k": 3.0, "radius_k": 1.0}),
    ("mean_scalar", {"kind": "bounded_uniform", "radius": 1.0}, {"moment_k": "inf"}),
    ("mean_vector", {"kind": "bernoulli_product", "freqs": [0.3, 0.6]},
     {"geometry": "l2", "radius": 0.5}),
    ("median", {"kind": "lognormal", "mu": 1.0, "sigma": 0.5}, {"one_sided": True, "radius": 6.0}),
    ("sparse", {"kind": "fixed_vector", "value": [1.0, 0.0, 0.0]}, {"radius": 1.0, "lam": None}),
    ("logistic", {"kind": "logistic_model", "theta": [0.5, -0.5]},
     {"geometry": "l2", "radius": 1.5, "gamma0": 1.0, "beta_exp": 0.6, "proj_radius": 5.0}),
    ("density", {"kind": "trig_density", "coeffs": [0.3, -0.2]}, {"beta": 1.0}),
]
_DROP = "<drop>"
_FUZZ_VALUES = st.one_of(
    st.sampled_from([0.5, 2.0, 10, "10", 1e-300, 1e308, -1, 0, math.inf, math.nan]),
    st.sampled_from([True, False, "abc", None, _DROP]),
    st.lists(st.sampled_from([0.5, 10, 1e308, -1, 0, True, "10"]), max_size=3),
)


_TEXT_KEYS = {"name", "estimator", "mechanism", "metric", "generator", "options", "kind"}


def _mutated(data, config):
    """``config`` with one or two keys dropped, changed or added: at its top level, in
    ``options`` or in ``generator``."""
    known = {"options": set(ESTIMATORS[config["estimator"]].options)}
    for _ in range(data.draw(st.integers(1, 2))):
        section = data.draw(st.sampled_from([None, "options", "generator"]))
        target = config if section is None else config.get(section)
        if not isinstance(target, dict):
            continue  # dropped or replaced by an earlier change
        # numeric keys first, where the draws concentrate; then the others and an unknown one
        keys = sorted({*target, *known.get(section, ())}, key=lambda k: (k in _TEXT_KEYS, k))
        key = data.draw(st.sampled_from([*keys, "bogus"]))
        value = data.draw(_FUZZ_VALUES)
        if value == _DROP:
            target.pop(key, None)
        else:
            target[key] = value
    return config


def _fuzz_base(data, estimate):
    estimator, generator, options = data.draw(st.sampled_from(_FUZZ_BASES))
    config = {"estimator": estimator, "eps": data.draw(st.sampled_from([0.5, 2.0])),
              "generator": dict(generator), "options": dict(options), "seed": 1}
    if estimate:
        return {**config, "n": 32}
    mechanism = data.draw(st.sampled_from(ESTIMATORS[estimator].mechanisms))
    return {**config, "name": "fuzz", "mechanism": mechanism, "n_grid": [16, 32],
            "replicates": 1}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning is a second stderr line
@settings(derandomize=True, database=None, deadline=None, max_examples=250)
@given(data=st.data())
def test_bench_config_exits_as_documented(data):
    config = _mutated(data, _fuzz_base(data, estimate=False))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "b.csv")
        code, err = _run_in_process(["bench", "--config", _write(Path(tmp), config),
                                     "--out", out])
        _assert_documented_exit(code, err)
        assert code in (0, 2, 3)
        if code == 0:
            _assert_finite_csv(out, column=slice(6, None))
        else:
            assert not os.path.exists(out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_estimate_config_exits_as_documented(data):
    config = _mutated(data, _fuzz_base(data, estimate=True))
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        code, err = _run_in_process(["estimate", "--config", _write(Path(tmp), config)], out)
        _assert_documented_exit(code, err)
        assert code in (0, 2, 3)
        if code == 0:
            assert np.isfinite(json.loads(out.getvalue())["estimate"]).all()
