import math
from dataclasses import replace

import numpy as np
import pytest

from privest.core import ConfigError, ParameterError, make_rng
from privest.estimators import _FOLD_BLOCK, _projection_coeffs, trig_basis_matrix
from privest.experiments import (
    CSV_HEADER,
    ESTIMATORS,
    PRESETS,
    ExperimentSpec,
    RunRecord,
    _prefix_means,
    build_preset,
    emit_csv,
    nearest_rank,
    parse_csv,
    run_experiment,
    spec_from_config,
    summarize,
)


def _tiny_spec(mechanism="optimal", **overrides):
    base = dict(
        name="tiny",
        estimator="mean_vector",
        mechanism=mechanism,
        eps=0.5,
        n_grid=(64, 128),
        d=3,
        replicates=4,
        generator={"kind": "bernoulli_product", "freqs": [0.2, 0.5, 0.7]},
        seed=9,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestPrefixMeans:
    @pytest.mark.parametrize("d", [1, 2, 27, 64])
    @pytest.mark.parametrize("grid", [tuple(2**k for k in range(13)), (3000,)])
    def test_equals_cumsum_rows_bit_for_bit(self, d, grid):
        z = make_rng(40, d).standard_normal((max(grid), d))
        z[:2] = -0.0
        csum = np.cumsum(z, axis=0)
        for layout in (z, np.asfortranarray(z)):
            got = _prefix_means(layout, grid)
            assert [n for n, _ in got] == list(grid)
            for n, mean in got:
                want = csum[n - 1] / n
                assert np.array_equal(mean, want)
                assert np.array_equal(np.signbit(mean), np.signbit(want))


class TestProjectionCoeffs:
    """Streamed non-private density coefficients equal the materialised basis means."""

    @pytest.mark.parametrize("k_for", [
        {1000: 1, 5000: 2, 70_001: 23, 150_007: 64},
        {3: 1, 4100: 16, 9000: 20, 100_003: 47},
        {10: 1, 20: 1},
        {_FOLD_BLOCK // 64: 64, 5 * _FOLD_BLOCK // 64: 64},
    ])
    def test_equals_basis_means_bit_for_bit(self, k_for):
        data = make_rng(45).random(max(k_for) + 13)
        got = _projection_coeffs(data, k_for, trig_basis_matrix)
        basis = trig_basis_matrix(max(k_for.values()), data)
        assert list(got) == list(k_for)
        for n, k in k_for.items():
            assert np.array_equal(got[n], basis[:n, :k].mean(axis=0))


class TestSpecValidation:
    def test_incompatible_pair_lists_valid(self):
        with pytest.raises(ConfigError, match="valid pairs"):
            _tiny_spec(estimator="density", mechanism="laplace_baseline")

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            _tiny_spec(n_grid=())

    def test_non_increasing_grid(self):
        with pytest.raises(ConfigError):
            _tiny_spec(n_grid=(128, 128))

    def test_generator_estimator_compatibility(self):
        with pytest.raises(ConfigError, match="incompatible"):
            _tiny_spec(estimator="median", generator={"kind": "bernoulli_product", "freqs": [0.5]})

    def test_d_must_match_generator(self):
        with pytest.raises(ConfigError, match="d = 27"):
            ExperimentSpec(
                "lg", "logistic", "optimal", 1.0, (64,), 27, 2,
                {"kind": "logistic_model", "theta": [0.0, 0.0]},
            )
        with pytest.raises(ConfigError, match="d = 2"):
            _tiny_spec(d=2)
        # trig_density, like the scalar generators, has dimension 1
        with pytest.raises(ConfigError, match="d = 3"):
            ExperimentSpec(
                "de", "density", "optimal", 1.0, (64,), 3, 2,
                {"kind": "trig_density", "coeffs": [0.5, 0.1, 0.2]},
            )

    def test_metric_default(self):
        assert _tiny_spec().metric == "linf_error"

    def test_spec_from_config_round_trip(self):
        config = {
            "name": "cfg",
            "estimator": "mean_scalar",
            "mechanism": "optimal",
            "eps": 1.0,
            "n_grid": [32, 64],
            "d": 1,
            "replicates": 2,
            "generator": {"kind": "bounded_uniform", "radius": 1.0},
            "options": {"moment_k": 2.0},
        }
        spec = spec_from_config(config)
        assert spec.n_grid == (32, 64)
        with pytest.raises(ConfigError):
            spec_from_config({**config, "bogus": 1})
        with pytest.raises(ConfigError):
            spec_from_config({k: v for k, v in config.items() if k != "name"})


class TestOptionSchema:
    def test_every_preset_spec_round_trips_unchanged(self):
        for name in PRESETS:
            for spec in build_preset(name, seed=2):
                assert set(spec.options) == set(ESTIMATORS[spec.estimator].options)
                assert replace(spec) == spec
                assert replace(spec, replicates=1).options == spec.options

    def test_defaults_depend_on_the_generator(self):
        assert _tiny_spec().options == {"geometry": "linf", "radius": 0.5}
        fixed = _tiny_spec(generator={"kind": "fixed_vector", "value": [0.1, 0.2, 0.3]})
        assert fixed.options["radius"] == 1.0
        salary = ExperimentSpec("m", "median", "optimal", 1.0, (64,), 1, 1,
                                {"kind": "lognormal", "mu": 1.0, "sigma": 0.5},
                                options={"radius_multiplier": 3.0})
        assert salary.options == {"one_sided": True, "radius_multiplier": 3.0,
                                  "radius": 3.0 * math.e}
        logistic = ExperimentSpec("l", "logistic", "optimal", 1.0, (64,), 4, 1,
                                  {"kind": "logistic_model", "theta": [0.0] * 4},
                                  options={"geometry": "linf", "proj_radius": None})
        assert logistic.options["radius"] == 1.0 and logistic.options["proj_radius"] is None

    @pytest.mark.parametrize("options, match", [
        ({"geometry": "bogus"}, "geometry must be one of"),
        ({"radiuss": 0.5}, "unknown mean_vector option keys: \\['radiuss'\\]"),
        ({"radius": "wide"}, "radius must be float"),
        ({"radius": True}, "radius must be float"),
        ({"laplace_range": 1.0}, "laplace_range"),
        ([("geometry", "l2")], "must be a JSON object"),
    ], ids=["geometry", "misspelt", "radius-str", "radius-bool", "laplace_range", "list"])
    def test_bad_mean_vector_options(self, options, match):
        with pytest.raises(ConfigError, match=match):
            _tiny_spec(options=options)

    @pytest.mark.parametrize("estimator, generator, options, match", [
        ("median", {"kind": "bounded_uniform"}, {"one_sided": "false"}, "one_sided must be bool"),
        ("median", {"kind": "bounded_uniform"}, {"one_sided": 0}, "one_sided must be bool"),
        ("density", {"kind": "trig_density", "coeffs": [0.5]}, {"quad_nodes": 4096}, "quad_nodes"),
    ], ids=["one_sided-str", "one_sided-int", "quad_nodes"])
    def test_bad_scalar_options(self, estimator, generator, options, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentSpec("x", estimator, "optimal", 1.0, (64,), 1, 1, generator, options=options)

    def test_float_option_takes_a_numeric_string(self):
        spec = ExperimentSpec("ms", "mean_scalar", "optimal", 1.0, (64,), 1, 1,
                              {"kind": "bounded_uniform"}, options={"moment_k": "inf"})
        assert spec.options["moment_k"] == math.inf

    @pytest.mark.parametrize("estimator, generator, d, metric", [
        ("median", {"kind": "bounded_uniform"}, 1, "linf_error"),
        ("density", {"kind": "trig_density", "coeffs": [0.5]}, 1, "l2_error_sq"),
        ("mean_scalar", {"kind": "bounded_uniform"}, 1, "excess_risk"),
        ("logistic", {"kind": "logistic_model", "theta": [0.0]}, 1, "l2_density_error"),
        ("sparse", {"kind": "fixed_vector", "value": [1.0, 0.0]}, 2, "l1_error"),
    ], ids=["median", "density", "mean_scalar", "logistic", "sparse"])
    def test_metric_must_belong_to_the_estimator(self, estimator, generator, d, metric):
        with pytest.raises(ConfigError, match=f"metric '{metric}' does not apply"):
            ExperimentSpec("x", estimator, "optimal", 1.0, (64,), d, 1, generator, metric=metric)

    @pytest.mark.parametrize("field, value, match", [
        ("n_grid", ["a"], "n_grid entry must be int"),
        ("n_grid", [100.9], "n_grid entry must be int"),
        ("n_grid", 100, "n_grid must be a list"),
        ("replicates", 2.7, "replicates must be int"),
        ("eps", "x", "eps must be float"),
        ("d", "3", "d must be int"),
        ("seed", True, "seed must be int"),
        ("name", 7, "name must be str"),
        ("generator", [1], "generator config must be a mapping"),
    ], ids=["n_grid-str", "n_grid-float", "n_grid-int", "replicates", "eps", "d", "seed", "name",
            "generator"])
    def test_spec_from_config_types_every_field(self, field, value, match):
        config = {
            "name": "cfg", "estimator": "mean_vector", "mechanism": "optimal", "eps": 0.5,
            "n_grid": [64, 128], "d": 3, "replicates": 2,
            "generator": {"kind": "bernoulli_product", "freqs": [0.2, 0.5, 0.7]},
        }
        with pytest.raises(ConfigError, match=match):
            spec_from_config({**config, field: value})

    def test_integral_floats_are_integers(self):
        spec = _tiny_spec(n_grid=[64.0, 128], replicates=2.0, d=3.0)
        assert spec.n_grid == (64, 128) and spec.replicates == 2 and spec.d == 3
        assert all(type(v) is int for v in (*spec.n_grid, spec.replicates, spec.d))

    def test_scalar_mean_of_lognormal_scores_against_its_mean(self):
        spec = ExperimentSpec("ms", "mean_scalar", "nonprivate", 1.0, (20_000,), 1, 1,
                              {"kind": "lognormal", "mu": 0.0, "sigma": 0.5})
        (record,) = run_experiment(spec)
        assert record.value < 1e-3


class TestRunExperiment:
    def test_record_shape_and_order(self):
        records = run_experiment(_tiny_spec())
        assert len(records) == 4 * 2
        keys = [(r.replicate, r.n) for r in records]
        assert keys == sorted(keys)
        assert all(r.metric_name == "linf_error" and r.value >= 0.0 for r in records)
        assert all(r.wall_ms == 0.0 for r in records)

    def test_deterministic_given_seed(self):
        assert run_experiment(_tiny_spec()) == run_experiment(_tiny_spec())

    def test_seed_changes_values(self):
        a = run_experiment(_tiny_spec())
        b = run_experiment(_tiny_spec(seed=10))
        assert any(x.value != y.value for x, y in zip(a, b))

    def test_nonprivate_records_infinite_eps(self):
        records = run_experiment(_tiny_spec(mechanism="nonprivate"))
        assert all(math.isinf(r.eps) for r in records)

    def test_nonprivate_lower_bounds_private_means(self):
        def mean_error(mechanism):
            records = run_experiment(_tiny_spec(mechanism=mechanism, n_grid=(512,)))
            return np.mean([r.value for r in records])

        nonpriv = mean_error("nonprivate")
        assert nonpriv <= mean_error("optimal")
        assert nonpriv <= mean_error("laplace_baseline")

    def test_timing_mode_fills_wall_ms(self):
        records = run_experiment(_tiny_spec(), timing=True)
        assert all(r.wall_ms > 0.0 for r in records)

    def test_median_runner_all_mechanisms(self):
        for mech in ("optimal", "laplace_baseline", "nonprivate"):
            spec = ExperimentSpec(
                "med", "median", mech, 1.0, (256,), 1, 3,
                {"kind": "bounded_uniform", "radius": 1.0}, 4,
                options={"radius": 1.0},
            )
            records = run_experiment(spec)
            assert len(records) == 3
            assert all(r.metric_name == "excess_risk" for r in records)

    def test_scalar_mean_runner(self):
        spec = ExperimentSpec(
            "ms", "mean_scalar", "optimal", 1.0, (128, 256), 1, 3,
            {"kind": "heavy_tail_k", "k": 2.0, "radius_k": 1.0}, 4,
            options={"moment_k": 2.0},
        )
        records = run_experiment(spec)
        assert len(records) == 6

    def test_logistic_runner(self):
        spec = ExperimentSpec(
            "lg", "logistic", "optimal", 1.0, (64, 128), 8, 2,
            {"kind": "logistic_model", "theta": [0.0] * 8}, 4,
        )
        records = run_experiment(spec)
        assert len(records) == 4 and all(np.isfinite(r.value) for r in records)

    def test_logistic_runner_rejects_bad_schedule(self):
        spec = ExperimentSpec(
            "lg", "logistic", "optimal", 1.0, (64,), 2, 2,
            {"kind": "logistic_model", "theta": [0.0, 0.0]}, 4,
            options={"gamma0": -1.0, "beta_exp": 3.0},
        )
        with pytest.raises(ParameterError, match="gamma0"):
            run_experiment(spec)

    def test_density_runner_classical_below_private(self):
        gen = {"kind": "trig_density", "coeffs": [0.5]}
        errs = {}
        for mech in ("optimal", "nonprivate"):
            spec = ExperimentSpec("de", "density", mech, 1.0, (4096,), 1, 3, gen, 4)
            errs[mech] = np.mean([r.value for r in run_experiment(spec)])
        assert errs["nonprivate"] <= errs["optimal"]


class TestSummaries:
    def test_single_replicate_collapses(self):
        records = [RunRecord("e", "m", 10, 1.0, 0, "x", 3.5)]
        row = summarize(records)[0]
        assert row.mean == row.p5 == row.p95 == 3.5

    def test_constant_values(self):
        records = [RunRecord("e", "m", 10, 1.0, r, "x", 7.0) for r in range(100)]
        row = summarize(records)[0]
        assert row.mean == row.p5 == row.p95 == 7.0

    def test_nearest_rank_on_1_to_100(self):
        values = list(range(1, 101))
        assert nearest_rank(values, 5.0) == 5.0
        assert nearest_rank(values, 95.0) == 95.0

    def test_groups_sorted(self):
        records = [
            RunRecord("e", "b", 20, 1.0, 0, "x", 1.0),
            RunRecord("e", "a", 10, 1.0, 0, "x", 2.0),
        ]
        rows = summarize(records)
        assert [(r.mechanism, r.n) for r in rows] == [("a", 10), ("b", 20)]


class TestCsv:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_bytes() == (CSV_HEADER + "\n").encode()

    def test_round_trip_exact(self, tmp_path):
        records = [
            RunRecord("exp", "optimal", 1024, 0.1, 3, "l2_error_sq", 1.0 / 3.0, 0.0),
            RunRecord("exp", "nonprivate", 2048, math.inf, 4, "l2_error_sq", 1e-17, 0.0),
        ]
        path = tmp_path / "records.csv"
        emit_csv(records, path)
        assert parse_csv(path) == records

    def test_seventeen_digits_and_lf(self, tmp_path):
        path = tmp_path / "fmt.csv"
        emit_csv([RunRecord("e", "m", 1, 0.1, 0, "x", 0.1, 0.0)], path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert b"0.10000000000000001" in raw

    def test_million_row_count(self, tmp_path):
        records = [RunRecord("e", "m", n, 1.0, 0, "x", float(n)) for n in range(1, 1_000_001)]
        path = tmp_path / "big.csv"
        emit_csv(records, path)
        with open(path, "rb") as fh:
            assert sum(1 for _ in fh) == 1_000_001


class TestPresets:
    def test_all_presets_build(self):
        for name in ("drug-use", "median-salary", "mean-rates", "dimension-scaling",
                      "density-rate", "sparse-mean", "logistic"):
            specs = build_preset(name, seed=1)
            assert specs and all(isinstance(s, ExperimentSpec) for s in specs)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            build_preset("nope")

    def test_override(self):
        specs = build_preset("sparse-mean", eps=0.25, seed=11)
        assert all(s.eps == 0.25 and s.seed == 11 for s in specs)

    def test_full_flag_scales_up(self):
        desk = build_preset("drug-use")
        full = build_preset("drug-use", full=True)
        assert max(full[0].n_grid) > max(desk[0].n_grid)
        assert full[0].replicates > desk[0].replicates
