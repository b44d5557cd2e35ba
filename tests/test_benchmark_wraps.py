"""The benchmark's tracer must find every layer entry point it wraps.

``perfbench/tracing.py`` replaces kernels, engines and generator ``sample``
methods by module attribute; a refactor that renames or drops one, or
changes what it returns, would otherwise surface only in a traced
benchmark run.  The benchmark's files are loaded, never changed.
"""

import importlib.util
from pathlib import Path

import pytest

from privest import estimators, experiments
from privest.experiments import PRESETS, build_preset, run_experiment
from privest.mechanisms import privatization_count

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("tracing")


def _preset_generator_classes():
    return {type(s.build_generator()) for name in PRESETS for s in build_preset(name)}


def test_every_wrap_point_exists_and_is_restored():
    tracing = _load_tracing()
    classes = _preset_generator_classes()
    points = tracing.wrap_points(classes)
    tracer = tracing.Tracer(points)  # raises MissingWrapPoint if a name is gone
    wrapped = {(owner, attr) for owner, attr, _, _ in points}
    for attr in ("_prefix_means", "trig_basis_matrix", "_median_sgd_paths",
                 "_logistic_sgd_paths"):
        assert (experiments, attr) in wrapped
    assert {attr for owner, attr in wrapped if owner is estimators} == {
        "_l2_ball_batch", "_linf_ball_batch", "_laplace_vector_batch",
        "_sign_rr_batch", "_truncated_laplace_batch",
    }
    assert {owner for owner, attr in wrapped if attr == "sample"} == classes
    before = [getattr(owner, attr) for owner, attr, _, _ in points]
    with tracer.installed():
        assert all(getattr(o, a) is not f for (o, a, _, _), f in zip(points, before))
    assert [getattr(owner, attr) for owner, attr, _, _ in points] == before


@pytest.mark.parametrize("workload", ["mean-batch", "density-series", "sgd-stream"])
def test_traced_warmup_records_every_required_span(workload):
    tracing, workloads = _load("tracing"), _load("workloads")
    specs = workloads.warmup_specs(workloads.build_specs(workload, seed=0))
    tracer = tracing.Tracer(tracing.wrap_points({type(s.build_generator()) for s in specs}))
    before = privatization_count()
    # every span counter runs as its call returns, on what the call returned
    with tracer.installed(), tracer.span("pass"):
        for spec in specs:
            run_experiment(spec)
    names = {span[0] for span in tracer.spans}
    assert set(workloads.WORKLOADS[workload]["required_spans"]) <= names
    records = sum(map(workloads.arm_records, specs))
    layers = tracing.layer_metrics(tracer.spans, privatization_count() - before, records)
    assert layers["mechanisms.records"] == sum(map(workloads.expected_privatizations, specs))
    assert 0.0 < layers["mechanisms.max_out_MB"] <= layers["mechanisms.out_MB"]
