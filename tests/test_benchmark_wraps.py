"""The benchmark's tracer must find every layer entry point it wraps.

``perfbench/tracing.py`` replaces kernels, engines and generator ``sample``
methods by module attribute; a refactor that renames or drops one would
otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from privest import estimators, experiments
from privest.experiments import PRESETS, build_preset

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
