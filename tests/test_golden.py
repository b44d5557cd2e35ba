"""Golden output: the CSV of one tiny arm per (estimator, mechanism) pair and of
every preset's arms, by digest.

Each estimator arm runs 2 replicates at grid (64, 256) from a fixed seed.
Each preset runs every one of its arms at 1 replicate and grid
``(min(n_grid[0], 256),)``, the warm-up shape of ``perfbench``, so its
digest pins the options each preset gives its arms.  The SHA-256 of the
``emit_csv`` text must equal the digest written below.  A refactor that
claims to keep every output bit-identical keeps these digests.  A change
that deliberately alters RNG use (what is drawn, in which order or from
which stream) or floating-point arithmetic (how a value is computed, such
as the basis recurrence of ``trig_basis_matrix``) regenerates the digests
it moves with ``PYTHONPATH=src python tests/test_golden.py`` and names the
change in ``CHANGES.md``.  The digests hold for one build: another numpy
or CPU may round the same arithmetic differently.
"""

import hashlib
import os
import tempfile
from dataclasses import replace

import pytest

from privest.experiments import (
    ESTIMATORS,
    PRESETS,
    ExperimentSpec,
    build_preset,
    emit_csv,
    run_experiment,
)

SEED = 20161004

# generator and options of each estimator's tiny arm
_SETUPS = {
    "mean_scalar": ({"kind": "heavy_tail_k", "k": 4.0}, {"moment_k": 4.0}),
    "mean_vector": ({"kind": "bernoulli_product", "freqs": [0.2, 0.5, 0.9]}, {}),
    "median": ({"kind": "lognormal", "mu": 0.0, "sigma": 1.0}, {}),
    "sparse": ({"kind": "fixed_vector", "value": [0.5, 0.0, 0.0, -0.25]}, {}),
    "logistic": ({"kind": "logistic_model", "theta": [0.5, -0.5, 0.25]}, {"geometry": "linf"}),
    "density": ({"kind": "trig_density", "coeffs": [0.3, -0.2]}, {}),
}

GOLDEN = {
    ("mean_scalar", "optimal"): "f7f0ff8735853404eb2ad0cd910e129fdc6b7343d0e2fa6eb148c6e2ebbd7475",
    ("mean_scalar", "nonprivate"): "c3d0a5d01ef3cbed560da5a626d99f178399971c5ba1c4e8f70c999a17696a07",
    ("mean_vector", "optimal"): "ea86bd82109124964d807a605a9d3f9d2f88fbedda384089b7ad7041cec55a6b",
    ("mean_vector", "laplace_baseline"):
        "6ac93ae2b145caa81582fafaf903f8f7c7fdf7961be3dedc0d6a2773c439f37e",
    ("mean_vector", "nonprivate"): "0d2f5cdfd6cbe0643cdf45a8602a7c46dfc01e715471d354e12048065af5de37",
    ("median", "optimal"): "4b061205031484fa82a012d5d8969dcae1e7101e70de2d67db435dce90d52261",
    ("median", "laplace_baseline"): "adb4f09cfdf8fb65da0d3a1e9d708ee9354a74117858f3ec634d3931f15382ed",
    ("median", "nonprivate"): "10327c958aa83c5dc1f8ddda1bd9362cd6cd71d1d5ba0d51ac597bc83d88d9ed",
    ("sparse", "optimal"): "9c1fcaa1c914b3808155e7fb771d7fe4a4c8e084bb846e3b03ed0f0275e797d9",
    ("sparse", "nonprivate"): "f1d443066910a05d7fa316583646c0ab4bc0bc480937839061ca039d81d9c701",
    ("logistic", "optimal"): "a93412cfd4ba4f904b702bf31aba1a9850fdc36b417270d62c188078ac4ba81e",
    ("logistic", "laplace_baseline"): "0989d284772647e7d3d43ff2ac97ee578ffdf6569fbdc9c36c61bfa27fa25dc7",
    ("logistic", "nonprivate"): "998af026ecdd2976b8e5611a1a33f523ce2c041a2ddd9918c9650afc273747da",
    ("density", "optimal"): "3aa9cd9a61b38e49653c8e0a6daed871a6a917889ee6eec5ea0d77305f615a7d",
    ("density", "nonprivate"): "83d3f3faf679f8956a5ccc6c9e5a0919bab9e0ce42a0c2ed85c282ac6795e637",
}

PRESET_GOLDEN = {
    "drug-use": "b42fa4381902bb950bac98c2b4637770fd12c67bf4c8a8f309a03963798fe120",
    "median-salary": "1a1651782a38b90a6c26fa262f23d8c6ec778314cc2a11b9b56eee4a2659df9d",
    "mean-rates": "1ebf88c1f31cc2a51499f32da4d0cbb263dd916342f3a621f310aa56ec7c2787",
    "dimension-scaling": "274cec98691a414edbc636d74e9d52da1b496a1e8c0a901d4d96d7dc38dd66eb",
    "density-rate": "2d9ff12d8b0429be158cf658d045e633958b7f7b4be2f2e32f879e35aadc044c",
    "sparse-mean": "9afe500d8ad8adc571bcf4c7fb1bff422e872eb7d97e54cbf23c88785f5d8053",
    "logistic": "ab04b025169ec9673f12ee9326b75df2bf847a6123521dd773a22034323a29d2",
}

_ARMS = [(est, mech) for est, entry in ESTIMATORS.items() for mech in entry.mechanisms]


def _csv_digest(specs):
    """SHA-256 of the ``emit_csv`` text of the records of ``specs``, run in order."""
    records = [record for spec in specs for record in run_experiment(spec)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "arms.csv")
        emit_csv(records, path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def arm_digest(estimator, mechanism):
    generator, options = _SETUPS[estimator]
    spec = ExperimentSpec(f"golden_{estimator}", estimator, mechanism, 1.0, (64, 256), 2,
                          generator, seed=SEED, options=options)
    return _csv_digest([spec])


def preset_digest(preset):
    return _csv_digest([replace(s, replicates=1, n_grid=(min(s.n_grid[0], 256),))
                        for s in build_preset(preset, seed=SEED)])


def test_every_pair_has_a_digest():
    assert len(_ARMS) == 15
    assert set(GOLDEN) == set(_ARMS)


def test_every_preset_has_a_digest():
    assert list(PRESET_GOLDEN) == list(PRESETS)


@pytest.mark.parametrize("estimator, mechanism", _ARMS, ids=[f"{e}-{m}" for e, m in _ARMS])
def test_arm_csv_matches_golden_digest(estimator, mechanism):
    assert arm_digest(estimator, mechanism) == GOLDEN[(estimator, mechanism)]


@pytest.mark.parametrize("preset", list(PRESETS))
def test_preset_csv_matches_golden_digest(preset):
    assert preset_digest(preset) == PRESET_GOLDEN[preset]


def _print_table(name, entries):
    print(f"{name} = {{")
    for key, digest in entries:
        line = f"    {key}: \"{digest}\","
        print(line if len(line) <= 105 else f"    {key}:\n        \"{digest}\",")
    print("}")


if __name__ == "__main__":
    _print_table("GOLDEN", [(f"({e!r}, {m!r})".replace("'", '"'), arm_digest(e, m))
                            for e, m in _ARMS])
    print()
    _print_table("PRESET_GOLDEN", [(f"\"{p}\"", preset_digest(p)) for p in PRESETS])
