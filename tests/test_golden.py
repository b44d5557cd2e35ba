"""Golden output: the CSV of one tiny arm per (estimator, mechanism) pair, by digest.

Each arm runs 2 replicates at grid (64, 256) from a fixed seed, and the
SHA-256 of its ``emit_csv`` text must equal the digest written below.  A
refactor that claims to keep every output bit-identical keeps these digests.
A change that deliberately alters RNG use (what is drawn, in which order or
from which stream) updates the digests here and names the change in
``CHANGES.md``.
"""

import hashlib

import pytest

from privest.experiments import ESTIMATORS, ExperimentSpec, emit_csv, run_experiment

SEED = 20161004

# generator, dimension and options of each estimator's tiny arm
_SETUPS = {
    "mean_scalar": ({"kind": "heavy_tail_k", "k": 4.0}, 1, {"moment_k": 4.0}),
    "mean_vector": ({"kind": "bernoulli_product", "freqs": [0.2, 0.5, 0.9]}, 3, {}),
    "median": ({"kind": "lognormal", "mu": 0.0, "sigma": 1.0}, 1, {}),
    "sparse": ({"kind": "fixed_vector", "value": [0.5, 0.0, 0.0, -0.25]}, 4, {}),
    "logistic": ({"kind": "logistic_model", "theta": [0.5, -0.5, 0.25]}, 3,
                 {"geometry": "linf"}),
    "density": ({"kind": "trig_density", "coeffs": [0.3, -0.2]}, 1, {}),
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
    ("density", "optimal"): "f7bda3dd2a10cd4304ac580b17b1710879fb1291191cc15387c08bf776683105",
    ("density", "nonprivate"): "bf088a1358801ebffc1da0aa7adb0e97be22a9e562189de1adc36dc60f832fbb",
}

_ARMS = [(est, mech) for est, entry in ESTIMATORS.items() for mech in entry.mechanisms]


def test_every_pair_has_a_digest():
    assert len(_ARMS) == 15
    assert set(GOLDEN) == set(_ARMS)


@pytest.mark.parametrize("estimator, mechanism", _ARMS, ids=[f"{e}-{m}" for e, m in _ARMS])
def test_arm_csv_matches_golden_digest(tmp_path, estimator, mechanism):
    generator, d, options = _SETUPS[estimator]
    spec = ExperimentSpec(f"golden_{estimator}", estimator, mechanism, 1.0, (64, 256), d, 2,
                          generator, seed=SEED, options=options)
    out = tmp_path / "arm.csv"
    emit_csv(run_experiment(spec), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(estimator, mechanism)]
