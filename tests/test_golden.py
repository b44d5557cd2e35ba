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
change in ``CHANGES.md``; after both tables the script prints one
``key: old -> new`` line per digest that differs from the tables below.  The
digests hold for one build: another numpy or CPU may round the same
arithmetic differently.
"""

import hashlib
import os
import tempfile
from dataclasses import replace

import pytest

from privest import core
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
    ("mean_scalar", "optimal"): "3924a3ca27b6799a48b45dc68ef25027550647fefbc4aa7df58ea97682bb57d8",
    ("mean_scalar", "nonprivate"): "c3d0a5d01ef3cbed560da5a626d99f178399971c5ba1c4e8f70c999a17696a07",
    ("mean_vector", "optimal"): "d3c221491b46931a468bdf9d2807e32430576ca3a3d6c608bb9c611f8abcbbc7",
    ("mean_vector", "laplace_baseline"):
        "4fde0583362bceb936673415c551ddbbb7ec61c4ef487d047fc0293f9d2e3155",
    ("mean_vector", "nonprivate"): "0d2f5cdfd6cbe0643cdf45a8602a7c46dfc01e715471d354e12048065af5de37",
    ("median", "optimal"): "4b061205031484fa82a012d5d8969dcae1e7101e70de2d67db435dce90d52261",
    ("median", "laplace_baseline"): "129fed69c10f8f07c69bd8f9172a56ec689df898d432a86ae841575c0ac6007d",
    ("median", "nonprivate"): "10327c958aa83c5dc1f8ddda1bd9362cd6cd71d1d5ba0d51ac597bc83d88d9ed",
    ("sparse", "optimal"): "39db044a5a738f53862432e478e84c45354aaeef232697edda42296dddca3387",
    ("sparse", "nonprivate"): "f1d443066910a05d7fa316583646c0ab4bc0bc480937839061ca039d81d9c701",
    ("logistic", "optimal"): "611db33c94e08746d66dc67d1b2083c583694a3d85be5d26c2334697656c4f9c",
    ("logistic", "laplace_baseline"): "194ba8b92b9ce7f5a4730accb96a02b78b3935d4fc05332c7bcdc39723c1ae29",
    ("logistic", "nonprivate"): "998af026ecdd2976b8e5611a1a33f523ce2c041a2ddd9918c9650afc273747da",
    ("density", "optimal"): "85d4368135fe7b135736779b0e9f922296bfc79a39e577f9fe8a5811531e9186",
    ("density", "nonprivate"): "e6238afb9af1a404aeeccd0634fc68cd51d79b888ae7fb4ef48a00d44fa6384f",
}

PRESET_GOLDEN = {
    "drug-use": "4e3d94b49f1b0d7bc167a20657bbf9fceec0f1de81f1c34821c85c7ff30a85c3",
    "median-salary": "2de7fc933b22a2acd391410f5afffc5cc7b719213ab303b2d355f308f8340dbe",
    "mean-rates": "556a5737b655628b2033a3e1bf8fcb23908ec0f9930b2231bdf1cc3aaea13c5a",
    "dimension-scaling": "a1012bca4c13cba51f270bc7d989b2888a61ce45f7444d321acf147187479f85",
    "density-rate": "0a422908f9ad38034fd0c611356aa99ec546e408ef91e46892743a6fdfe95815",
    "sparse-mean": "dd85bd7a9d5ea798536114b150aadf6bb1092042fe04679863060c2d1e5e3202",
    "logistic": "18e55f6bfb1a02c087f00f26e7818333c94b99a29a69361fd2f77519d197b9e2",
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


def test_every_digest_holds_at_any_block_size(monkeypatch):
    """Every streaming loop sizes its row blocks by ``core.BLOCK``; no output depends on it.

    At 7 float64s per block the loops run 1 to 3 rows at a time, so every
    block boundary, and every partial last block, falls somewhere else.
    """
    monkeypatch.setattr(core, "BLOCK", 7)
    assert {arm: arm_digest(*arm) for arm in _ARMS} == GOLDEN
    assert {preset: preset_digest(preset) for preset in PRESETS} == PRESET_GOLDEN


def _print_table(name, entries):
    print(f"{name} = {{")
    for key, digest in entries:
        line = f"    {key}: \"{digest}\","
        print(line if len(line) <= 105 else f"    {key}:\n        \"{digest}\",")
    print("}")


if __name__ == "__main__":
    arms = {(e, m): arm_digest(e, m) for e, m in _ARMS}
    presets = {p: preset_digest(p) for p in PRESETS}
    _print_table("GOLDEN", [(f"({e!r}, {m!r})".replace("'", '"'), arms[e, m]) for e, m in _ARMS])
    print()
    _print_table("PRESET_GOLDEN", [(f"\"{p}\"", presets[p]) for p in PRESETS])
    # the digests that moved, to name in CHANGES.md
    for name, table, digests in (("GOLDEN", GOLDEN, arms), ("PRESET_GOLDEN", PRESET_GOLDEN, presets)):
        for key, digest in digests.items():
            if digest != table[key]:
                print(f"{name}[{key!r}]: {table[key]} -> {digest}")
