"""Regenerate ``reference.json``: the law-check references and CSV digests.

For every workload, runs one pass per seed in ``range(--seeds)`` and records,
per arm, the grid, the per-cell mean error averaged over seeds (``mu``) and
the seed-to-seed standard deviation of the arm's mean error ratio
(``sd_ratio``), which scales the law-check tolerance in ``worker.py``.  The
SHA-256 of each seed's CSV is kept so a run at a referenced seed can report
whether its output is byte-identical.  Run from the repository root, after a
change that deliberately alters the laws or the workloads:

    python3 perfbench/make_reference.py --seeds 40
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from worker import REFERENCE, cell_means, digest, error_ratio, run_pass  # noqa: E402
from workloads import WORKLOADS, arm_key, build_specs  # noqa: E402


def reference_for(workload, seeds, csv_path):
    per_seed, digests = [], {}
    for seed in range(seeds):
        _, arms = run_pass(build_specs(workload, seed), csv_path)
        per_seed.append({arm_key(spec): cell_means(out) for spec, out, _ in arms})
        digests[str(seed)] = digest(csv_path)
    arms = {}
    for key in per_seed[0]:
        grid = sorted(per_seed[0][key])
        ref = {"n": grid, "mu": [statistics.fmean(m[key][n] for m in per_seed) for n in grid]}
        ref["sd_ratio"] = statistics.stdev(error_ratio(m[key], ref) for m in per_seed)
        arms[key] = ref
    return {"seeds": seeds, "arms": arms, "csv_sha256": digests}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=40)
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args()
    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)
    fresh = {}
    for workload in args.workload or sorted(WORKLOADS):
        fresh[workload] = reference_for(workload, args.seeds, out_dir / f"reference-{workload}.csv")
        print(f"{workload}: {len(fresh[workload]['arms'])} arms", flush=True)
    # merge into the file as it is now, so runs for different workloads can overlap
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    data["workloads"].update(fresh)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
