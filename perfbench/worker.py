"""Run one workload in a fresh, single-threaded process.

Set-up (imports, spec and generator construction, one warm-up replicate of
every arm at a tiny grid) ends with a ``READY`` line on stdout, which
``run.py`` times.  The worker then runs passes in a closed loop for
``--seconds`` (it starts no pass it expects to end after that): a pass runs every arm through
``privest.experiments.run_experiment`` and writes the CSV.  After each pass,
outside the timed region, every arm is checked: it must not raise, must push
exactly the expected number of records through the channel layer, and its
``summarize`` means must match the committed reference law.  With
``--trace 1`` untraced and traced passes alternate, and the layer probes run
at the end.  The last stdout line is a JSON result for ``run.py``.
"""

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
from privest.experiments import emit_csv, run_experiment, summarize
from privest.mechanisms import privatization_count
from probes import run_probes
from tracing import Tracer, layer_metrics, wrap_points
from workloads import (
    WORKLOADS,
    arm_key,
    arm_records,
    build_specs,
    expected_privatizations,
    warmup_specs,
)

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
MIN_PASSES = 3
# law check: an arm's mean error ratio to the reference must lie within
# max(LAW_SIGMAS * seed-to-seed sd, LAW_FLOOR) of 1
LAW_SIGMAS = 8.0
LAW_FLOOR = 0.05
# reference cells at or below this error are exact (float dust) by construction
DUST = 1e-12


def _no_span(name):
    return nullcontext()


def run_pass(specs, csv_path, tracer=None):
    """Run every arm and write the CSV; returns (wall seconds, per-arm outcomes)."""
    span = tracer.span if tracer else _no_span
    arms, records = [], []
    start = time.perf_counter()
    with span("pass"):
        for spec in specs:
            before = privatization_count()
            try:
                with span("experiments.run_experiment"):
                    out = run_experiment(spec)
            except Exception:
                # an arm that raises counts as failed; the pass goes on
                traceback.print_exc()
                out = None
            arms.append((spec, out, privatization_count() - before))
            records.extend(out or ())
        with span("experiments.emit_csv"):
            emit_csv(records, csv_path)
    return time.perf_counter() - start, arms


def cell_means(records):
    """{n: mean error} of one arm, from ``summarize``."""
    return {row.n: row.mean for row in summarize(records)}


def error_ratio(means, ref):
    """Mean over non-exact reference cells of the arm's error / reference error."""
    ratios = [means[n] / mu for n, mu in zip(ref["n"], ref["mu"]) if mu > DUST]
    return sum(ratios) / len(ratios) if ratios else 1.0


def check_arm(spec, out, privatized, ref):
    """None if the arm ran and its counts and law are right, else the reason."""
    if out is None:
        return "raised"
    expected = expected_privatizations(spec)
    if privatized != expected:
        return f"privatized {privatized} records, expected {expected}"
    means = cell_means(out)
    if sorted(means) != ref["n"]:
        return f"grid {sorted(means)} differs from reference {ref['n']}"
    for n, mu in zip(ref["n"], ref["mu"]):
        if mu <= DUST and means[n] > DUST:
            return f"n={n}: error {means[n]:.3g} where the reference is exact"
    ratio = error_ratio(means, ref)
    tol = max(LAW_SIGMAS * ref["sd_ratio"], LAW_FLOOR)
    if abs(ratio - 1.0) > tol:
        return f"mean error ratio {ratio:.4f} outside 1 +/- {tol:.4f}"
    return None


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    specs = build_specs(args.workload, args.seed)
    records = sum(map(arm_records, specs))
    generator_classes = {type(s.build_generator()) for s in specs}
    for spec in warmup_specs(specs):
        run_experiment(spec)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]["arms"]
    out_dir = Path(args.out_dir)
    csv_path = out_dir / f"{args.workload}-seed{args.seed}.csv"
    tracer = Tracer(wrap_points(generator_classes)) if args.trace else None
    walls, traced_walls = [], []
    fastest = None  # (wall, spans, layer metrics) of the fastest traced pass
    digests, failures = set(), []
    attempted = privatized = 0
    deadline = time.perf_counter() + args.seconds
    last = 0.0  # duration of the previous loop iteration, checks included
    while (
        len(walls) < MIN_PASSES - args.trace
        or len(traced_walls) < args.trace * (MIN_PASSES - 1)
        or time.perf_counter() + last <= deadline
    ):
        iteration_start = time.perf_counter()
        traced = bool(tracer) and len(traced_walls) < len(walls)
        if traced:
            tracer.spans.clear()
            with tracer.installed():
                wall, arms = run_pass(specs, csv_path, tracer)
            traced_walls.append(wall)
        else:
            wall, arms = run_pass(specs, csv_path)
            walls.append(wall)
        digests.add(digest(csv_path))
        privatized = sum(count for _, _, count in arms)
        for spec, out, count in arms:
            attempted += 1
            problem = check_arm(spec, out, count, reference[arm_key(spec)])
            if problem:
                failures.append(f"{arm_key(spec)}: {problem}")
        if traced and (fastest is None or wall < fastest[0]):
            layers = layer_metrics(tracer.spans, privatized, records)
            fastest = (wall, list(tracer.spans), layers)
        last = time.perf_counter() - iteration_start

    result = {
        "walls": walls,
        "attempted": attempted,
        "failures": failures,
        "digests": sorted(digests),
        "records": records,
        "privatized": privatized,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
    }
    if tracer:
        _, spans, layers = fastest
        names = {s[0] for s in spans}
        missing = [n for n in WORKLOADS[args.workload]["required_spans"] if n not in names]
        if missing:
            raise SystemExit(f"traced pass recorded no span for {missing}")
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.csv"
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent,work,extra\n")
            t0 = spans[0][1]
            for i, (name, start, end, parent, work, extra) in enumerate(spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{work},{extra}\n")
        result["traced_walls"] = traced_walls
        result["spans"] = len(spans)
        result["layers"] = layers
        result["probes"] = run_probes(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
