"""privest benchmark: one workload per call, each in fresh single-threaded processes.

    python3 perfbench/run.py --workload mean-batch --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``: ``wall_s``, the fastest pass (first spec run to CSV
written) of a closed loop lasting ``--seconds``; ``records_per_s``, the
records of one pass over ``wall_s``; the worker's ``peak_rss_mb``; and
``setup_s``, the median over several fresh processes of interpreter start
through ``import privest``, spec and generator construction and warm-up.
Passes report their fastest time because on a shared host other tenants
only ever add time, in phases lasting seconds to minutes; the report also
prints the median and slowest pass.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics: span self times and
shape-derived counts of the fastest traced pass, the tracing overhead
(fastest traced minus fastest untraced pass), and the fixed-size layer
probes.  Every run checks each arm's
channel-record count and error law and the CSV's determinism, prints a
report with the environment, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Outputs go to
``.perfbench_out/``.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7  # fresh processes whose set-up is timed in an untraced run
RUN_TIMEOUT_S = 170  # workers still running this long after the start are killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def _worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(args, setup_only, deadline):
    """Start a worker; returns (seconds to its READY line, its parsed result).

    The worker is killed if it is still running at ``deadline`` (perf_counter).
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out-dir", str(OUT_DIR),
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    # unbuffered, so reading the READY line consumes nothing after it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_worker_env(), cwd=ROOT, bufsize=0)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != b"READY" or proc.returncode != 0:
        raise WorkerError(f"worker failed with exit code {proc.returncode}")
    return setup_s, None if setup_only else json.loads(rest.splitlines()[-1])


def environment(numpy_version):
    env = {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                platform.machine(),
            )
    except OSError:
        env["cpu"] = platform.machine()
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind != "Instruction":
            env[f"L{level}"] = size
    return env


def measure(args, bench, reference):
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [spawn(args, True, deadline)[0] for _ in range(extra)]
    setup_s, result = spawn(args, False, deadline)
    setups.append(setup_s)
    walls = result["walls"]
    wall_s = min(walls)
    if args.trace:
        traced = min(result["traced_walls"])
        values = dict(result["layers"], **result["probes"])
        values["trace.wall_s"] = traced
        values["trace.overhead_s"] = traced - wall_s
        wanted = bench["per_layer"]
    else:
        values = {
            "wall_s": wall_s,
            "records_per_s": result["records"] / wall_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = environment(result["numpy"])
    ref_digest = reference["csv_sha256"].get(str(args.seed))
    digests = result["digests"]
    failed = len(result["failures"])
    report = [
        f"environment {json.dumps(env, sort_keys=True)}",
        f"untraced passes {len(walls)}: fastest {wall_s:.4f} s, median "
        f"{statistics.median(walls):.4f} s, slowest {max(walls):.4f} s"
        + (f"; traced passes {len(result['traced_walls'])}" if args.trace else "")
        + f"; setup samples {len(setups)}",
        f"csv_sha256 {' '.join(digests)}",
        "csv_identical "
        + ("no-reference" if ref_digest is None else str(digests == [ref_digest]).lower())
        + f" (seed {args.seed}, {result['records']} records per pass)",
        f"failed_frac {failed / result['attempted']:.6g} "
        f"({failed} of {result['attempted']} arm runs)",
    ]
    report += [f"failure x{n} {line}" for line, n in Counter(result["failures"]).items()]
    if args.trace:
        report.append(
            f"tracing overhead {traced - wall_s:.4f} s: traced wall {traced:.4f} s, untraced "
            f"{wall_s:.4f} s, layer self times sum to {values['trace.self_sum_s']:.4f} s "
            f"over {result['spans']} spans"
        )
        report.append(
            f"largest channel output {values['mechanisms.max_out_MB']:.1f} MB; "
            f"L3 {env.get('L3', 'unknown')}"
        )
    report += [f"metric {k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    outcome = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(outcome, environment=env, worker=result, setups=setups, report=report)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    return report, outcome


def main(argv=None):
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        references = json.loads((HERE / "reference.json").read_text())["workloads"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read the benchmark definition: {exc}", file=sys.stderr)
        return 2
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # every workload with a reference runs; BENCHMARK.json lists the gated ones
    p.add_argument("--workload", choices=sorted(references), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "privest" / "__init__.py").is_file():
        print(f"error: no privest sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # turn SIGTERM into SystemExit so spawn() kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        report, outcome = measure(args, bench, references[args.workload])
    except (WorkerError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report))
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
