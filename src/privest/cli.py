"""Command-line interface: scriptable reproduction pipelines.

Subcommands:
    mech-sample  draw privatized samples from one channel to CSV
    estimate     run one estimator on freshly generated synthetic data
    bench        run experiment presets or a JSON experiment config to CSV
    audit        exact enumeration / Monte-Carlo verification of the channels
    rates        evaluate closed-form minimax reference curves to CSV

Exit codes: 0 success, 1 audit violation, 2 configuration error (including
out-of-domain records, inputs an audit cannot handle and a MemoryError), 3 I/O error.
``--seed`` falls back to a config's own seed, then to LDP_SEED, then to 0.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import audit as audit_mod
from . import bounds
from .core import (
    ConfigError,
    DomainError,
    Option,
    PrivacyLevel,
    SizeError,
    UnsupportedChannelError,
    _check_count,
    make_rng,
    resolve,
)
from .estimators import MomentAssumption
from .experiments import (
    PRESETS,
    ExperimentSpec,
    _check_entries,
    _draw_estimates,
    _write_csv,
    build_preset,
    emit_csv,
    emit_summary_csv,
    override_specs,
    run_experiment,
    spec_from_config,
    summarize,
)
from .mechanisms import Channel

# mech-sample's channels: each name is a Channel constructor, built from (args, d, level)
_CHANNELS = {
    "l2_ball": lambda args, d, level: Channel.l2_ball(d, args.radius, level),
    "linf_ball": lambda args, d, level: Channel.linf_ball(d, args.radius, level),
    "sign_rr": lambda args, d, level: Channel.sign_rr(level),
    "laplace_vector": lambda args, d, level: Channel.laplace_vector(
        d, args.radius, level, args.sensitivity_norm),
    "naive_median": lambda args, d, level: Channel.naive_median(args.radius, level),
    "truncated_laplace": lambda args, d, level: Channel.truncated_laplace(
        MomentAssumption(k=args.moment_k, radius_k=args.radius), args.n, level),
}

# the estimate config; a null seed falls back to LDP_SEED, then to 0
_ESTIMATE = {"estimator": Option(str), "generator": Option(dict), "n": Option(int, 1000),
             "eps": Option(float, 1.0), "seed": Option(int, None, nullable=True),
             "options": Option(dict, {})}


def _seed_default(value):
    if value is not None:
        return value
    env = os.environ.get("LDP_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ConfigError(f"LDP_SEED must be an integer, got {env!r}") from None


def _parse_vector(text):
    try:
        return np.array([float(v) for v in text.split(",") if v != ""])
    except ValueError:
        raise ConfigError(f"--x entries must be numbers, got {text!r}") from None


def _cmd_mech_sample(args) -> int:
    seed = _seed_default(args.seed)
    level = PrivacyLevel(args.eps)
    rng = make_rng(seed)
    x = _parse_vector(args.x)
    d = x.size
    _check_count(args.n, "--n must be")
    _check_entries(args.n, d, "--n x d")
    channel = _CHANNELS[args.mechanism](args, d, level)
    draws = channel.privatize_batch(np.broadcast_to(x, (args.n, d)), rng)
    _write_csv(args.out, ",".join(f"z{j}" for j in range(draws.shape[1])), draws)
    print(f"wrote {draws.shape[0]} draws of {args.mechanism} to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = resolve(json.load(fh), _ESTIMATE, "estimate config")
    n = config["n"]
    spec = ExperimentSpec(
        "estimate", config["estimator"], "optimal",
        config["eps"] if args.eps is None else args.eps, (n,), 1, config["generator"],
        _seed_default(config["seed"] if args.seed is None else args.seed),
        options=config["options"],
    )
    estimate = _draw_estimates(spec, range(1))[0][0]  # replicate 0 of bench's optimal arm
    if not np.isfinite(estimate).all():
        raise ConfigError(f"the estimate at n = {n}, eps = {spec.eps!r} is not finite")
    print(json.dumps({"estimator": spec.estimator, "eps": spec.eps, "n": n,
                      "estimate": np.asarray(estimate).tolist()}))
    return 0


def _cmd_bench(args) -> int:
    if args.config:
        if args.preset or args.full:
            raise ConfigError("--config takes no --preset or --full")
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        entries = raw if isinstance(raw, list) else [raw]
        if args.seed is None:  # as in estimate: the entry's seed, then LDP_SEED, then 0
            entries = [entry if not isinstance(entry, dict) or "seed" in entry
                       else {**entry, "seed": _seed_default(None)} for entry in entries]
        specs = [spec_from_config(entry) for entry in entries]
        specs = override_specs(specs, eps=args.eps, seed=args.seed)
    elif args.preset:
        seed = _seed_default(args.seed)  # LDP_SEED is read only where it is used
        specs = build_preset(args.preset, full=args.full, eps=args.eps, seed=seed)
    else:
        raise ConfigError("bench needs --preset or --config")
    records = []
    for spec in specs:
        records.extend(run_experiment(spec, timing=args.timing))
    emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    if args.summary_out:
        emit_summary_csv(summarize(records), args.summary_out)
        print(f"wrote summary to {args.summary_out}")
    return 0


def _cmd_audit(args) -> int:
    seed = _seed_default(args.seed)
    level = PrivacyLevel(args.eps)
    _check_count(args.d_max, "--d-max must be")
    if args.d_max > (cap := audit_mod._ENUMERATION_DIM_CAP):  # the cube check costs O(d 2^d)
        raise ConfigError(f"--d-max must be <= {cap}, got {args.d_max}")
    _check_count(args.mc, "--mc must be", audit_mod.MC_MIN_DRAWS)  # before any enumeration
    _check_entries(args.mc, 3, "--mc x d")  # the d = 3 Monte-Carlo check
    failures = 0
    for name, ok, detail in audit_mod.checks(level, args.d_max, args.mc, make_rng(seed, 3, 0)):
        print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail else ''}")
        failures += not ok
    print(f"{failures} failure(s)")
    return 0 if failures == 0 else 1


def _cmd_rates(args) -> int:
    try:
        n_grid = [int(v) for v in args.n_grid.split(",")]
    except ValueError:
        raise ConfigError(f"--n-grid entries must be integers, got {args.n_grid!r}") from None
    if min(n_grid) < 1:
        raise ConfigError(f"--n-grid entries must be >= 1, got {args.n_grid!r}")
    form = args.eps_form
    fn, label, kwargs = {
        "mean": (bounds.mean_rate, f"mean_rate_k{args.k:g}_{form}",
                 {"k": args.k, "eps_form": form}),
        "median": (bounds.median_rate, f"median_rate_{form}",
                   {"radius": args.radius, "eps_form": form}),
        "sparse": (bounds.sparse_mean_lower, "sparse_mean_lower_exp", {"d": args.d}),
        "logistic": (bounds.logistic_lower, "logistic_lower_exp", {"d": args.d}),
        "density": (bounds.density_rate, f"density_rate_beta{args.beta:g}_{form}",
                    {"beta": args.beta, "eps_form": form}),
    }[args.curve]
    curve = bounds.build_curve(label, fn, n_grid, eps=args.eps, **kwargs)
    _write_csv(args.out, "label,n,value", ((curve.label, n, value) for n, value in curve.points))
    print(f"wrote {len(curve.points)} points to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one ``configuration error:`` line, not usage."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="privest", description="Locally private estimation benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mech-sample", help="draw privatized samples from one channel")
    p.add_argument("--mechanism", choices=sorted(_CHANNELS), required=True)
    p.add_argument("--x", default="0", help="comma-separated input record")
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--moment-k", dest="moment_k", type=float, default=math.inf)
    p.add_argument("--sensitivity-norm", dest="sensitivity_norm",
                   choices=("l1", "l2_paper"), default="l1")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mech_sample)

    p = sub.add_parser("estimate", help="run one estimator on synthetic data")
    p.add_argument("--config", required=True, help="JSON estimator config")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("bench", help="run experiment presets or a JSON config")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--config", default=None, help="JSON experiment spec (object or list)")
    p.add_argument("--full", action="store_true", help="full-scale sizes (slow)")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--timing", action="store_true",
                   help="record wall times (breaks byte-determinism)")
    p.add_argument("--out", required=True)
    p.add_argument("--summary-out", dest="summary_out", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("audit", help="verify channel unbiasedness and privacy")
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--d-max", dest="d_max", type=int, default=8)
    p.add_argument("--mc", type=int, default=200_000, help="Monte-Carlo draws")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("rates", help="evaluate closed-form reference curves")
    p.add_argument("--curve", choices=("mean", "median", "sparse", "logistic", "density"),
                   required=True)
    p.add_argument("--n-grid", dest="n_grid", default="1024,4096,16384,65536")
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--eps-form", dest="eps_form", choices=("eps2", "exp"), default="eps2")
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rates)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, json.JSONDecodeError) as exc:  # a ParameterError is a ConfigError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, SizeError, UnsupportedChannelError, MemoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
