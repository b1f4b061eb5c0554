"""Command-line interface.

Subcommands: density, bound, rate, ldp, simulate, verify-density,
verify-rayknight, chi-discrete.  Exit status 0 on success/all-pass, 1 on an
acceptance failure, 2 on usage or config errors.
"""

import argparse
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import harness
from .density import density_rows
from .errors import ConfigParseError, LoctimesError
from .montecarlo import sample_paths_fixed_time, sample_paths_inverse_local_time
from .rates import (
    density_upper_bound,
    ldp_probability_bound,
    ldp_varadhan_bound,
    rate_general,
    rate_symmetric,
    rescaled_chi_discrete,
)


def _parse_label(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def _parse_labels(text: str):
    return [_parse_label(t) for t in text.split(",") if t != ""]


def _parse_floats(text: str):
    return [float(t) for t in text.split(",") if t != ""]


class UsageError(Exception):
    """A malformed command-line request, with no config involved: exit
    status 2 under the label "usage error" (a bad config is a
    ConfigParseError, "config error")."""


@contextmanager
def _request_errors():
    """Re-raise a ValueError of a malformed request (a label outside the
    range, a vector of the wrong length) as UsageError."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _add_generator_point_args(p):
    p.add_argument("--generator", required=True, help="generator JSON document")
    p.add_argument("--R", required=True, help="comma-separated range labels")
    p.add_argument("--a", required=True, help="start site")
    p.add_argument("--b", required=True, help="end site")
    p.add_argument("--l", required=True, help="comma-separated local times on R")


def cmd_density(args) -> int:
    gen = harness.generator_from_config(args.generator)
    with _request_errors():
        values, bounds, orders, route = density_rows(
            gen, _parse_labels(args.R), _parse_label(args.a), _parse_label(args.b),
            [_parse_floats(args.l)], args.tol)
    print(f"{values[0]:.10g}")
    if route == "tree":
        print("exact tree product of Bessel kernels (no truncation to certify)")
    else:
        print(f"certified truncation error <= {bounds[0]:.3e} (series order {orders[0]})")
    return 0


def cmd_bound(args) -> int:
    gen = harness.generator_from_config(args.generator)
    with _request_errors():
        bound = density_upper_bound(gen, _parse_labels(args.R), _parse_label(args.a),
                                    _parse_label(args.b), _parse_floats(args.l),
                                    rate_tol=args.tol)
    print(f"{bound:.10g}")
    return 0


def cmd_rate(args) -> int:
    gen = harness.generator_from_config(args.generator)
    with _request_errors():
        mu = np.array(_parse_floats(args.mu))
        sol = rate_general(gen, mu, tol=args.tol)
    print(f"value = {sol.value:.12g}")
    print(f"iterations = {sol.iterations}, gradient_norm = {sol.final_gradient_norm:.3e}")
    g_str = ", ".join(f"{k}: {v:.8g}" for k, v in sol.minimizer.items())
    print(f"minimizer g = {{{g_str}}}")
    if gen.is_symmetric():
        print(f"dirichlet form = {rate_symmetric(gen, mu):.12g}")
    return 0


def cmd_ldp(args) -> int:
    gen = harness.generator_from_config(args.generator)
    S = _parse_labels(args.S)
    if args.mode == "prob":
        if args.inf_rate is not None:
            inf_rate = args.inf_rate
        elif args.halfspace is not None:
            state_text, _, thresh_text = args.halfspace.partition(":")
            try:
                threshold = float(thresh_text)
            except ValueError:
                threshold = math.nan
            if not math.isfinite(threshold):
                raise UsageError(
                    f"--halfspace needs STATE:THRESH with a finite threshold, "
                    f"got {args.halfspace!r}")
            with _request_errors():
                inf_rate = harness.halfspace_rate_infimum(
                    gen, S, _parse_label(state_text), threshold)
        else:
            raise UsageError("ldp prob needs --inf-rate or --halfspace STATE:THRESH")
        bound = ldp_probability_bound(gen, S, inf_rate, args.T)
        print(f"inf_rate = {inf_rate:.10g}")
        print(f"log-probability bound = {bound:.10g}")
    else:
        if args.sup_value is not None:
            sup_value = args.sup_value
        elif args.V is not None:
            with _request_errors():
                sup_value = harness.linear_varadhan_supremum(gen, S, _parse_floats(args.V))
        else:
            raise UsageError("ldp varadhan needs --sup-value or --V v1,v2,...")
        bound = ldp_varadhan_bound(gen, S, sup_value, args.T)
        print(f"sup_value = {sup_value:.10g}")
        print(f"log-moment bound = {bound:.10g}")
    return 0


def cmd_simulate(args) -> int:
    gen = harness.generator_from_config(args.generator)
    start = _parse_label(args.start)
    rng = np.random.default_rng(args.seed)
    if args.pivot is not None:
        batch = sample_paths_inverse_local_time(
            gen, start, _parse_label(args.pivot), args.level, args.samples, rng)
    else:
        batch = sample_paths_fixed_time(gen, start, args.T, args.samples, rng)
    if args.samples > 1:
        return _emit_batch(args, gen, batch)
    local = batch.local_times[0]
    for x, v in zip(gen.states, local):
        print(f"{x},{float(v)!r}")
    visited = {x for x, v in zip(gen.states, local) if v > 0} | {start}
    print(f"# endpoint={gen.states[batch.endpoints[0]]} "
          f"horizon={float(batch.horizons[0])!r} range={sorted(visited)}")
    return 0


def _emit_batch(args, gen, batch) -> int:
    # on C-ordered rows the column reductions add path after path; on the
    # inverse sampler's transposed (site-major) buffer numpy would sum each
    # column pairwise and move the last printed digits
    local = np.ascontiguousarray(batch.local_times)
    means = local.mean(axis=0)
    stds = local.std(axis=0, ddof=1)
    rows = [(x, float(means[i]), float(stds[i])) for i, x in enumerate(gen.states)]
    resolved = {"generator": args.generator, "start": args.start, "T": args.T,
                "pivot": args.pivot, "level": args.level,
                "samples": args.samples, "seed": args.seed}
    meta = {"config_hash": harness.config_hash(resolved), "seed": args.seed}
    if args.out:
        harness.write_csv(f"{args.out}/simulate.csv", meta,
                          ["state", "mean_local_time", "std_local_time"], rows)
    for x, m, s in rows:
        print(f"{x},{m!r},{s!r}")
    return 0


def cmd_verify(args) -> int:
    """Run every experiment of a config.  A single-experiment config without a
    "kind" takes the command name as its kind; --seed and --samples replace
    every seed and sample count in the config."""
    config = harness.load_config(args.config)
    if "experiments" not in config:
        single = dict(config, kind=config.get("kind", args.command))
        config = {"experiments": [single]}
        if "seed" in single:
            config["seed"] = single["seed"]
    if args.seed is not None:
        config["seed"] = args.seed
    for key in ("seed", "samples"):
        if getattr(args, key) is not None:
            for exp in config["experiments"]:
                exp[key] = getattr(args, key)
    return harness.run_suite(config, args.out)


def cmd_chi_discrete(args) -> int:
    # the origin is the middle site; a bad radius or dim builds some V of
    # the wrong length, and rescaled_chi_discrete names the bad argument
    m = max((2 * args.radius + 1) ** args.dim, 0)
    V = np.where(np.arange(m) == (m - 1) // 2, args.delta_weight, 0.0)
    with _request_errors():
        value = rescaled_chi_discrete(args.radius, args.alpha, V, dim=args.dim)
    print(f"{value:.10g}")
    return 0


def _positive(kind):
    """An argparse type: a finite value of ``kind`` greater than 0."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loctimes",
        description="Local-time densities, bounds and Ray-Knight checks for "
                    "continuous-time Markov chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="evaluate the joint local-time density")
    _add_generator_point_args(p)
    p.add_argument("--tol", type=_positive(float), default=1e-10)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("bound", help="pointwise upper bound on the density")
    _add_generator_point_args(p)
    p.add_argument("--tol", type=_positive(float), default=1e-10)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("rate", help="occupation-measure rate function")
    p.add_argument("--generator", required=True)
    p.add_argument("--mu", required=True, help="comma-separated probability vector")
    p.add_argument("--tol", type=_positive(float), default=1e-10)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("ldp", help="finite-time large-deviation bounds")
    p.add_argument("--generator", required=True)
    p.add_argument("--S", required=True, help="comma-separated support labels")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--mode", choices=["prob", "varadhan"], default="prob")
    p.add_argument("--inf-rate", type=float, default=None)
    p.add_argument("--halfspace", default=None, help="STATE:THRESHOLD")
    p.add_argument("--sup-value", type=float, default=None)
    p.add_argument("--V", default=None, help="comma-separated linear functional on S")
    p.set_defaults(func=cmd_ldp)

    p = sub.add_parser("simulate", help="simulate paths and report local times")
    p.add_argument("--generator", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--T", type=_positive(float), default=1.0)
    p.add_argument("--pivot", default=None, help="stop at an inverse local time")
    p.add_argument("--level", type=_positive(float), default=1.0)
    p.add_argument("--samples", type=_positive(int), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    for name in ("verify-density", "verify-rayknight"):
        p = sub.add_parser(name, help=f"run the {name} Monte Carlo experiment")
        p.add_argument("--config", required=True)
        p.add_argument("--out", default="results")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=_positive(int), default=None)
        p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chi-discrete", help="discrete rescaled variational value")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--alpha", type=_positive(float), required=True)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--delta-weight", type=float, default=0.0,
                   help="linear functional: weight at the origin cell")
    p.set_defaults(func=cmd_chi_discrete)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LoctimesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
