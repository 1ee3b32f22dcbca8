"""Command-line interface.

Subcommands: reduce, fit, lr, true-lr, freq-lr, simulate, surface,
experiment, fixture. Every stochastic command takes --seed and is
byte-reproducible for a given seed. Each command builds one payload,
which goes to stdout or --out as JSON at full precision or, with
--format csv, as one line per record under the records' keys; payloads
that nest lists or dicts are JSON only. A short human summary with 4
significant digits goes to stderr unless --quiet.

Exit codes: 0 success, 2 bad input (one too large to allocate or to hold
in int64 included), 3 non-convergence or infeasibility.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

# every subcommand loads ``partitions`` and ``pitman``; those that need
# ``lr``, ``mle`` or ``workbench`` import them themselves
from .partitions import IntegerPartition, SetPartition, reduce_sample, to_integer_partition
from .pitman import (
    PdParams,
    PopulationVector,
    crp_sample,
    gem_stick_breaking,
    powerlaw_reference,
    ranked_frequencies,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _fmt(x) -> str:
    return f"{x:.4g}"


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _cell(v) -> str:
    if v is None:
        return ""
    return json.dumps(v) if isinstance(v, bool) else repr(v)


def _emit(args, payload, table=None) -> None:
    """Write ``payload`` as JSON, or its records as CSV: ``table`` if
    given, else the payload itself (a record or a list of records)."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        records = table if table is not None else payload
        if isinstance(records, dict):
            records = [records]
        if any(isinstance(v, (list, tuple, dict)) for rec in records for v in rec.values()):
            raise ValueError(f"{args.command} output is JSON only")
        lines = [",".join(records[0])] + [",".join(map(_cell, rec.values())) for rec in records]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _is_a(x, kind) -> bool:
    # JSON true and false load as bool, which subclasses int
    return isinstance(x, kind) and not isinstance(x, bool)


def _is_list_of(x, kind) -> bool:
    return isinstance(x, list) and all(_is_a(v, kind) for v in x)


def _load_partition(path: str) -> IntegerPartition:
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        if _is_list_of(data.get("a"), int) and _is_list_of(data.get("r"), int):
            return IntegerPartition.from_dict(data)
        blocks = data.get("blocks")
        if _is_a(data.get("n"), int) and _is_list_of(blocks, list):
            if all(_is_list_of(b, int) for b in blocks):
                return to_integer_partition(SetPartition.from_dict(data))
    raise ValueError(
        f"{path}: expected {{'a','r'}} or {{'n','blocks'}} partition JSON of integers"
    )


def _load_population(args) -> PopulationVector:
    if args.population:
        with open(args.population) as fh:
            data = json.load(fh)
        if not (
            isinstance(data, dict)
            and _is_list_of(data.get("probs"), (int, float))
            and (data.get("pop_size") is None or _is_a(data["pop_size"], int))
        ):
            raise ValueError(
                f"{args.population}: expected {{'probs': [numbers], 'pop_size': integer}} JSON"
            )
        return PopulationVector.from_dict(data)
    if args.population_from_partition:
        from .workbench import population_from_partition

        return population_from_partition(_load_partition(args.population_from_partition))
    raise ValueError("a population is required: --population or --population-from-partition")


def _mh_config(args):
    """The chain schedule: the options given, MhConfig's defaults for the rest."""
    from .lr import MhConfig

    given = {k: getattr(args, k) for k in ("iterations", "burn_in", "thinning")}
    return MhConfig(**{k: v for k, v in given.items() if v is not None}, seed=args.seed)


def cmd_reduce(args) -> int:
    from .workbench import load_profiles

    db = load_profiles(args.input, format=args.input_format, columns=_columns(args.columns))
    partition = reduce_sample(db.records)
    _emit(args, (to_integer_partition(partition) if args.integer else partition).to_dict())
    _say(args, f"reduced {db.n} records to {partition.k} blocks")
    return EXIT_OK


def _columns(spec: str):
    return "all" if spec == "all" else [c for c in spec.split(",") if c]


def cmd_fit(args) -> int:
    from .mle import fit_mle

    part = _load_partition(args.partition)
    fit = fit_mle(part, small_n_threshold=args.small_n_threshold)
    _emit(args, fit.to_dict())
    if not fit.converged:
        _say(args, f"fit did not converge: {fit.diagnosis}")
        return EXIT_NUMERIC
    _say(
        args,
        f"alpha_hat={_fmt(fit.alpha_hat)} theta_hat={_fmt(fit.theta_hat)} "
        f"loglik={_fmt(fit.loglik)}",
    )
    return EXIT_OK


def cmd_lr(args) -> int:
    from .lr import lr_empirical_bayes

    params = PdParams(alpha=args.alpha, theta=args.theta)
    lr = lr_empirical_bayes(args.n, params)
    _emit(args, {"lr": lr, "log10_lr": math.log10(lr)})
    _say(args, f"log10 LR = {_fmt(math.log10(lr))} (LR = {_fmt(lr)})")
    return EXIT_OK


def cmd_true_lr(args) -> int:
    from .lr import lr_true_mh

    part = _load_partition(args.partition)
    pop = _load_population(args)
    est = lr_true_mh(part, pop, _mh_config(args), strict_support=args.strict_support)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("step,singleton_mass\n")
            for step, mass in est.trace:
                fh.write(f"{step},{mass!r}\n")
    _emit(args, est.to_dict())
    _say(
        args,
        f"log10 LR|p = {_fmt(est.log10_lr)} +/- {_fmt(est.log10_stderr)} "
        f"(acceptance {_fmt(est.acceptance_rate)})",
    )
    return EXIT_OK


def cmd_freq_lr(args) -> int:
    from .lr import lr_frequentist

    pop = _load_population(args)
    lr = lr_frequentist(pop, args.rank)
    _emit(args, {"lr": lr, "log10_lr": math.log10(lr)})
    _say(args, f"log10 LR_f = {_fmt(math.log10(lr))}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = PdParams(alpha=args.alpha, theta=args.theta)
    if args.mode == "crp":
        if args.n is None:
            raise ValueError("--n is required for crp mode")
        plan = crp_sample(args.n, params, seed=args.seed)
        freqs = ranked_frequencies(plan.table_counts)
        note = f"seated {args.n} customers at {plan.k} tables"
    else:
        if args.m is None:
            raise ValueError("--m is required for gem mode")
        pop = gem_stick_breaking(params, args.m, seed=args.seed)
        freqs = pop.as_array()
        note = f"stick-breaking draw of length {args.m}, tail mass {_fmt(pop.tail_mass)}"
    rows = [{"rank": i, "rel_freq": f} for i, f in enumerate(freqs.tolist(), start=1)]
    if args.powerlaw:
        for row, (_, ref) in zip(rows, powerlaw_reference(params.alpha, range(1, len(rows) + 1))):
            row["ref_value"] = ref
    _emit(args, rows)
    _say(args, note)
    return EXIT_OK


def cmd_surface(args) -> int:
    from .mle import SurfaceGrid, fit_mle, loglik_surface, symmetry_diagnostic

    part = _load_partition(args.partition)
    fit = fit_mle(part)
    if not fit.converged:
        _say(args, f"fit did not converge: {fit.diagnosis}")
        return EXIT_NUMERIC
    grid = SurfaceGrid(
        n_phi=args.n_phi, n_theta=args.n_theta, half_width_sd=args.half_width_sd
    )
    surface = loglik_surface(part, fit, grid)
    thetas = surface.theta.tolist()
    rows = [
        {"phi": p, "theta": t, "rel_loglik": r if ok else None, "gauss_overlay": o, "valid": ok}
        for p, rels, overlays, valid in zip(
            surface.phi.tolist(),
            surface.rel_loglik.tolist(),
            surface.gauss_overlay.tolist(),
            surface.valid.tolist(),
        )
        for t, r, o, ok in zip(thetas, rels, overlays, valid)
    ]
    payload = {
        "mode": list(surface.mode),
        "hessian": surface.hessian.tolist(),
        "covariance": surface.covariance.tolist(),
        "rows": rows,
        "metadata": surface.metadata,
    }
    _emit(args, payload, rows)
    report = symmetry_diagnostic(surface)
    _say(args, f"asymmetry score {_fmt(report.score)} over {report.pairs_checked} offset pairs")
    return EXIT_OK


def cmd_experiment(args) -> int:
    from .workbench import ExperimentSpec, dutch_fixture, run_experiment

    population = (
        _load_partition(args.population_partition) if args.population_partition else dutch_fixture()
    )
    spec = ExperimentSpec(
        population=population,
        sample_size=args.sample_size,
        replicates=args.replicates,
        seed=args.seed,
        mh=_mh_config(args),
        strict_support=args.strict_support,
    )
    result = run_experiment(spec)
    payload = result.to_dict()
    _emit(args, payload, [{k: v for k, v in row.items() if k != "notes"} for row in payload["rows"]])
    for col in ("log10_lr", "log10_lr_true", "log10_lr_freq", "diff1", "diff2"):
        if col in result.summary:
            s = result.summary[col]
            _say(args, f"{col}: mean {_fmt(s['mean'])} sd {_fmt(s['sd'])} over {s['count']} replicates")
    return EXIT_OK


def cmd_fixture(args) -> int:
    from .workbench import DUTCH_FIXTURE_METADATA, dutch_fixture

    payload = dutch_fixture().to_dict()
    if args.with_meta:
        payload["metadata"] = DUTCH_FIXTURE_METADATA
    _emit(args, payload)
    return EXIT_OK


def _add_chain_options(p: argparse.ArgumentParser) -> None:
    # left as None, each takes MhConfig's default in _mh_config
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--thinning", type=int, default=None)


def _add_population_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--population", default=None, help="JSON {probs, pop_size}")
    p.add_argument("--population-from-partition", default=None)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="seed for stochastic commands")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write the payload to this path")
    common.add_argument("--quiet", action="store_true", help="suppress stderr summaries")

    parser = argparse.ArgumentParser(
        prog="raretype",
        description="Likelihood ratios for the rare type match under a "
        "two-parameter Poisson-Dirichlet prior",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[common], help="profiles file -> partition JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--input-format", choices=("tsv", "csv"), default="tsv")
    p.add_argument("--columns", default="all", help="comma-separated header names or 'all'")
    p.add_argument("--integer", action="store_true", help="emit the (a, r) form")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("fit", parents=[common], help="partition JSON -> MLE fit JSON")
    p.add_argument("--partition", required=True)
    p.add_argument("--small-n-threshold", type=int, default=500)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("lr", parents=[common], help="plug-in likelihood ratio")
    p.add_argument("--n", type=int, required=True, help="database size")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.set_defaults(func=cmd_lr)

    p = sub.add_parser(
        "true-lr", parents=[common], help="known-population LR by the swap chain"
    )
    p.add_argument("--partition", required=True, help="suspect-augmented partition JSON")
    _add_population_options(p)
    _add_chain_options(p)
    p.add_argument("--strict-support", action="store_true")
    p.add_argument("--trace", default=None, help="write the retained-state trace CSV here")
    p.set_defaults(func=cmd_true_lr)

    p = sub.add_parser("freq-lr", parents=[common], help="benchmark 1/p_x")
    _add_population_options(p)
    p.add_argument("--rank", type=int, required=True, help="1-based population rank")
    p.set_defaults(func=cmd_freq_lr)

    p = sub.add_parser("simulate", parents=[common], help="CRP or stick-breaking draw")
    p.add_argument("--mode", choices=("crp", "gem"), default="crp")
    p.add_argument("--n", type=int, default=None, help="customers (crp mode)")
    p.add_argument("--m", type=int, default=None, help="truncation length (gem mode)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--powerlaw", action="store_true", help="add the i^(-1/alpha) column")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("surface", parents=[common], help="relative log-likelihood grid")
    p.add_argument("--partition", required=True)
    p.add_argument("--n-phi", type=int, default=41)
    p.add_argument("--n-theta", type=int, default=41)
    p.add_argument("--half-width-sd", type=float, default=3.0)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("experiment", parents=[common], help="replicated rare-type cases")
    p.add_argument("--population-partition", default=None, help="defaults to the Dutch fixture")
    p.add_argument("--sample-size", type=int, default=101)
    p.add_argument("--replicates", type=int, default=96)
    _add_chain_options(p)
    p.add_argument("--strict-support", action="store_true")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("fixture", parents=[common], help="print the Dutch fixture")
    p.add_argument("--with-meta", action="store_true")
    p.set_defaults(func=cmd_fixture)

    return parser


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # JSONDecodeError and ProfileParseError are ValueErrors; a MemoryError is an input
    # whose arrays cannot be allocated, an OverflowError one with a size past int64
    except (OSError, ValueError, KeyError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
