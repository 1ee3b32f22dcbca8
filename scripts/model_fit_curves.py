#!/usr/bin/env python3
"""Ranked-frequency curves for judging model fit.

Fits (alpha, theta) to a partition (the Dutch fixture by default), then
writes CSVs for log-log rank/frequency plots: the data's own ranked
frequencies, several seating-plan realizations at the fitted parameters
(the exact partition law), and the i^(-1/alpha) power-law reference.

Example:
    python scripts/model_fit_curves.py --realizations 8 --seed 2 --out-dir curves/
"""
import argparse
import json
import pathlib
import sys

from raretype.mle import fit_mle
from raretype.partitions import IntegerPartition
from raretype.pitman import crp_sample, powerlaw_reference, ranked_frequencies
from raretype.workbench import dutch_fixture


def write_freqs(path, freqs):
    with path.open("w") as fh:
        fh.write("rank,rel_freq\n")
        for i, f in enumerate(freqs, start=1):
            fh.write(f"{i},{float(f)!r}\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--partition", default=None, help="partition JSON; defaults to the Dutch fixture")
    ap.add_argument("--realizations", type=int, default=8)
    ap.add_argument("--n", type=int, default=None, help="customers per realization; defaults to the data size")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="curves")
    args = ap.parse_args()

    if args.partition:
        part = IntegerPartition.from_dict(json.load(open(args.partition)))
    else:
        part = dutch_fixture()
    fit = fit_mle(part)
    if not fit.converged:
        print(f"fit did not converge: {fit.diagnosis}", file=sys.stderr)
        return 3
    print(f"n={part.n} k={part.k} alpha_hat={fit.alpha_hat:.4f} theta_hat={fit.theta_hat:.2f}")

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_freqs(out_dir / "data_ranked.csv", ranked_frequencies(part.sizes_desc()))

    n = args.n or part.n
    for rep in range(args.realizations):
        plan = crp_sample(n, fit.params(), seed=(args.seed, rep))
        write_freqs(out_dir / f"sim_ranked_{rep:02d}.csv", ranked_frequencies(plan.table_counts))

    with (out_dir / "powerlaw_ref.csv").open("w") as fh:
        fh.write("rank,ref_value\n")
        for i, v in powerlaw_reference(fit.alpha_hat, range(1, part.k + 1)):
            fh.write(f"{i},{v!r}\n")
    print(f"wrote curves to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
