#!/usr/bin/env python3
"""Produce the entanglement surfaces over (omega, delta_kappa).

Runs the default 64x64 grid for the antiparallel (du) pair, which carries
the signal, and optionally the parallel (uu) pair as the flat control
surface. Writes CSV plus gnuplot nonuniform-matrix files per measure.

    python3 scripts/run_figure_sweeps.py --out-dir out/
    gnuplot> splot 'out/du_EI.dat' nonuniform matrix with pm3d
"""
import argparse
import os
import sys

from qubeam import parse_config, run_sweep
from qubeam.sweep import failure_tally, write_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--config", help="key=value config file for overrides")
    ap.add_argument("--with-parallel", action="store_true",
                    help="also sweep the uu control surface")
    ap.add_argument("--steps", type=int,
                    help="override both grid step counts")
    args = ap.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    pols = ["du"] + (["uu"] if args.with_parallel else [])
    for pol in pols:
        overrides = {"pol": pol}
        if args.steps:
            overrides["dk_steps"] = overrides["omega_steps"] = args.steps
        config = parse_config(args.config, overrides)
        table = run_sweep(config)
        base = os.path.join(args.out_dir, pol)
        paths = write_csv(table, config, base + ".csv", base)
        print(f"{pol}: {len(table.status)} rows ({failure_tally(table)}) -> "
              f"{base}.csv, {paths['EI']}, {paths['ES']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
