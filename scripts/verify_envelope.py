#!/usr/bin/env python3
"""`qubeam verify` over seeded points of the input envelope.

Draws N points with the benchmark's envelope sampler (kappa1 10..1e4,
dk/kappa1 1e-3..10, omega up to kappa1/2, eps up to the coupling bound),
runs verify_point at each for all four polarization configs, and prints,
per check and config, the pass, fail and skip counts and the first failure.

    PYTHONPATH=src python scripts/verify_envelope.py SEED N
"""
import argparse
import collections
from pathlib import Path
import random
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.inputs import _envelope_point  # noqa: E402
from qubeam import make_params, verify_point  # noqa: E402
from qubeam.qstate import PolarizationConfig  # noqa: E402

CODES = ("uu", "ud", "du", "dd")


def tally(seed, n):
    """({(check, code): Counter of statuses}, {(check, code): first failure}),
    the counts in check order, then config order."""
    rng = random.Random(seed)
    points = [_envelope_point(rng) for _ in range(n)]
    counts = collections.defaultdict(collections.Counter)
    first_failure = {}
    for code in CODES:
        pol = PolarizationConfig.from_code(code)
        for point in points:
            for check in verify_point(make_params(*point), pol).checks:
                key = check.name, code
                counts[key][check.status] += 1
                if check.status == "fail" and key not in first_failure:
                    where = ", ".join(f"{x:.6g}" for x in point)
                    first_failure[key] = f"at ({where}): {check.detail}"
    order = list(dict.fromkeys(name for name, _ in counts))
    counts = {(name, code): counts[name, code]
              for name in order for code in CODES}
    return counts, first_failure


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("seed", type=int)
    ap.add_argument("n", type=int, help="number of envelope points")
    args = ap.parse_args(argv)
    counts, first_failure = tally(args.seed, args.n)
    print(f"# {args.n} envelope points, seed {args.seed}")
    print(f"{'check':<22} {'pol':<3} {'pass':>6} {'fail':>6} {'skip':>6}"
          "  first failure")
    for (name, code), count in counts.items():
        print(f"{name:<22} {code:<3} {count['pass']:>6} {count['fail']:>6} "
              f"{count['skip']:>6}  {first_failure.get((name, code), '')}"
              .rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
