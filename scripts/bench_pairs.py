#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, with a verdict per metric.

Runs perfbench/run.py --trace 0 in PARENT and in CHANGE, one workload,
--pairs times. Both runs of a pair take the same seed (--seed, --seed + 1,
...), and the checkout that runs first alternates from pair to pair. Each
run's last output line is its JSON result.

For every end-to-end metric listed in BENCHMARK.json (read, never
written), prints each side's median and quartiles, its medians over the
runs it made first and second in a pair (the order effect), and the number
of pairs CHANGE won, then two verdicts:

* claim: CHANGE won at least 9 in 10 of the pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
* no regression: CHANGE's median is worse than the parent's by no more
  than the metric's bound, a fraction of the parent's median. The metric
  is unresolved when either side's interquartile range exceeds that
  bound, unless every CHANGE run beats every parent run.

It also prints, per side, whether every run was correct and the share of
failed operations, and in how many pairs the untimed envelope_raise_share
line read the same on both sides. Exits 0 when no metric regresses and
every run is correct, 1 otherwise, 2 when a run fails.

With --json PATH it also writes the workload's pair table into PATH,
under "workloads" -> WORKLOAD, keeping the other workloads a file already
holds: the seeds and seconds, each checkout's git HEAD (null when the
checkout is not the top of a git work tree), every run's metrics,
correct/failed/attempted and envelope_raise_share line, and each metric's
verdict.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload point_mix \\
        --pairs 10 --seconds 30 --seed 701 --json pairs.json
"""
import argparse
import json
import math
import os
from pathlib import Path
import statistics
import subprocess
import sys

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
CLAIM_WIN_SHARE = 0.9


def quartiles(values):
    """(lower quartile, median, upper quartile) of a sample."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def order_medians(values, first):
    """(median of the runs made first in their pair, median of those made
    second); first[i] tells whether values[i] ran first. None for an order
    no run had."""
    return tuple(statistics.median(ran) if ran else None for ran in (
        [v for v, f in zip(values, first) if f],
        [v for v, f in zip(values, first) if not f]))


def verdict(parent, change, better, bound):
    """Compare paired samples of one metric; parent[i] and change[i] are
    pair i's values. better is "higher" or "lower"; bound is the largest
    allowed worsening of the median, as a fraction of the parent's.

    Returns a dict: the quartiles of each side, wins (pairs where change
    is strictly better), claim, no_regression and resolved.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    p_q, c_q = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    gain = sign * (c_q[1] - p_q[1])
    limit = bound * abs(p_q[1])
    return {
        "parent": p_q, "change": c_q, "wins": wins,
        "claim": (wins >= math.ceil(CLAIM_WIN_SHARE * len(parent))
                  and gain > p_q[2] - p_q[0]),
        "no_regression": gain >= -limit,
        "resolved": (max(p_q[2] - p_q[0], c_q[2] - c_q[0]) <= limit
                     or min(sign * c for c in change)
                     > max(sign * p for p in parent)),
    }


def run_once(checkout, args, seed):
    """(JSON result, envelope_raise_share line or None) of one run."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    share = next((line.strip() for line in lines
                  if line.strip().startswith("envelope_raise_share")), None)
    return json.loads(lines[-1]), share


def git_head(checkout):
    """HEAD commit of checkout if it is the top of a git work tree, else None."""
    def git(*words):
        try:
            proc = subprocess.run(["git", "-C", str(checkout), *words],
                                  capture_output=True, text=True)
        except OSError:             # no git
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != Path(checkout).resolve():
        return None
    return git("rev-parse", "HEAD")


def write_table(path, workload, table):
    """Put table under ["workloads"][workload] of the JSON file at path."""
    path = Path(path)
    data = json.loads(path.read_text()) if path.exists() else {}
    data.setdefault("workloads", {})[workload] = table
    path.write_text(json.dumps(data, indent=1) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", metavar="PATH",
                    help="write or merge the pair table into this file")
    args = ap.parse_args(argv)

    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    pairs = []
    same_share = 0
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        shares = {}
        pair = {"seed": args.seed + i, "first": order[0]}
        for side in order:
            try:
                result, shares[side] = run_once(getattr(args, side), args,
                                                args.seed + i)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            runs[side].append(result)
            pair[side] = {key: result[key] for key in
                          ("metrics", "correct", "failed", "attempted")}
            pair[side]["envelope_raise_share"] = shares[side]
            values = ", ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                for m in metrics)
            print(f"pair {i + 1} seed {args.seed + i} {side}: {values}",
                  flush=True)
        same_share += shares["parent"] == shares["change"]
        pairs.append(pair)

    print(f"\nworkload {args.workload}: {args.pairs} pairs of "
          f"{args.seconds:g}-s runs")
    ok = True
    for side, results in runs.items():
        correct = all(r["correct"] for r in results)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        ok &= correct
        print(f"  {side}: all correct {correct}, failed {failed} of "
              f"{attempted} ({failed / max(attempted, 1):.4g})")
    print(f"  envelope_raise_share line equal in {same_share} of "
          f"{args.pairs} pairs")
    verdicts = {}
    for m in metrics:
        name = m["name"]
        v = verdict([r["metrics"][name]["value"] for r in runs["parent"]],
                    [r["metrics"][name]["value"] for r in runs["change"]],
                    m["better"], m["bound"])
        verdicts[name] = v
        print(f"{name} ({m['unit']}, {m['better']} is better, "
              f"bound {m['bound']:g})")
        for side in ("parent", "change"):
            q1, med, q3 = v[side]
            by_order = order_medians(
                [r["metrics"][name]["value"] for r in runs[side]],
                [pair["first"] == side for pair in pairs])
            first, second = ("-" if m is None else f"{m:.6g}"
                             for m in by_order)
            print(f"  {side:<6}  median {med:.6g}  quartiles {q1:.6g} .. "
                  f"{q3:.6g}  ran first {first}, second {second}")
        spread = "" if v["resolved"] else " (unresolved: spread above bound)"
        print(f"  change won {v['wins']} of {args.pairs} pairs; median "
              f"{v['change'][1] / v['parent'][1] - 1.0:+.2%}; "
              f"claim {'yes' if v['claim'] else 'no'}; "
              f"no regression {'yes' if v['no_regression'] else 'NO'}"
              f"{spread}")
        ok &= v["no_regression"]
    if args.json:
        write_table(args.json, args.workload, {
            "pairs": args.pairs, "seconds": args.seconds,
            "seeds": [pair["seed"] for pair in pairs],
            "heads": {side: git_head(getattr(args, side))
                      for side in ("parent", "change")},
            "runs": pairs,
            "envelope_raise_share_equal": same_share,
            "verdicts": verdicts})
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
