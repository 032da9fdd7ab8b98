"""qubeam benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload point_mix --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the directory above this file. The
program is imported from its src/, so nothing is installed. Each run starts
set-up probes and then one worker process (worker.py) with QUBEAM_THREADS
removed and numeric libraries held to one thread, and waits for each to end.

Prints the figures by name and unit, then, as its last line, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Exits 2
without a result when the checkout has no src/qubeam or a run fails.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import inputs     # noqa: E402
import stats      # noqa: E402
import tracer     # noqa: E402

SETUP_PROBES = 7
TIME_LIMIT_S = 170.0

# (name, unit) of the JSON end-to-end metrics; each is measured on every
# workload.
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us",
                   "failed": "count", "max_residual_rel": "ratio",
                   "bytes": "bytes", "trace_overhead_ratio": "ratio"}


def per_layer_names():
    names = [f"{fn}.{field}" for fn in tracer.REPORTED for field in tracer.FIELDS]
    return names + list(tracer.EXTRA) + ["trace_overhead_ratio"]


def per_layer_unit(name):
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def child_env():
    env = dict(os.environ)
    env.pop("QUBEAM_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class RunFailed(Exception):
    pass


def start_worker(args, setup_only, log, deadline):
    """Start worker.py; returns (process, set-up seconds, calibration
    seconds, calibration chunks).

    Set-up runs from the spawn to the worker's "ready" line. The worker
    reports the calibration time and chunks its Sampler ran by then; that
    time is taken out of the set-up seconds.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                            text=True, cwd=ROOT, env=child_env())
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    words = line.split()
    if len(words) != 3 or words[0] != "ready":
        stop(proc, deadline)
        raise RunFailed(f"worker did not start (printed {line!r})")
    cal_time, chunks = float(words[1]), int(words[2])
    return proc, ready - cal_time, cal_time, chunks


def stop(proc, deadline):
    """Wait for the worker until the deadline, then kill it; returns stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("worker ran past the time limit") from None
    return out


def run(args):
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    log_path = os.path.join(OUT_DIR, f"worker-{args.workload}.log")
    with open(log_path, "w", encoding="utf-8") as log:
        raw, cal_time, chunks = [], 0.0, 0
        for _ in range(SETUP_PROBES):
            proc, probe_s, probe_cal, probe_chunks = start_worker(
                args, True, log, deadline)
            stop(proc, deadline)
            if proc.returncode != 0:
                raise RunFailed(f"set-up probe exited {proc.returncode}")
            raw.append(probe_s)
            cal_time += probe_cal
            chunks += probe_chunks
        proc = start_worker(args, False, log, deadline)[0]
        out = stop(proc, deadline)
    if proc.returncode != 0 or not out.strip():
        raise RunFailed(f"worker exited {proc.returncode}; see {log_path}")
    if not chunks:
        raise RunFailed("no calibration chunk ran during set-up")
    result = json.loads(out.strip().splitlines()[-1])
    # one speed factor from the calibration chunks of all the probes
    result["setup_s"] = stats.median(raw) / calibrate.speed_factor(cal_time, chunks)
    result["raw_setup_s"] = stats.median(raw)
    return result


def fmt(value, unit, note=""):
    text = "n/a" if value is None else f"{value:.6g} {unit}"
    return f"{text}  {note}".rstrip()


def print_report(args, r):
    print(f"qubeam benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    attempted, failed = r["attempted"], r["failed"]
    sweep = args.workload != "point_mix"
    lines = [("setup_s", fmt(r["setup_s"], "s",
                             f"(median of {SETUP_PROBES} start-ups, at "
                             f"reference speed; raw {r['raw_setup_s']:.4g} s)"))]
    if not args.trace:
        op = "grid points" if sweep else "requests; verify rounds left out"
        lines.append(("ops_per_s", fmt(r["ops_per_s"], "1/s",
                                       f"({op}, at reference speed; raw "
                                       f"{r['raw_ops_per_s']:.6g}, speed "
                                       f"factor {r['speed_factor']:.3f}, "
                                       f"{r['windows']} windows)")))
        lines.append(("sweep_points_per_s",
                      fmt(r["raw_ops_per_s"] if sweep else None, "1/s",
                          "(wall clock, = raw ops_per_s)" if sweep else "")))
        for key, unit in (("report_exact_p50", "us"), ("report_exact_p99", "us"),
                          ("report_pert_p50", "us"), ("report_pert_p99", "us"),
                          ("verify_round_p50", "ms"), ("verify_round_p90", "ms")):
            note = ""
            if key in r:
                note = f"(n={r[key + '_n']}"
                note += ")" if r[key + "_resolved"] else ", fewer than 10 beyond)"
            lines.append((f"{key}_{unit}", fmt(r.get(key), unit, note)))
        lines.append(("failed_ratio", fmt(failed / attempted, "ratio",
                                          f"({failed} of {attempted})")))
        lines.append(("wrong_outputs", fmt(r["wrong_outputs"], "count")))
        lines.append(("peak_rss_mb", fmt(r["peak_rss_mb"], "MB")))
        if "verify_time_share" in r:
            lines.append(("verify_time_share",
                          fmt(r["verify_time_share"], "ratio",
                              "(of request and verify time; not in ops_per_s)")))
        if r.get("errors_by_kind"):
            lines.append(("errors_by_kind", json.dumps(r["errors_by_kind"])))
    else:
        layers = r["layers"]
        for name in per_layer_names():
            lines.append((name, fmt(layers[name], per_layer_unit(name))))
        share = layers["dispersion.exact_roots.self_s"] / r["traced_round_s"]
        lines.append(("exact_roots share of traced round",
                      f"{share:.3f}  (traced round {r['traced_round_s']:.4g} s)"))
        lines.append(("wrong_outputs", fmt(r["wrong_outputs"], "count")))
    if "probe_raise_share" in r:
        lines.append(("envelope_raise_share",
                      fmt(r["probe_raise_share"], "ratio",
                          f"(of {r['probe_n']} untimed requests over the whole "
                          f"envelope and all four configs; not in attempted "
                          f"or failed; "
                          f"{json.dumps(r['probe_raised'])})")))
    width = max(len(name) for name, _ in lines)
    for name, text in lines:
        print(f"  {name:<{width}}  {text}")


def result_json(args, r):
    if args.trace:
        metrics = {name: {"value": r["layers"][name], "unit": per_layer_unit(name)}
                   for name in per_layer_names()}
    else:
        metrics = {name: {"value": r[name], "unit": unit}
                   for name, unit in END_TO_END}
    return {"correct": r["wrong_outputs"] == 0, "attempted": r["attempted"],
            "failed": r["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark one qubeam workload.")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qubeam", "__init__.py")):
        print(f"error: no qubeam source under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(args, result)
    print(json.dumps(result_json(args, result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
