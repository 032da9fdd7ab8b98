"""Benchmark worker: one workload, in one process, on one thread.

run.py starts it with the checkout's src/ on PYTHONPATH. The worker starts
a calibration Sampler (calibrate.py), imports qubeam, generates the
workload's inputs and prints "ready <calibration seconds> <chunks>". Then
it runs rounds in a closed loop (one client; the next request goes out
when the last one returned) until --seconds have been measured. A round is
a fixed amount of work: one CLI sweep (sweep_exact), a du and a uu CLI
sweep (sweep_pert), or one pass over the seeded request stream (point_mix).
The Sampler's time is taken out of every round and request; its chunk rate
over a window of consecutive rounds rescales that window's throughput to
the reference CPU speed.

With --trace 1 the Sampler stops after set-up, and untraced and traced
rounds alternate; the traced ones give the per-layer figures and their
ratio gives the tracing overhead.

After the timed loop it checks the outputs against oracle.py and prints one
JSON line with the raw figures.
"""
from array import array
import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

import calibrate  # noqa: E402  (HERE is on sys.path as the script's directory)
import inputs     # noqa: E402
import stats      # noqa: E402


class SweepWorkload:
    """Repeated `qubeam sweep` CLI calls on the default grid."""

    def __init__(self, qubeam, name, seed, tmp):
        self.q = qubeam
        self.seed = seed
        self.runs = []
        for pol, flags in inputs.SWEEPS[name]:
            base = os.path.join(tmp, f"{pol}_{'pert' if flags else 'exact'}")
            argv = ["sweep", "--out", base + ".csv", "--matrix", base, *flags]
            self.runs.append((pol, "--method" in flags, base, argv))
        grid = inputs.DEFAULT_GRID
        self.ops_per_round = grid["omega"][2] * grid["dk"][2] * len(self.runs)
        self.attempted_per_round = self.ops_per_round
        self.digests = None
        self.texts = None
        self.mismatched_rounds = 0
        self.rounds = 0

    def round(self, sampler):
        """Program seconds of one round, calibration time taken out."""
        mark = sampler.mark()
        start = time.perf_counter()
        for _, _, _, argv in self.runs:
            rc = self.q.cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"qubeam {' '.join(argv)} exited {rc}")
        elapsed = time.perf_counter() - start - sampler.since(mark)[0]
        self.rounds += 1
        self._keep_outputs()
        return elapsed

    def _keep_outputs(self):
        texts = []
        for _, _, base, _ in self.runs:
            for path in (base + ".csv", base + "_EI.dat", base + "_ES.dat"):
                with open(path, encoding="utf-8") as fh:
                    texts.append(fh.read())
        digests = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
        if self.digests is None:
            self.digests, self.texts = digests, texts
        elif digests != self.digests:
            self.mismatched_rounds += 1

    def figures(self):
        return {}

    def check(self):
        """(wrong, failed) over the stored outputs; outside the timed loop."""
        import oracle
        wrong = self.mismatched_rounds * len(self.runs)
        failed_rows = check_failed = 0
        kappa1, eps = inputs.DEFAULT_GRID["kappa1"], inputs.DEFAULT_GRID["eps"]
        for i, (pol, pert, _, _) in enumerate(self.runs):
            csv_text, ei_text, es_text = self.texts[3 * i:3 * i + 3]
            miss, errors, ok_rows = oracle.sweep_misses(
                csv_text, ei_text, es_text, pol, inputs.DEFAULT_GRID)
            wrong += miss
            failed_rows += errors
            for omega, dk, e_i, e_s in inputs.sample(f"{self.seed}-{i}", ok_rows):
                point = (kappa1, kappa1 + dk, omega, eps)
                wrong += oracle.measure_misses(point, pol, pert, e_i, e_s)
                miss, raised = _root_misses(self.q, oracle, point)
                wrong += miss
                check_failed += raised
        return wrong, failed_rows * self.rounds + check_failed


class PointMixWorkload:
    """Seeded single-point requests, make_params then full_report, with
    verify rounds interleaved; probe() runs the whole input envelope once,
    untimed.

    ops_per_s counts the requests over their own time; the verify rounds
    are timed apart and only enter the verify_round latencies, attempted
    and failed.
    """

    def __init__(self, qubeam, seed, n=inputs.STREAM_LEN):
        self.q = qubeam
        self.seed = seed
        self.stream = inputs.point_stream(seed, n)
        self.pols = {c: qubeam.PolarizationConfig.from_code(c)
                     for c in inputs.CONFIGS}
        self.reference = qubeam.make_params(*inputs.REFERENCE_POINT)
        self.ops_per_round = n
        self.attempted_per_round = n + -(-n // inputs.VERIFY_EVERY)
        # flat float arrays, so memory barely grows with the run's length
        self.latency = {kind: array("d") for kind in ("exact", "perturbative",
                                                      "verify")}
        self.outputs = None
        self.mismatched = 0
        self.rounds = 0
        self.failed = 0
        self.errors = {}

    def round(self, sampler):
        """Program seconds of one pass's requests, verify rounds left out;
        each request's latency is recorded with the calibration time inside
        it taken out. A point that make_params rejects is a failed request."""
        q, pols, stream = self.q, self.pols, self.stream
        lat_verify = self.latency["verify"]
        verify_time = 0.0
        outputs = []
        verdicts = []
        clock = time.perf_counter
        round_mark = sampler.mark()
        start = clock()
        for i, req in enumerate(stream):
            if i % inputs.VERIFY_EVERY == 0:
                mark = sampler.mark()
                t0 = clock()
                ok = all([q.verify_point(self.reference, pols[c]).ok
                          for c in inputs.CONFIGS])
                took = clock() - t0 - sampler.since(mark)[0]
                lat_verify.append(took)
                verify_time += took
                verdicts.append(ok)
            mark = sampler.mark()
            t0 = clock()
            try:
                rep = q.full_report(q.make_params(*req.point), pols[req.pol],
                                    method=req.method)
            except q.QubeamError as exc:
                outputs.append(type(exc).__name__)
            else:
                outputs.append((rep.E_I, rep.E_S))
            self.latency[req.method].append(clock() - t0 - sampler.since(mark)[0])
        elapsed = clock() - start - verify_time - sampler.since(round_mark)[0]
        self.rounds += 1
        self._tally(outputs, verdicts)
        return elapsed

    def _tally(self, outputs, verdicts):
        for out in outputs:
            if isinstance(out, str):
                self.failed += 1
                self.errors[out] = self.errors.get(out, 0) + 1
        self.failed += verdicts.count(False)
        if self.outputs is None:
            self.outputs = outputs
        else:
            self.mismatched += sum(a != b for a, b in zip(outputs, self.outputs))

    def figures(self):
        """Latency percentiles (raw wall clock) by request kind."""
        lat = self.latency
        verify = sum(lat["verify"])
        out = {"errors_by_kind": self.errors,
               "verify_time_share": verify / (verify + sum(lat["exact"])
                                              + sum(lat["perturbative"]))}
        for key, values, scale, qs in (
                ("report_exact", lat["exact"], 1e6, (50, 99)),
                ("report_pert", lat["perturbative"], 1e6, (50, 99)),
                ("verify_round", lat["verify"], 1e3, (50, 90))):
            for pct in qs:
                out[f"{key}_p{pct}"] = stats.percentile(values, pct) * scale
                out[f"{key}_p{pct}_n"] = len(values)
                out[f"{key}_p{pct}_resolved"] = stats.resolved(len(values), pct)
        return out

    def probe(self):
        """Raise share of the whole envelope: the seed's stream over all four
        configs and every kind of point (leading_order=False).
        Run once, outside the timed loop, and counted in neither attempted
        nor failed."""
        q = self.q
        raised = {}
        stream = inputs.point_stream(self.seed, len(self.stream),
                                     inputs.CONFIGS, leading_order=False)
        for req in stream:
            try:
                q.full_report(q.make_params(*req.point), self.pols[req.pol],
                              method=req.method)
            except q.QubeamError as exc:
                key = f"{req.pol}:{type(exc).__name__}"
                raised[key] = raised.get(key, 0) + 1
        return {"probe_raise_share": sum(raised.values()) / len(stream),
                "probe_n": len(stream), "probe_raised": raised}

    def check(self):
        import oracle
        wrong = self.mismatched
        ok = [(req, out) for req, out in zip(self.stream, self.outputs)
              if not isinstance(out, str)]
        for _, (e_i, _) in ok:
            wrong += oracle.range_misses(e_i)
        for method in inputs.METHODS:
            picked = inputs.sample(f"{self.seed}-{method}",
                                   [x for x in ok if x[0].method == method])
            for req, (e_i, e_s) in picked:
                wrong += oracle.measure_misses(req.point, req.pol,
                                               method != "exact", e_i, e_s)
        check_failed = 0
        solved = [req for req, _ in ok if req.method == "exact"]
        for req in inputs.sample(f"{self.seed}-roots", solved):
            miss, raised = _root_misses(self.q, oracle, req.point)
            wrong += miss
            check_failed += raised
        return wrong, self.failed + check_failed


def _root_misses(q, oracle, point):
    """(misses, failed) of the exact roots at point against 50 digits.

    A raise is a failed operation, not a wrong output.
    """
    try:
        roots = q.exact_roots(q.make_params(*point))
    except q.QubeamError:
        return 0, 1
    return oracle.root_misses(point, roots.offsets), 0


def _import_qubeam():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import qubeam
    import qubeam.cli
    origin = os.path.realpath(qubeam.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"qubeam imported from {origin}, not from {SRC}")
    return qubeam


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, sampler, seconds):
    """Untraced rounds until `seconds` of wall time have passed.

    raw_ops_per_s is the counted operations over their program seconds.
    Consecutive rounds form a window as soon as calibrate.MIN_CHUNKS
    chunks ran in them; ops_per_s is the median over windows of the
    window's throughput rescaled by its own speed factor, so a slow drift
    of the machine within a run is followed. Rounds after the last full
    window enter only raw_ops_per_s, unless no window filled at all.
    """
    times, scaled = [], []
    window_ops, window_time, mark = 0, 0.0, sampler.mark()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        elapsed = workload.round(sampler)
        times.append(elapsed)
        window_ops += workload.ops_per_round
        window_time += elapsed
        cal_time, chunks = sampler.since(mark)
        if chunks >= calibrate.MIN_CHUNKS:
            scaled.append(window_ops / window_time
                          * calibrate.speed_factor(cal_time, chunks))
            window_ops, window_time, mark = 0, 0.0, sampler.mark()
    if not scaled:
        scaled.append(window_ops / window_time
                      * calibrate.speed_factor(*sampler.since(mark)))
    raw = workload.ops_per_round * len(times) / sum(times)
    result = {"peak_rss_mb": _peak_rss_mb(),
              "ops": workload.attempted_per_round * len(times),
              "ops_per_s": stats.median(scaled), "raw_ops_per_s": raw,
              "windows": len(scaled)}
    result["speed_factor"] = result["ops_per_s"] / raw
    result.update(workload.figures())
    return result


class _NoSampler:
    def mark(self):
        return None

    def since(self, mark):
        return 0.0, 0


def measure_traced(workload, seconds, name):
    """Alternate untraced and traced rounds for `seconds` of wall time.

    Rounds are timed whole here, verify rounds included, so that the layer
    self times and the round time cover the same work.
    """
    import tracer as tracing
    tr = tracing.Tracer()
    plain, traced = [], []
    off = _NoSampler()
    clock = time.perf_counter
    deadline = clock() + seconds
    while clock() < deadline:
        t0 = clock()
        workload.round(off)
        plain.append(clock() - t0)
        tr.install()
        tr.begin_round()
        try:
            t0 = clock()
            workload.round(off)
            traced.append(clock() - t0)
        finally:
            tr.uninstall()
    layers = tr.layer_metrics()
    # each traced round against the untraced round just before it, so slow
    # drifts of the machine cancel
    layers["trace_overhead_ratio"] = stats.median(
        [t / p for t, p in zip(traced, plain)])
    os.makedirs(OUT_DIR, exist_ok=True)
    tr.write(os.path.join(OUT_DIR, f"trace-{name}.npz"))
    return {"ops": workload.attempted_per_round * (len(plain) + len(traced)),
            "layers": layers, "traced_round_s": stats.median(traced)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after printing ready (set-up timing)")
    args = parser.parse_args(argv)

    sampler = calibrate.Sampler().start()
    try:
        qubeam = _import_qubeam()
        os.makedirs(OUT_DIR, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
        try:
            if args.workload == "point_mix":
                workload = PointMixWorkload(qubeam, args.seed)
            else:
                workload = SweepWorkload(qubeam, args.workload, args.seed, tmp)
            print(f"ready {sampler.time!r} {sampler.chunks}", flush=True)
            if args.setup_only:
                return 0
            if args.trace:
                sampler.stop()
                result = measure_traced(workload, args.seconds, args.workload)
            else:
                result = measure(workload, sampler, args.seconds)
                sampler.stop()
            wrong, failed = workload.check()
            if args.workload == "point_mix":
                result.update(workload.probe())
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    finally:
        sampler.stop()
    result.update(workload=args.workload, attempted=result["ops"],
                  failed=failed, wrong_outputs=wrong)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
