"""Tests of the benchmark harness itself (not of qubeam).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import inputs     # noqa: E402
import oracle     # noqa: E402
import run        # noqa: E402
import stats      # noqa: E402
import tracer     # noqa: E402
import worker     # noqa: E402


# ----------------------------------------------------------- percentiles

def test_nearest_rank_percentiles():
    values = list(range(100, 0, -1))          # 1..100, unsorted
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.median([3.0, 1.0, 2.0, 10.0]) == 2.5


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.beyond(1000, 99) == 10
    assert stats.resolved(1000, 99)
    assert not stats.resolved(999, 99)
    assert stats.resolved(100, 90)
    assert not stats.resolved(99, 90)
    assert not stats.resolved(0, 50)


# ------------------------------------------------------------ calibration

def test_speed_factor_needs_a_chunk():
    rate = calibrate.REFERENCE_RATE
    assert calibrate.speed_factor(10.0 / rate, 10) == pytest.approx(1.0)
    assert calibrate.speed_factor(20.0 / rate, 10) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        calibrate.speed_factor(0.0, 0)


class _FakeSampler(calibrate.Sampler):
    """Runs no alarm; each round adds `chunks` chunks at half the
    reference rate."""

    def __init__(self, chunks):
        super().__init__()
        self.per_round = chunks

    def add_round(self):
        self.chunks += self.per_round
        self.time += 2.0 * self.per_round / calibrate.REFERENCE_RATE


class _FakeWorkload:
    ops_per_round = attempted_per_round = 10

    def __init__(self, sampler):
        self.sampler = sampler

    def round(self, sampler):
        self.sampler.add_round()
        return 0.01

    def figures(self):
        return {}


def test_windows_hold_enough_chunks_and_never_fall_back_to_raw():
    sampler = _FakeSampler(7)
    r = worker.measure(_FakeWorkload(sampler), sampler, 0.02)
    rounds = r["ops"] // 10
    # ceil(MIN_CHUNKS / 7) rounds per window, each at twice the raw rate
    assert r["windows"] == rounds // -(-calibrate.MIN_CHUNKS // 7)
    assert r["raw_ops_per_s"] == pytest.approx(1000.0)
    assert r["ops_per_s"] == pytest.approx(2000.0)
    silent = _FakeSampler(0)
    with pytest.raises(ValueError):
        worker.measure(_FakeWorkload(silent), silent, 0.02)


# ------------------------------------------------------------- self time

def test_self_time_subtracts_direct_children_only():
    #  0 root      [0, 10]
    #  1  child    [1, 3]
    #  2  child    [4, 8]
    #  3   grand   [5, 6]   (child of 2)
    #  4 root      [11, 12]
    parent = [-1, 0, 0, 2, -1]
    duration = [10.0, 2.0, 4.0, 1.0, 1.0]
    own = tracer.self_times(parent, duration)
    assert list(own) == [4.0, 2.0, 3.0, 1.0, 1.0]


def test_layer_metrics_per_round_and_uncalled_names():
    tr = tracer.Tracer()
    a, b = tr._name_id("entangle.full_report"), tr._name_id("dispersion.exact_roots")
    for start in (0.0, 100.0):              # two identical traced rounds
        tr.begin_round()
        base = len(tr.start)
        for nid, par, t0, t1, failed in ((a, -1, 0, 10, 0), (b, base, 1, 7, 0),
                                         (a, -1, 20, 24, 1)):
            tr.name.append(nid)
            tr.parent.append(par)
            tr.start.append(start + t0)
            tr.end.append(start + t1)
            tr.failed.append(failed)
    m = tr.layer_metrics(("entangle.full_report", "dispersion.exact_roots",
                          "sweep.gone_in_a_refactor"))
    assert m["entangle.full_report.calls"] == 2
    assert m["entangle.full_report.self_s"] == pytest.approx(4.0 + 4.0)
    assert m["entangle.full_report.failed"] == 1
    assert m["dispersion.exact_roots.self_s"] == pytest.approx(6.0)
    assert m["entangle.full_report.p50_us"] == pytest.approx(7.0e6)
    for field in tracer.FIELDS:
        assert m[f"sweep.gone_in_a_refactor.{field}"] == 0


def test_tracer_wraps_where_callers_look_and_restores():
    import qubeam
    import qubeam.entangle
    import qubeam.sweep
    original = qubeam.entangle.full_report
    params = qubeam.make_params(2500.0, 3000.0, 0.5, 0.1)
    tr = tracer.Tracer()
    assert tr.install() > 0
    try:
        # the sweep module's own binding is wrapped, and it is the same
        # wrapper as the defining module's
        assert qubeam.sweep.full_report is qubeam.entangle.full_report
        assert qubeam.full_report is not original
        tr.install()                         # idempotent: no double wrapping
        tr.begin_round()
        qubeam.full_report(params, qubeam.PolarizationConfig(2, 1))
    finally:
        tr.uninstall()
    assert qubeam.entangle.full_report is original
    assert qubeam.sweep.full_report is original
    m = tr.layer_metrics()
    assert m["entangle.full_report.calls"] == 1
    assert m["dispersion.exact_roots.calls"] == 1
    assert m["sweep.write_csv.calls"] == 0
    assert 0 < m["dispersion.exact_roots.max_residual_rel"] < 1e-12
    # the one root span's duration splits into the self times below it
    total = m["entangle.full_report.p50_us"] * 1e-6
    parts = sum(m[f"{n}.self_s"] for n in tracer.REPORTED)
    assert parts == pytest.approx(total, rel=1e-9)


# ------------------------------------------------------------------ inputs

def test_seed_reproduces_the_point_stream():
    a, b = inputs.point_stream(3, 64), inputs.point_stream(3, 64)
    assert a == b
    assert a != inputs.point_stream(4, 64)
    assert inputs.sample(3, range(100)) == inputs.sample(3, range(100))


def test_point_stream_stays_in_the_envelope_and_covers_all_pairs():
    stream = inputs.point_stream(11, 512)
    pairs = {(r.pol, r.method) for r in stream}
    assert len(pairs) == len(inputs.STREAM_CONFIGS) * len(inputs.METHODS)
    for r in stream:
        dk_rel = (r.kappa2 - r.kappa1) / r.kappa1
        assert 10.0 <= r.kappa1 <= 1e4
        assert 1e-3 * (1 - 1e-12) <= dk_rel <= 10.0 * (1 + 1e-12)
        assert 0.0 <= r.omega <= r.kappa1 / 2
        assert 0.0 < r.eps <= inputs.coupling_bound(r.kappa1, r.omega, dk_rel)


# ---------------------------------------------------------------- point_mix

class _RejectingQubeam:
    """qubeam, except that make_params rejects one point."""

    def __init__(self, qubeam, bad_point):
        self._q, self._bad = qubeam, bad_point

    def __getattr__(self, name):
        return getattr(self._q, name)

    def make_params(self, *point):
        if point == self._bad:
            raise self._q.ValidationError("rejected for the test")
        return self._q.make_params(*point)


def test_point_mix_counts_a_rejected_point_as_failed():
    import qubeam
    n = 6
    stream = inputs.point_stream(5, n)
    probe = worker.PointMixWorkload(qubeam, 5, n)
    probe.round(worker._NoSampler())
    # reject a point whose exact request succeeds, so the root check would
    # otherwise sample it
    bad = next(i for i, (req, out) in enumerate(zip(stream, probe.outputs))
               if req.method == "exact" and not isinstance(out, str))
    base_failed = probe.failed

    mix = worker.PointMixWorkload(_RejectingQubeam(qubeam, stream[bad].point), 5, n)
    for _ in range(2):
        assert mix.round(worker._NoSampler()) > 0
    assert mix.outputs[bad] == "ValidationError"
    assert mix.errors["ValidationError"] == 2
    assert mix.failed == 2 * base_failed + 2
    assert mix.attempted_per_round == n + 1 and mix.ops_per_round == n
    assert len(mix.latency["verify"]) == 2
    wrong, failed = mix.check()
    assert wrong == 0
    assert failed == mix.failed


def test_stream_requests_lie_in_the_leading_order_regime():
    stream = inputs.point_stream(11, 512)
    whole = inputs.point_stream(11, 512, inputs.CONFIGS, leading_order=False)
    for reqs, want in ((stream, True), (whole, False)):
        inside = [inputs.leading_order_applies(r.kappa1, r.kappa2 - r.kappa1,
                                               r.omega, r.eps) for r in reqs]
        assert all(inside) == want
    assert {r.pol for r in whole} == set(inputs.CONFIGS)


def test_probe_counts_raises_apart_from_the_stream():
    import qubeam
    n = 8
    mix = worker.PointMixWorkload(qubeam, 5, n)
    mix.round(worker._NoSampler())
    failed = mix.failed
    # every probe request at a point make_params rejects raises
    bad = inputs.point_stream(5, n, inputs.CONFIGS, leading_order=False)[0]
    mix.q = _RejectingQubeam(qubeam, bad.point)
    got = mix.probe()
    assert got["probe_n"] == n
    assert got["probe_raised"].get(f"{bad.pol}:ValidationError") == 1
    assert got["probe_raise_share"] == sum(got["probe_raised"].values()) / n
    assert mix.failed == failed


# ------------------------------------------------------------------ oracle

POINT = (2500.0, 3000.0, 0.5, 0.1)


def test_output_check_flags_a_perturbed_root():
    import qubeam
    roots = qubeam.exact_roots(qubeam.make_params(*POINT))
    assert oracle.root_misses(POINT, roots.offsets) == 0
    offsets = [list(row) for row in roots.offsets]
    d = offsets[1][0]
    offsets[1][0] = d + 16 * math.ulp(d)
    assert oracle.root_misses(POINT, offsets) == 1


def test_output_check_flags_a_perturbed_measure():
    import qubeam
    rep = qubeam.full_report(qubeam.make_params(*POINT),
                             qubeam.PolarizationConfig(2, 1))
    assert oracle.measure_misses(POINT, "du", False, rep.E_I, rep.E_S) == 0
    assert oracle.measure_misses(POINT, "du", False, rep.E_I * (1 + 1e-7),
                                 rep.E_S) == 1


def test_du_closed_form_check_flags_a_shifted_row():
    kappa1, dk, omega, eps = 2500.0, 500.0, 0.5, 0.1
    p = oracle.phi(kappa1, kappa1 + dk, omega)
    y, e_s = 1.0 - eps * p, 2.0 * eps * p
    assert oracle.du_row_misses(kappa1, dk, omega, eps, y, e_s) == 0
    assert oracle.du_row_misses(kappa1, dk, omega, eps, y, 10.0 * e_s) == 1
    # omega = 0 has no leading-order signal, so nothing is checked there
    assert not oracle.leading_order_applies(kappa1, dk, 0.0, eps)


# -------------------------------------------------------- benchmark file

def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
