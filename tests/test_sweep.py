"""Sweep configuration, grid evaluation, CSV/matrix output, verification."""
import collections
import dataclasses
import hashlib
import math
from pathlib import Path
import struct
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qubeam.batch as batch_mod
import qubeam.entangle as entangle_mod
import qubeam.sweep as sweep_mod
import qubeam.verify as verify_mod
from qubeam import (
    exact_roots,
    make_params,
    parse_config,
    perturbative_roots,
    run_sweep,
)
from qubeam.errors import (
    AllRowsFailed,
    NonConvergence,
    ParseError,
    QubeamError,
    ValidationError,
)
from qubeam.cli import main
from qubeam.params import ModelParams, _params_verdicts
import qubeam.qstate as qstate_mod
from qubeam.qstate import PolarizationConfig
from qubeam.sweep import (
    CSV_HEADER,
    SweepConfig,
    config_echo_lines,
    write_csv,
)
from qubeam.verify import verify_point

from test_entangle import _envelope_points

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from inputs import leading_order_applies  # noqa: E402

FIG = (2500.0, 3000.0, 0.5, 0.1)

SMALL = dict(dk_min=400.0, dk_max=600.0, dk_steps=3,
             omega_min=0.0, omega_max=0.4, omega_steps=2)

# Grids the batch settles whole (SMALL), hands partly to full_report (MIXED:
# DomainError on most uu/ud points; POLE: MIXED out to dk = 50 with eps at
# the coupling bound, DomainErrors in every config; TIGHT: MIXED scaled by
# 2^-200, eps by 2^-400, near the bottom of the float range: MIXED's
# DomainErrors, and du's Phi denominator underflows to 0 at every point;
# GAP: kappa1 = 1e-60 with eps at the coupling bound, where du's Phi
# denominator underflows), and hands whole to it (BROKEN: GAP with a split
# of 1e-11 kappa1, below the first-order denominator's floor; TINY: eps so
# small that the first-order offsets round to 0; SUBNORMAL: du's Phi is the
# smallest subnormal, whose half rounds to 0). POLE, GAP and BROKEN keep
# the names of the grids they replaced, whose couplings lay past the bound:
# a pert root on the other photon's pole, raw spectral gaps just above 1,
# and no root in reach.
MIXED = dict(kappa1=10.0, eps=1e-3, dk_min=1.0, dk_max=5.0, dk_steps=4,
             omega_min=0.0, omega_max=0.5, omega_steps=3)
POLE = dict(MIXED, eps=0.09, dk_max=50.0)
TIGHT = dict(MIXED, kappa1=10.0 * 2.0 ** -200, eps=1e-3 * 2.0 ** -400,
             dk_min=2.0 ** -200, dk_max=5.0 * 2.0 ** -200,
             omega_max=0.5 * 2.0 ** -200)
TINY = dict(MIXED, kappa1=1.0, eps=5e-324, dk_min=0.05, dk_max=0.2,
            omega_max=0.005)
GAP = dict(kappa1=1e-60, eps=1e-130, dk_min=1e-68, dk_max=2e-68, dk_steps=2,
           omega_min=0.0, omega_max=1e-70, omega_steps=2)
BROKEN = dict(GAP, dk_min=1e-71, dk_max=2e-71, eps=1e-134)
SUBNORMAL = dict(kappa1=1.0, eps=1e-3, dk_min=1.0, dk_max=2.0, dk_steps=2,
                 omega_min=0.0, omega_max=1e-323, omega_steps=2)
# Phi's denominator is subnormal at the smallest split, normal at the rest.
PHI_SUBNORMAL = dict(kappa1=1e-52, eps=1.6e-107, dk_min=2e-52, dk_max=1e-50,
                     dk_steps=4, omega_min=0.0, omega_max=4e-53, omega_steps=3)


def test_defaults():
    cfg = parse_config(None)
    assert cfg == SweepConfig()
    assert cfg.kappa1 == 2500.0
    assert (cfg.dk_min, cfg.dk_max, cfg.dk_steps) == (10.0, 3500.0, 64)
    assert (cfg.omega_min, cfg.omega_max, cfg.omega_steps) == (0.0, 0.5, 64)
    assert cfg.eps == 0.1
    assert cfg.pol.code == "du"
    assert cfg.method == "exact"


def test_grids_hit_the_endpoints():
    cfg = parse_config(None, SMALL)
    og, dg = cfg.omega_grid(), cfg.dk_grid()
    assert len(og) == 2 and len(dg) == 3
    assert og[0] == 0.0 and og[-1] == 0.4
    assert dg == [400.0, 500.0, 600.0]


def test_config_file_parsing(tmp_path):
    path = tmp_path / "sweep.conf"
    path.write_text(
        "# full comment line\n"
        "\n"
        "kappa1 = 1200   # trailing comment\n"
        "dk_min=100\n"
        "  dk_max = 300  \n"
        "dk_steps = 3\n"
        "omega_steps = 2\n"
        "omega_max = 0.2\n"
        "pol = UU\n"
        "method = PERT\n"
        "eps = 0.05\n")
    cfg = parse_config(str(path))
    assert cfg.kappa1 == 1200.0
    assert (cfg.dk_min, cfg.dk_max, cfg.dk_steps) == (100.0, 300.0, 3)
    assert cfg.pol == PolarizationConfig(1, 1)
    assert cfg.method == "perturbative"
    assert cfg.eps == 0.05


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("kappa1 = 1200\ngrid = 5\n")
    with pytest.raises(ParseError) as err:
        parse_config(str(bad))
    assert f"{bad}:2" in str(err.value) and "unknown key" in str(err.value)

    bad.write_text("eps = not-a-number\n")
    with pytest.raises(ParseError) as err:
        parse_config(str(bad))
    assert f"{bad}:1" in str(err.value) and "bad value" in str(err.value)

    bad.write_text("no equals sign here\n")
    with pytest.raises(ParseError) as err:
        parse_config(str(bad))
    assert "expected key=value" in str(err.value)

    bad.write_bytes(b"pol = d\xe9\n")
    with pytest.raises(ParseError) as err:
        parse_config(str(bad))
    assert str(bad) in str(err.value) and "not UTF-8" in str(err.value)

    with pytest.raises(ParseError):
        parse_config(None, {"pol": "xy"})
    with pytest.raises(ParseError):
        parse_config(None, {"method": "newton"})


def test_overrides_win_and_a_flag_not_given_keeps_the_file_key(tmp_path):
    path = tmp_path / "sweep.conf"
    path.write_text("eps = 0.05\nkappa1 = 1200\n")
    cfg = parse_config(str(path), {"eps": 0.2})
    assert (cfg.eps, cfg.kappa1) == (0.2, 1200.0)
    # `qubeam sweep` passes on only the flags given, so the file's kappa1
    # stands without --kappa1.
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(path), "--eps", "0.2",
                 "--dk-steps", "2", "--omega-steps", "2",
                 "--out", str(out)]) == 0
    echo = out.read_text().splitlines()[:12]
    assert "# eps=0.20000000000000001" in echo and "# kappa1=1200" in echo


def test_validation_collects_every_problem():
    # One message lists the sweep's own problems and the grid points that
    # make_params rejects; a grid that cannot be built is not checked.
    with pytest.raises(ValidationError) as err:
        parse_config(None, {"dk_max": 5.0, "omega_min": -0.5})
    assert str(err.value) == (
        "dk_max must be >= dk_min; grid point omega=-0.5, delta_kappa=10.0: "
        "omega must be nonnegative and finite, got -0.5")
    with pytest.raises(ValidationError) as err:
        parse_config(None, {"dk_steps": 1, "omega_min": -0.5})
    assert str(err.value) == "dk_steps must be >= 2, got 1"


def test_validation_rejects_resonant_grid_points():
    with pytest.raises(ValidationError) as err:
        parse_config(None, dict(SMALL, omega_max=2499.0))
    assert "grid point" in str(err.value)


# Whole messages of invalid grids, as the point-by-point loop over
# make_params wrote them: the first point of each error class, in grid order.
GRID_ERRORS = {
    "kappa1": ({"kappa1": -1.0},
               "grid point omega=0.0, delta_kappa=10.0: kappa1 must be "
               "positive and finite, got -1.0"),
    "eps": ({"eps": math.nan},
            "grid point omega=0.0, delta_kappa=10.0: eps must be positive "
            "and finite, got nan"),
    # omega = 2459.3 is the first grid point past the coupling bound
    "omega": ({"omega_max": 2499.0},
              "grid point omega=2459.333333333333, delta_kappa=10.0: eps=0.1 "
              "above the coupling bound 0.01 (kappa1 - omega)^2 min(1, "
              "(kappa2 - kappa1)/kappa1) at kappa1=2500.0, kappa2=2510.0, "
              "omega=2459.333333333333; grid point omega=2499.0, "
              "delta_kappa=10.0: omega=2499.0 within the resonance margin of "
              "kappa1=2500.0 (limit 2475.0)"),
    # (kappa1 - omega)^2 overflows, and no NumPy warning escapes
    "omega_huge": ({"omega_max": 1e308},
                   "grid point omega=1.5873015873015875e+306, "
                   "delta_kappa=10.0: omega=1.5873015873015875e+306 within "
                   "the resonance margin of kappa1=2500.0 (limit 2475.0)"),
    # 0 * inf: the first omega is nan, the others inf
    "omega_inf": ({"omega_max": math.inf},
                  "grid point omega=nan, delta_kappa=10.0: omega must be "
                  "nonnegative and finite, got nan"),
    "omega_min": ({"omega_min": -0.5},
                  "grid point omega=-0.5, delta_kappa=10.0: omega must be "
                  "nonnegative and finite, got -0.5"),
    "dk_min": ({"dk_min": 0},
               "grid point omega=0.0, delta_kappa=0.0: kappa1 = kappa2 = "
               "2500.0; the first-order root corrections divide by the "
               "frequency split"),
    "dk_min_nan": ({"dk_min": math.nan},
                   "grid point omega=0.0, delta_kappa=nan: kappa2 must be "
                   "positive and finite, got nan"),
    "two_classes": ({"dk_min": 1e-13, "omega_max": 2499.0},
                    "grid point omega=0.0, delta_kappa=1e-13: kappa1 = "
                    "kappa2 = 2500.0; the first-order root corrections divide "
                    "by the frequency split; grid point omega=2499.0, "
                    "delta_kappa=55.55555555555566: omega=2499.0 within the "
                    "resonance margin of kappa1=2500.0 (limit 2475.0)"),
}


@pytest.mark.parametrize("case", GRID_ERRORS)
def test_grid_validation_messages_are_unchanged(case):
    overrides, message = GRID_ERRORS[case]
    with pytest.raises(ValidationError) as err:
        parse_config(None, overrides)
    assert str(err.value) == message


# The routes that build a SweepConfig; each checks it the same way.
ROUTES = {
    "init": lambda overrides: SweepConfig(**overrides),
    "replace": lambda overrides: dataclasses.replace(SweepConfig(),
                                                     **overrides),
    "parse_config": lambda overrides: parse_config(None, overrides),
}

FLOAT_KEYS = ["kappa1", "dk_min", "dk_max", "omega_min", "omega_max", "eps"]


@pytest.mark.parametrize("sign", [1, -1], ids=["pos", "neg"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_config_int_too_large_for_a_float_reads_as_infinite(key, sign):
    # float(10**400) overflows; on every route the float keys read such an
    # int as +-inf, as a config file or the command line reads "1e400",
    # and every route then rejects the config with the same message.
    def outcome(build, value):
        try:
            return build({key: value})
        except ValidationError as exc:
            return type(exc), str(exc)
    want = outcome(ROUTES["parse_config"], sign * math.inf)
    for build in ROUTES.values():
        assert outcome(build, sign * 10**400) == want


@pytest.mark.parametrize("method", ["exact", "perturbative"])
def test_zero_field_line_is_the_same_for_mirrored_configs(method):
    # At omega = 0 reversing the field changes nothing, so du equals ud and
    # uu equals dd there in every value column but the closed forms.
    n = SweepConfig().dk_steps
    for a, b in (("du", "ud"), ("uu", "dd")):
        ta, tb = (run_sweep(SweepConfig(pol=PolarizationConfig.from_code(c),
                                        method=method)) for c in (a, b))
        assert ta.omega[:n] == [0.0] * n and ta.omega[n] > 0.0
        for name in ("y", "E_I", "E_S", "raw_norm", "status"):
            assert repr(getattr(ta, name)[:n]) == repr(getattr(tb, name)[:n])


# Configs no route builds: each raises parse_config's ValidationError.
INVALID = {
    "dk_steps_1": {"dk_steps": 1}, "dk_steps_0": {"dk_steps": 0},
    "omega_steps_0": {"omega_steps": 0}, "kappa1_neg": {"kappa1": -1.0},
    "omega_max_2499": {"omega_max": 2499.0},
    "dk_steps_2.5": {"dk_steps": 2.5}, "omega_steps_2.5": {"omega_steps": 2.5},
    **{f"{key}_huge": {key: 10**400} for key in FLOAT_KEYS},
    # text that float() would read as the default value
    **{f"{key}_str": {key: str(getattr(SweepConfig(), key))}
       for key in FLOAT_KEYS},
}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("case", INVALID)
def test_every_route_rejects_an_invalid_config(case, route):
    with pytest.raises(ValidationError) as want:
        parse_config(None, INVALID[case])
    with pytest.raises(ValidationError) as got:
        ROUTES[route](INVALID[case])
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("route", ["init", "replace"])
def test_direct_routes_reject_a_bad_method_or_pol(route):
    # parse_config reads method and pol as text and raises ParseError for a
    # bad one; a config built directly is checked with the other fields.
    with pytest.raises(ValidationError) as err:
        ROUTES[route]({"method": "newton", "pol": "du", "dk_steps": 1})
    assert str(err.value) == (
        "dk_steps must be >= 2, got 1; method must be exact or perturbative, "
        "got 'newton'; pol must be a PolarizationConfig, got 'du'")
    for overrides in ({"method": "newton"}, {"pol": "xy"}):
        with pytest.raises(ParseError):
            parse_config(None, overrides)


@pytest.mark.parametrize("value", [5, None, 2.5, ("d", "u"), b"du"])
def test_a_pol_that_is_neither_text_nor_a_config_is_rejected(value):
    # parse_config reads text as a code and hands anything else to the
    # config's own check, as the direct routes do; method is held the same.
    for field, message in (("pol", "pol must be a PolarizationConfig"),
                           ("method", "method must be exact or perturbative")):
        for route, build in ROUTES.items():
            with pytest.raises(ValidationError) as err:
                build({field: value})
            assert str(err.value) == f"{message}, got {value!r}", route
    assert parse_config(None, {"pol": PolarizationConfig(1, 2)}).pol.code == "ud"


@pytest.mark.parametrize("value", [None, "abc", 1j])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_a_float_field_that_is_not_a_number_is_rejected(key, value):
    message = f"{key} must be a number, got {value!r}"
    for route, build in ROUTES.items():
        with pytest.raises(ValidationError) as err:
            build({key: value, "dk_steps": 1})
        assert str(err.value) == f"{message}; dk_steps must be >= 2, got 1"


def test_settled_grid_makes_no_make_params_call(monkeypatch):
    calls = []
    real = sweep_mod.make_params
    monkeypatch.setattr(sweep_mod, "make_params",
                        lambda *args: calls.append(args) or real(*args))
    parse_config(None)
    assert calls == []
    run_sweep(parse_config(None, SMALL))    # the batch settles every point
    assert calls == []


def _validate_point_by_point(kappa1, eps, omegas, dks):
    """The grid check as a loop: make_params at every point, the first
    message of each error class."""
    seen, problems = set(), []
    for omega in omegas:
        for dk in dks:
            try:
                make_params(kappa1, kappa1 + dk, omega, eps)
            except ValidationError as exc:
                if type(exc) not in seen:
                    seen.add(type(exc))
                    problems.append(f"grid point omega={omega}, "
                                    f"delta_kappa={dk}: {exc}")
    return "; ".join(problems)


_EDGES = st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf,
                          5e-324, 1e-300, 1e308])


@given(kappa1=st.one_of(st.floats(-10.0, 1e4), _EDGES),
       eps=st.one_of(st.floats(-1.0, 10.0), _EDGES),
       dk_min=st.one_of(st.floats(1e-15, 1e4), st.sampled_from(
           [5e-324, 1e-13, 1e-300, 1e308, math.inf, 0.0, -0.0, -1.0,
            math.nan, -math.inf])),
       dk_span=st.one_of(st.floats(0.0, 1e4), _EDGES),
       omega_min=st.one_of(st.floats(0.0, 1e4), _EDGES),
       omega_span=st.one_of(st.floats(0.0, 1e4), _EDGES),
       steps=st.integers(2, 4))
@settings(deadline=None, derandomize=True, max_examples=300)
def test_grid_validation_matches_make_params_at_every_point(
        kappa1, eps, dk_min, dk_span, omega_min, omega_span, steps):
    dk_max, omega_max = dk_min + dk_span, omega_min + omega_span
    if dk_max < dk_min or omega_max < omega_min:
        return          # the message names the order problem too
    try:
        SweepConfig(kappa1=kappa1, eps=eps, dk_min=dk_min, dk_max=dk_max,
                    dk_steps=steps, omega_min=omega_min, omega_max=omega_max,
                    omega_steps=steps + 1)
        got = ""
    except ValidationError as exc:
        got = str(exc)
    assert got == _validate_point_by_point(
        kappa1, eps, sweep_mod._grid(omega_min, omega_max, steps + 1),
        sweep_mod._grid(dk_min, dk_max, steps))


def test_sweep_rows_ordered_and_consistent():
    cfg = parse_config(None, SMALL)
    table = run_sweep(cfg)
    assert len(table) == 10
    assert [len(column) for column in table] == [6] * 10
    keys = list(zip(table.omega, table.delta_kappa))
    assert keys == sorted(keys)
    assert table.status == ["ok"] * 6
    for dk, kappa2 in zip(table.delta_kappa, table.kappa2):
        assert kappa2 == cfg.kappa1 + dk
    for y, raw_norm in zip(table.y, table.raw_norm):
        assert 0.0 < y <= 1.0 + 1e-9
        assert raw_norm == pytest.approx(1.0, abs=1e-9)
    # zero-field row carries no entanglement, the field rows do
    zero = [e_i for omega, e_i in zip(table.omega, table.E_I) if omega == 0.0]
    lit = [e_i for omega, e_i in zip(table.omega, table.E_I) if omega > 0.0]
    assert len(zero) == len(lit) == 3
    assert max(zero) <= 1e-8
    assert min(lit) > 1e-14


def test_sweep_survives_single_point_failure():
    # Raw uu gaps fall below the domain tolerance at omega > 0 on this grid,
    # so full_report raises DomainError there and only omega = 0 evaluates.
    table = run_sweep(parse_config(None, dict(MIXED, pol="uu")))
    rows = [dict(zip(table._fields, row)) for row in zip(*table)]
    failed = [r for r in rows if r["status"] != "ok"]
    assert len(failed) == 8
    for bad in failed:
        assert bad["status"] == "error:DomainError"
        assert bad["omega"] > 0.0
        assert all(bad[name] is None for name in table._fields[3:9])
    ok = [r for r in rows if r["status"] == "ok"]
    assert [r["delta_kappa"] for r in ok] == parse_config(None, MIXED).dk_grid()
    for row in ok:
        assert row["omega"] == 0.0
        assert row["y"] is not None and row["E_I"] is not None
        assert row["raw_norm"] == pytest.approx(1.0, abs=1e-3)


def test_failure_tally_keeps_first_seen_order():
    # first-seen order, not count order: a status seen once and first
    # leads one seen twice
    status = ["ok", "error:ZeroNorm", "error:DomainError", "ok",
              "error:DomainError"]
    table = sweep_mod.SweepTable(*[[None] * 5] * 9, status)
    assert sweep_mod.failure_tally(table) == (
        "3 failed (error:ZeroNorm 1, error:DomainError 2)")
    assert sweep_mod.failure_tally(table._replace(status=["ok"])) == "0 failed"


def test_sweep_all_failures_raise():
    cfg = parse_config(None, BROKEN)    # every split below the floor
    with pytest.raises(AllRowsFailed) as err:
        run_sweep(cfg)
    assert str(err.value) == ("all 4 grid points failed; first status: "
                              "error:SingularDenominator")


def test_csv_output_is_deterministic(tmp_path):
    cfg = parse_config(None, SMALL)
    table = run_sweep(cfg)
    write_csv(table, cfg, str(tmp_path / "a.csv"))
    write_csv(run_sweep(cfg), cfg, str(tmp_path / "b.csv"))
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    assert a == b

    text = a.decode()
    lines = text.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    from qubeam import __version__
    assert comments[0] == f"# qubeam {__version__}"
    assert any(l == "# pol=du" for l in comments)
    assert data[0] == CSV_HEADER == (
        "omega,delta_kappa,kappa2,y,E_I,E_S,E_I_asymptotic,E_S_closed,"
        "raw_norm,status")
    assert len(data) == 1 + len(table.status) == 1 + 6
    first = data[1].split(",")
    assert len(first) == 10
    assert float(first[0]) == table.omega[0]
    assert float(first[3]) == table.y[0]     # 17g round-trips exactly
    assert first[9] == "ok"


def test_matrix_output_shapes_and_nan(tmp_path):
    cfg = parse_config(None, dict(MIXED, pol="uu"))
    rows = run_sweep(cfg)
    paths = write_csv(rows, cfg, str(tmp_path / "s.csv"),
                      str(tmp_path / "surface"))
    assert set(paths) == {"EI", "ES"}
    for path in paths.values():
        lines = (tmp_path / path.split("/")[-1]).read_text().splitlines()
        head = lines[0].split()
        assert head[0] == "4" and [float(x) for x in head[1:]] == cfg.dk_grid()
        assert len(lines) == 1 + 3
        for line in lines[1:]:
            assert len(line.split()) == 5
        assert "nan" not in lines[1]                        # omega = 0
        for line in lines[2:]:                              # the failed points
            assert line.split()[1:] == ["nan"] * 4


@pytest.mark.parametrize("grid", [SMALL, MIXED], ids=["small", "mixed"])
def test_surface_cells_are_the_csv_measures(grid, tmp_path):
    for pol in ("uu", "ud", "du", "dd"):
        for method in ("exact", "pert"):
            cfg = parse_config(None, dict(grid, pol=pol, method=method))
            rows = run_sweep(cfg)
            base = tmp_path / f"{pol}_{method}"
            paths = write_csv(rows, cfg, f"{base}.csv", str(base))
            assert paths == {"EI": f"{base}_EI.dat", "ES": f"{base}_ES.dat"}
            data = [line.split(",") for line in
                    Path(f"{base}.csv").read_text().splitlines()
                    if not line.startswith("#")][1:]
            for column, suffix in ((4, "EI"), (5, "ES")):
                lines = Path(paths[suffix]).read_text().splitlines()
                cells = [cell for line in lines[1:]
                         for cell in line.split()[1:]]
                assert cells == [
                    fields[column] if fields[9] == "ok" else "nan"
                    for fields in data], (pol, method, suffix)
                assert [line.split()[0] for line in lines[1:]] == [
                    sweep_mod._fmt(omega) for omega in cfg.omega_grid()]
    assert write_csv(rows, cfg, str(tmp_path / "alone.csv")) == {}


@pytest.mark.parametrize("grid", [SMALL, MIXED, POLE, TIGHT, BROKEN, TINY,
                                  GAP, SUBNORMAL, PHI_SUBNORMAL],
                         ids=["small", "mixed", "pole", "tight", "broken",
                              "tiny", "gap", "subnormal", "phi_subnormal"])
def test_batched_sweep_matches_point_by_point(grid):
    for pol in ("uu", "ud", "du", "dd"):
        for method in ("exact", "pert"):
            cfg = parse_config(None, dict(grid, pol=pol, method=method))
            want = [sweep_mod._evaluate_point(cfg, omega, dk)
                    for omega in cfg.omega_grid() for dk in cfg.dk_grid()]
            if all(row[-1] != "ok" for row in want):
                with pytest.raises(AllRowsFailed) as err:
                    run_sweep(cfg)
                assert str(err.value) == (f"all {len(want)} grid points "
                                          f"failed; first status: "
                                          f"{want[0][-1]}")
                continue
            got = list(zip(*run_sweep(cfg)))
            assert got == want, (pol, method)
            assert repr(got) == repr(want)      # also tells -0.0 from 0.0


GRIDS = {"mixed": MIXED, "pole": POLE, "gap": GAP}

# SHA-256 of the CSV and both surfaces that write_csv writes for the grids
# with failed rows (error rows, empty cells, nan surface cells), for every
# config of theirs whose sweep does not raise AllRowsFailed. The POLE and
# GAP entries were re-recorded when those grids moved inside the coupling
# bound, and GAP's exact uu, ud and dd entries again when the residual
# bound lost its unit; GAP's sweeps but du's now fail no row. Every pert
# entry was re-recorded when the first-order offsets took their closed
# form: no status moved, and only GAP's (split 1e-8 kappa1, where the old
# form cancelled) moved y and raw_norm.
FAILED_ROW_DIGESTS = {
    ("mixed", "uu", "exact"): (
        "4b4a000e394ab38fb482260ebb114bfad8f45f6e71428f58a22d58db739dab91",
        "cd9657d05cb147d8f18434ca94d66c0a2f63c31926cedc7287b03cd65a84ff23",
        "556aec69c2e648f6cf471d9ce1e315dcedbcdc298aaec59d9f086ce20f9f847f"),
    ("mixed", "uu", "pert"): (
        "87bf2bf26863f04bed5f801aa40834b64e08bc93ec94504eca212b60d3f80c64",
        "0262b92c76cabbe46c392204eafd81d07fe92e5c29a868971e3448c897f481d7",
        "c6844c5b95b43986a3291c05bf8e4d58fcfaf1d945a33b5c6723fe83c95040c4"),
    ("mixed", "ud", "exact"): (
        "9ea94c660e0796ba32a10080f110aae2071dfc37fc0244087d2528c951016195",
        "5b3f2125a6f26ecde5c90ddff66b3070858b068879ee3cbd79f3d2d3de9efa0c",
        "1d282dddff95e94f523b044f1a1e0d407377c24e72efb1162292efbb40c96773"),
    ("mixed", "ud", "pert"): (
        "74e94909856367a0c5d902f65baf43c594c4ea522a8fed573b4104f56eb94ebf",
        "30b8c0e29e56ebb3adef06199eed57cde039d201f4888ed014caab262d5ecdad",
        "ad03454db1d0b9dcb8449eaefbb828f8d0305191c550a337c11463e2e2d44c18"),
    ("mixed", "du", "exact"): (
        "994481068658d3206f79f5e4c3876559267481695b57b51522e7a5fb51a58e49",
        "ffc3fe5c38e08bb4c2ec8f2b3610e58b8a8468cd7daeb85b0b43d24bdd36c29a",
        "2d3b3846cbf2104fee2e1203199870b30bd1e2c9ede3223a23917b4206a49c6f"),
    ("mixed", "du", "pert"): (
        "9640318d439ba74402d28ff3466dfcac8d5a646d9fd816850a7c8b66be30e392",
        "dd1bfea2e60bbb430b7da968beaa5d07b3dd9eba71ed6d157f861b4a15e0e89a",
        "ef8d02774a48daced8268804090cdceb1769ad694dc4d3d5a005af9aab994866"),
    ("mixed", "dd", "exact"): (
        "944b747cc119b6e9fcba0f9e5b4544fd16c35f55ad14539bb3478d5aeacc314f",
        "6b510c2f06d6880d9256d364bedefd0c3d908efc572ccb0e685fe18696094438",
        "dd9e5a3cb0d7efea2e945dafdf94f21dc22372e2bbe0d9c8714d2549e0f4c5cb"),
    ("mixed", "dd", "pert"): (
        "da4a3da132f1b3f893f7d1ef067528e88df406076382f247aa357002178f089b",
        "d7cbb884ec740fe5eed580f82f57ce0b0d5fbf86089f37ee0b803b57871217a3",
        "51481671650f6dd459286a9ad317506eb4e6e8d091806a1dda0a45c2bbd8e72f"),
    ("pole", "uu", "exact"): (
        "b3ab70fafbece1ed5bbbf565223f23cbd804d5876f837eb5e24c1f1a177ad8ab",
        "a8b9d0794d197b8382b593a2fa0565dacc4d977330760d76df2dbed374b1fd40",
        "7e4d5c463775c08c02429ea9317129d9a38f3aa046849ecf1b0e49c18ee72154"),
    ("pole", "uu", "pert"): (
        "728375b12c6b0ea2ef8b0850f8da837fa28f45db286a6c4e79fd1ac91cf792fe",
        "5a232364dbd1380788048dcc67a5211f703d20e55d80c40ba39fa7ee463475be",
        "cf2c7c8cd1340c9a2380c99fc53784599c93f7ce6fda77795f34cbabf4419136"),
    ("pole", "ud", "exact"): (
        "413de6228ac6ec4ce1d8ffa909c513c293f3225f824745c23c1dd59aca1c1ffc",
        "135b8150465e75cdae163f4410597ea565e1cad555909aee278831a71a4fa31b",
        "78b2ad4ec3ccbd575ca148394f201ece4754cea4d5cb99fe197c20cd1df4e963"),
    ("pole", "ud", "pert"): (
        "11cebc9d86d0e3aa97acbcf07a628fa238da50ba0f06d793c792f4e760cb0a48",
        "4498fa91367c226f6973d038a1eecf0d79b7f9260955fe41a94f68591949bed0",
        "f02d5a2d0dbe0eb411f7d07ce08aaad89ffa1a597fc817b77f6d1a3ba3501f53"),
    ("pole", "du", "exact"): (
        "eaad8954363fe8b2a9c2de40664f0fe04eb8059fb9e928d3777de23be0b130e1",
        "c89ed83ae699b8e0e7353bdd550f8dd59e6e8e8f0dbf1032354e23cb19bfa2db",
        "9c73fabb27ff27f0fbaa9548f7a234969bdf41700981e7911cdb3b8ed63d2ac7"),
    ("pole", "du", "pert"): (
        "2c7cd35aff095f5a85e1ce90e4b6abf3ebcea763a339114229d45c1b081ad28f",
        "3d8247d1f5e5a7dfdbdf1cae06b0a9a992c5ec6d1ac69781ebbed51bfe6d17c5",
        "a3c4f4773ad509d9fea4c6f7ca848a00fedc5c7803a000a62ce9990654e11485"),
    ("pole", "dd", "exact"): (
        "1b1c32b6258f92e1a321623021ace141aae106b559facb9d5616a9d4e2ecaaf2",
        "c14fa5993027a2f25f60f8abc021e01a8cf3df2740a2e0e174768f5d0879ba22",
        "5a8e34d729bcd908e685293947d7e569ae9d960fca7917e15601d21468a1fb90"),
    ("pole", "dd", "pert"): (
        "001e6e03c0b9e75bcf36754f33b171eeb4775b609c885564e34c6de5c628b20f",
        "10b5517e2ddd0330cf8b248934f0561547ee947de8f2590cf85a85857c210197",
        "0b1dc78fd611f8c9e3b05ef9c5e4d867782e50576fa18b5616052341ea5edacf"),
    ("gap", "uu", "exact"): (
        "3a056b47f91d45d25a53fd31a56c2184a31984ac27fb51591d6149da946732d5",
        "291b506f12533b08423bd5a3adef3ee6a4e5759c057d045f2e65223b69751651",
        "76c98904a320cd777a36db1e5691e74d58596fcfa2b176a8267c16d82ec14bfb"),
    ("gap", "uu", "pert"): (
        "a83df1efe6e27e8e90158ee821578e049b25eb4796d949472310e09e78ab9a96",
        "54eb44de7b691b8a8f5ef4f29723eed4d658714db552631b6778571eb562c157",
        "c921fdb585e8eaee8c12731256500bf41bc590fe1ffae3fa9772275116d668a9"),
    ("gap", "ud", "exact"): (
        "8b2e5e843bc846ed84c6ea96ab973dc1d3a777024a98b6c1b7a74b2a645c3328",
        "9fac631bcea4fc0b4f37af26b8d370ec01dd6b395d0e202e15721a738c2f000e",
        "67772909f7555cf490691853507533553d31510d363fa83750153385edd4e79f"),
    ("gap", "ud", "pert"): (
        "87eb6d62decb5fbcf0e90a09aec384cf3558fcd4bb25d0df5f086f643b6ac36d",
        "1545004c49547a91d36390b3719064dd6225eed9aade3453b633205d1b909efa",
        "6f21e19601a8cd1d1e9c4fbc690a05eec2aa7cb9c74e9d8b6f17a36736da6e8e"),
    ("gap", "dd", "exact"): (
        "8e39a20974760fe895e8b99bbe5326635a757ee3935093c0f5a84cb2462a204d",
        "644d134abc4bb0aac99d581697a860031a1e09fd4ac3f59127aaf6fde20d1396",
        "534d19491f0e75e23a50c989d1c1eda5319427447a0d87f533d07356c7174330"),
    ("gap", "dd", "pert"): (
        "de722887ef886942d33debba6e627b819ffda5dfba82eb113e0cf824ceb46784",
        "572a298256e6afc6d087bb1183442075e21575d66803fd8d1c5d19ff1104d54e",
        "e03d52e2efb03d79e820ee3ddac8f97ce38e26684ef02c9c04ac100fc3e59a38"),
}


@pytest.mark.parametrize("case", FAILED_ROW_DIGESTS, ids="-".join)
def test_sweeps_with_failed_rows_write_unchanged_bytes(case, tmp_path):
    name, pol, method = case
    cfg = parse_config(None, dict(GRIDS[name], pol=pol, method=method))
    base = tmp_path / "s"
    write_csv(run_sweep(cfg), cfg, f"{base}.csv", str(base))
    got = tuple(hashlib.sha256(Path(path).read_bytes()).hexdigest()
                for path in (f"{base}.csv", f"{base}_EI.dat", f"{base}_ES.dat"))
    assert got == FAILED_ROW_DIGESTS[case]


def test_closed_form_failures_go_through_full_report():
    # Phi's denominator 2 k1 k2 (w-k1)^2 (w+k2)^2 overflows at the largest
    # kappa2 unless omega is large enough, where the roots and gaps are
    # fine, so those du rows carry the closed forms' SingularDenominator.
    # (Inside the coupling bound eps*Phi stays below 0.03, so no sweep row
    # reaches RangeViolation.)
    for method in ("exact", "pert"):
        cfg = parse_config(None, dict(kappa1=1e51, eps=1e95, dk_min=1e50,
                                      dk_max=5e51, dk_steps=4, omega_min=0.0,
                                      omega_max=5e50, omega_steps=3,
                                      method=method))
        want = [sweep_mod._evaluate_point(cfg, omega, dk)
                for omega in cfg.omega_grid() for dk in cfg.dk_grid()]
        assert [row[-1] for row in want] == 2 * (["ok"] * 3 + [
            "error:SingularDenominator"]) + ["ok"] * 4
        assert repr(list(zip(*run_sweep(cfg)))) == repr(want)


def test_csv_prints_negative_zero_as_such(tmp_path):
    # The grid cells are config's grid values, which hold no -0.0; a value
    # cell prints by float.__format__, a line holding a None or an int falls
    # back to _fmt, and a line of one repeated object prints it once. That
    # test is on identity, so separate 0.0 and -0.0 objects print apart.
    cfg = parse_config(None, SMALL)
    table = run_sweep(cfg)
    table.omega[0] = table.E_S[0] = -0.0
    odd = [math.nan, math.inf, 5e-324, None, 7, -math.inf]
    for column, value in zip(table[3:9], odd):
        column[1] = value
    repeated = [[-0.0] * 3, [None] * 3, [math.nan] * 3, [-0.0, 0.0, 0.0]]
    for column, line in zip(table[3:7], repeated):
        column[3:6] = line
    write_csv(table, cfg, str(tmp_path / "s.csv"))
    data = [line for line in (tmp_path / "s.csv").read_text().splitlines()
            if not line.startswith("#")]
    cells = data[1].split(",")
    assert (cells[0], cells[5]) == ("0", "-0")
    cells = data[2].split(",")
    assert cells[3:9] == [sweep_mod._fmt(value) for value in odd] == [
        "nan", "inf", "4.9406564584124654e-324", "", "7", "-inf"]
    assert data[4].startswith("0.40000000000000002,400,2900,")
    for column, line in enumerate(repeated, start=3):
        assert [row.split(",")[column] for row in data[4:7]] == [
            sweep_mod._fmt(value) for value in line]
    assert [row.split(",")[6] for row in data[4:7]] == ["-0", "0", "0"]


@given(st.one_of(st.floats(), st.binary(min_size=8, max_size=8).map(
    lambda bits: struct.unpack("<d", bits)[0])))
@example(0.0).via("zero")
@example(-0.0).via("negative zero")
@example(5e-324).via("smallest subnormal")
@example(-2.225073858507201e-308).via("largest subnormal")
@example(math.inf).via("inf")
@example(-math.inf).via("-inf")
@example(math.nan).via("nan")
@example(-math.nan).via("-nan")
@settings(deadline=None, derandomize=True, max_examples=2000)
def test_float_format_prints_as_percent_17g(value):
    # write_csv prints value cells by float.__format__; the CSV bytes are
    # those of "%.17g" % value.
    assert float.__format__(value, ".17g") == "%.17g" % value


def test_unvalidated_grid_points_become_error_rows():
    # No config skips the grid check: a grid with points make_params
    # rejects (here omega within the resonance margin) is not built by any
    # route, so run_sweep never sees them.
    overrides = dict(SMALL, omega_max=2499.0, omega_steps=3)
    for build in ROUTES.values():
        with pytest.raises(ValidationError) as err:
            build(overrides)
        assert str(err.value) == (
            "grid point omega=2499.0, delta_kappa=400.0: omega=2499.0 within "
            "the resonance margin of kappa1=2500.0 (limit 2475.0)")


@pytest.mark.parametrize("key", ["kappa1", "eps", "omega_max", "dk_max"])
def test_unvalidated_int_too_large_for_a_float_reads_as_infinite(key):
    # A SweepConfig built directly reads such an int as +inf too, and
    # rejects it with parse_config's message, not an OverflowError.
    def message(build, value):
        with pytest.raises(ValidationError) as err:
            build(dict(SMALL, **{key: value}))
        return str(err.value)
    assert (message(ROUTES["init"], 10**400)
            == message(ROUTES["init"], math.inf)
            == message(ROUTES["parse_config"], 10**400))


def test_raw_norm_is_correctly_rounded(capsys):
    # At this default uu grid point the raw norm squared is 1 - 2^-53,
    # whose correctly rounded root is itself; x ** 0.5 (libm pow) gives 1.0.
    cfg = SweepConfig(pol=PolarizationConfig.from_code("uu"))
    dk = cfg.dk_grid()[39]
    assert sweep_mod._evaluate_point(cfg, 0.0, dk)[8] == 1.0 - 2.0 ** -53
    assert main(["state", "--pol", "uu", "--omega", "0",
                 "--kappa2", repr(cfg.kappa1 + dk)]) == 0
    assert capsys.readouterr().out.endswith("raw_norm: 0.99999999999999989\n")


# The point_mix envelope with its coupling bound exceeded up to 1e4-fold,
# which only a hand-built ModelParams reaches, and where stages raise.
_POINT = st.builds(
    lambda k_exp, dk_exp, omega_frac, eps_exp: (
        10.0 ** k_exp, 10.0 ** k_exp * (1.0 + 10.0 ** dk_exp),
        omega_frac * 10.0 ** k_exp,
        10.0 ** eps_exp * 0.01 * (10.0 ** k_exp * (1.0 - omega_frac)) ** 2
        * min(1.0, 10.0 ** dk_exp)),
    st.floats(min_value=1.0, max_value=4.0),
    st.floats(min_value=-3.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=-4.0, max_value=4.0))


@given(points=st.lists(_POINT, min_size=1, max_size=6))
@settings(deadline=None, derandomize=True, max_examples=40)
def test_batch_gaps_match_amplitudes_or_are_unsettled(points):
    """Each settled point's gaps equal the scalar pipeline's bit for bit,
    and a point where the scalar pipeline raises is never settled."""
    batch = ModelParams(*(np.array(column) for column in zip(*points)))
    for code in ("uu", "ud", "du", "dd"):
        pol = PolarizationConfig.from_code(code)
        for method in ("exact", "perturbative"):
            cfg = SweepConfig(pol=pol, method=method)
            y_gap, norm_gap, settled = batch_mod._batch_gaps(batch, cfg)
            for i, point in enumerate(points):
                p = ModelParams(*point)
                try:
                    roots = (exact_roots(p) if method == "exact"
                             else perturbative_roots(p))
                    _, *gaps = qstate_mod._normalized_state(
                        qstate_mod._state_columns(roots, p, pol), pol)
                except QubeamError:
                    assert not settled[i]
                    continue
                if settled[i]:
                    assert (y_gap[i], norm_gap[i]) == tuple(gaps)


CHECK_NAMES = ["root_ladder", "state_pattern", "y_closed_ladder",
               "schmidt_closed_ladder", "info_asymptotic", "zero_entanglement"]

# (passed, failed, skipped) per polarization config at four points: the
# reference point, zero field, a coupling far past the bound (a hand-built
# ModelParams), and eps 1e-9.
# Past the bound, du's info_asymptotic passes: it compares two forms at one
# gap, 6.75e-3, which differ by 2.525e-4, within twice the series' next term.
VERIFY_COUNTS = {
    "reference": {"uu": (3, 0, 3), "ud": (2, 0, 4), "du": (5, 0, 1),
                  "dd": (3, 0, 3)},
    "zero_field": {"uu": (2, 0, 4), "ud": (1, 0, 5), "du": (1, 0, 5),
                   "dd": (2, 0, 4)},
    "broken": {"uu": (0, 3, 3), "ud": (0, 2, 4), "du": (1, 4, 1),
               "dd": (0, 3, 3)},
    "tiny": {"uu": (1, 2, 3), "ud": (0, 2, 4), "du": (3, 2, 1),
             "dd": (1, 2, 3)},
}


def _verify_all_configs(params, expected):
    reports = {}
    for code, counts in expected.items():
        rep = verify_point(params, PolarizationConfig.from_code(code))
        assert rep.counts == counts, code
        assert [c.name for c in rep.checks] == CHECK_NAMES
        reports[code] = rep
    return reports


def test_verify_point_reference(fig_params):
    reports = _verify_all_configs(fig_params, VERIFY_COUNTS["reference"])
    assert all(rep.ok for rep in reports.values())
    by_name = {c.name: c for c in reports["du"].checks}
    assert by_name["zero_entanglement"].status == "skip"
    for name in CHECK_NAMES[:-1]:
        assert by_name[name].status == "pass", by_name[name].detail


def test_verify_point_solves_each_rung_once_per_method(fig_params,
                                                      monkeypatch):
    # Every check that reads a rung's roots, and the rung's exact report,
    # share one exact and one first-order solve per rung, in every config
    # and at omega = 0 too, where only root_ladder reads them. For du the
    # closed-form ladders take Phi from the reports: phi_closed runs once
    # per report and once in info_asymptotic.
    calls = collections.Counter()

    def spy(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for module in (verify_mod, entangle_mod):
        for name in ("phi_closed", "exact_roots", "perturbative_roots"):
            spy(module, name)
    spy(verify_mod, "_report")
    for params in (fig_params, fig_params._replace(omega=0.0)):
        for code in ("uu", "ud", "du", "dd"):
            calls.clear()
            rep = verify_point(params, PolarizationConfig.from_code(code))
            assert rep.ok, (params, code)
            assert calls["exact_roots"] == 3, (params, code)
            assert calls["perturbative_roots"] == 3, (params, code)
            assert calls["phi_closed"] <= 4, (params, code)
            assert calls["_report"] <= 3, (params, code)


def test_a_raising_solve_fails_each_check_that_reads_its_rung(fig_params,
                                                              monkeypatch):
    # A solve that raises is not kept: each check that reads the rung solves
    # it again and gets a fresh error, so the stage prefix the report adds
    # is not doubled.
    lp = fig_params._replace(eps=fig_params.eps * verify_mod._LADDER[2])

    def failing(params):
        if params == lp:
            raise NonConvergence("no root at rung 2")
        return exact_roots(params)

    monkeypatch.setattr(verify_mod, "exact_roots", failing)
    details = {c.name: (c.status, c.detail) for c in verify_point(
        fig_params, PolarizationConfig.from_code("du")).checks}
    for name in ("root_ladder", "state_pattern"):
        assert details[name] == ("fail", "no root at rung 2"), name
    for name in ("y_closed_ladder", "schmidt_closed_ladder"):
        assert details[name] == (
            "fail", "stage roots: no root at rung 2"), name
    assert details["info_asymptotic"][0] == "pass"


def test_verify_point_parallel(fig_params):
    rep = verify_point(fig_params, PolarizationConfig.from_code("uu"))
    assert rep.ok
    assert rep.counts == (3, 0, 3)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["zero_entanglement"].status == "pass"
    assert by_name["y_closed_ladder"].status == "skip"


def test_verify_point_zero_field():
    reports = _verify_all_configs(make_params(2500.0, 3000.0, 0.0, 0.1),
                                  VERIFY_COUNTS["zero_field"])
    assert all(rep.ok for rep in reports.values())


def test_info_asymptotic_is_bounded_by_the_series_next_term(fig_params,
                                                            monkeypatch):
    # The check compares the asymptotic form with the exact measure at one
    # gap g = eps*Phi, so they differ by the series' next term,
    # g / (4 (1 - ln(g/2))). A fixed 1e-10 failed every envelope point with
    # g above ~8.2e-9, such as this one (g = 2.65e-6). The bound, twice the
    # term plus 8 ulps, still catches a relative error of 1e-13 in the
    # asymptotic form at the reference point, where the term is 5.7e-15.
    du = PolarizationConfig.from_code("du")

    def info_asymptotic(params):
        (check,) = [c for c in verify_point(params, du).checks
                    if c.name == "info_asymptotic"]
        return check

    params = make_params(227.5823934546539, 267.04885630515747,
                         105.16702838412192, 0.1893920255595636)
    assert params.eps * entangle_mod.phi_closed(params)[0] > 8.2e-9
    assert info_asymptotic(params).status == "pass"
    assert info_asymptotic(fig_params).status == "pass"
    original = verify_mod._asymptotic_from_phi
    monkeypatch.setattr(verify_mod, "_asymptotic_from_phi",
                        lambda phi, eps: original(phi, eps) * (1.0 + 1e-13))
    check = info_asymptotic(fig_params)
    assert check.status == "fail", check.detail


def test_verify_point_detects_breakage(capsys):
    # A coupling far past the bound, which make_params and so the CLI
    # reject, and one so small that exact and first-order values agree to
    # the bit on some ladder rungs.
    for eps, case in (("1e9", "broken"), ("1e-9", "tiny")):
        reports = _verify_all_configs(
            ModelParams(2500.0, 3000.0, 0.5, float(eps)), VERIFY_COUNTS[case])
        assert not any(rep.ok for rep in reports.values())
        for code, (passed, failed, skipped) in VERIFY_COUNTS[case].items():
            status = main(["verify", "--eps", eps, "--pol", code])
            out, err = capsys.readouterr()
            if case == "broken":
                assert (status, out) == (1, "")
                assert err.startswith("error: eps=1000000000.0 above the "
                                      "coupling bound")
            else:
                assert status == 2
                assert out.endswith(f"{passed} passed, {failed} failed, "
                                    f"{skipped} skipped\n")


def test_verify_point_reports_a_zero_defect_on_a_ladder():
    # At a coupling scaled by 1e-9 a defect on a ladder rung can be exactly
    # 0.0, in the root ladder or in a closed-form ladder (the last point);
    # its ratio reads inf and the check fails instead of raising.
    points = [(*point[:3], point[3] * 1e-9)
              for point in _envelope_points(7, 40)]
    points.append((756.2743600973859, 1155.6081695365501, 185.02037243492484,
                   1.7765298219737055e-10))
    zero_ratios = set()
    for point in points:
        params = make_params(*point)
        for code in ("uu", "ud", "du", "dd"):
            rep = verify_point(params, PolarizationConfig.from_code(code))
            for check in rep.checks:
                if "'inf'" in check.detail:
                    assert check.status == "fail"
                    zero_ratios.add(check.name)
    assert {"root_ladder", "y_closed_ladder"} <= zero_ratios


# sha256 of every verify_point check's "name|status|detail" line, in order,
# over the points below and all four configs: 14,688 checks.
VERIFY_SET_DIGEST = (
    "5e14391534b8af4ee2507845179a1b50f2f5a486a8d28764acea17163591384b")


def test_verify_text_over_the_set_is_pinned():
    # 300 envelope points at scales 1 and 2^+-40 (eps by the square), those
    # in make_params' set: 612 points. Pins every check's detail off the
    # reference point, state_pattern's gap defect ratios included.
    points = [point for point in
              (tuple(x * f for x, f in zip(point, (s, s, s, s * s)))
               for point in _envelope_points(23, 300)
               for s in (1.0, 2.0 ** -40, 2.0 ** 40))
              if all(_params_verdicts(*point))]
    assert len(points) == 612
    digest = hashlib.sha256()
    for point in points:
        params = make_params(*point)
        for code in ("uu", "ud", "du", "dd"):
            rep = verify_point(params, PolarizationConfig.from_code(code))
            for check in rep.checks:
                digest.update(f"{check.name}|{check.status}|{check.detail}\n"
                              .encode())
    assert digest.hexdigest() == VERIFY_SET_DIGEST


def _state_pattern(params, code):
    (check,) = [c for c in verify_point(params, PolarizationConfig.from_code(
        code)).checks if c.name == "state_pattern"]
    return check


def test_state_pattern_quarters_at_leading_order_points_at_any_scale():
    # Where eps*Phi dominates the second-order floor, both gaps' defects
    # (exact against first-order roots) shrink 4x per halving of eps, in
    # every config and at scales 1 and 2^+-40 (eps by the square). At
    # omega = 0 the gap is second order and its defect shrinks 8x instead.
    points = [point for point in _envelope_points(31, 300)
              if all(_params_verdicts(*point)) and leading_order_applies(
                  point[0], point[1] - point[0], point[2], point[3])]
    assert len(points) == 116
    for point in points:
        for s in (1.0, 2.0 ** -40, 2.0 ** 40):
            params = make_params(*(x * f for x, f in
                                   zip(point, (s, s, s, s * s))))
            for code in ("uu", "ud", "du", "dd"):
                check = _state_pattern(params, code)
                assert check.status == "pass", (point, s, code, check.detail)
    for code in ("uu", "ud", "du", "dd"):
        check = _state_pattern(make_params(2500.0, 3000.0, 0.0, 0.1), code)
        assert (check.status, check.detail) == (
            "skip", "omega = 0 has no first-order gap")


def test_state_pattern_fails_when_both_sides_use_first_order_roots(
        fig_params, monkeypatch):
    # Identical states leave a zero defect on every rung, whose ratio is inf.
    monkeypatch.setattr(verify_mod, "exact_roots", perturbative_roots)
    for code in ("uu", "ud", "du", "dd"):
        check = _state_pattern(fig_params, code)
        assert (check.status, check.detail) == (
            "fail", "gap defect ratios ['inf', 'inf', 'inf', 'inf']"), code


@pytest.mark.parametrize("rung", range(3))
def test_a_nan_exact_gap_fails_state_pattern(rung, fig_params, monkeypatch):
    pol = PolarizationConfig.from_code("du")
    lp = fig_params._replace(eps=fig_params.eps * verify_mod._LADDER[rung])
    exact = qstate_mod._state_gaps(
        qstate_mod._state_columns(exact_roots(lp), lp, pol), pol)
    assert exact != qstate_mod._state_gaps(
        qstate_mod._state_columns(perturbative_roots(lp), lp, pol), pol)
    original = verify_mod._state_gaps

    def nan_y_gap(columns, config):
        gaps = original(columns, config)
        return (*gaps[:2], math.nan, gaps[3]) if gaps == exact else gaps

    monkeypatch.setattr(verify_mod, "_state_gaps", nan_y_gap)
    check = _state_pattern(fig_params, "du")
    assert check.status == "fail"
    assert "'nan'" in check.detail


def test_config_echo_has_no_timestamps():
    lines = config_echo_lines(SweepConfig())
    assert all(line.startswith("# ") for line in lines)
    joined = "\n".join(lines).lower()
    assert "date" not in joined and "time" not in joined
    assert "# method=exact" in lines
