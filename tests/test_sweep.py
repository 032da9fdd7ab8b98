"""Sweep configuration, grid evaluation, CSV/matrix output, verification."""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubeam.sweep as sweep_mod
from qubeam import (
    amplitudes,
    build_block,
    exact_roots,
    make_params,
    parse_config,
    perturbative_roots,
    run_sweep,
    verify,
    verify_point,
)
from qubeam.errors import (
    AllRowsFailed,
    ParseError,
    QubeamError,
    ValidationError,
)
from qubeam.cli import main
from qubeam.params import ModelParams
from qubeam.qstate import PolarizationConfig
from qubeam.sweep import (
    CSV_HEADER,
    SweepConfig,
    config_echo_lines,
    write_csv,
)

FIG = (2500.0, 3000.0, 0.5, 0.1)

SMALL = dict(dk_min=400.0, dk_max=600.0, dk_steps=3,
             omega_min=0.0, omega_max=0.4, omega_steps=2)

# Grids the batch settles whole (SMALL), hands partly to full_report (MIXED:
# DomainError on most uu/ud points; POLE: with pert, a root on the other
# photon's pole and DomainErrors; TIGHT: exact residuals above tol), and
# hands whole to it (BROKEN: no root brackets, or no gap in the domain;
# TINY: eps so small that the first-order offsets round to 0; GAP: with
# pert, ud/du raw spectral gaps just above 1, whose E_S is in the domain).
MIXED = dict(kappa1=10.0, eps=1e-3, dk_min=1.0, dk_max=5.0, dk_steps=4,
             omega_min=0.0, omega_max=0.5, omega_steps=3)
POLE = dict(MIXED, eps=1000.0, dk_max=50.0)
TIGHT = dict(MIXED, tol=1e-17)
BROKEN = dict(SMALL, eps=1e9)
TINY = dict(MIXED, kappa1=1.0, eps=5e-324, dk_min=0.05, dk_max=0.2,
            omega_max=0.005)
GAP = dict(kappa1=1e-60, eps=1e-125, dk_min=1e-68, dk_max=2e-68, dk_steps=2,
           omega_min=0.0, omega_max=1e-70, omega_steps=2)


def test_defaults():
    cfg = parse_config(None)
    assert cfg == SweepConfig()
    assert cfg.kappa1 == 2500.0
    assert (cfg.dk_min, cfg.dk_max, cfg.dk_steps) == (10.0, 3500.0, 64)
    assert (cfg.omega_min, cfg.omega_max, cfg.omega_steps) == (0.0, 0.5, 64)
    assert cfg.eps == 0.1
    assert cfg.pol.code == "du"
    assert cfg.method == "exact"
    assert cfg.tol == 1e-12


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

    with pytest.raises(ParseError):
        parse_config(None, {"pol": "xy"})
    with pytest.raises(ParseError):
        parse_config(None, {"method": "newton"})


def test_overrides_win_and_none_is_skipped(tmp_path):
    path = tmp_path / "sweep.conf"
    path.write_text("eps = 0.05\nkappa1 = 1200\n")
    cfg = parse_config(str(path), {"eps": 0.2, "kappa1": None})
    assert cfg.eps == 0.2
    assert cfg.kappa1 == 1200.0


def test_validation_collects_every_problem():
    with pytest.raises(ValidationError) as err:
        parse_config(None, {"dk_steps": 1, "omega_min": -0.5, "tol": 0.0})
    msg = str(err.value)
    assert "dk_steps" in msg and "omega_min" in msg and "tol" in msg
    assert msg.count(";") >= 2


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
    "omega": ({"omega_max": 2499.0},
              "grid point omega=2499.0, delta_kappa=10.0: omega=2499.0 within "
              "the resonance margin of kappa1=2500.0 (limit 2475.0)"),
    # 0 * inf: the first omega is nan, the others inf
    "omega_inf": ({"omega_max": math.inf},
                  "grid point omega=nan, delta_kappa=10.0: omega must be "
                  "nonnegative and finite, got nan"),
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


def test_settled_grid_makes_no_make_params_call(monkeypatch):
    calls = []
    real = sweep_mod.make_params
    monkeypatch.setattr(sweep_mod, "make_params",
                        lambda *args: calls.append(args) or real(*args))
    parse_config(None)
    assert calls == []
    run_sweep(parse_config(None, SMALL))    # the batch settles every point
    assert calls == []


def _validate_point_by_point(config):
    """The grid check as a loop: make_params at every point, the first
    message of each error class."""
    seen, problems = set(), []
    for omega in config.omega_grid():
        for dk in config.dk_grid():
            try:
                make_params(config.kappa1, config.kappa1 + dk, omega,
                            config.eps)
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
           [5e-324, 1e-13, 1e-300, 1e308, math.inf])),
       dk_span=st.one_of(st.floats(0.0, 1e4), _EDGES),
       omega_min=st.one_of(st.floats(0.0, 1e4), _EDGES),
       omega_span=st.one_of(st.floats(0.0, 1e4), _EDGES),
       steps=st.integers(2, 4))
@settings(deadline=None, derandomize=True, max_examples=300)
def test_grid_validation_matches_make_params_at_every_point(
        kappa1, eps, dk_min, dk_span, omega_min, omega_span, steps):
    config = SweepConfig(kappa1=kappa1, eps=eps, dk_min=dk_min,
                         dk_max=dk_min + dk_span, dk_steps=steps,
                         omega_min=omega_min, omega_max=omega_min + omega_span,
                         omega_steps=steps + 1)
    if not (dk_min > 0 and not config.dk_max < dk_min
            and not omega_min < 0 and not config.omega_max < omega_min):
        return          # rejected before the grid is looked at
    try:
        sweep_mod._validate(config)
        got = ""
    except ValidationError as exc:
        got = str(exc)
    assert got == _validate_point_by_point(config)


def test_sweep_rows_ordered_and_consistent():
    cfg = parse_config(None, SMALL)
    rows = run_sweep(cfg)
    assert len(rows) == 6
    keys = [(row.omega, row.delta_kappa) for row in rows]
    assert keys == sorted(keys)
    for row in rows:
        assert row.status == "ok"
        assert row.kappa2 == cfg.kappa1 + row.delta_kappa
        assert 0.0 < row.y <= 1.0 + 1e-9
        assert row.raw_norm == pytest.approx(1.0, abs=1e-9)
    # zero-field row carries no entanglement, the field rows do
    zero = [r for r in rows if r.omega == 0.0]
    lit = [r for r in rows if r.omega > 0.0]
    assert max(r.E_I for r in zero) <= 1e-8
    assert min(r.E_I for r in lit) > 1e-14


def test_sweep_survives_single_point_failure():
    # Raw uu gaps fall below the domain tolerance at omega > 0 on this grid,
    # so full_report raises DomainError there and only omega = 0 evaluates.
    rows = run_sweep(parse_config(None, dict(MIXED, pol="uu")))
    failed = [r for r in rows if r.status != "ok"]
    assert len(failed) == 8
    for bad in failed:
        assert bad.status == "error:DomainError"
        assert bad.omega > 0.0
        assert bad.y is None and bad.E_I is None and bad.raw_norm is None
    ok = [r for r in rows if r.status == "ok"]
    assert [r.delta_kappa for r in ok] == parse_config(None, MIXED).dk_grid()
    for row in ok:
        assert row.omega == 0.0
        assert row.y is not None and row.E_I is not None
        assert row.raw_norm == pytest.approx(1.0, abs=1e-3)


def test_sweep_all_failures_raise():
    cfg = parse_config(None, dict(SMALL, eps=1e9))  # no roots anywhere
    with pytest.raises(AllRowsFailed) as err:
        run_sweep(cfg)
    assert "BracketFailure" in str(err.value)


def test_csv_output_is_deterministic(tmp_path):
    cfg = parse_config(None, SMALL)
    rows = run_sweep(cfg)
    write_csv(rows, cfg, str(tmp_path / "a.csv"))
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
    assert data[0] == CSV_HEADER
    assert len(data) == 1 + len(rows)
    first = data[1].split(",")
    assert len(first) == 10
    assert float(first[0]) == rows[0].omega
    assert float(first[3]) == rows[0].y      # 17g round-trips exactly
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
                                  GAP],
                         ids=["small", "mixed", "pole", "tight", "broken",
                              "tiny", "gap"])
def test_batched_sweep_matches_point_by_point(grid):
    for pol in ("uu", "ud", "du", "dd"):
        for method in ("exact", "pert"):
            cfg = parse_config(None, dict(grid, pol=pol, method=method))
            want = [sweep_mod._evaluate_point(cfg, omega, dk)
                    for omega in cfg.omega_grid() for dk in cfg.dk_grid()]
            if all(row.status != "ok" for row in want):
                with pytest.raises(AllRowsFailed) as err:
                    run_sweep(cfg)
                assert str(err.value) == (f"all {len(want)} grid points "
                                          f"failed; first status: "
                                          f"{want[0].status}")
                continue
            got = run_sweep(cfg)
            assert got == want, (pol, method)
            assert repr(got) == repr(want)      # also tells -0.0 from 0.0


def test_closed_form_failures_go_through_full_report():
    # Near resonance eps*Phi reaches 1 where the roots and gaps are fine,
    # so the rows at omega = 9.8 carry phi_closed's RangeViolation.
    for method in ("exact", "pert"):
        cfg = parse_config(None, dict(MIXED, eps=0.1, omega_min=9.0,
                                      omega_max=9.8, method=method))
        want = [sweep_mod._evaluate_point(cfg, omega, dk)
                for omega in cfg.omega_grid() for dk in cfg.dk_grid()]
        assert [row.status for row in want] == ["ok"] * 8 + [
            "error:RangeViolation"] * 4
        assert repr(run_sweep(cfg)) == repr(want)


def test_csv_prints_negative_zero_as_such(tmp_path):
    # Grid values are formatted once and looked up by value; -0.0 equals
    # 0.0 as a key but prints as "-0".
    cfg = parse_config(None, SMALL)
    rows = run_sweep(cfg)
    rows[0] = rows[0]._replace(omega=-0.0, E_S=-0.0)
    write_csv(rows, cfg, str(tmp_path / "s.csv"))
    data = [line for line in (tmp_path / "s.csv").read_text().splitlines()
            if not line.startswith("#")]
    cells = data[1].split(",")
    assert (cells[0], cells[5]) == ("-0", "-0")
    assert data[4].startswith("0.40000000000000002,400,2900,")


def test_unvalidated_grid_points_become_error_rows():
    # run_sweep on a config that skipped parse_config: the points make_params
    # rejects (here omega within the resonance margin) are error rows.
    cfg = SweepConfig(**dict(SMALL, omega_max=2499.0, omega_steps=3))
    want = [sweep_mod._evaluate_point(cfg, omega, dk)
            for omega in cfg.omega_grid() for dk in cfg.dk_grid()]
    assert [row.status for row in want] == ["ok"] * 6 + [
        "error:NearResonance"] * 3
    got = run_sweep(cfg)
    assert repr(got) == repr(want)


def test_raw_norm_is_correctly_rounded(capsys):
    # At this default uu grid point the raw norm squared is 1 - 2^-53,
    # whose correctly rounded root is itself; x ** 0.5 (libm pow) gives 1.0.
    cfg = SweepConfig(pol=PolarizationConfig.from_code("uu"))
    dk = cfg.dk_grid()[39]
    assert sweep_mod._evaluate_point(cfg, 0.0, dk).raw_norm == 1.0 - 2.0 ** -53
    assert main(["state", "--pol", "uu", "--omega", "0",
                 "--kappa2", repr(cfg.kappa1 + dk)]) == 0
    assert capsys.readouterr().out.endswith("raw_norm: 0.99999999999999989\n")


# The point_mix envelope with its coupling bound exceeded up to 1e4-fold,
# where probes fail to bracket and stages raise.
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
            y_gap, norm_gap, settled = sweep_mod._batch_gaps(batch, cfg)
            for i, point in enumerate(points):
                p = make_params(*point)
                try:
                    roots = (exact_roots(p, cfg.tol) if method == "exact"
                             else perturbative_roots(p))
                    amps = amplitudes(build_block(roots, p), pol)
                except QubeamError:
                    assert not settled[i]
                    continue
                if settled[i]:
                    assert (y_gap[i], norm_gap[i]) == (amps.y_gap,
                                                       amps.norm_gap)


CHECK_NAMES = ["root_ladder", "state_pattern", "y_closed_ladder",
               "schmidt_closed_ladder", "info_asymptotic", "zero_entanglement"]

# (passed, failed, skipped) per polarization config at three points: the
# reference point, zero field, and a coupling far past any root.
VERIFY_COUNTS = {
    "reference": {"uu": (3, 0, 3), "ud": (1, 0, 5), "du": (5, 0, 1),
                  "dd": (2, 0, 4)},
    "zero_field": {"uu": (3, 0, 3), "ud": (1, 0, 5), "du": (2, 0, 4),
                   "dd": (2, 0, 4)},
    "broken": {"uu": (0, 3, 3), "ud": (0, 1, 5), "du": (0, 5, 1),
               "dd": (0, 2, 4)},
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


def test_verify_point_detects_breakage():
    reports = _verify_all_configs(make_params(2500.0, 3000.0, 0.5, 1e9),
                                  VERIFY_COUNTS["broken"])
    assert not any(rep.ok for rep in reports.values())


def test_verify_runs_at_the_grid_corner():
    cfg = parse_config(None, SMALL)
    rep = verify(cfg)
    assert rep.ok
    assert rep.params.kappa2 == cfg.kappa1 + cfg.dk_max
    assert rep.params.omega == cfg.omega_max


def test_config_echo_has_no_timestamps():
    lines = config_echo_lines(SweepConfig())
    assert all(line.startswith("# ") for line in lines)
    joined = "\n".join(lines).lower()
    assert "date" not in joined and "time" not in joined
    assert "# method=exact" in lines
