"""Sweep configuration, grid evaluation, CSV/matrix output, verification."""
import math

import pytest

from qubeam import make_params, parse_config, run_sweep, verify, verify_point
from qubeam.errors import AllRowsFailed, ParseError, ResonancePole, ValidationError
from qubeam.qstate import PolarizationConfig
from qubeam.sweep import (
    CSV_HEADER,
    SweepConfig,
    config_echo_lines,
    write_csv,
    write_matrix,
)

FIG = (2500.0, 3000.0, 0.5, 0.1)

SMALL = dict(dk_min=400.0, dk_max=600.0, dk_steps=3,
             omega_min=0.0, omega_max=0.4, omega_steps=2)


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


def test_sweep_survives_single_point_failure(monkeypatch):
    import qubeam.sweep as sweep_mod
    real = sweep_mod.full_report

    def flaky(params, pol, method="exact", tol=1e-12):
        if params.omega == 0.0 and params.kappa2 == 2900.0:
            raise ResonancePole("synthetic failure")
        return real(params, pol, method=method, tol=tol)

    monkeypatch.setattr(sweep_mod, "full_report", flaky)
    rows = run_sweep(parse_config(None, SMALL))
    failed = [r for r in rows if r.status != "ok"]
    assert len(failed) == 1
    bad = failed[0]
    assert bad.status == "error:ResonancePole"
    assert bad.omega == 0.0 and bad.delta_kappa == 400.0
    assert bad.y is None and bad.E_I is None and bad.raw_norm is None


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


def test_matrix_output_shapes_and_nan(tmp_path, monkeypatch):
    import qubeam.sweep as sweep_mod
    real = sweep_mod.full_report

    def flaky(params, pol, method="exact", tol=1e-12):
        if params.omega == 0.0 and params.kappa2 == 2900.0:
            raise ResonancePole("synthetic failure")
        return real(params, pol, method=method, tol=tol)

    monkeypatch.setattr(sweep_mod, "full_report", flaky)
    cfg = parse_config(None, SMALL)
    rows = run_sweep(cfg)
    paths = write_matrix(rows, cfg, str(tmp_path / "surface"))
    assert set(paths) == {"EI", "ES"}
    for path in paths.values():
        lines = (tmp_path / path.split("/")[-1]).read_text().splitlines()
        head = lines[0].split()
        assert head[0] == "3" and [float(x) for x in head[1:]] == [400.0, 500.0, 600.0]
        assert len(lines) == 1 + 2
        for line in lines[1:]:
            assert len(line.split()) == 4
        assert lines[1].split()[1] == "nan"     # the doctored point
        assert "nan" not in lines[2]


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
