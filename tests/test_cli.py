"""Command-line interface: output formats and exit codes."""
import os
from pathlib import Path
import re
import subprocess
import sys

import pytest

from qubeam import (PolarizationConfig, SweepConfig, build_block,
                    full_report, parse_config, perturbative_roots)
import qubeam.batch as batch_mod
from qubeam.cli import main
from qubeam.errors import ComputationError, ParseError, PoleEvaluation
from qubeam.params import ModelParams
from qubeam.qstate import _state_columns

# The start of make_params' StrongCoupling message as the CLI prints it.
STRONG = "error: eps={} above the coupling bound 0.01 (kappa1 - omega)^2 "

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"

SWEEP_SMALL = ["--dk-min", "400", "--dk-max", "600", "--dk-steps", "3",
               "--omega-max", "0.4", "--omega-steps", "2"]


def test_roots_table(capsys):
    assert main(["roots"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["k", "lam", "r_exact", "r_first_order",
                              "residual", "defect"]
    assert len(out) == 5
    first = out[1].split()
    assert first[0] == "1" and first[1] == "1"
    assert float(first[2]) == pytest.approx(2500.00002, abs=1e-6)


def test_roots_csv_and_out(tmp_path, capsys):
    path = tmp_path / "roots.csv"
    assert main(["roots", "--csv", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    lines = path.read_text().splitlines()
    assert lines[0] == "k,lambda,r_exact,r_perturbative,residual,defect"
    assert len(lines) == 5
    cells = lines[2].split(",")         # (k=1, lambda=2)
    assert cells[:2] == ["1", "2"]
    assert abs(float(cells[2]) - float(cells[3])) <= 1e-11
    assert abs(float(cells[4])) <= 1e-12 * 2500.0


def test_block_output(capsys):
    assert main(["block"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "matrix,row_s,row_lambda,col_k,col_lambda,re,im"
    data = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    u_rows = [c for c in data if c[0] == "u"]
    v_rows = [c for c in data if c[0] == "v"]
    q_rows = [c for c in data if c[0] == "q"]
    assert len(u_rows) == 16 and len(v_rows) == 16 and len(q_rows) == 4
    for cells in u_rows + v_rows:
        if cells[2] == "1":             # lambda = 1 rows are real
            assert float(cells[6]) == 0.0
        else:                           # lambda = 2 rows are imaginary
            assert float(cells[5]) == 0.0
    for cells in q_rows:
        assert float(cells[5]) > 0.0
    assert lines[-1].startswith("# identity defects: uu=")


def test_state_output(capsys):
    assert main(["state", "--pol", "uu"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("config: uu")
    amps = {}
    for line in lines[1:5]:
        label, rest = line.split(": ")
        re_part, im_part = rest.split()
        amps[label] = complex(float(re_part), float(im_part[:-1]))
    assert abs(amps["upsilon4"] + amps["upsilon1"]) <= 1e-15
    assert abs(amps["upsilon2"] - amps["upsilon3"]) <= 1e-15
    assert lines[5].startswith("raw_norm: ")
    assert float(lines[5].split()[1]) == pytest.approx(1.0, abs=1e-11)


def test_measures_machine_format(capsys):
    assert main(["measures", "--machine"]) == 0
    pairs = dict(line.split("=", 1)
                 for line in capsys.readouterr().out.splitlines())
    assert pairs["config"] == "du" and pairs["method"] == "exact"
    assert float(pairs["y"]) == pytest.approx(1.0, abs=1e-11)
    assert float(pairs["E_I"]) == pytest.approx(1.452435e-11, rel=1e-4)
    assert float(pairs["Phi"]) == pytest.approx(6.750228e-12, rel=1e-4)
    assert float(pairs["E_S_closed"]) == pytest.approx(1.350046e-12, rel=1e-4)


def test_measures_empty_fields_for_unsupported_config(capsys):
    assert main(["measures", "--machine", "--pol", "dd"]) == 0
    pairs = dict(line.split("=", 1)
                 for line in capsys.readouterr().out.splitlines())
    assert pairs["Phi"] == "" and pairs["E_I_asymptotic"] == ""
    assert float(pairs["E_I"]) == pytest.approx(5.186564e-11, rel=1e-3)


@pytest.mark.parametrize("method", ["exact", "pert"])
@pytest.mark.parametrize("pol", ["uu", "ud", "du", "dd"])
def test_a_negative_zero_field_reads_as_zero(pol, method, capsys):
    outputs = []
    for omega in ("-0.0", "0"):
        main(["measures", "--machine", "--omega", omega, "--pol", pol,
              "--method", method])
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_measures_aligned_format(capsys):
    assert main(["measures"]) == 0
    out = capsys.readouterr().out
    assert "config" in out and "E_I_asymptotic" in out
    assert "=" not in out


def test_sweep_writes_csv_and_matrix(tmp_path, capsys):
    out = tmp_path / "s.csv"
    base = tmp_path / "surf"
    assert main(["sweep", *SWEEP_SMALL, "--out", str(out),
                 "--matrix", str(base)]) == 0
    err = capsys.readouterr().err
    assert f"wrote {out}: 6 rows, 0 failed" in err
    assert out.exists()
    assert (tmp_path / "surf_EI.dat").exists()
    assert (tmp_path / "surf_ES.dat").exists()
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(data) == 7


def test_a_negative_zero_omega_bound_reads_as_zero(tmp_path):
    # A -0.0 bound is stored as 0.0, so its echo line reads "0", as the
    # grid and make_params read it.
    grid = ["--pol", "du", "--dk-min", "400", "--dk-max", "600",
            "--dk-steps", "2", "--omega-steps", "2"]
    bounds = {"min": ["--omega-min", "0", "--omega-max", "0.4"],
              "min_neg": ["--omega-min", "-0.0", "--omega-max", "0.4"],
              "max": ["--omega-min", "0", "--omega-max", "0"],
              "max_neg": ["--omega-min", "0", "--omega-max", "-0.0"]}
    csv = {}
    for name, flags in bounds.items():
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", *grid, *flags, "--out", str(out)]) == 0
        csv[name] = out.read_bytes()
    assert b"# omega_min=0\n" in csv["min"]
    assert b"# omega_max=0\n" in csv["max"]
    assert csv["min_neg"] == csv["min"] and csv["max_neg"] == csv["max"]


def test_repeated_calls_write_what_fresh_processes_write(tmp_path, capsys):
    # main() reuses one parser per process; no call may see another's
    # arguments.
    argvs = [["sweep", "--pol", "uu", "--method", "pert"], ["measures"],
             ["sweep"]]

    def run(argv, out):
        if argv[0] != "sweep":
            return argv
        return [*argv, "--out", f"{out}.csv", "--matrix", str(out)]

    def outputs(out, stdout):
        if not stdout:
            return [(tmp_path / f"{out.name}{suffix}").read_bytes()
                    for suffix in (".csv", "_EI.dat", "_ES.dat")]
        return [stdout]

    got = []
    for i, argv in enumerate(argvs):
        out = tmp_path / f"inproc{i}"
        assert main(run(argv, out)) == 0
        got.append(outputs(out, capsys.readouterr().out.encode()))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    for i, argv in enumerate(argvs):
        out = tmp_path / f"fresh{i}"
        proc = subprocess.run([sys.executable, "-m", "qubeam.cli",
                               *run(argv, out)], capture_output=True,
                              env=env, check=True)
        assert outputs(out, proc.stdout) == got[i], argv


def test_sweep_flag_overrides_config_file(tmp_path, capsys):
    conf = tmp_path / "sweep.conf"
    conf.write_text("eps = 0.05\ndk_min = 400\ndk_max = 600\ndk_steps = 3\n"
                    "omega_max = 0.4\nomega_steps = 2\n")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(conf), "--method", "pert",
                 "--eps", "0.2", "--out", str(out)]) == 0
    capsys.readouterr()
    comments = [l for l in out.read_text().splitlines() if l.startswith("#")]
    assert "# eps=0.20000000000000001" in comments
    assert "# method=perturbative" in comments


def test_sweep_config_out_path_is_rejected(tmp_path, capsys):
    # Output paths come only from --out / --matrix; a config file naming
    # out_path used to get a second copy of the CSV written there.
    stray = tmp_path / "x.csv"
    conf = tmp_path / "sweep.conf"
    conf.write_text(f"out_path = {stray}\ndk_min = 400\ndk_max = 600\n"
                    "dk_steps = 3\nomega_max = 0.4\nomega_steps = 2\n")
    out = tmp_path / "y.csv"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 1
    assert "unknown key 'out_path'" in capsys.readouterr().err
    assert not stray.exists() and not out.exists()


def test_root_on_the_other_photons_pole_is_a_computation_error(tmp_path,
                                                                capsys):
    # At kappa1 10, kappa2 60, omega 0, eps 1000 both first-order k = 1
    # offsets are 50.0, so the root sits exactly on kappa2. The report, the
    # state and the block check that column alike. The coupling is 1000
    # times the bound, so only a hand-built ModelParams gets there: the
    # commands reject the input before any stage runs.
    params = ModelParams(10.0, 60.0, 0.0, 1000.0)
    pol, roots = PolarizationConfig.from_code("uu"), perturbative_roots(params)
    for route in (lambda: full_report(params, pol, "perturbative"),
                  lambda: _state_columns(roots, params, pol),
                  lambda: build_block(roots, params)):
        with pytest.raises(PoleEvaluation) as err:
            route()
        assert "other photon's pole" in str(err.value)
    point = ["--kappa1", "10", "--kappa2", "60", "--omega", "0", "--eps",
             "1000", "--method", "pert"]
    for argv in (["measures", "--pol", "uu"], ["state", "--pol", "uu"],
                 ["block"]):
        assert main(argv + point) == 1
        assert capsys.readouterr().err.startswith(STRONG.format(1000.0))
    out = tmp_path / "s.csv"
    assert main(["sweep", "--kappa1", "10", "--eps", "1000", "--dk-min", "1",
                 "--dk-max", "50", "--dk-steps", "4", "--omega-max", "0.5",
                 "--omega-steps", "3", "--method", "pert", "--pol", "uu",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: grid point omega=0.0, delta_kappa=1.0: "
        + STRONG.format(1000.0).removeprefix("error: "))
    assert not out.exists()


def test_sweep_tallies_failed_statuses_in_first_seen_order(tmp_path, capsys):
    # At kappa1 = 1e-52 (about 2^-172) du's raw spectral gap at omega = 0
    # falls below the domain tolerance, and with a field Phi's denominator,
    # of order kappa^6, is subnormal at the smallest split: the tally lists
    # DomainError, seen first, then SingularDenominator, as README shows.
    # The other rows' denominators are normal, and their closed forms agree
    # with the same grid's at kappa1 = 2.5 (the grid scaled by 2.5e52).
    out = tmp_path / "s.csv"
    assert main(["sweep", "--kappa1", "1e-52", "--eps", "1.6e-107",
                 "--dk-min", "2e-52", "--dk-max", "1e-50", "--dk-steps", "4",
                 "--omega-max", "4e-53", "--omega-steps", "3", "--pol", "du",
                 "--out", str(out)]) == 0
    tally = ("12 rows, 6 failed (error:DomainError 4, "
             "error:SingularDenominator 2)")
    assert capsys.readouterr().err == f"wrote {out}: {tally}\n"
    assert f"`wrote F: {tally}`" in " ".join(README.read_text().split())
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert data[1] == "0,2e-52,3e-52,,,,,,,error:DomainError"
    assert data[5] == ("2.0000000000000001e-53,2e-52,3e-52,,,,,,,"
                       "error:SingularDenominator")
    scaled = tmp_path / "scaled.csv"
    assert main(["sweep", "--kappa1", "2.5", "--eps", "1e-2", "--dk-min", "5",
                 "--dk-max", "250", "--dk-steps", "4", "--omega-max", "1",
                 "--omega-steps", "3", "--pol", "du", "--out",
                 str(scaled)]) == 0
    capsys.readouterr()
    rows = [l.split(",") for l in scaled.read_text().splitlines()
            if not l.startswith("#")]
    for line, want in zip(data[1:], rows[1:]):
        got = line.split(",")
        if got[-1] == "ok":
            for i in (3, 4, 5, 6, 7):   # y, E_I, E_S and the closed forms
                assert float(got[i]) == pytest.approx(float(want[i]),
                                                      rel=1e-13)


def test_overflowing_scale_is_a_computation_error(capsys):
    # kappa1 1e120 is a valid input, and its roots evaluate (root_ladder
    # passes); chi's r^3 eps overflows in the block.
    point = ["--kappa1", "1e120", "--kappa2", "2e120", "--eps", "1e230",
             "--pol", "du"]
    assert main(["measures", "--omega", "0"] + point) == 2
    assert capsys.readouterr().err == ("error: stage block: normalization "
                                       "radicand nan <= 0 at k=1, lambda=1\n")
    assert main(["verify", "--omega", "1e119"] + point) == 2
    out = capsys.readouterr().out
    assert " PASS  root_ladder:" in out
    assert "1 passed, 4 failed, 1 skipped" in out


def test_tiny_scale_is_a_computation_error(tmp_path, capsys):
    # At kappa1 1e-100 the squares in the residual derivative underflow to
    # 0; at 2^-200 times the reference point Phi's denominator does.
    assert main(["measures", "--kappa1", "1e-100", "--kappa2", "2e-100",
                 "--omega", "0", "--eps", "1e-210", "--pol", "du"]) == 2
    assert "error: stage roots: residual derivative has a zero denominator" \
        in capsys.readouterr().err
    out = tmp_path / "s.csv"
    assert main(["sweep", "--kappa1", "1e-100", "--eps", "1e-210",
                 "--dk-min", "1e-100", "--dk-max", "2e-100", "--omega-max",
                 "0", "--dk-steps", "2", "--omega-steps", "2",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: all 4 grid points failed; "
                                       "first status: "
                                       "error:SingularDenominator\n")
    scale = 2.0 ** -200
    assert main(["measures", "--kappa1", repr(2500.0 * scale),
                 "--kappa2", repr(3000.0 * scale), "--omega",
                 repr(0.5 * scale), "--eps", repr(0.1 * scale * scale),
                 "--pol", "du", "--method", "pert"]) == 2
    assert ("error: stage measures: Phi denominator 0.0 is not a positive "
            "normal float") in capsys.readouterr().err
    # At kappa1 1e-66, r^3 eps in the normalization underflows to 0.
    assert main(["measures", "--kappa1", "1e-66", "--kappa2", "2e-66",
                 "--omega", "1e-67", "--eps", "1e-135", "--method", "pert",
                 "--pol", "du"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: stage block: normalization denominator of r[1][1] ")
    assert main(["sweep", "--kappa1", "1e-66", "--dk-min", "1e-66",
                 "--dk-max", "2e-66", "--omega-max", "1e-67", "--eps",
                 "1e-135", "--method", "pert", "--dk-steps", "2",
                 "--omega-steps", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: all 4 grid points failed; "
                                       "first status: "
                                       "error:SingularDenominator\n")


def test_spectral_gap_above_one_is_a_computation_error(tmp_path, capsys):
    # At this scale the raw gap reaches 1.0e62, where the information
    # measure's log1p(-gap/2) has no value. The coupling is 1e50 times the
    # bound, so only a hand-built ModelParams gets there: the commands
    # reject the input before any stage runs.
    with pytest.raises(ComputationError) as err:
        full_report(ModelParams(1e-60, 1.0000000099999999e-60, 0.0, 1e-80),
                    PolarizationConfig.from_code("du"), "perturbative")
    assert str(err.value).startswith(
        "stage measures: raw spectral gap 1.0284403483257538e+62 above 1")
    point = ["--kappa1", "1e-60", "--eps", "1e-80", "--method", "pert",
             "--pol", "du"]
    assert main(["measures", "--kappa2", "1.0000000099999999e-60", "--omega",
                 "0"] + point) == 1
    assert capsys.readouterr().err.startswith(STRONG.format(1e-80))
    out = tmp_path / "s.csv"
    assert main(["sweep", "--dk-min", "1e-68", "--dk-max", "2e-68",
                 "--dk-steps", "2", "--omega-max", "1e-70", "--omega-steps",
                 "2", "--out", str(out)] + point) == 1
    assert "above the coupling bound" in capsys.readouterr().err
    assert not out.exists()


def test_readme_examples_match_the_program(tmp_path, capsys):
    text = README.read_text()
    examples = re.findall(r"```\n\$ qubeam ([^\n]*)\n(.*?)```", text, re.S)
    assert [command for command, _ in examples] == ["roots",
                                                    "measures --machine"]
    for command, shown in examples:
        assert main(command.split()) == 0
        assert capsys.readouterr().out == shown, command
    # the example config file lists every key at its default
    conf = tmp_path / "example.conf"
    conf.write_text(re.search(r"```\n(kappa1 = .*?)```", text, re.S)[1])
    assert parse_config(str(conf)) == SweepConfig()


def test_verify_passes_at_reference_point(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS  root_ladder:" in out
    assert "PASS  info_asymptotic:" in out
    assert "5 passed, 0 failed, 1 skipped" in out


@pytest.mark.parametrize("argv", [
    ["--eps", "5e-324"],
    ["--kappa1", "1", "--kappa2", "1.000001", "--omega", "0.5",
     "--eps", "5e-324"]])
def test_verify_with_a_subnormal_coupling_fails_its_checks(argv, capsys):
    # eps*Phi underflows to 0 or to a gap whose half rounds to 0; both end
    # in failed checks, not a traceback
    assert main(["verify", *argv]) == 2
    out = capsys.readouterr().out
    assert "FAIL  info_asymptotic: " in out
    assert "0 passed, 5 failed, 1 skipped" in out


def test_subnormal_phi_ends_without_a_traceback(tmp_path, capsys):
    # Phi is the smallest subnormal there, whose half rounds to 0; the
    # asymptotic form takes log(Phi) - log(2) as the information measure
    # takes log(gap) - log(2).
    point = ["--kappa1", "1", "--eps", "0.001", "--pol", "du"]
    assert main(["measures", "--kappa2", "2", "--omega", "1e-323"]
                + point) == 0
    assert "E_I_asymptotic  4.9406564584124654e-324\n" \
        in capsys.readouterr().out
    assert main(["verify", "--kappa2", "2", "--omega", "1e-323"] + point) == 2
    assert "2 passed, 3 failed, 1 skipped" in capsys.readouterr().out
    out = tmp_path / "s.csv"
    assert main(["sweep", "--dk-min", "1", "--dk-max", "2", "--dk-steps", "2",
                 "--omega-max", "1e-323", "--omega-steps", "2",
                 "--out", str(out)] + point) == 0
    assert capsys.readouterr().err == (f"wrote {out}: 4 rows, 2 failed "
                                       "(error:DomainError 2)\n")


def test_verify_near_resonance_is_a_validation_error(capsys):
    code = main(["verify", "--omega", "2499"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_exit_code_validation(capsys):
    assert main(["roots", "--kappa1", "3000", "--kappa2", "2500"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["measures", "--omega", "2499"]) == 1
    capsys.readouterr()


def test_exit_code_computation(capsys):
    # inside the set, but at kappa1 = 1e-52 du's raw spectral gap at
    # omega = 0 falls below the domain tolerance
    assert main(["measures", "--kappa1", "1e-52", "--kappa2", "3e-52",
                 "--omega", "0", "--eps", "1.6e-107", "--pol", "du"]) == 2
    assert capsys.readouterr().err == (
        "error: stage measures: raw spectral gap -8.16562863585249e-08 below "
        "domain tolerance or not a number; state outside the truncation "
        "regime\n")


@pytest.mark.parametrize("method", ["exact", "pert"])
def test_a_split_far_below_kappa1_evaluates(method, tmp_path, capsys):
    # dk/kappa1 = 1e-10 and 1e-12..1e-10: inside the set, which has no lower
    # bound on the split, so every point evaluates
    assert main(["measures", "--kappa1", "1", "--kappa2", "1.0000000001",
                 "--omega", "0", "--eps", "1e-13", "--pol", "du",
                 "--method", method]) == 0
    capsys.readouterr()
    out = tmp_path / "s.csv"
    assert main(["sweep", "--kappa1", "1", "--eps", "1e-15", "--dk-min",
                 "1e-12", "--dk-max", "1e-10", "--dk-steps", "8",
                 "--omega-steps", "8", "--method", method, "--out",
                 str(out)]) == 0
    assert capsys.readouterr().err == f"wrote {out}: 64 rows, 0 failed\n"


def test_exit_code_config_problems(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "missing.conf")]) == 2
    assert "io error:" in capsys.readouterr().err
    bad = tmp_path / "bad.conf"
    bad.write_text("unknown_key = 1\n")
    assert main(["sweep", "--config", str(bad)]) == 1
    capsys.readouterr()
    bad.write_bytes(b"eps = 0.1\n# caf\xe9\n")
    assert main(["sweep", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8")


def test_the_residual_bound_is_not_an_option(tmp_path, capsys):
    # The exact solver's residual bound is dispersion.RESIDUAL_TOL: no
    # command takes --tol and no config file a tol key (a sweep CSV still
    # records the bound in its "# tol=" line).
    for command in ("roots", "block", "state", "measures", "sweep", "verify"):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--tol", "1e-12"])
        assert exit_.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(
            "error: unrecognized arguments: --tol 1e-12\n"), command
    conf = tmp_path / "tol.conf"
    conf.write_text("tol = 1e-12\n")
    with pytest.raises(ParseError) as err:
        parse_config(str(conf))
    assert str(err.value) == f"{conf}:1: unknown key 'tol'"


def test_exit_code_unwritable_output(capsys):
    assert main(["roots", "--out", "/nonexistent-dir/r.csv"]) == 2
    assert "io error:" in capsys.readouterr().err


def test_a_sweep_out_of_memory_exits_two_without_a_traceback(
        tmp_path, monkeypatch, capsys):
    # A grid too large to hold fails in the grid step's allocation (NumPy's
    # _ArrayMemoryError is a MemoryError); raised here, never allocated.
    def no_memory(config):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(batch_mod, "_grid_arrays", no_memory)
    assert main(["sweep", "--dk-steps", "1000000", "--omega-steps",
                 "1000000", "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr() == (
        "", "memory error: Unable to allocate 7.28 TiB for an array\n")
    assert not (tmp_path / "s.csv").exists()


def test_argparse_errors_exit_one(capsys):
    for argv in ([], ["roots", "--no-such-flag"], ["state", "--pol", "xy"],
                 ["frobnicate"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        capsys.readouterr()


# Point work in a fresh interpreter: the test modules import NumPy, so only
# a new process shows what the package itself loads.
_POINT_WORK = """
import sys
import qubeam, qubeam.cli
from qubeam import PolarizationConfig, full_report, make_params, verify_point
params = make_params(2500.0, 3000.0, 0.5, 0.1)
pols = [PolarizationConfig.from_code(code) for code in ("uu", "ud", "du", "dd")]
for pol in pols:
    for method in ("exact", "perturbative"):
        full_report(params, pol, method)
for pol in pols:
    assert verify_point(params, pol).ok
for command in ("roots", "state", "measures", "verify"):
    assert qubeam.cli.main([command]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
assert not loaded, loaded
"""

_ARRAY_WORK = """
import sys
import qubeam.cli
for argv in (["sweep", "--out", sys.argv[1], *sys.argv[2:]], ["block"]):
    assert qubeam.cli.main(argv) == 0, argv
assert "numpy" in sys.modules
"""


def _fresh_python(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


def test_point_work_loads_no_numpy_and_array_work_still_runs(tmp_path):
    proc = _fresh_python(_POINT_WORK)
    assert proc.returncode == 0, proc.stderr
    assert "raw_norm: " in proc.stdout
    assert proc.stdout.endswith("5 passed, 0 failed, 1 skipped\n")
    out = tmp_path / "s.csv"
    proc = _fresh_python(_ARRAY_WORK, str(out), *SWEEP_SMALL)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"wrote {out}: 6 rows, 0 failed\n"
    assert "u,1,1,1,1," in proc.stdout
