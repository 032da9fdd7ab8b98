"""Command-line interface: output formats and exit codes."""
import os
from pathlib import Path
import re
import subprocess
import sys

import pytest

from qubeam.cli import main

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
    # offsets are 50.0, so the root sits exactly on kappa2.
    assert main(["measures", "--kappa1", "10", "--kappa2", "60", "--omega",
                 "0", "--eps", "1000", "--method", "pert", "--pol", "uu"]) == 2
    assert "other photon's pole" in capsys.readouterr().err
    out = tmp_path / "s.csv"
    assert main(["sweep", "--kappa1", "10", "--eps", "1000", "--dk-min", "1",
                 "--dk-max", "50", "--dk-steps", "4", "--omega-max", "0.5",
                 "--omega-steps", "3", "--method", "pert", "--pol", "uu",
                 "--out", str(out)]) == 0
    assert f"wrote {out}: 12 rows, 9 failed" in capsys.readouterr().err
    data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert "0,50,60,,,,,,,error:PoleEvaluation" in data


def test_overflowing_scale_is_a_computation_error(capsys):
    # kappa1 1e120 is a valid input; (kappa1*kappa2)^2 overflows in the
    # first-order denominator.
    point = ["--kappa1", "1e120", "--kappa2", "2e120", "--eps", "1e230",
             "--pol", "du"]
    assert main(["measures", "--omega", "0"] + point) == 2
    assert "error: stage roots:" in capsys.readouterr().err
    assert main(["verify", "--omega", "1e119"] + point) == 2
    assert "0 passed, 5 failed, 1 skipped" in capsys.readouterr().out


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
    assert "error: stage measures: Phi denominator 0.0 is not positive" \
        in capsys.readouterr().err
    # At kappa1 1e-66, r^3 eps in the normalization underflows to 0.
    assert main(["measures", "--kappa1", "1e-66", "--kappa2", "2e-66",
                 "--omega", "1e-67", "--eps", "1e-135", "--method", "pert",
                 "--pol", "du"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: stage block: normalization denominator of r[1][1] ")
    assert main(["sweep", "--kappa1", "1e-66", "--dk-min", "1e-67",
                 "--dk-max", "2e-66", "--omega-max", "1e-67", "--eps",
                 "1e-135", "--method", "pert", "--dk-steps", "2",
                 "--omega-steps", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: all 4 grid points failed; "
                                       "first status: "
                                       "error:SingularDenominator\n")


def test_spectral_gap_above_one_is_a_computation_error(tmp_path, capsys):
    # At this scale the raw gap reaches 1.5e62, where the information
    # measure's log1p(-gap/2) has no value.
    point = ["--kappa1", "1e-60", "--eps", "1e-80", "--method", "pert",
             "--pol", "du"]
    assert main(["measures", "--kappa2", "1.00000001e-60", "--omega", "0"]
                + point) == 2
    assert capsys.readouterr().err.startswith(
        "error: stage measures: raw spectral gap 1.5426605224886307e+62 "
        "above 1")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--dk-min", "1e-68", "--dk-max", "2e-68",
                 "--dk-steps", "2", "--omega-max", "1e-70", "--omega-steps",
                 "2", "--out", str(out)] + point) == 2
    assert capsys.readouterr().err == ("error: all 4 grid points failed; "
                                       "first status: error:DomainError\n")


def test_readme_examples_match_the_program(capsys):
    examples = re.findall(r"```\n\$ qubeam ([^\n]*)\n(.*?)```",
                          README.read_text(), re.S)
    assert [command for command, _ in examples] == ["roots",
                                                    "measures --machine"]
    for command, shown in examples:
        assert main(command.split()) == 0
        assert capsys.readouterr().out == shown, command


def test_verify_passes_at_reference_point(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS  root_ladder:" in out
    assert "PASS  info_asymptotic:" in out
    assert "5 passed, 0 failed, 1 skipped" in out


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
    assert main(["roots", "--eps", "1e9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_config_problems(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "missing.conf")]) == 2
    assert "io error:" in capsys.readouterr().err
    bad = tmp_path / "bad.conf"
    bad.write_text("unknown_key = 1\n")
    assert main(["sweep", "--config", str(bad)]) == 1
    capsys.readouterr()


def test_exit_code_unwritable_output(capsys):
    assert main(["roots", "--out", "/nonexistent-dir/r.csv"]) == 2
    assert "io error:" in capsys.readouterr().err


def test_argparse_errors_exit_one(capsys):
    for argv in ([], ["roots", "--no-such-flag"], ["state", "--pol", "xy"],
                 ["frobnicate"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        capsys.readouterr()
