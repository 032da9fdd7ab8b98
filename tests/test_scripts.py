"""The scripts under scripts/ run end to end on small inputs."""
import importlib.util
import json
import math
import os
from pathlib import Path
import shutil
import subprocess

import pytest

from qubeam.sweep import SweepConfig, run_sweep, write_csv

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_figure_sweeps_writes_csv_and_surfaces(tmp_path, capsys):
    script = _load("run_figure_sweeps")
    assert script.main(["--out-dir", str(tmp_path), "--steps", "3",
                        "--with-parallel"]) == 0
    err = capsys.readouterr().err
    for pol in ("du", "uu"):
        assert f"{pol}: 9 rows (0 failed)" in err
        data = [line for line in (tmp_path / f"{pol}.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert len(data) == 1 + 9
        for suffix in ("EI", "ES"):
            lines = (tmp_path / f"{pol}_{suffix}.dat").read_text().splitlines()
            assert len(lines) == 1 + 3
            assert "nan" not in "".join(lines)


def test_convergence_ladder_prints_rungs_and_ratios(capsys):
    script = _load("convergence_ladder")
    assert script.main(["--rungs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["eps", "root_defect", "y_gap_defect",
                                "E_S_defect", "uu_defect", "sym_defect"]
    assert len(lines) == 4
    ratios = [float(x) for x in lines[3].split()[1:]]
    assert lines[3].split()[0] == "ratio" and len(ratios) == 5
    # second-order defects shrink ~4x per halving of eps
    assert all(3.5 <= r <= 4.5 for r in ratios[:3])


def test_verify_envelope_tallies_every_check_and_config(capsys):
    script = _load("verify_envelope")
    assert script.main(["11", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# 3 envelope points, seed 11"
    assert lines[1].split()[:5] == ["check", "pol", "pass", "fail", "skip"]
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[2:]}
    assert len(rows) == len(lines) - 2 == 6 * 4
    for (name, code), (passed, failed, skipped, *first) in rows.items():
        assert int(passed) + int(failed) + int(skipped) == 3
        assert bool(first) == (int(failed) > 0), (name, code)
    assert rows["info_asymptotic", "du"][:3] == ["3", "0", "0"]
    assert rows["info_asymptotic", "uu"][:3] == ["0", "0", "3"]


def test_diff_outputs_reports_fields_ulps_and_statuses(tmp_path, capsys):
    script = _load("diff_outputs")
    config = SweepConfig(dk_min=400.0, dk_max=600.0, dk_steps=3,
                         omega_max=0.4, omega_steps=2)
    table = run_sweep(config)
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    write_csv(table, config, str(old / "du.csv"), str(old / "du"))
    write_csv(table, config, str(old / "only_old.csv"))
    # row 1: E_I one ulp up, E_S ten ulps down; row 2 fails
    table.E_I[1] = math.nextafter(table.E_I[1], 1.0)
    table.E_S[1] -= 10 * math.ulp(table.E_S[1])
    for column in table[3:9]:
        column[2] = None
    table.status[2] = "error:DomainError"
    write_csv(table, config, str(new / "du.csv"), str(new / "du"))
    # the first delta_kappa one ulp up in the E_S surface's grid line
    surface = new / "du_ES.dat"
    surface.write_text(surface.read_text().replace(
        "3 400 ", f"3 {math.nextafter(400.0, 500.0)!r} ", 1))
    assert script.main([str(old), str(old)]) == 0
    assert capsys.readouterr().out == "du.csv: identical (6 rows)\n" \
        "du_EI.dat: identical (6 cells)\n" \
        "du_ES.dat: identical (6 cells)\n" \
        "only_old.csv: identical (6 rows)\n"
    assert script.main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "du.csv: 2 of 6 rows changed, 1 status changes"
    assert lines[1].startswith("  E_I: 1 fields, max 1 ulps, max rel ")
    assert lines[2].startswith("  E_S: 1 fields, max 10 ulps, max rel ")
    assert lines[3] == "  row 2: status ok -> error:DomainError"
    # surfaces: cells by position, the failed point's cell turned nan
    assert lines[4] == "du_EI.dat: 2 of 6 cells changed, 1 nan changes"
    assert lines[5].startswith("  cells: 1 fields, max 1 ulps, max rel ")
    assert lines[6].startswith("  line 1, cell 3: ")
    assert lines[6].endswith(" -> nan")
    assert lines[7] == "du_ES.dat: 2 of 6 cells changed, 1 nan changes"
    assert lines[8].startswith("  grid: 1 fields, max 1 ulps, max rel ")
    assert lines[9].startswith("  cells: 1 fields, max 10 ulps, max rel ")
    assert lines[10].startswith("  line 1, cell 3: ")
    assert len(lines) == 11         # only_old.csv has no counterpart


def test_bench_pairs_verdicts_on_fixed_numbers():
    verdict = _load("bench_pairs").verdict
    # quartiles 99.825, 100, 100.175: the parent's IQR is 0.35
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1,
              99.9]
    v = verdict(parent, [p * 1.1 for p in parent], "higher", 0.2)
    assert v["parent"] == pytest.approx((99.825, 100.0, 100.175))
    assert v["wins"] == 10 and v["claim"] and v["no_regression"]
    assert v["resolved"]
    # every pair won, but the median gain is inside the parent's IQR
    v = verdict(parent, [p + 0.3 for p in parent], "higher", 0.2)
    assert v["wins"] == 10 and not v["claim"] and v["no_regression"]
    # 9 wins of 10 is a claim, 8 is not
    nine = [p + 5.0 for p in parent[:9]] + [parent[9] - 1.0]
    assert verdict(parent, nine, "higher", 0.2)["claim"]
    eight = [p + 5.0 for p in parent[:8]] + [p - 1.0 for p in parent[8:]]
    v = verdict(parent, eight, "higher", 0.2)
    assert v["wins"] == 8 and not v["claim"]
    # lower is better: the bound is a fraction of the parent's median
    v = verdict(parent, [p * 1.08 for p in parent], "lower", 0.1)
    assert v["wins"] == 0 and not v["claim"] and v["no_regression"]
    assert not verdict(parent, [p * 1.12 for p in parent], "lower",
                       0.1)["no_regression"]
    assert not verdict(parent, [p * 0.85 for p in parent], "higher",
                       0.1)["no_regression"]
    # a spread wider than the bound leaves the metric unresolved, unless
    # every change run beats every parent run
    wide = [50.0, 150.0] * 5
    assert not verdict(wide, wide, "higher", 0.2)["resolved"]
    assert verdict(wide, [200.0] * 10, "higher", 0.2)["resolved"]
    with pytest.raises(ValueError):
        verdict(parent, parent[:9], "higher", 0.2)


def test_bench_pairs_json_writes_and_merges_the_pair_table(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    script = _load("bench_pairs")
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    calls = []

    def run_once(checkout, args, seed):
        # change is 10% faster; every run's values are known
        side = "change" if checkout == str(change) else "parent"
        calls.append((side, seed, args.seconds))
        ops = 1000.0 + seed + (100.0 if side == "change" else 0.0)
        metrics = {"setup_s": {"value": 0.1, "unit": "s"},
                   "ops_per_s": {"value": ops, "unit": "1/s"},
                   "peak_rss_mb": {"value": 36.0, "unit": "MB"}}
        return ({"correct": True, "attempted": 50, "failed": 0,
                 "metrics": metrics}, "envelope_raise_share 0.3 ratio")

    monkeypatch.setattr(script, "run_once", run_once)
    monkeypatch.setattr(script, "git_head", lambda checkout: (
        "c0ffee" if checkout == str(change) else None))
    out = tmp_path / "bench.json"
    out.write_text('{"note": "kept", "workloads": {"other": {"pairs": 1}}}')
    argv = [str(parent), str(change), "--pairs", "3", "--seconds", "2",
            "--seed", "40", "--json", str(out)]
    assert script.main(argv + ["--workload", "point_mix"]) == 0
    capsys.readouterr()
    # the first side alternates from pair to pair
    assert calls[:4] == [("parent", 40, 2.0), ("change", 40, 2.0),
                         ("change", 41, 2.0), ("parent", 41, 2.0)]
    data = json.loads(out.read_text())
    assert data["note"] == "kept" and data["workloads"]["other"] == {"pairs": 1}
    table = data["workloads"]["point_mix"]
    assert table["pairs"] == 3 and table["seconds"] == 2.0
    assert table["seeds"] == [40, 41, 42]
    assert table["heads"] == {"parent": None, "change": "c0ffee"}
    assert [run["first"] for run in table["runs"]] == ["parent", "change",
                                                       "parent"]
    run = table["runs"][1]
    assert run["seed"] == 41
    assert run["change"]["metrics"]["ops_per_s"] == {"value": 1141.0,
                                                     "unit": "1/s"}
    assert (run["parent"]["correct"], run["parent"]["failed"],
            run["parent"]["attempted"]) == (True, 0, 50)
    assert run["parent"]["envelope_raise_share"] == (
        "envelope_raise_share 0.3 ratio")
    assert table["envelope_raise_share_equal"] == 3
    ops = table["verdicts"]["ops_per_s"]
    assert ops["wins"] == 3 and ops["claim"] and ops["no_regression"]
    assert ops["parent"] == [1040.5, 1041.0, 1041.5]
    assert table["verdicts"].keys() == {"setup_s", "ops_per_s", "peak_rss_mb"}
    # a second workload is merged in beside the first
    assert script.main(argv + ["--workload", "sweep_pert"]) == 0
    data = json.loads(out.read_text())
    assert data["workloads"].keys() == {"other", "point_mix", "sweep_pert"}


def test_bench_pairs_prints_the_medians_by_run_order(tmp_path, monkeypatch,
                                                    capsys):
    script = _load("bench_pairs")
    assert script.order_medians([1.0, 5.0, 2.0, 7.0],
                                [True, False, True, False]) == (1.5, 6.0)
    assert script.order_medians([3.0], [True]) == (3.0, None)
    seen = set()

    def run_once(checkout, args, seed):
        # the run made second in its pair is 10% faster, on both sides
        ops = 1100.0 if seed in seen else 1000.0 + seed
        seen.add(seed)
        metrics = {"setup_s": {"value": 0.1, "unit": "s"},
                   "ops_per_s": {"value": ops, "unit": "1/s"},
                   "peak_rss_mb": {"value": 36.0, "unit": "MB"}}
        return ({"correct": True, "attempted": 50, "failed": 0,
                 "metrics": metrics}, "envelope_raise_share 0.3 ratio")

    monkeypatch.setattr(script, "run_once", run_once)
    assert script.main([str(tmp_path), str(tmp_path), "--workload",
                        "point_mix", "--pairs", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    ops = out.index("ops_per_s (1/s, higher is better, bound 0.2)")
    # the parent ran first at seeds 1 and 3, the change at seed 2
    assert out[ops + 1] == ("  parent  median 1003  quartiles 1002 .. 1051.5"
                            "  ran first 1002, second 1100")
    assert out[ops + 2] == ("  change  median 1100  quartiles 1051 .. 1100"
                            "  ran first 1002, second 1100")
    assert out[ops + 3].startswith("  change won 2 of 3 pairs;")


def test_bench_pairs_git_head_only_at_the_top_of_a_work_tree(tmp_path):
    git_head = _load("bench_pairs").git_head
    assert git_head(tmp_path) is None               # no work tree
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@example.com",
           "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@example.com",
           "PATH": os.environ.get("PATH", ""), "HOME": str(tmp_path)}
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True, env=env)
    subprocess.run(["git", "-C", str(tmp_path), "commit", "-q",
                    "--allow-empty", "-m", "empty"], check=True, env=env)
    head = subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "HEAD"],
                          capture_output=True, text=True, env=env,
                          check=True).stdout.strip()
    assert git_head(tmp_path) == head and len(head) == 40
    # a directory inside the work tree is not a checkout of it
    (tmp_path / "inner").mkdir()
    assert git_head(tmp_path / "inner") is None
