"""The scripts under scripts/ run end to end on small inputs."""
import importlib.util
from pathlib import Path

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
