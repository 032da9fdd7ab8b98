"""The bytes of the default sweeps, pinned by SHA-256 digest.

The small grids of the other tests never reach the rows where a change of
arithmetic shows only in the last digit (for example `raw_norm`, where
`x ** 0.5` and the correctly rounded square root disagree at x = 1 - 2^-53
in 16 rows of each uu and dd CSV and 12 of each ud and du CSV), so only the
full 64x64 grids guard the output bytes.
"""
import hashlib
from pathlib import Path

import pytest

from qubeam.cli import main

# SHA-256 of the CSV, BASE_EI.dat and BASE_ES.dat that
# `qubeam sweep --pol P --method M --out F --matrix BASE` writes.
DIGESTS = {
    ("uu", "exact"): (
        "db94d0da59651105d8423eaeda88bfb2ef693cd23de39e83ddc2037058356e1a",
        "75dc70876d1640d7118918cdd2dd6714ac4a95b8105d1f0d84b859abfdac8232",
        "720771d1e352548b8931cb2105f1ca5ae1309d104e33ae7fc043dc91d1b4164e"),
    ("uu", "pert"): (
        "befd9e484ab1cc99463d3fe527550f99b44fa9f004c68acf05f64d30332c5f66",
        "51d2889a023048170c603f25d078201d25752307654cea7360eaaf8bcf79af52",
        "fad2ea6b8dc8c7f8c6cbd77ea0e35a97b7e0d65fb1b539dbbcf6dcecd7d4ccbd"),
    ("ud", "exact"): (
        "64e7e6619198b8f5b6f0d178e555af91a71d73765d3c07e23611fbf463e24585",
        "3bc7a0469733f8e18f713fa9aa54e226134fb2bcda893dd278eb573525fcd478",
        "11e234ac73a2125fa847aab964ad6f116d07c54dddb0aee059d8e6c5c42f9689"),
    ("ud", "pert"): (
        "46bb0626cd1309fe0e9956526af96aad18edfe3a3a48cf7661a517c24baf4a03",
        "3edf6a1b4b73ac05a2c4b747106055ff2f20869cb9fea09b3b8b0f5700f85b32",
        "4d962cf7409bf5ac87bb6df55648cd1498711d17801a278edce9aecebb7a84ab"),
    ("du", "exact"): (
        "6c6d836699b70be6968b78058719225a2cbdf872b3a17e7977e51592a3e609cd",
        "d2743f741c290be33eebdc5ec73b14c6e6f7c54617709a49a8964fd402c10903",
        "a487f868371481a5d3e66b5c14ba821c26e4b0a52950039cbc9e270bf1bfbed5"),
    ("du", "pert"): (
        "6e7d6dde6c802de91051682131c186486135f46d3d55c36079d315a4dd73aabf",
        "d1cdb61494847c3bacca0c701382a44d80b18e812a943a22b7cdea5afb928cfd",
        "5eb268838dc8c4549b1363e3c89ad2bf816af1a85a9fc4574a92de7c7320433f"),
    ("dd", "exact"): (
        "cbe30e77351a2a11a2408e686477caa407731e1ac09a062828d0741d395bd4b1",
        "6d19963a5fd45cc54cbd4fae33c20aacad9ef320325b13fba85d95fdbd683ed5",
        "5a2be363172acf2e9b4cda5d225be9639dbd3e9fee03106617515d5f5f35d9a0"),
    ("dd", "pert"): (
        "9aeb9ae5beb05d937ecec15ac244c42211b60e9c11ad362ef7199ea6aef2cd8a",
        "a1ae4290e63ff25f42f08e339d1159e5783cb58a1b5023cda901f20f4cde9d78",
        "fc20e91e1fd95c414f6bef8c735da6665a6d35ec6db0956fc93fb2709f8945a4"),
}


@pytest.mark.parametrize("pol,method", DIGESTS,
                         ids=[f"{pol}-{method}" for pol, method in DIGESTS])
def test_default_sweep_outputs_are_unchanged(pol, method, tmp_path, capsys):
    base = tmp_path / "sweep"
    assert main(["sweep", "--pol", pol, "--method", method,
                 "--out", f"{base}.csv", "--matrix", str(base)]) == 0
    capsys.readouterr()
    paths = [f"{base}.csv", f"{base}_EI.dat", f"{base}_ES.dat"]
    got = tuple(hashlib.sha256(Path(path).read_bytes()).hexdigest()
                for path in paths)
    assert got == DIGESTS[pol, method], (
        f"the default {pol} {method} sweep wrote different bytes. A change "
        "that moves output numbers on purpose updates these digests and "
        "reports how many fields moved and by how many ulps with "
        "scripts/diff_outputs.py (CSVs of the old and the new tree); the "
        "CSV's first line also carries the package version.")
