"""The bytes of the default sweeps, pinned by SHA-256 digest.

The small grids of the other tests never reach the rows where a change of
arithmetic shows only in the last digit (for example `raw_norm`, where
`x ** 0.5` and a correctly rounded square root disagree at x = 1 - 2^-53),
so only the full 64x64 grids guard the output bytes.
"""
import hashlib

import pytest

from qubeam.cli import main

# SHA-256 of the CSV, BASE_EI.dat and BASE_ES.dat that
# `qubeam sweep --pol P --method M --out F --matrix BASE` writes.
DIGESTS = {
    ("uu", "exact"): (
        "74d02c4d876b002dafcf5abca12db9747920539583c48d2366b176279f59f6d3",
        "75dc70876d1640d7118918cdd2dd6714ac4a95b8105d1f0d84b859abfdac8232",
        "720771d1e352548b8931cb2105f1ca5ae1309d104e33ae7fc043dc91d1b4164e"),
    ("uu", "pert"): (
        "82f3670cc51a44b2318842ed41859d987b96d64aa56c0f63c8605537e0bbe443",
        "51d2889a023048170c603f25d078201d25752307654cea7360eaaf8bcf79af52",
        "fad2ea6b8dc8c7f8c6cbd77ea0e35a97b7e0d65fb1b539dbbcf6dcecd7d4ccbd"),
    ("ud", "exact"): (
        "570723a90687298d410e5eb93297d2adf197ddd34a2ad1f306395c021585c553",
        "3bc7a0469733f8e18f713fa9aa54e226134fb2bcda893dd278eb573525fcd478",
        "11e234ac73a2125fa847aab964ad6f116d07c54dddb0aee059d8e6c5c42f9689"),
    ("ud", "pert"): (
        "ad899617881216b4303eb46de01aa13592cf36b32bf0c9204a34445fe38d19ff",
        "3edf6a1b4b73ac05a2c4b747106055ff2f20869cb9fea09b3b8b0f5700f85b32",
        "4d962cf7409bf5ac87bb6df55648cd1498711d17801a278edce9aecebb7a84ab"),
    ("du", "exact"): (
        "7a46728e558508923086a64e2645a288711d1f0bf2fb9c867c46b831c3073afd",
        "d2743f741c290be33eebdc5ec73b14c6e6f7c54617709a49a8964fd402c10903",
        "a487f868371481a5d3e66b5c14ba821c26e4b0a52950039cbc9e270bf1bfbed5"),
    ("du", "pert"): (
        "06ef7af7ccff8b7d27fbeda5a78175cadff3ac870afa9709d66a258e37499d37",
        "d1cdb61494847c3bacca0c701382a44d80b18e812a943a22b7cdea5afb928cfd",
        "5eb268838dc8c4549b1363e3c89ad2bf816af1a85a9fc4574a92de7c7320433f"),
    ("dd", "exact"): (
        "02bff36ef5f6f5f5c089be54fc4f4f9d8f4ae1add25a71d924c6ad486dfeaec3",
        "6d19963a5fd45cc54cbd4fae33c20aacad9ef320325b13fba85d95fdbd683ed5",
        "5a2be363172acf2e9b4cda5d225be9639dbd3e9fee03106617515d5f5f35d9a0"),
    ("dd", "pert"): (
        "5b8a7b0f8587241ff6f741221dcff8f9079a64246d6505359e1100c7cf131789",
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
    got = tuple(hashlib.sha256(open(path, "rb").read()).hexdigest()
                for path in paths)
    assert got == DIGESTS[pol, method], (
        f"the default {pol} {method} sweep wrote different bytes. A change "
        "that moves output numbers on purpose updates these digests and "
        "reports how many fields moved and by how many ulps with "
        "scripts/diff_outputs.py (CSVs of the old and the new tree); the "
        "CSV's first line also carries the package version.")
