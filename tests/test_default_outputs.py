"""The bytes of the default sweeps and point commands, pinned by SHA-256.

The small grids of the other tests never reach the rows where a change of
arithmetic shows only in the last digit (for example `raw_norm`, where
`x ** 0.5` and the correctly rounded square root disagree at x = 1 - 2^-53
in 16 rows of each uu and dd CSV and 12 of each ud and du CSV), so only the
full 64x64 grids guard the output bytes. The point commands' pins cover
the paths that do not go through the batch, at the reference point:
`full_report`, `verify_point`, and the `roots`, `block` and `state`
commands, which print `ModeRoots`, the result of `build_block` and the
normalized state of `qstate._normalized_state`. `verify` is also pinned at
zero field, and at a coupling past the bound, which it rejects (exit 1).
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


# SHA-256 of the stdout of `qubeam verify --pol P`, of
# `qubeam measures --machine --pol P --method M`, of `qubeam roots` (table
# and CSV), of `qubeam block --method M` and of
# `qubeam state --pol P --method M` at the reference point.
POINT_DIGESTS = {
    ("verify", "--pol", "uu"):
        "3729e63fcf94e7e9477ab22fc6499ad2b1314c2950ee8967bd96bcc83900baad",
    ("verify", "--pol", "ud"):
        "5b1980093c4f82521c871a39af16093a678ff971e468f87ee0bdb0a5f0e5e8fd",
    ("verify", "--pol", "du"):
        "9aa58ed6613eb7628c9730e75f97a0cba1b0a61ec151cb0af01093609d30d6f5",
    ("verify", "--pol", "dd"):
        "2110fee13b5e2416fde0c1542d1299ff162388687ccb3b52b62a3a3072e24c93",
    ("measures", "--machine", "--pol", "uu", "--method", "exact"):
        "9cc0c996370fe77291cd1efec9cfa49dc6ea03422c767e3ea20e9d90a001fdaa",
    ("measures", "--machine", "--pol", "uu", "--method", "pert"):
        "1190d48a40f21896a5d14ffd6ce8796b3952166d7a5782a6392f07ffe7ee0e73",
    ("measures", "--machine", "--pol", "ud", "--method", "exact"):
        "1068e4a612752af81e566e3c783f08ff4ca440b5ded726cbd844660867aacb4e",
    ("measures", "--machine", "--pol", "ud", "--method", "pert"):
        "4d24928b4cc026ae04965c290dc074753ee7a5f8e8c5793f08f3fb13845b049b",
    ("measures", "--machine", "--pol", "du", "--method", "exact"):
        "61c1569b24a861c166f6487ae4d5fefb0d8813e78ea5ee6a8953ee2a8944f6a0",
    ("measures", "--machine", "--pol", "du", "--method", "pert"):
        "fe8f6c4d92afc42c3195103b963d290c94260467a4bb486406c863e635881694",
    ("measures", "--machine", "--pol", "dd", "--method", "exact"):
        "f19c031611cf33cec3a078209e2fad1621faba76a7849173c4f8a85986a3ccde",
    ("measures", "--machine", "--pol", "dd", "--method", "pert"):
        "f01b081f53cac13ab0cda278d8f096681afe2a763ef4e5414a1e7a84a3ac940d",
    ("roots",):
        "62fe1869be1afd59dc8915cb2e3e9b90b64ea272f2c039cbc9ee9308adab87e5",
    ("roots", "--csv"):
        "87035c872cece8157c70904a8c83fec2466507058a33c457d8d90ffd08fb0c28",
    ("block", "--method", "exact"):
        "77441fb039be5e3706d58df4a4f2bce8e5c82be24fe186b06018f1d728712e1d",
    ("block", "--method", "pert"):
        "ed03a10095e3793d8aef1b6a85b2613e26b9dd99d0f2c6f5c2696ca0ef80b06c",
    ("state", "--pol", "uu", "--method", "exact"):
        "240ec81e3142c128adb62e8317ace0d2113c32457bda0056522a286f2d0d2213",
    ("state", "--pol", "uu", "--method", "pert"):
        "e60b3a2053ca45d1a32c8a8cde69d92739bf7c25d20b5c9a74e49ddf2e31d0b7",
    ("state", "--pol", "ud", "--method", "exact"):
        "bbb027a445aeaa1b9bbd19202b373ae41596a3bd553c3233944aebfc7e3ce599",
    ("state", "--pol", "ud", "--method", "pert"):
        "074d0a7b5da1a5fd7c24af3adfb69f90dca7bc5d673e8453758fb363df628932",
    ("state", "--pol", "du", "--method", "exact"):
        "d390c1dcdb6d1aae1410103fc5c95d7b23fcbcd9b76367c9f9cb5c932f7d29d2",
    ("state", "--pol", "du", "--method", "pert"):
        "d390c1dcdb6d1aae1410103fc5c95d7b23fcbcd9b76367c9f9cb5c932f7d29d2",
    ("state", "--pol", "dd", "--method", "exact"):
        "d8b475407a713b32a042e64ed82903969acfcc3ef73b4019e607b3019bed5854",
    ("state", "--pol", "dd", "--method", "pert"):
        "d8b475407a713b32a042e64ed82903969acfcc3ef73b4019e607b3019bed5854",
}


@pytest.mark.parametrize("argv", POINT_DIGESTS,
                         ids=["-".join(a.lstrip("-") for a in argv
                                       if a[0] != "-" or a == "--csv")
                              for argv in POINT_DIGESTS])
def test_point_command_outputs_are_unchanged(argv, capsys):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == POINT_DIGESTS[argv], (
        f"`qubeam {' '.join(argv)}` printed different bytes:\n{out}")


# SHA-256 of the stdout of `qubeam verify --pol P` and its exit code, at the
# zero-field point (--omega 0) and at a coupling far past the bound
# (--eps 1e9), which make_params rejects with StrongCoupling before any
# check runs: exit 1 and no stdout (re-recorded when the bound became a
# rule; verify ran there and failed every check that needs a root).
VERIFY_DIGESTS = {
    ("--omega", "0", "uu"): (
        0, "51fdb78144bb9611b65fe428b20d42dc22a87625344b374e0fb011ffc712404c"),
    ("--omega", "0", "ud"): (
        0, "5b1980093c4f82521c871a39af16093a678ff971e468f87ee0bdb0a5f0e5e8fd"),
    ("--omega", "0", "du"): (
        0, "fe671922cefe2a79fd7136c2a9b5392e5f86afc38cbe68e69a1d392ff4b83104"),
    ("--omega", "0", "dd"): (
        0, "e36101afc65a57b6f4d87a3e09071a4d613647f56a4effc67c298fdbf54fea1b"),
    ("--eps", "1e9", "uu"): (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--eps", "1e9", "ud"): (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--eps", "1e9", "du"): (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("--eps", "1e9", "dd"): (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("case", VERIFY_DIGESTS,
                         ids=["".join(case).lstrip("-") for case in VERIFY_DIGESTS])
def test_verify_outputs_are_unchanged_off_the_reference_point(case, capsys):
    flag, value, pol = case
    code, digest = VERIFY_DIGESTS[case]
    assert main(["verify", "--pol", pol, flag, value]) == code
    out, err = capsys.readouterr()
    if code == 1:
        assert err == (
            "error: eps=1000000000.0 above the coupling bound 0.01 (kappa1 - "
            "omega)^2 min(1, (kappa2 - kappa1)/kappa1) at kappa1=2500.0, "
            "kappa2=3000.0, omega=0.5\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest, (
        f"`qubeam verify --pol {pol} {flag} {value}` printed different "
        f"bytes:\n{out}")
