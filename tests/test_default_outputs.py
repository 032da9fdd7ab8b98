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
        "3381f7314537f9b7ad244a441e02a884a755b93e6350cadd5235fe05d0fd8750",
        "9f31a7f7ec065b79f95b1ba0a04d90df02bee07386bdb16fb9a3a8d112900c93",
        "fa20921f32c300b43f486b7e6089271536d50bdd2a4a8a57315fd8684794d11b"),
    ("uu", "pert"): (
        "79601e5c1deadb75f04309ea986dccfbe1f3b57333f2d4b04539dfd97414107e",
        "c098ec5e1df3640526c3bb69a5d0ab5f5b6d0db85e1481c062512024edb66aaa",
        "a7ffa83d477643a720102e5bc41a26a1623a43b1fde7931b55302524f8d8220c"),
    ("ud", "exact"): (
        "a934f4b0932fb5126747ac851c4c2aae4b4c8f1d347cd985e053499767386c64",
        "3b5217ea0dd7f5afc94f71c8c7fd85476a829f88f6783f44f0ed1115cb0bb537",
        "79df7319b54ecdc5384ed26416183b3eae673f69043a38c35889cab062837d00"),
    ("ud", "pert"): (
        "d8516232fc8d18f2a1b1b0e4e748fccd4702635e0eb587943ed9d413b2ccabb8",
        "a70af60ff0821c654ffa48d81bb82e80455069923716d59cc778d7cea45ffdd0",
        "1f3154f1aca286b277cc171b7a28a269061239d745bfcaf87d8477ed63c6928e"),
    ("du", "exact"): (
        "cdc10ee245eb8451b16b7300484e7bfad0001171e994c785f34934473694f269",
        "6806d3a89c5fe49fab031f609f5f1884a938c8ace53054a11a4236d73da2d332",
        "3cecb5ce1a64aab84b768c7fd7178743c4fd9d7c4a76c966711962ccf2954a0b"),
    ("du", "pert"): (
        "beb7c62329fe670e6bf40fa53183f40c818de89e0e5c2d45a5e1a764a2bfcb96",
        "4a2a7bc7abaefb425148e6112eac65a2ac810fc757bbe1020bc2e3dc4e22325b",
        "cc5db97902095b80c29318ee0db6c9868dff0fd4f9cd7a4156ee62a990e41510"),
    ("dd", "exact"): (
        "7b3a4c637659b192459d61337f6acdb18a72b1ac2f01e21d415e3d70c5e7d720",
        "eb778ab623aa49909c37de36ab7286096eb5d0075f8e37eece58c50e41ae3cbc",
        "f824d951f3deb6a9c16e7d7e6194831c13b7ab201540a384cb0f9f94412321e5"),
    ("dd", "pert"): (
        "fd536e7d287151e998e3573f3991482d2ea6b3e36739b35b7b2262cf96314292",
        "3cc201a98d05eff2d2d165bba3c1fc72c1b798e6edeffc2c77d7181d65a34928",
        "c98bd84799bdee7cef913aa485b51f670c57ca53500b792a5f0dfb9334cbc891"),
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
        "908be0394dc0b64d8b770bde075e71aef0c47fe5824dc038ebb93b4ff7d2d5ab",
    ("measures", "--machine", "--pol", "dd", "--method", "exact"):
        "f19c031611cf33cec3a078209e2fad1621faba76a7849173c4f8a85986a3ccde",
    ("measures", "--machine", "--pol", "dd", "--method", "pert"):
        "cd7b77b59c226fcaff0cc600ed7be88ca3cf3e3f5b80242c7e99cc6f256bde1d",
    ("roots",):
        "62fe1869be1afd59dc8915cb2e3e9b90b64ea272f2c039cbc9ee9308adab87e5",
    ("roots", "--csv"):
        "23c415cc0e49b574fc226c062fd02ccfe500b1dbe8b9429a62f52286f447a2b4",
    ("block", "--method", "exact"):
        "77441fb039be5e3706d58df4a4f2bce8e5c82be24fe186b06018f1d728712e1d",
    ("block", "--method", "pert"):
        "db7e7f31b1045c08024e08d52adcb3b73d67b77d2dbf98cf3f94872457a02e5e",
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
