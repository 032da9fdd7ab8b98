"""Validation of the model parameters."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubeam import make_params, parse_config
from qubeam.cli import main
from qubeam.errors import (
    DegenerateFrequencies,
    NearResonance,
    NonPositive,
    StrongCoupling,
    ValidationError,
)

from conftest import in_set

FIG = (2500.0, 3000.0, 0.5, 0.1)


def test_reference_point_valid():
    p = make_params(*FIG)
    assert (p.kappa1, p.kappa2, p.omega, p.eps) == FIG


def test_revalidation_is_idempotent():
    p = make_params(*FIG)
    assert make_params(p.kappa1, p.kappa2, p.omega, p.eps) == p


def test_degenerate_frequencies_rejected():
    with pytest.raises(DegenerateFrequencies):
        make_params(2500.0, 2500.0, 0.5, 0.1)


def test_near_resonance_rejected():
    with pytest.raises(NearResonance):
        make_params(2500.0, 3000.0, 2600.0, 0.1)


def test_resonance_margin_boundary():
    # omega < kappa1*(1 - margin) strictly; the limit itself is rejected.
    limit = 2500.0 * (1.0 - 0.01)
    with pytest.raises(NearResonance):
        make_params(2500.0, 3000.0, limit, 0.1)
    p = make_params(2500.0, 3000.0, limit - 1e-6, 0.1)
    assert p.omega < limit


def test_wrong_ordering_is_not_silently_swapped():
    # Swapping would silently relabel the polarization assignments, so the
    # ordering violation is its own error, not a Degenerate/NonPositive case.
    with pytest.raises(ValidationError) as err:
        make_params(3000.0, 2500.0, 0.5, 0.1)
    assert type(err.value) is ValidationError
    assert "ordered" in str(err.value)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("kwargs", [
    dict(kappa1=0.0), dict(kappa1=-2500.0), dict(kappa2=0.0),
    dict(eps=0.0), dict(eps=-0.1), dict(omega=-0.5),
    dict(kappa1=NAN), dict(eps=INF),
    dict(kappa1=INF), dict(kappa1=-INF),
    dict(kappa2=-3000.0), dict(kappa2=NAN), dict(kappa2=INF),
    dict(kappa2=-INF), dict(eps=NAN), dict(eps=-INF),
    dict(omega=NAN), dict(omega=INF), dict(omega=-INF),
])
def test_nonpositive_inputs_rejected(kwargs):
    base = dict(kappa1=2500.0, kappa2=3000.0, omega=0.5, eps=0.1)
    base.update(kwargs)
    with pytest.raises(NonPositive) as err:
        make_params(**base)
    (name, value), = kwargs.items()
    sign = "nonnegative" if name == "omega" else "positive"
    assert str(err.value) == f"{name} must be {sign} and finite, got {value!r}"


@pytest.mark.parametrize("sign", [1, -1], ids=["pos", "neg"])
@pytest.mark.parametrize("name", ["kappa1", "kappa2", "omega", "eps"])
def test_int_too_large_for_a_float_reads_as_infinite(name, sign):
    # float(10**400) overflows; make_params reads the int as +-inf, as the
    # command line reads "1e400", and rejects it with the same message.
    base = dict(kappa1=2500.0, kappa2=3000.0, omega=0.5, eps=0.1)
    with pytest.raises(NonPositive) as huge:
        make_params(**dict(base, **{name: sign * 10**400}))
    with pytest.raises(NonPositive) as inf:
        make_params(**dict(base, **{name: sign * INF}))
    assert str(huge.value) == str(inf.value)


@pytest.mark.parametrize("value", [None, "abc", 1j, [1.0]])
@pytest.mark.parametrize("name", ["kappa1", "kappa2", "omega", "eps"])
def test_a_value_that_is_not_a_number_is_a_validation_error(name, value):
    # float() raises TypeError or ValueError there; make_params names the
    # field, also when another field is an int too large for a float
    base = dict(kappa1=2500.0, kappa2=3000.0, omega=0.5, eps=0.1)
    for other in (base, dict(base, eps=10**400) if name != "eps"
                  else dict(base, kappa1=10**400)):
        with pytest.raises(ValidationError) as err:
            make_params(**dict(other, **{name: value}))
        assert type(err.value) is ValidationError
        assert str(err.value) == f"{name} must be a number, got {value!r}"


def test_the_first_field_that_is_not_a_number_is_named():
    with pytest.raises(ValidationError) as err:
        make_params(2500.0, None, "abc", None)
    assert str(err.value) == "kappa2 must be a number, got None"
    # text that float() reads is a number, as before
    assert make_params("2500", "3000", "0.5", "0.1") == make_params(*FIG)


def test_omega_zero_is_valid():
    assert make_params(2500.0, 3000.0, 0.0, 0.1).omega == 0.0
    assert make_params(2500.0, 3000.0, -0.0, 0.1).omega == 0.0


@pytest.mark.parametrize("point,error,start", [
    ((NAN, -1.0, INF, -1.0), NonPositive, "kappa1 must"),
    ((2500.0, 0.0, -1.0, NAN), NonPositive, "kappa2 must"),
    ((2500.0, 3000.0, -1.0, 0.0), NonPositive, "eps must"),
    ((3000.0, 3000.0, -1.0, 0.1), NonPositive, "omega must"),
    ((3000.0, 3000.0, 5000.0, 0.1), DegenerateFrequencies, "kappa1 = kappa2"),
    ((3000.0, 2500.0, 5000.0, 0.1), ValidationError, "photon frequencies"),
    ((2500.0, 3000.0, 2499.0, 1e9), NearResonance, "omega=2499.0"),
])
def test_the_first_failing_check_raises(point, error, start):
    # checks run kappa1, kappa2, eps, omega, equal and ordered frequencies,
    # the resonance margin, then the coupling bound; each point also fails
    # a later check
    with pytest.raises(ValidationError) as err:
        make_params(*point)
    assert type(err.value) is error
    assert str(err.value).startswith(start)


@given(
    kappa1=st.floats(min_value=1e-3, max_value=1e6),
    ratio=st.floats(min_value=1.0 + 1e-9, max_value=100.0),
    omega_frac=st.floats(min_value=0.0, max_value=0.98),
    eps_rel=st.floats(min_value=1e-30, max_value=1.0),
)
@settings(deadline=None, derandomize=True)
def test_valid_inputs_always_accepted(kappa1, ratio, omega_frac, eps_rel):
    p = make_params(*in_set(kappa1, kappa1 * ratio,
                            omega_frac * kappa1 * 0.99, eps_rel))
    assert 0.0 < p.kappa1 < p.kappa2
    assert make_params(p.kappa1, p.kappa2, p.omega, p.eps) == p


@given(
    kappa1=st.floats(min_value=1e-3, max_value=1e6),
    over=st.floats(min_value=0.0, max_value=10.0),
)
@settings(deadline=None, derandomize=True)
def test_resonant_omega_always_rejected(kappa1, over):
    omega = kappa1 * (1.0 - 0.01) * (1.0 + over)
    with pytest.raises(NearResonance):
        make_params(kappa1, kappa1 * 2.0, omega, 0.1)


STRONG = ("eps=1000000000.0 above the coupling bound 0.01 (kappa1 - omega)^2 "
          "min(1, (kappa2 - kappa1)/kappa1) at kappa1=2500.0, kappa2={}, "
          "omega={}")


@pytest.mark.parametrize("point", [(1.0, 3.0, 0.0, 0.01),
                                   (1.0, 1.5, 0.0, 0.005),
                                   (1.0, 1.5, 0.5, 0.00125)],
                         ids=["dk_above_kappa1", "dk_below", "field"])
def test_the_coupling_bound_is_inclusive(point):
    # eps <= 0.01 (kappa1 - omega)^2 min(1, (kappa2 - kappa1)/kappa1): each
    # point sits on the bound, and a coupling 1e-12 above it is rejected
    assert make_params(*point) == point
    with pytest.raises(StrongCoupling):
        make_params(*point[:3], point[3] * (1.0 + 1e-12))


@pytest.mark.parametrize("kappa1", [1e156, 1e-110],
                         ids=["square_overflows", "products_underflow"])
def test_the_coupling_bound_holds_at_extreme_scales(kappa1):
    # (kappa1 - omega)^2 overflows at kappa1 = 1e156, and at 1e-110 both
    # eps*kappa1 and bound*dk underflow to 0; the bound there is
    # 0.01 kappa1^2 * 1e-10, and the verdict reads it in units of kappa1
    kappa2 = kappa1 * (1.0 + 1e-10)
    bound = 0.01 * kappa1 * (kappa1 * 1e-10)
    grid = dict(kappa1=kappa1, dk_min=kappa1 * 1e-10, dk_max=kappa1 * 2e-10,
                dk_steps=2, omega_min=0.0, omega_max=kappa1 * 1e-3,
                omega_steps=2)
    assert make_params(kappa1, kappa2, 0.0, 0.5 * bound).eps == 0.5 * bound
    assert parse_config(None, dict(grid, eps=0.5 * bound)).eps == 0.5 * bound
    for eps in (2.0 * bound, 1e5 * bound):
        with pytest.raises(StrongCoupling):
            make_params(kappa1, kappa2, 0.0, eps)
        with pytest.raises(ValidationError) as err:
            parse_config(None, dict(grid, eps=eps))
        assert "above the coupling bound" in str(err.value)


def test_strong_coupling_is_rejected_on_every_route(tmp_path, capsys):
    # Past the coupling bound a root can leave its pole bracket, so
    # make_params, SweepConfig's grid check (one message listing every
    # problem) and every command reject the input before any stage runs.
    with pytest.raises(StrongCoupling) as err:
        make_params(2500.0, 3000.0, 0.5, 1e9)
    assert str(err.value) == STRONG.format(3000.0, 0.5)
    with pytest.raises(ValidationError) as err:
        parse_config(None, {"eps": 1e9})
    assert str(err.value) == ("grid point omega=0.0, delta_kappa=10.0: "
                              + STRONG.format(2510.0, 0.0))
    for command in ("roots", "block", "measures", "state", "verify"):
        assert main([command, "--eps", "1e9"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {STRONG.format(3000.0, 0.5)}\n")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--eps", "1e9", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: grid point omega=0.0, delta_kappa=10.0: "
        f"{STRONG.format(2510.0, 0.0)}\n")
    assert not out.exists()
