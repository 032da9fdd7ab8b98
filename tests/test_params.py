"""Validation and coupling derivation."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubeam import make_params
from qubeam.errors import (
    DegenerateFrequencies,
    NearResonance,
    NonPositive,
    ValidationError,
    ZeroLightFront,
)
from qubeam.params import (
    ELEMENTARY_CHARGE,
    PhysicalInputs,
    derive_couplings,
)

FIG = (2500.0, 3000.0, 0.5, 0.1)


def test_reference_point_valid():
    p = make_params(*FIG)
    assert (p.kappa1, p.kappa2, p.omega, p.eps) == FIG
    assert p.unit_label == "THz"


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


def test_resonance_margin_configurable():
    with pytest.raises(NearResonance):
        make_params(2500.0, 3000.0, 2490.0, 0.1)
    p = make_params(2500.0, 3000.0, 2490.0, 0.1, resonance_margin=0.001)
    assert p.omega == 2490.0


def test_wrong_ordering_is_not_silently_swapped():
    # Swapping would silently relabel the polarization assignments, so the
    # ordering violation is its own error, not a Degenerate/NonPositive case.
    with pytest.raises(ValidationError) as err:
        make_params(3000.0, 2500.0, 0.5, 0.1)
    assert type(err.value) is ValidationError
    assert "ordered" in str(err.value)


@pytest.mark.parametrize("kwargs", [
    dict(kappa1=0.0), dict(kappa1=-2500.0), dict(kappa2=0.0),
    dict(eps=0.0), dict(eps=-0.1), dict(omega=-0.5),
    dict(kappa1=float("nan")), dict(eps=float("inf")),
])
def test_nonpositive_inputs_rejected(kwargs):
    base = dict(kappa1=2500.0, kappa2=3000.0, omega=0.5, eps=0.1)
    base.update(kwargs)
    with pytest.raises(NonPositive):
        make_params(**base)


def test_coupling_reference_value():
    # One electron in the unit box at unit light-front momentum.
    inputs = PhysicalInputs(kappa0=1.0, m1=1, m2=2, rho=1.0,
                            np_momentum=1.0, B_field=1.0)
    eps_raw, eps, omega = derive_couplings(inputs)
    expected = (1.0 / 137.0) / (8.0 * math.pi ** 3)
    assert eps_raw == pytest.approx(expected, rel=1e-15)
    assert eps == pytest.approx(expected, rel=1e-15)
    assert eps == pytest.approx(2.943e-5, rel=1e-3)
    assert omega == pytest.approx(ELEMENTARY_CHARGE, rel=1e-15)


def test_coupling_zero_density():
    inputs = PhysicalInputs(kappa0=0.0, m1=1, m2=2, rho=0.0,
                            np_momentum=1.0, B_field=0.0)
    eps_raw, eps, omega = derive_couplings(inputs)
    assert eps_raw == 0.0
    assert eps == 0.0
    assert omega == 0.0


def test_coupling_homogeneous_in_kappa0():
    base = PhysicalInputs(kappa0=1.7, m1=1, m2=2, rho=1.0,
                          np_momentum=3.0, B_field=0.0)
    ref, _, _ = derive_couplings(base)
    for t in (2.0, 10.0):
        scaled = PhysicalInputs(kappa0=1.7 * t, m1=1, m2=2, rho=1.0,
                                np_momentum=3.0, B_field=0.0)
        got, _, _ = derive_couplings(scaled)
        assert got == pytest.approx(ref * t ** 3, rel=1e-12)


@pytest.mark.parametrize("kappa0", [1e110, math.inf, math.nan])
def test_coupling_rejects_a_kappa0_whose_cube_is_not_finite(kappa0):
    inputs = PhysicalInputs(kappa0=kappa0, m1=1, m2=2, rho=1.0,
                            np_momentum=1.0, B_field=1.0)
    with pytest.raises(ValidationError, match="kappa0 = .* has no finite cube"):
        derive_couplings(inputs)


def test_zero_light_front_momentum():
    inputs = PhysicalInputs(kappa0=1.0, m1=1, m2=2, rho=1.0,
                            np_momentum=0.0, B_field=1.0)
    with pytest.raises(ZeroLightFront):
        derive_couplings(inputs)


@pytest.mark.parametrize("field,value,exc", [
    ("m1", 3, ValidationError),        # m1 >= m2
    ("m1", 0, NonPositive),
    ("m2", -1, NonPositive),
    ("rho", -1.0, NonPositive),
    ("B_field", -1.0, NonPositive),
    ("np_momentum", -1.0, NonPositive),
    ("kappa0", -1.0, NonPositive),
])
def test_physical_inputs_validation(field, value, exc):
    kwargs = dict(kappa0=1.0, m1=1, m2=3, rho=1.0,
                  np_momentum=1.0, B_field=1.0)
    kwargs[field] = value
    with pytest.raises(exc):
        PhysicalInputs(**kwargs).validate()


def test_mode_numbers_must_be_integers():
    with pytest.raises(ValidationError):
        PhysicalInputs(kappa0=1.0, m1=1.5, m2=3, rho=1.0,
                       np_momentum=1.0, B_field=1.0).validate()


@given(
    kappa1=st.floats(min_value=1e-3, max_value=1e6),
    ratio=st.floats(min_value=1.0 + 1e-9, max_value=100.0),
    omega_frac=st.floats(min_value=0.0, max_value=0.98),
    eps=st.floats(min_value=1e-30, max_value=1e30),
)
@settings(deadline=None, derandomize=True)
def test_valid_inputs_always_accepted(kappa1, ratio, omega_frac, eps):
    p = make_params(kappa1, kappa1 * ratio, omega_frac * kappa1 * 0.99, eps)
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
