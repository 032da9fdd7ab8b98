"""Model parameters and coupling derivation.

The model lives in a single frequency unit (THz by default): the photon
frequencies kappa1 < kappa2, the cyclotron frequency omega, and the coupling
eps which carries unit^2. Reading the coupling as unit^2 is a documented
convention choice; the defining relations are only dimensionally consistent
that way, and the source figures quote a bare number.
"""
from dataclasses import dataclass
import math

import numpy as np

from .errors import (
    DegenerateFrequencies,
    NearResonance,
    NonPositive,
    ValidationError,
    ZeroLightFront,
)

# Fraction of kappa1 that omega must stay below: omega < kappa1*(1 - margin).
RESONANCE_MARGIN_DEFAULT = 0.01

FINE_STRUCTURE = 1.0 / 137.0
# Electron charge with the Coulomb law written as F = q1 q2 / (4 pi r^2).
ELEMENTARY_CHARGE = math.sqrt(4.0 * math.pi * FINE_STRUCTURE)


@dataclass(frozen=True)
class ModelParams:
    """Validated inputs for one model point.

    Invariants (enforced by make_params, not by the constructor):
    0 < kappa1 < kappa2, omega >= 0, eps > 0, and the non-resonance guard
    omega < kappa1 * (1 - resonance_margin).
    """

    kappa1: float
    kappa2: float
    omega: float
    eps: float
    unit_label: str = "THz"


def make_params(kappa1, kappa2, omega, eps,
                resonance_margin=RESONANCE_MARGIN_DEFAULT,
                unit_label="THz") -> ModelParams:
    """Validate raw numbers into ModelParams.

    Raises NonPositive, DegenerateFrequencies, NearResonance, or a plain
    ValidationError (wrong frequency ordering). Idempotent: feeding the
    fields of a valid ModelParams back in returns an equal instance.
    """
    kappa1 = float(kappa1)
    kappa2 = float(kappa2)
    omega = float(omega)
    eps = float(eps)
    for name, value in (("kappa1", kappa1), ("kappa2", kappa2)):
        if not (value > 0.0) or not math.isfinite(value):
            raise NonPositive(f"{name} must be positive and finite, got {value!r}")
    if not (eps > 0.0) or not math.isfinite(eps):
        raise NonPositive(f"eps must be positive and finite, got {eps!r}")
    if omega < 0.0 or not math.isfinite(omega):
        raise NonPositive(f"omega must be nonnegative and finite, got {omega!r}")
    if kappa1 == kappa2:
        raise DegenerateFrequencies(
            f"kappa1 = kappa2 = {kappa1}; the first-order root corrections "
            "divide by the frequency split")
    if kappa1 > kappa2:
        # No silent swap: polarization labels are bound to the photon index.
        raise ValidationError(
            f"photon frequencies must be ordered kappa1 < kappa2, "
            f"got kappa1={kappa1}, kappa2={kappa2}")
    if omega >= kappa1 * (1.0 - resonance_margin):
        raise NearResonance(
            f"omega={omega} within the resonance margin of kappa1={kappa1} "
            f"(limit {kappa1 * (1.0 - resonance_margin)})")
    return ModelParams(kappa1, kappa2, omega, eps, unit_label)


def _rejections(kappa1, kappa2, omega, eps):
    """make_params' checks over arrays of points, in its order and with its
    comparisons, at the default resonance margin: per point, 0 where
    make_params accepts the point, else the rank of the error class it
    raises (1 NonPositive, 2 DegenerateFrequencies, 3 ValidationError, 4
    NearResonance)."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.select(
            [~((kappa1 > 0.0) & np.isfinite(kappa1) & (kappa2 > 0.0)
               & np.isfinite(kappa2) & (eps > 0.0) & np.isfinite(eps))
             | (omega < 0.0) | ~np.isfinite(omega),
             kappa1 == kappa2,
             kappa1 > kappa2,
             omega >= kappa1 * (1.0 - RESONANCE_MARGIN_DEFAULT)],
            [1, 2, 3, 4], 0)


@dataclass(frozen=True)
class PhysicalInputs:
    """Microscopic inputs from which the model couplings derive.

    kappa0: fundamental frequency 2*pi/L of the quantization box;
    m1 < m2: integer mode numbers, kappa_s = kappa0 * m_s;
    rho: electron density (length^-3), equal to kappa0^3 / (8 pi^3) when the
    box holds one electron; np_momentum: light-front momentum p0 - pz of the
    electron; B_field: magnetic field magnitude.
    """

    kappa0: float
    m1: int
    m2: int
    rho: float
    np_momentum: float
    B_field: float

    def validate(self):
        if not (isinstance(self.m1, int) and isinstance(self.m2, int)):
            raise ValidationError("mode numbers m1, m2 must be integers")
        if self.m1 < 1 or self.m2 < 1:
            raise NonPositive(f"mode numbers must be >= 1, got {self.m1}, {self.m2}")
        if self.m1 >= self.m2:
            raise ValidationError(f"mode numbers must satisfy m1 < m2, "
                                  f"got {self.m1}, {self.m2}")
        if self.kappa0 < 0:
            raise NonPositive(f"kappa0 must be nonnegative, got {self.kappa0}")
        if self.rho < 0:
            raise NonPositive(f"rho must be nonnegative, got {self.rho}")
        if self.B_field < 0:
            raise NonPositive(f"B_field must be nonnegative, got {self.B_field}")
        if self.np_momentum < 0:
            raise NonPositive(f"np_momentum must be nonnegative, "
                              f"got {self.np_momentum}")


def derive_couplings(inputs: PhysicalInputs):
    """Couplings from microscopic inputs.

    Returns (eps_raw, eps, omega) with
        eps_raw = alpha * kappa0^3 / (8 pi^3)   (unit^3 as a density),
        eps     = eps_raw / (np),
        omega   = e * B / (np).

    Homogeneous in kappa0: scaling kappa0 by t scales eps_raw by t^3.
    A kappa0 whose cube is not a finite double raises ValidationError.
    """
    inputs.validate()
    if inputs.np_momentum == 0.0:
        raise ZeroLightFront("light-front momentum (np) is zero")
    kappa0 = float(inputs.kappa0)
    cube = kappa0 * kappa0 * kappa0
    if not math.isfinite(cube):
        raise ValidationError(f"kappa0 = {kappa0!r} has no finite cube")
    eps_raw = FINE_STRUCTURE * cube / (8.0 * math.pi ** 3)
    eps = eps_raw / inputs.np_momentum
    omega = ELEMENTARY_CHARGE * inputs.B_field / inputs.np_momentum
    return eps_raw, eps, omega
