"""Model parameters.

The model lives in a single frequency unit: the photon frequencies
kappa1 < kappa2, the cyclotron frequency omega, and the coupling eps which
carries unit^2. Reading the coupling as unit^2 is a documented convention
choice; the defining relations are only dimensionally consistent that way,
and the source figures quote a bare number. README gives omega and eps in
terms of the field and the electron density.
"""
import math
from typing import NamedTuple

from .errors import (
    DegenerateFrequencies,
    NearResonance,
    NonPositive,
    StrongCoupling,
    ValidationError,
    _raise_first,
)

# Fraction of kappa1 that omega must stay below: omega < kappa1*(1 - margin).
RESONANCE_MARGIN = 0.01
# eps must stay within this fraction of (kappa1 - omega)^2 min(1, dk/kappa1),
# dk = kappa2 - kappa1: there every root lies in its pole bracket.
COUPLING_LIMIT = 0.01


# make_params' rules in the order it checks them. No silent swap of an
# unordered pair: polarization labels are bound to the photon index.
_PARAMS_RULES = (
    (NonPositive, "kappa1 must be positive and finite, got {kappa1!r}"),
    (NonPositive, "kappa2 must be positive and finite, got {kappa2!r}"),
    (NonPositive, "eps must be positive and finite, got {eps!r}"),
    (NonPositive, "omega must be nonnegative and finite, got {omega!r}"),
    (DegenerateFrequencies, "kappa1 = kappa2 = {kappa1}; the first-order "
     "root corrections divide by the frequency split"),
    (ValidationError, "photon frequencies must be ordered kappa1 < kappa2, "
     "got kappa1={kappa1}, kappa2={kappa2}"),
    (NearResonance, "omega={omega} within the resonance margin of "
     "kappa1={kappa1} (limit {limit})"),
    (StrongCoupling, "eps={eps} above the coupling bound 0.01 (kappa1 - "
     "omega)^2 min(1, (kappa2 - kappa1)/kappa1) at kappa1={kappa1}, "
     "kappa2={kappa2}, omega={omega}"),
)


def _params_verdicts(kappa1, kappa2, omega, eps):
    """Each _PARAMS_RULES row's accept verdict, for floats or arrays. The
    coupling row's products are in units of 2^e, kappa1 = m 2^e, 1/2 <= m
    < 1: an exact scaling, in which none overflows or underflows near the
    bound. Floats take math's frexp: no numpy, and no overflow warning."""
    if isinstance(kappa1, float):
        unit = math.ldexp(1.0, min(-math.frexp(kappa1)[1], 1021))
    else:
        import numpy as np
        unit = np.ldexp(1.0, np.minimum(-np.frexp(kappa1)[1], 1021))
    k1, gap = kappa1 * unit, (kappa1 - omega) * unit
    bound, e = COUPLING_LIMIT * gap * gap, eps * unit * unit
    return ((0.0 < kappa1) & (kappa1 < math.inf),
            (0.0 < kappa2) & (kappa2 < math.inf),
            (0.0 < eps) & (eps < math.inf),
            (0.0 <= omega) & (omega < math.inf),
            kappa1 != kappa2, kappa1 <= kappa2,
            omega < kappa1 * (1.0 - RESONANCE_MARGIN),
            (e <= bound) & (e * k1 <= bound * (kappa2 * unit - k1)))


class ModelParams(NamedTuple):
    """Validated inputs for one model point (or a batch, one array entry
    per point): make_params enforces the rows of _PARAMS_RULES, the
    constructor does not."""

    kappa1: float
    kappa2: float
    omega: float
    eps: float


def make_params(kappa1, kappa2, omega, eps) -> ModelParams:
    """Validate raw numbers into ModelParams.

    Raises the first failing _PARAMS_RULES row's error, or a plain
    ValidationError for a value that is not a number. Idempotent: feeding
    the fields of a valid ModelParams back in returns an equal one.
    """
    try:
        kappa1, kappa2 = float(kappa1), float(kappa2)
        omega, eps = float(omega) + 0.0, float(eps)     # -0.0 reads as 0.0
    except (OverflowError, TypeError, ValueError):
        return make_params(*map(_inf_if_huge, (kappa1, kappa2, omega, eps),
                                ModelParams._fields))
    ok = _params_verdicts(kappa1, kappa2, omega, eps)
    if not all(ok):
        _raise_first(_PARAMS_RULES, ok, kappa1=kappa1, kappa2=kappa2,
                     omega=omega, eps=eps,
                     limit=kappa1 * (1.0 - RESONANCE_MARGIN))
    return ModelParams(kappa1, kappa2, omega, eps)


def _inf_if_huge(value, name=None):
    """+-inf for an int too large for a float, as "1e400" reads; else value.
    Given the field's name, a value float() rejects raises ValidationError."""
    try:
        float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        if name:
            raise ValidationError(
                f"{name} must be a number, got {value!r}") from None
    return value

