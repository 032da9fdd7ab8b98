"""Entanglement measures of the photon pair.

Two routes to the same physics, kept deliberately separate so each can check
the other:

* the pipeline route: roots -> the four column factors -> the state's
  gaps -> measures, valid for any polarization configuration;
* closed forms: the field-and-frequency factor Phi with y = 1 - eps*Phi and
  E_S = 2*eps*Phi for the (down, up) configuration, and the asymptotic
  information measure, all exact only at leading order in eps.

Convention: the reported y, E_I, E_S are evaluated on the pre-normalization
(raw) state. The truncation's norm deficit carries the leading-order
entanglement signal (the shed weight is exactly the oscillator-mode and
same-mode leakage), and the closed forms above are leading-order statements
about these raw quantities; the renormalized state's spectral gap differs
from 1 only at O(eps^2).
"""
from dataclasses import dataclass
import math

import numpy as np

from .bogoliubov import INDEX_ORDER, _column
from .dispersion import DEFAULT_REL_TOL, exact_roots, perturbative_roots
from .errors import (
    DomainError,
    QubeamError,
    RangeViolation,
    ResonancePole,
    SingularDenominator,
)
from .params import ModelParams
from .qstate import PolarizationConfig, TwoQubitAmplitudes, _state_gaps

_LN4 = math.log(4.0)
# Measures clamp arguments this far outside their domain to the boundary;
# larger excursions raise DomainError.
DOMAIN_TOL = 1e-9
# Below this gap the direct log expression is replaced by its series.
_SERIES_CUT = 1e-6


@dataclass(frozen=True)
class ReducedDensity:
    """One-photon reduced density matrix of a normalized two-qubit state."""

    rho: np.ndarray
    eigs: tuple
    y: float


@dataclass(frozen=True)
class EntanglementReport:
    config: PolarizationConfig
    method: str
    y: float                    # raw spectral quantity, 1 - y_gap
    y_gap: float
    E_I: float
    E_S: float
    raw_norm_sq: float
    norm_gap: float
    Phi: float | None = None
    y_closed: float | None = None
    E_I_asymptotic: float | None = None
    E_S_closed: float | None = None


def reduced_density(amps: TwoQubitAmplitudes) -> ReducedDensity:
    """Trace out the second photon.

    With M[lam][lam'] = upsilon, rho = M M+; the eigenvalues are (1 -+ y)/2
    with spectral gap y = sqrt((rho11 - rho22)^2 + 4 |rho12|^2).
    """
    m = amps.matrix
    rho = m @ m.conj().T
    y = math.sqrt((rho[0, 0].real - rho[1, 1].real) ** 2
                  + 4.0 * abs(rho[0, 1]) ** 2)
    return ReducedDensity(rho=rho, eigs=((1.0 - y) / 2.0, (1.0 + y) / 2.0), y=y)


def _info_from_gap(gap: float) -> float:
    """Information measure as a function of the gap g = 1 - y, in bits.

    Accurate for gaps down to the 1e-30 scale: the small-gap branch is the
    series (1/ln4) [g (1 - ln(g/2)) - g^2/4 - g^3/24 - g^4/96 + O(g^5)].
    """
    if gap <= 0.0:
        return 0.0
    if gap < _SERIES_CUT:
        return (gap * (1.0 - math.log(gap / 2.0))
                - gap * gap / 4.0 - gap * gap * gap / 24.0
                - gap * gap * gap * gap / 96.0) / _LN4
    return -(gap * math.log(gap / 2.0)
             + (2.0 - gap) * math.log1p(-gap / 2.0)) / _LN4


def info_measure(y: float) -> float:
    """Entropy-based measure from the spectral gap parameter y, in bits.

    1 at y = 0 (maximal entanglement), 0 at y = 1; the x ln x limit at the
    endpoints is taken continuously. y outside [0, 1] by more than the
    domain tolerance raises DomainError; smaller excursions clamp.
    """
    if y > 1.0 + DOMAIN_TOL or y < -DOMAIN_TOL:
        raise DomainError(f"spectral parameter y = {y!r} outside [0, 1]")
    y = min(max(y, 0.0), 1.0)
    return _info_from_gap(1.0 - y)


def schmidt_measure(rho: ReducedDensity) -> float:
    """Impurity E_S = 1 - trace(rho^2).

    The defining expression elsewhere reads -trace(rho^2), but every
    evaluated consequence (the 2*eps*Phi result, the zero for parallel
    polarizations) needs the impurity normalization, so that is what this
    computes. 0 for product states, 1/2 at maximal mixing.
    """
    r = rho.rho
    tr_sq = (abs(r[0, 0]) ** 2 + abs(r[1, 1]) ** 2
             + 2.0 * abs(r[0, 1]) ** 2)
    return 1.0 - float(tr_sq)


def _schmidt_from_gaps(norm_gap: float, y_gap: float) -> float:
    # E_S of the raw state: 1 - (T^2 + y^2)/2 with T = 1 - norm_gap,
    # y = 1 - y_gap, expanded so no near-1 squares are formed.
    return (norm_gap + y_gap
            - (norm_gap * norm_gap + y_gap * y_gap) / 2.0)


def _phi_terms(k1, k2, w):
    """Numerator and denominator of Phi, for floats or arrays alike."""
    num = w * (w * w * (k2 - k1) + 2.0 * w * (k2 * k2 + k1 * k1)
               + (k2 * k2 * k2 - k1 * k1 * k1))
    den = 2.0 * k1 * k2 * ((w - k1) * (w - k1)) * ((w + k2) * (w + k2))
    return num, den


def phi_closed(params: ModelParams):
    """Closed-form factor Phi for the (down, up) configuration.

    Returns (Phi, y_closed) with y_closed = 1 - eps*Phi. Phi >= 0 in the
    validated regime and vanishes with omega.
    """
    k1, k2, w = params.kappa1, params.kappa2, params.omega
    if abs(w - k1) <= 1e-12 * k1:
        raise ResonancePole(f"omega = {w} on the resonance pole at kappa1 = {k1}")
    num, den = _phi_terms(k1, k2, w)
    if not den > 0.0:
        raise SingularDenominator(f"Phi denominator {den!r} is not positive "
                                  f"at kappa1 = {k1}, kappa2 = {k2}")
    phi = num / den
    eps_phi = params.eps * phi
    if not eps_phi < 1.0:
        raise RangeViolation(f"eps*Phi = {eps_phi!r} is not below 1; outside "
                             "the admissible range")
    return phi, 1.0 - eps_phi


def _asymptotic_from_phi(phi, eps):
    if phi <= 0.0:
        raise DomainError(f"asymptotic form needs Phi > 0, got {phi!r} "
                          "(route omega = 0 to E_I = 0)")
    return (phi / (2.0 * math.log(2.0))) * (
        eps * (1.0 - math.log(phi / 2.0)) - eps * math.log(eps))


def asymptotic_info(params: ModelParams) -> float:
    """Small-eps information measure for (down, up), in bits.

    (Phi / (2 ln 2)) [eps (1 - ln(Phi/2)) - eps ln eps]. Undefined at
    Phi = 0; callers route the omega = 0 case to the exact value 0.
    """
    return _asymptotic_from_phi(phi_closed(params)[0], params.eps)


def _measures(y_gap, norm_gap):
    """(E_I, E_S) of the raw state from its spectral and norm gaps."""
    if not y_gap >= -DOMAIN_TOL:
        raise DomainError(f"raw spectral gap {y_gap!r} below domain "
                          "tolerance or not a number; state outside the "
                          "truncation regime")
    if not y_gap <= 1.0 + DOMAIN_TOL:       # info_measure's bound on y
        raise DomainError(f"raw spectral gap {y_gap!r} above 1 beyond domain "
                          "tolerance; the raw spectral parameter is negative")
    e_i = _info_from_gap(max(y_gap, 0.0))
    e_s = _schmidt_from_gaps(norm_gap, y_gap)
    if not e_s >= -DOMAIN_TOL:
        raise DomainError(f"raw impurity {e_s!r} below domain tolerance or "
                          "not a number")
    return e_i, max(e_s, 0.0)


def _closed_forms(params: ModelParams, config: PolarizationConfig):
    """(Phi, y_closed, E_I_asymptotic, E_S_closed) for configs (2,1) and
    (1,1); the other two have no leading-order reference and get Nones."""
    if (config.lambda1, config.lambda2) == (2, 1):
        phi, y_closed = phi_closed(params)
        if params.omega == 0.0 or phi == 0.0:
            e_i_asym = 0.0
        else:
            e_i_asym = _asymptotic_from_phi(phi, params.eps)
        return phi, y_closed, e_i_asym, 2.0 * params.eps * phi
    if (config.lambda1, config.lambda2) == (1, 1):
        # Exact leading-order references: a rank-1 (product) state.
        return None, 1.0, 0.0, 0.0
    return None, None, None, None


def full_report(params: ModelParams, config: PolarizationConfig,
                method: str = "exact",
                tol: float = DEFAULT_REL_TOL) -> EntanglementReport:
    """Run the whole pipeline for one parameter point.

    The four column factors, all evaluated as in build_block, give the
    gaps that amplitudes(build_block(roots, params), config) would hold.
    method selects the root solver ("exact" or "perturbative"). Closed-form
    comparators are attached for configs (2,1) and (1,1); the other two have
    no leading-order reference and get None there. Upstream errors propagate
    as the same objects, with the failing stage in their stage attribute
    and prepended to the message.
    """
    if method not in ("exact", "perturbative"):
        raise ValueError(f"method must be 'exact' or 'perturbative', got {method!r}")
    stage = "roots"
    try:
        roots = (exact_roots(params, tol) if method == "exact"
                 else perturbative_roots(params))
        stage = "block"
        columns = [_column(roots, params, k, lam) for k, lam in INDEX_ORDER]
        stage = "amplitudes"
        _, _, y_gap, norm_gap = _state_gaps(columns, config)
        stage = "measures"
        e_i, e_s = _measures(y_gap, norm_gap)
        phi, y_closed, e_i_asym, e_s_closed = _closed_forms(params, config)
    except QubeamError as exc:
        exc.stage = stage
        exc.args = (f"stage {stage}: {exc}",)
        raise

    return EntanglementReport(
        config=config, method=method,
        y=1.0 - y_gap, y_gap=y_gap, E_I=e_i, E_S=e_s,
        raw_norm_sq=1.0 - norm_gap, norm_gap=norm_gap,
        Phi=phi, y_closed=y_closed, E_I_asymptotic=e_i_asym,
        E_S_closed=e_s_closed)
