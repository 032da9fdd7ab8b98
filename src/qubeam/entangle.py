"""Entanglement measures of the photon pair.

Two routes to the same physics, kept deliberately separate so each can check
the other:

* the pipeline route: roots -> checks of all four columns -> factors of
  the two the state reads -> gaps -> measures, for any configuration;
* closed forms: phi_closed's field-and-frequency factor Phi with
  y = 1 - eps*Phi and E_S = 2*eps*Phi for the (down, up) configuration, and
  the asymptotic information measure taken from that Phi, which full_report
  attaches through _closed_forms; all exact only at leading order in eps.

Convention: the reported y, E_I, E_S are evaluated on the pre-normalization
(raw) state. The truncation's norm deficit carries the leading-order
entanglement signal (the shed weight is exactly the oscillator-mode and
same-mode leakage), and the closed forms above are leading-order statements
about these raw quantities; the renormalized state's spectral gap differs
from 1 only at O(eps^2).
"""
import math
import sys
from typing import NamedTuple

from .dispersion import exact_roots, perturbative_roots
from .errors import (
    DomainError,
    QubeamError,
    RangeViolation,
    ResonancePole,
    SingularDenominator,
    _raise_first,
)
from .params import ModelParams
from .qstate import PolarizationConfig, _state_columns, _state_gaps

_LN4 = math.log(4.0)
# Measures clamp arguments this far outside their domain to the boundary;
# larger excursions raise DomainError.
DOMAIN_TOL = 1e-9
# Below this gap the direct log expression is replaced by its series.
_SERIES_CUT = 1e-6


class EntanglementReport(NamedTuple):
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


def _info_from_gap(gap: float) -> float:
    """Information measure as a function of the gap g = 1 - y, in bits.

    Accurate for gaps down to the 1e-30 scale: the small-gap branch is the
    series (1/ln4) [g (1 - ln(g/2)) - g^2/4 - g^3/24 - g^4/96 + O(g^5)].
    """
    if gap <= 0.0:
        return 0.0
    if gap < _SERIES_CUT:
        return _info_series(gap, _log_half(gap))
    half = gap / 2.0
    return _info_direct(gap, math.log(half), math.log1p(-half))


def _log_half(x):
    # ln(x/2), also at the smallest subnormal x, where x/2 rounds to 0
    half = x / 2.0
    return math.log(half) if half else math.log(x) - math.log(2.0)


# The two branches given ln(gap/2) and ln(1 - gap/2), for floats or arrays.
def _info_series(gap, log_half):
    return (gap * (1.0 - log_half) - gap * gap / 4.0 - gap * gap * gap / 24.0
            - gap * gap * gap * gap / 96.0) / _LN4


def _info_direct(gap, log_half, log1p_half):
    return -(gap * log_half + (2.0 - gap) * log1p_half) / _LN4


def _schmidt_from_gaps(norm_gap: float, y_gap: float) -> float:
    # E_S of the raw state, the impurity 1 - tr(rho^2) (not -tr(rho^2): the
    # results E_S = 2 eps Phi and 0 for parallel polarizations need it), as
    # 1 - (T^2 + y^2)/2 with T = 1 - norm_gap, y = 1 - y_gap, expanded so no
    # near-1 squares are formed.
    return (norm_gap + y_gap
            - (norm_gap * norm_gap + y_gap * y_gap) / 2.0)


def _phi_terms(k1, k2, w):
    """Numerator and denominator of Phi, for floats or arrays alike."""
    num = w * (w * w * (k2 - k1) + 2.0 * w * (k2 * k2 + k1 * k1)
               + (k2 * k2 * k2 - k1 * k1 * k1))
    den = 2.0 * k1 * k2 * ((w - k1) * (w - k1)) * ((w + k2) * (w + k2))
    return num, den


# The closed forms' rules, every caller's: Phi's own (an overflowed den
# would give a false Phi = 0, the exact E_I's value at omega = 0, and a
# subnormal one keeps too few bits for any closed form), then the
# asymptotic form's; the last row guards the form's log(eps).
_CLOSED_RULES = (
    (ResonancePole, "omega = {w} on the resonance pole at kappa1 = {k1}"),
    (SingularDenominator, "Phi denominator {den!r} is not a positive normal "
     "float at kappa1 = {k1}, kappa2 = {k2}"),
    (SingularDenominator, "Phi denominator {den!r} is not finite at "
     "kappa1 = {k1}, kappa2 = {k2}"),
    (RangeViolation, "eps*Phi = {eps_phi!r} is not below 1; outside the "
     "admissible range"),
    (DomainError, "closed forms need Phi >= 0, got {phi!r}"),
    (DomainError, "asymptotic form needs eps > 0, got {eps!r}"),
)


def _closed_verdicts(k1, w, den, eps, phi):
    """Each _CLOSED_RULES row's accept verdict, for floats or arrays."""
    return (abs(w - k1) > 1e-12 * k1, den >= sys.float_info.min,
            den < math.inf, eps * phi < 1.0, phi >= 0.0, eps > 0.0)


def phi_closed(params: ModelParams):
    """Closed-form factor Phi for the (down, up) configuration.

    Returns (Phi, y_closed) with y_closed = 1 - eps*Phi. Phi >= 0 in the
    validated regime and vanishes with omega. Every _CLOSED_RULES row
    applies: a negative Phi or an eps <= 0 raises DomainError.
    """
    k1, k2, w, eps = params
    num, den = _phi_terms(k1, k2, w)
    phi = num / den if den else math.nan    # a zero den fails its own row
    eps_phi = eps * phi
    ok = _closed_verdicts(k1, w, den, eps, phi)
    if not all(ok):
        _raise_first(_CLOSED_RULES, ok, k1=k1, k2=k2, w=w, den=den,
                     eps_phi=eps_phi, phi=phi, eps=eps)
    return phi, 1.0 - eps_phi


def _asymptotic_from_phi(phi, eps):
    # at Phi >= 0 and eps > 0, which _CLOSED_RULES see to; Phi = 0
    # (omega = 0) is E_I = 0
    return _asymptotic_terms(phi, eps, _log_half(phi),
                             math.log(eps)) if phi else 0.0


def _asymptotic_terms(phi, eps, log_half_phi, log_eps):
    return (phi / _LN4) * (eps * (1.0 - log_half_phi) - eps * log_eps)


# _measures' rules; the spectral gap's run before _info_from_gap, which
# raises ValueError for a gap above 2.
_MEASURE_RULES = (
    (DomainError, "raw spectral gap {y_gap!r} below domain tolerance or not "
     "a number; state outside the truncation regime"),
    (DomainError, "raw spectral gap {y_gap!r} above 1 beyond domain "
     "tolerance; the raw spectral parameter is negative"),
    (DomainError, "raw impurity {e_s!r} below domain tolerance or not a "
     "number"),
)


def _measure_verdicts(y_gap, e_s):
    """Each _MEASURE_RULES row's accept verdict, for floats or arrays."""
    return (y_gap >= -DOMAIN_TOL, y_gap <= 1.0 + DOMAIN_TOL,  # y >= -TOL
            e_s >= -DOMAIN_TOL)


def _measures(y_gap, norm_gap):
    """(E_I, E_S) of the raw state from its spectral and norm gaps."""
    e_s = _schmidt_from_gaps(norm_gap, y_gap)
    ok = _measure_verdicts(y_gap, e_s)
    if not all(ok):
        _raise_first(_MEASURE_RULES, ok, y_gap=y_gap, e_s=e_s)
    # _info_from_gap is 0 for a gap <= 0; E_S is max(e_s, 0.0), bit for bit
    return _info_from_gap(y_gap), 0.0 if 0.0 > e_s else e_s


def _closed_forms(params: ModelParams, config: PolarizationConfig):
    """(Phi, y_closed, E_I_asymptotic, E_S_closed) for configs (2,1) and
    (1,1); the other two have no leading-order reference and get Nones."""
    if (config.lambda1, config.lambda2) == (2, 1):
        phi, y_closed = phi_closed(params)
        return (phi, y_closed, _asymptotic_from_phi(phi, params.eps),
                2.0 * params.eps * phi)
    if (config.lambda1, config.lambda2) == (1, 1):
        # Exact leading-order references: a rank-1 (product) state.
        return None, 1.0, 0.0, 0.0
    return None, None, None, None


def full_report(params: ModelParams, config: PolarizationConfig,
                method: str = "exact") -> EntanglementReport:
    """Run the whole pipeline for one parameter point.

    Each column is checked as build_block checks it, read or not; the two
    read give the gaps of the state that `qubeam state` prints.
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
        roots = (exact_roots(params) if method == "exact"
                 else perturbative_roots(params))
        stage = "block"
        columns = _state_columns(roots, params, config)
        stage = "amplitudes"
        _, _, y_gap, norm_gap = _state_gaps(columns, config)
        stage = "measures"
        e_i, e_s = _measures(y_gap, norm_gap)
        phi, y_closed, e_i_asym, e_s_closed = _closed_forms(params, config)
    except QubeamError as exc:
        exc.stage = stage
        exc.args = (f"stage {stage}: {exc}",)
        raise

    return EntanglementReport(config, method, 1.0 - y_gap, y_gap, e_i, e_s,
                              1.0 - norm_gap, norm_gap, phi, y_closed,
                              e_i_asym, e_s_closed)
