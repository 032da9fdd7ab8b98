"""Two-qubit state of the free photon pair.

Releasing one quasiphoton of each kind onto the free-photon vacuum and
truncating to the one-photon-per-mode sector leaves a 4-vector of
amplitudes over the computational basis |00>, |01>, |10>, |11> (first slot:
photon 1 polarization, second: photon 2),

    upsilon(lam, lam') = u_{1 lam, 1 lam1} u_{2 lam', 2 lam2}
                       + u_{2 lam', 1 lam1} u_{1 lam, 2 lam2},

for the chosen quasiphoton polarizations (lam1, lam2). The truncation sheds
a little norm; the vector is renormalized and the raw norm kept, because the
deficit itself (oscillator-mode and same-mode leakage) is the physically
interesting signal at O(eps). All gap quantities (1 minus something near 1)
are assembled from the chi/xi column deviations, never by subtracting
collapsed floats.
"""
from dataclasses import dataclass
import math

from .bogoliubov import _checked, _phase, _state_factors
from .errors import ZeroNorm, _raise_first

_CODE_TO_LAMBDA = {"u": 1, "d": 2}
_LAMBDA_TO_CODE = {1: "u", 2: "d"}


@dataclass(frozen=True)
class PolarizationConfig:
    """Quasiphoton polarization pair; 1 = up (along the field), 2 = down."""

    lambda1: int
    lambda2: int

    def __post_init__(self):
        if self.lambda1 not in (1, 2) or self.lambda2 not in (1, 2):
            raise ValueError(f"polarizations must be 1 or 2, got "
                             f"({self.lambda1}, {self.lambda2})")

    @classmethod
    def from_code(cls, code: str) -> "PolarizationConfig":
        """Two-letter code, first letter photon 1: 'du' -> (2, 1)."""
        code = code.strip().lower()
        if len(code) != 2 or any(c not in _CODE_TO_LAMBDA for c in code):
            raise ValueError(f"polarization code must be two of u/d, got {code!r}")
        return cls(_CODE_TO_LAMBDA[code[0]], _CODE_TO_LAMBDA[code[1]])

    @property
    def code(self) -> str:
        return _LAMBDA_TO_CODE[self.lambda1] + _LAMBDA_TO_CODE[self.lambda2]

    @property
    def parallel(self) -> bool:
        return self.lambda1 == self.lambda2


def _pattern_vector(b_self, a_cross, config):
    """The 4-vector P*b + Q*a with the row/column phase products, as four
    complex numbers. An entry's P and Q are both real or both imaginary,
    so the entry is too."""
    lam1, lam2 = config.lambda1, config.lambda2
    return tuple(complex(_phase(lam, lam1) * _phase(lam_p, lam2) * b_self
                         + _phase(lam_p, lam1) * _phase(lam, lam2) * a_cross)
                 for lam in (1, 2) for lam_p in (1, 2))


def _gaps(c1, c2, parallel):
    """(b_self, a_cross, y_gap, norm_gap) from the leading (chi, xi, m_self,
    m_cross) of columns (1, lambda1) and (2, lambda2), floats or arrays."""
    chi1, xi1, m_self1, m_cross1 = c1[:4]
    chi2, xi2, m_self2, m_cross2 = c2[:4]
    b_self, a_cross = m_self1 * m_self2, m_cross1 * m_cross2
    # 1 - 4 b^2 without forming 4 b^2: with b^2 =
    # (1+xi1)(1+xi2) / (4 (1+chi1)(1+chi2)) the gap reduces to a ratio of
    # sums of the small deviations.
    num = chi1 + chi2 + chi1 * chi2 - xi1 - xi2 - xi1 * xi2
    den = (1.0 + chi1) * (1.0 + chi2)
    self_gap = num / den
    four_a_sq = 4.0 * a_cross * a_cross
    if parallel:
        # All the weight sits in one product state; the spectral gap of the
        # raw density matrix equals its trace.
        y_gap = self_gap - 8.0 * a_cross * b_self - four_a_sq
        norm_gap = y_gap
    else:
        y_gap = self_gap + four_a_sq
        norm_gap = self_gap - four_a_sq
    return b_self, a_cross, y_gap, norm_gap


# _state_gaps' rule: a positive raw norm and a _pattern_vector not all
# zeros, whose entries are b_self + a_cross (parallel) or b_self +- a_cross.
_NORM_RULES = ((ZeroNorm, "all four amplitudes vanish; block is not a "
                "valid photon-sector transformation"),)


def _norm_verdicts(b_self, a_cross, norm_gap, parallel):
    """The _NORM_RULES row's accept verdict, for floats or arrays."""
    nonzero = ((b_self + a_cross != 0.0) if parallel
               else (b_self != 0.0) | (a_cross != 0.0))
    return ((1.0 - norm_gap > 0.0) & nonzero,)


def _state_gaps(columns, config: PolarizationConfig):
    """_gaps of config's state; columns in INDEX_ORDER, read by position.
    Raises ZeroNorm where _NORM_RULES rejects the state."""
    parallel = config.parallel
    gaps = b_self, a_cross, _, norm_gap = _gaps(
        columns[config.lambda1 - 1], columns[config.lambda2 + 1], parallel)
    ok = _norm_verdicts(b_self, a_cross, norm_gap, parallel)
    if not all(ok):
        _raise_first(_NORM_RULES, ok)
    return gaps


def _state_columns(roots, params, config):
    """_checked's four columns, the two _state_gaps reads as _state_factors."""
    columns = _checked(roots, params)
    for i in (config.lambda1 - 1, config.lambda2 + 1):
        columns[i] = _state_factors(*columns[i])
    return columns


def _normalized_state(columns, config: PolarizationConfig):
    """(vec, y_gap, norm_gap): config's unit 4-vector, four complex numbers,
    and its gaps; columns in INDEX_ORDER. The raw norm is sqrt(1 - norm_gap),
    positive by _state_gaps' rule; the vector is scaled by its reciprocal,
    as NumPy divides a complex by a real."""
    b_self, a_cross, y_gap, norm_gap = _state_gaps(columns, config)
    inv_norm = 1.0 / math.sqrt(1.0 - norm_gap)
    return ([z * inv_norm for z in _pattern_vector(b_self, a_cross, config)],
            y_gap, norm_gap)
