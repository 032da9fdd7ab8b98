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

import numpy as np

from .bogoliubov import INDEX_ORDER, BogoliubovBlock, _column, _phase
from .dispersion import ModeRoots
from .errors import UnsupportedConfig, ZeroNorm
from .params import ModelParams

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


@dataclass(frozen=True)
class TwoQubitAmplitudes:
    """Normalized amplitude 4-vector plus the exact truncation diagnostics.

    vec is unit-normalized (normalized flag records that). raw_norm_sq is
    the pre-normalization norm squared, stored as 1 - norm_gap with norm_gap
    computed deviation-first. y_gap is 1 minus the spectral gap of the
    pre-normalization reduced density matrix.
    """

    vec: np.ndarray
    config: PolarizationConfig
    normalized: bool
    raw_norm_sq: float
    norm_gap: float
    y_gap: float

    @property
    def matrix(self) -> np.ndarray:
        """Amplitudes as the 2x2 matrix M[lam-1][lam'-1]."""
        return self.vec.reshape(2, 2)


def _pattern_vector(b_self, a_cross, config):
    """The 4-vector P*b + Q*a with the row/column phase products."""
    lam1, lam2 = config.lambda1, config.lambda2
    vec = np.empty(4, dtype=complex)
    for lam in (1, 2):
        for lam_p in (1, 2):
            p = _phase(lam, lam1) * _phase(lam_p, lam2)
            q = _phase(lam_p, lam1) * _phase(lam, lam2)
            vec[2 * (lam - 1) + (lam_p - 1)] = p * b_self + q * a_cross
    return vec


def _gaps(c1, c2, parallel):
    """(b_self, a_cross, y_gap, norm_gap) from the factors of columns
    (1, lambda1) and (2, lambda2), as floats or as arrays alike."""
    b_self = c1.m_self * c2.m_self
    a_cross = c1.m_cross * c2.m_cross
    # 1 - 4 b^2 without forming 4 b^2: with b^2 =
    # (1+xi1)(1+xi2) / (4 (1+chi1)(1+chi2)) the gap reduces to a ratio of
    # sums of the small deviations.
    num = (c1.chi + c2.chi + c1.chi * c2.chi
           - c1.xi - c2.xi - c1.xi * c2.xi)
    den = (1.0 + c1.chi) * (1.0 + c2.chi)
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


def _state_gaps(columns, config: PolarizationConfig):
    """_gaps of config's state from the four ColumnFactors in INDEX_ORDER.
    ZeroNorm where 1 - norm_gap <= 0 or _pattern_vector is all zeros: its
    entries are b_self + a_cross (parallel) or b_self +- a_cross up to phase."""
    gaps = b_self, a_cross, _, norm_gap = _gaps(
        columns[INDEX_ORDER.index((1, config.lambda1))],
        columns[INDEX_ORDER.index((2, config.lambda2))], config.parallel)
    if 1.0 - norm_gap <= 0.0 or (b_self + a_cross == 0.0 if config.parallel
                                 else b_self == 0.0 == a_cross):
        raise ZeroNorm("all four amplitudes vanish; block is not a valid "
                       "photon-sector transformation")
    return gaps


def amplitudes(block: BogoliubovBlock, config: PolarizationConfig) -> TwoQubitAmplitudes:
    """Two-qubit amplitudes for one quasiphoton polarization configuration."""
    b_self, a_cross, y_gap, norm_gap = _state_gaps(block.columns, config)
    raw_norm_sq = 1.0 - norm_gap
    return TwoQubitAmplitudes(
        vec=_pattern_vector(b_self, a_cross, config) / np.sqrt(raw_norm_sq),
        config=config, normalized=True, raw_norm_sq=raw_norm_sq,
        norm_gap=norm_gap, y_gap=y_gap)


def closed_form_ab(roots: ModeRoots, params: ModelParams,
                   config: PolarizationConfig):
    """The (a, b) amplitude pair in its explicit form.

    a is the crossed-mode product, b the own-mode product; the pipeline
    amplitude vector equals the phase pattern over (b, a). Available for
    configs (2,1) and (1,1) only. The own-mode factor of b must carry the
    own-mode pole differences (r_{1,lam1}^2 - kappa1^2)(r_{2,lam2}^2 -
    kappa2^2); pairing b's numerator with the crossed poles would leave
    4(a^2 + b^2) far from 1.

    Both products come from the per-column factors of bogoliubov._column
    at the given roots, so a root on its pole raises PoleEvaluation and a
    negative radicand NegativeRadicand. Feed first-order roots to get the
    literal leading-order values, independent of the exact pipeline.
    """
    if (config.lambda1, config.lambda2) not in ((2, 1), (1, 1)):
        raise UnsupportedConfig(
            f"no closed form for config {config.code}; "
            "use the pipeline amplitudes")
    c1 = _column(roots, params, 1, config.lambda1)
    c2 = _column(roots, params, 2, config.lambda2)
    return c1.m_cross * c2.m_cross, c1.m_self * c2.m_self
