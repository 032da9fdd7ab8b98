"""Canonical-transformation block for the photon sector.

The transformation mixing the two photon modes with the two quasiphoton
kinds is a pair of 4x4 matrices u, v (rows s,lambda; columns k,lambda'),

    u = (sqrt(r/kappa_s) + sqrt(kappa_s/r)) * phase / (2 (r^2 - kappa_s^2)) * q,
    v = (sqrt(r/kappa_s) - sqrt(kappa_s/r)) * phase / (2 (r^2 - kappa_s^2)) * q,

with r the column's root, phase = (-1)^(lambda'-1) on rows with lambda = 1
and -i on rows with lambda = 2, and q the column normalization

    q = [ (-1)^lambda' * omega/(r^3 eps) + 2 sum_s (r^2-kappa_s^2)^-2 ]^(-1/2).

Everything here is evaluated in root-offset form. Writing the radicand as
(2/a^2)(1 + chi) with a = r^2 - kappa_k^2 isolates chi, the tiny deviation
of q from its pole-dominated limit a/sqrt(2); downstream entanglement
measures live entirely on such deviations, far below the ulp of the raw
matrix entries, so chi and the analogous xi are carried explicitly.
"""
from dataclasses import dataclass
import math

from .dispersion import INDEX_ORDER, ModeRoots
from .errors import NegativeRadicand, PoleEvaluation, SingularDenominator
from .params import ModelParams


def _phase(lam_row, lam_col):
    if lam_row == 1:
        return 1.0 if lam_col == 1 else -1.0
    return -1.0j


def _deviations(kappa_k, d, r, r3_eps, a_cross, omega, lam):
    """(a_self, chi, xi) of a column at offset d, root r, r3_eps = r^3 eps,
    cross pole a_cross: a_self = r^2 - kappa_k^2, the radicand is
    (2/a_self^2)(1 + chi) and m_self^2 = (1 + xi) / (2 (1 + chi)). Powers
    are products, which round alike for floats and numpy arrays, so the
    point path and the batch share them. Floats need r3_eps, a_cross != 0.
    """
    a_self = d * (d + 2.0 * kappa_k)
    field_sign = -1.0 if lam == 1 else 1.0      # (-1)^lambda
    chi = (a_self * a_self / 2.0) * (field_sign * omega / r3_eps
                                     + 2.0 / (a_cross * a_cross))
    xi = d * d / (4.0 * r * kappa_k)
    return a_self, chi, xi


def _checked(roots: ModeRoots, params: ModelParams):
    """Checked (kappa_k, kappa_o, d, r, a_self, chi, xi) of each column
    (k, lam) in INDEX_ORDER, in turn; a failing one raises before the next."""
    kappas, offsets, _ = roots
    checked = []
    for k, lam in INDEX_ORDER:
        kappa_k, kappa_o = kappas[k - 1], kappas[2 - k]
        d = offsets[k - 1][lam - 1]
        if d == 0.0:
            raise PoleEvaluation(
                f"root r[{k}][{lam}] sits exactly on its pole; "
                "the transformation is singular there")
        cross = kappa_k - kappa_o + d
        if cross == 0.0:
            raise PoleEvaluation(f"root r[{k}][{lam}] = {kappa_k + d!r} sits "
                                 f"on the other photon's pole at {kappa_o!r}; "
                                 "the transformation is singular there")
        # chi divides by r^3 eps and a_cross^2, which underflow to 0 at tiny
        # scales; at large ones r^3 eps overflows and drops the field term.
        r = kappa_k + d
        a_cross = cross * (kappa_k + kappa_o + d)
        r3_eps = r * r * r * params.eps
        if not (abs(r3_eps) > 0.0 and a_cross * a_cross > 0.0):
            raise SingularDenominator(
                f"normalization denominator of r[{k}][{lam}] = {r!r} "
                "underflows to 0 or is not a number")
        a_self, chi, xi = _deviations(kappa_k, d, r, r3_eps, a_cross,
                                      params.omega, lam)
        if not chi > -1.0:
            radicand = 2.0 * (1.0 + chi) / (a_self * a_self)
            raise NegativeRadicand(f"normalization radicand {radicand!r} <= 0 "
                                   f"at k={k}, lambda={lam}")
        if not abs(r3_eps) < math.inf and params.omega > 0.0:
            raise SingularDenominator(f"normalization denominator r^3 eps of "
                                      f"r[{k}][{lam}] = {r!r} overflows")
        checked.append((kappa_k, kappa_o, d, r, a_self, chi, xi))
    return checked


def _state_factors(kappa_k, kappa_o, d, r, a_self, chi, xi, sqrt=math.sqrt):
    # (chi, xi, m_self, m_cross), read by _gaps; np.sqrt over a batch's arrays
    scale = sqrt(2.0 * (1.0 + chi))
    return (chi, xi, (r + kappa_k) / (2.0 * sqrt(r * kappa_k) * scale),
            a_self / (2.0 * sqrt(r * kappa_o) * (kappa_k - kappa_o + d) * scale))


@dataclass(frozen=True)
class BogoliubovBlock:
    u: "numpy.ndarray"          # complex 4x4
    v: "numpy.ndarray"          # complex 4x4
    q: "numpy.ndarray"          # real 2x2


def build_block(roots: ModeRoots, params: ModelParams) -> BogoliubovBlock:
    """Assemble the photon-sector u, v matrices and normalizations; every
    column is _checked first, in INDEX_ORDER, as full_report checks them.
    m_* and w_* are signed magnitudes of u, v entries, phases excluded."""
    import numpy as np
    u = np.zeros((4, 4), dtype=complex)
    v = np.zeros((4, 4), dtype=complex)
    q = np.empty((2, 2))
    for j, ((k, lam), checked) in enumerate(zip(INDEX_ORDER,
                                                _checked(roots, params))):
        kappa_k, kappa_o, d, r, a_self, chi, _ = checked
        _, _, m_self, m_cross = _state_factors(*checked)
        scale = math.sqrt(2.0 * (1.0 + chi))
        q[k - 1][lam - 1] = abs(a_self) / scale
        w_self = d / (2.0 * math.sqrt(r * kappa_k) * scale)
        w_cross = a_self / (2.0 * math.sqrt(r * kappa_o) * (r + kappa_o)
                            * scale)
        for i, (s, lam_row) in enumerate(INDEX_ORDER):
            m, w = (m_self, w_self) if s == k else (m_cross, w_cross)
            ph = _phase(lam_row, lam)
            u[i][j], v[i][j] = ph * m, ph * w
    return BogoliubovBlock(u=u, v=v, q=q)


def identity_defect(block: BogoliubovBlock):
    """Max-norm defects of the Bose-commutation identities on the 4x4 block.

    Returns (defect_uu, defect_sym) for u u+ - v v+ - 1 and v u^T - u v^T.
    Both vanish only for the full transformation including the oscillator
    mode; on the photon block they are O(eps) diagnostics.
    """
    import numpy as np
    u, v = block.u, block.v
    duu = u @ u.conj().T - v @ v.conj().T - np.eye(4)
    dsym = v @ u.T - u @ v.T
    return float(np.abs(duu).max()), float(np.abs(dsym).max())
