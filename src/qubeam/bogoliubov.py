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
from typing import NamedTuple

from .dispersion import INDEX_ORDER, ModeRoots
from .errors import NegativeRadicand, PoleEvaluation, SingularDenominator
from .params import ModelParams


def _phase(lam_row, lam_col):
    if lam_row == 1:
        return 1.0 if lam_col == 1 else -1.0
    return -1.0j


class ColumnFactors(NamedTuple):
    """Exact per-column quantities for column (k, lam) of the block; a
    block's columns are identified by their position in INDEX_ORDER.

    Its first four fields are _state_factors' tuple. chi is the relative
    deviation of the normalization radicand from its self-pole part,
    radicand = (2/a_self^2)(1 + chi); xi = d^2/(4 r kappa) measures that of
    the u self-entry from 1/sqrt(2): m_self^2 = (1 + xi) / (2 (1 + chi)).
    m_* and w_* are the signed magnitudes of the u and v entries (phases
    excluded); m_cross carries the sign of r - kappa_other. a_self is the
    factored pole difference r^2 - kappa_k^2 of the own mode at root r.
    """

    chi: float
    xi: float
    m_self: float
    m_cross: float
    a_self: float
    q: float
    w_self: float
    w_cross: float


def _deviations(kappa_k, d, r, a_cross, params: ModelParams, lam):
    """(a_self, chi, xi) of a column at offset d, root r, cross pole a_cross.

    Powers are products, which round alike for floats and numpy arrays, so
    both column paths share this arithmetic. Floats need a_cross != 0.
    """
    a_self = d * (d + 2.0 * kappa_k)
    field_sign = -1.0 if lam == 1 else 1.0      # (-1)^lambda
    chi = (a_self * a_self / 2.0) * (field_sign * params.omega
                                     / (r * r * r * params.eps)
                                     + 2.0 / (a_cross * a_cross))
    xi = d * d / (4.0 * r * kappa_k)
    return a_self, chi, xi


def _checked(roots: ModeRoots, params: ModelParams, columns=INDEX_ORDER):
    """Checked (kappa_k, kappa_o, d, r, a_self, chi, xi) of each column
    (k, lam) in columns, in turn; a failing one raises before the next."""
    kappas, offsets, _ = roots
    checked = []
    for k, lam in columns:
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
        # scales (a batch masks those points as not finite).
        r = kappa_k + d
        a_cross = cross * (kappa_k + kappa_o + d)
        if not (abs(r * r * r * params.eps) > 0.0 and a_cross * a_cross > 0.0):
            raise SingularDenominator(
                f"normalization denominator of r[{k}][{lam}] = {r!r} "
                "underflows to 0 or is not a number")
        a_self, chi, xi = _deviations(kappa_k, d, r, a_cross, params, lam)
        if not chi > -1.0:
            radicand = 2.0 * (1.0 + chi) / (a_self * a_self)
            raise NegativeRadicand(f"normalization radicand {radicand!r} <= 0 "
                                   f"at k={k}, lambda={lam}")
        checked.append((kappa_k, kappa_o, d, r, a_self, chi, xi))
    return checked


def _state_factors(kappa_k, kappa_o, d, r, a_self, chi, xi, sqrt=math.sqrt):
    # (chi, xi, m_self, m_cross), read by _gaps; np.sqrt over a batch's arrays
    scale = sqrt(2.0 * (1.0 + chi))
    return (chi, xi, (r + kappa_k) / (2.0 * sqrt(r * kappa_k) * scale),
            a_self / (2.0 * sqrt(r * kappa_o) * (kappa_k - kappa_o + d) * scale))


def _column(roots: ModeRoots, params: ModelParams, k, lam) -> ColumnFactors:
    (checked,) = _checked(roots, params, ((k, lam),))
    kappa_k, kappa_o, d, r, a_self, chi, xi = checked
    scale = math.sqrt(2.0 * (1.0 + chi))
    return ColumnFactors(
        *_state_factors(*checked), a_self, abs(a_self) / scale,
        d / (2.0 * math.sqrt(r * kappa_k) * scale),
        a_self / (2.0 * math.sqrt(r * kappa_o) * (r + kappa_o) * scale))


@dataclass(frozen=True)
class BogoliubovBlock:
    u: "numpy.ndarray"          # complex 4x4
    v: "numpy.ndarray"          # complex 4x4
    q: "numpy.ndarray"          # real 2x2
    columns: tuple              # four ColumnFactors in INDEX_ORDER


def build_block(roots: ModeRoots, params: ModelParams) -> BogoliubovBlock:
    """Assemble the photon-sector u, v matrices and normalizations."""
    import numpy as np
    cols = tuple(_column(roots, params, k, lam) for (k, lam) in INDEX_ORDER)
    u = np.zeros((4, 4), dtype=complex)
    v = np.zeros((4, 4), dtype=complex)
    q = np.empty((2, 2))
    for j, ((k, lam), col) in enumerate(zip(INDEX_ORDER, cols)):
        q[k - 1][lam - 1] = col.q
        for i, (s, lam_row) in enumerate(INDEX_ORDER):
            m, w = ((col.m_self, col.w_self) if s == k
                    else (col.m_cross, col.w_cross))
            ph = _phase(lam_row, lam)
            u[i][j], v[i][j] = ph * m, ph * w
    return BogoliubovBlock(u=u, v=v, q=q, columns=cols)


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
