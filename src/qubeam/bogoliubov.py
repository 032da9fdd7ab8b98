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
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .dispersion import ModeRoots, _pair
from .errors import NegativeRadicand, PoleEvaluation, SingularDenominator
from .params import ModelParams

# Row/column order of the 4x4 block.
INDEX_ORDER = ((1, 1), (1, 2), (2, 1), (2, 2))


def _phase(lam_row, lam_col):
    if lam_row == 1:
        return 1.0 if lam_col == 1 else -1.0
    return -1.0j


class ColumnFactors(NamedTuple):
    """Exact per-column quantities for column (k, lam) of the block; a
    block's columns are identified by their position in INDEX_ORDER.

    a_self is the factored pole difference r^2 - kappa_k^2 of the column's
    own photon mode at its root r. chi is the relative deviation of the
    normalization radicand from its self-pole part: radicand =
    (2/a_self^2)(1 + chi). xi = d^2/(4 r kappa) measures the deviation of the
    u self-entry from 1/sqrt(2): m_self^2 = (1 + xi) / (2 (1 + chi)).
    m_* and w_* are the signed magnitudes of the u and v entries (phases
    excluded); m_cross carries the sign of r - kappa_other.
    """

    a_self: float
    chi: float
    xi: float
    q: float
    m_self: float
    m_cross: float
    w_self: float
    w_cross: float


def _deviations(kappa_k, kappa_o, d, params: ModelParams, lam):
    """(r, a_self, chi, xi) of column (k, lam) at root offset d.

    Powers are products, which round alike for floats and numpy arrays, so
    _column and _columns share this arithmetic. Floats need a_cross != 0.
    """
    r = kappa_k + d
    a_self = d * (d + 2.0 * kappa_k)
    a_cross = (kappa_k - kappa_o + d) * (kappa_k + kappa_o + d)
    field_sign = -1.0 if lam == 1 else 1.0      # (-1)^lambda
    chi = (a_self * a_self / 2.0) * (field_sign * params.omega
                                     / (r * r * r * params.eps)
                                     + 2.0 / (a_cross * a_cross))
    xi = d * d / (4.0 * r * kappa_k)
    return r, a_self, chi, xi


def _column(roots: ModeRoots, params: ModelParams, k, lam) -> ColumnFactors:
    kappa_k = roots.kappas[k - 1]
    kappa_o = roots.kappas[2 - k]
    d = roots.offset(k, lam)
    if d == 0.0:
        raise PoleEvaluation(
            f"root r[{k}][{lam}] sits exactly on its pole; "
            "the transformation is singular there")
    cross = kappa_k - kappa_o + d
    if cross == 0.0:
        raise PoleEvaluation(
            f"root r[{k}][{lam}] = {kappa_k + d!r} sits on the other "
            f"photon's pole at {kappa_o!r}; the transformation is singular "
            "there")
    # chi divides by r^3 eps and a_cross^2, which underflow to 0 at tiny
    # scales (a batch masks those points as not finite).
    r = kappa_k + d
    a_cross = cross * (kappa_k + kappa_o + d)
    if not (abs(r * r * r * params.eps) > 0.0 and a_cross * a_cross > 0.0):
        raise SingularDenominator(
            f"normalization denominator of r[{k}][{lam}] = {r!r} underflows "
            "to 0 or is not a number")
    r, a_self, chi, xi = _deviations(kappa_k, kappa_o, d, params, lam)
    if not chi > -1.0:
        radicand = 2.0 * (1.0 + chi) / (a_self * a_self)
        raise NegativeRadicand(
            f"normalization radicand {radicand!r} <= 0 at k={k}, lambda={lam}")
    scale = math.sqrt(2.0 * (1.0 + chi))
    q = abs(a_self) / scale
    m_self = (r + kappa_k) / (2.0 * math.sqrt(r * kappa_k) * scale)
    m_cross = a_self / (2.0 * math.sqrt(r * kappa_o) * cross * scale)
    w_self = d / (2.0 * math.sqrt(r * kappa_k) * scale)
    w_cross = a_self / (2.0 * math.sqrt(r * kappa_o) * (r + kappa_o) * scale)
    return ColumnFactors(a_self, chi, xi, q, m_self, m_cross, w_self, w_cross)


def _columns(offsets, params: ModelParams, k, lam):
    """_column's chi, xi, m_self and m_cross over a batch of points.

    params holds one array entry per point and offsets maps (k, lam) to the
    root offsets. Returns (factors, ok): a namespace of arrays, and False
    where _column raises or a factor is not finite.
    """
    kappa_k, kappa_o = _pair(params, k)
    d = offsets[(k, lam)]
    r, a_self, chi, xi = _deviations(kappa_k, kappa_o, d, params, lam)
    scale = np.sqrt(2.0 * (1.0 + chi))
    m_self = (r + kappa_k) / (2.0 * np.sqrt(r * kappa_k) * scale)
    m_cross = a_self / (2.0 * np.sqrt(r * kappa_o) * (kappa_k - kappa_o + d)
                        * scale)
    # A zero cross factor (the other photon's pole) leaves chi and m_cross
    # non-finite, so the finiteness test flags it.
    ok = (d != 0.0) & (chi > -1.0)
    for x in (chi, xi, m_self, m_cross):
        ok &= np.isfinite(x)
    return SimpleNamespace(chi=chi, xi=xi, m_self=m_self, m_cross=m_cross), ok


def radicand(r, params: ModelParams, lam) -> float:
    """Normalization radicand at absolute frequency r, column branch lam.

    Direct form, for diagnostics; build_block uses the offset form.
    """
    field_sign = -1.0 if lam == 1 else 1.0
    total = field_sign * params.omega / (r ** 3 * params.eps)
    for ks in (params.kappa1, params.kappa2):
        total += 2.0 / (r * r - ks * ks) ** 2
    return total


@dataclass(frozen=True)
class BogoliubovBlock:
    u: np.ndarray               # complex 4x4
    v: np.ndarray               # complex 4x4
    q: np.ndarray               # real 2x2
    roots: ModeRoots
    columns: tuple              # four ColumnFactors in INDEX_ORDER


def build_block(roots: ModeRoots, params: ModelParams) -> BogoliubovBlock:
    """Assemble the photon-sector u, v matrices and normalizations."""
    cols = tuple(_column(roots, params, k, lam) for (k, lam) in INDEX_ORDER)
    u = np.zeros((4, 4), dtype=complex)
    v = np.zeros((4, 4), dtype=complex)
    q = np.empty((2, 2))
    for j, ((k, lam), col) in enumerate(zip(INDEX_ORDER, cols)):
        q[k - 1][lam - 1] = col.q
        for i, (s, lam_row) in enumerate(INDEX_ORDER):
            ph = _phase(lam_row, lam)
            if s == k:
                u[i][j] = ph * col.m_self
                v[i][j] = ph * col.w_self
            else:
                u[i][j] = ph * col.m_cross
                v[i][j] = ph * col.w_cross
    return BogoliubovBlock(u=u, v=v, q=q, roots=roots, columns=cols)


def identity_defect(block: BogoliubovBlock):
    """Max-norm defects of the Bose-commutation identities on the 4x4 block.

    Returns (defect_uu, defect_sym) for u u+ - v v+ - 1 and v u^T - u v^T.
    Both vanish only for the full transformation including the oscillator
    mode; on the photon block they are O(eps) diagnostics.
    """
    u, v = block.u, block.v
    duu = u @ u.conj().T - v @ v.conj().T - np.eye(4)
    dsym = v @ u.T - u @ v.T
    return float(np.abs(duu).max()), float(np.abs(dsym).max())
