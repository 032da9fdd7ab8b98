"""50-digit references for the tests.

The root solve and the raw pipeline's measures are the benchmark oracle's
(perfbench/oracle.py, which imports no qubeam): mp_offset and mp_measures.
The column factor, the binary entropy and the asymptotic form are written
here once, from the model's defining formulas. Float inputs convert to mpf
exactly, and every function evaluates under mpmath.workdps(DIGITS), so no
test depends on the global mpmath precision.
"""
import math
from pathlib import Path
import sys

import mpmath

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from oracle import (DIGITS, mp_first_order_offset, mp_measures,  # noqa: E402,F401
                    mp_offset)


def mp_column(kappa_k, kappa_o, d, omega, eps, lam):
    """(q, m_self, m_cross) of column (k, lam) at root offset d.

    r = kappa_k + d, q^-2 = (-1)^lam omega/(r^3 eps) + 2 sum_s (r^2 -
    kappa_s^2)^-2, and the u entry of row s without its phase is
    (sqrt(r/kappa_s) + sqrt(kappa_s/r)) q / (2 (r^2 - kappa_s^2)): m_self on
    the column's own photon row, m_cross on the other.
    """
    with mpmath.workdps(DIGITS):
        kk, ko, w, e = (mpmath.mpf(x) for x in (kappa_k, kappa_o, omega, eps))
        r = kk + mpmath.mpf(d)
        q = 1 / mpmath.sqrt((-1) ** lam * w / (r ** 3 * e)
                            + sum(2 / (r * r - ks * ks) ** 2 for ks in (kk, ko)))
        m_self, m_cross = ((mpmath.sqrt(r / ks) + mpmath.sqrt(ks / r)) * q
                           / (2 * (r * r - ks * ks)) for ks in (kk, ko))
        return q, m_self, m_cross


def info_from_gap(gap):
    """Binary entropy in bits of the eigenvalues gap/2 and 1 - gap/2."""
    with mpmath.workdps(DIGITS):
        x = mpmath.mpf(gap) / 2
        return -(x * mpmath.log(x) + (1 - x) * mpmath.log1p(-x)) / mpmath.log(2)


def asymptotic_info(phi, eps):
    """(Phi / (2 ln 2)) [eps (1 - ln(Phi/2)) - eps ln eps]."""
    with mpmath.workdps(DIGITS):
        phi, eps = mpmath.mpf(phi), mpmath.mpf(eps)
        return (phi / (2 * mpmath.log(2))) * (
            eps * (1 - mpmath.log(phi / 2)) - eps * mpmath.log(eps))


def product(*factors):
    """The exact product of float factors (two doubles need 106 bits)."""
    with mpmath.workdps(DIGITS):
        return mpmath.fprod(mpmath.mpf(x) for x in factors)


def rel_err(got, ref):
    """|got - ref| / |ref| as a float; 0 where both are 0."""
    if not ref:
        return 0.0 if got == 0 else math.inf
    with mpmath.workdps(DIGITS):
        return float(abs(mpmath.mpf(got) - ref) / abs(ref))
