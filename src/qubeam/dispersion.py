"""Quasiphoton frequencies r_{k,lambda}.

The four frequencies (k labels the nearby photon mode, lambda the
polarization branch) are the positive roots of

    eps/(r^2 - kappa1^2) + eps/(r^2 - kappa2^2) = 1 + (-1)^(lambda-1) * omega/r

nearest each kappa_k. In the regime of interest every root sits a distance
d = O(eps) above its pole, so all internal arithmetic works with the offset
d = r - kappa_k rather than with r itself: the residual terms become
d*(d + 2*kappa_k) and (kappa_k - kappa_o + d)*(kappa_k + kappa_o + d), which
keeps full precision where forming r^2 - kappa^2 from a collapsed r would
lose everything below the ulp of kappa (~5e-13 here, larger than the
root corrections we must resolve).
"""
import math
from typing import NamedTuple

from .errors import NonConvergence, NonPositive, SingularDenominator
from .params import ModelParams

# Bound on |g| at each exact root; g, left minus right side above, has no unit.
RESIDUAL_TOL = 1e-12

# Iteration cap of the safeguarded Newton loop. Newton from the first-order
# offset stops after a handful of steps, and that is what ends the loop:
# bisection alone from a pole bracket can need more than 120 halvings when
# the root's offset is far below the bracket's width.
_ITER_MAX = 120

# Order of the four (k, lambda) roots and of the 4x4 block's rows/columns.
INDEX_ORDER = ((1, 1), (1, 2), (2, 1), (2, 2))


class ModeRoots(NamedTuple("ModeRoots", [
        ("kappas", tuple), ("offsets", tuple), ("residuals", tuple | None)])):
    """Roots stored as offsets from their photon frequencies.

    offsets[k-1][lam-1] = r_{k,lam} - kappa_k. Offsets are the authoritative
    representation; root reconstructs an absolute frequency. residuals holds
    the achieved dispersion residual per root (None for the first-order
    method, which does not solve). Every construction, _make and _replace
    included, rejects a root that is not positive.
    """

    __slots__ = ()

    def __new__(cls, kappas, offsets, residuals=None):
        (k1, k2), ((d11, d12), (d21, d22)) = kappas, offsets    # 2x2 only
        if not (k1 + d11 > 0.0 and k1 + d12 > 0.0
                and k2 + d21 > 0.0 and k2 + d22 > 0.0):
            for k, lam in INDEX_ORDER:
                r = kappas[k - 1] + offsets[k - 1][lam - 1]
                if not r > 0.0:
                    raise NonPositive(f"root r[{k}][{lam}] = {r} not positive")
        return tuple.__new__(cls, (kappas, offsets, residuals))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def offset(self, k, lam):
        if k not in (1, 2) or lam not in (1, 2):
            raise ValueError(f"k and lambda must be 1 or 2, got {k!r}, {lam!r}")
        return self.offsets[k - 1][lam - 1]

    def root(self, k, lam):
        return self.offset(k, lam) + self.kappas[k - 1]   # offset checks k


def _dispersion(d, kappa, kappa_other, eps, sw):
    # (residual, slope) at r = kappa + d from one set of poles, rtsafe's
    # funcd, with the pole differences kept factored; sw = omega on branch
    # 1, -omega on branch 2. A float slope whose squares underflow is 0.0,
    # failing only a step that uses it.
    r = kappa + d
    self_pole = d * (d + 2.0 * kappa)
    cross_pole = (kappa - kappa_other + d) * (kappa + kappa_other + d)
    g = eps / self_pole + eps / cross_pole - 1.0 - sw / r
    t = 2.0 * r * eps
    try:
        return g, sw / (r * r) - (t / (self_pole * self_pole)
                                  + t / (cross_pole * cross_pole))
    except ZeroDivisionError:
        return g, 0.0


def _first_order_offset(kappa_k, kappa_other, eps, sw, lam):
    # eps/(2 (kappa_k + sw)), the eps -> 0 offset of root (k, lam): near its
    # pole the self term eps/(d (d + 2 kappa_k)) must balance 1 + sw/kappa_k.
    # Degenerate modes (kappa1 == kappa2) put both poles under one root,
    # which this form does not count, so they raise, as does a zero
    # denominator or a non-finite offset.
    den = 2.0 * (kappa_k + sw)
    if not (kappa_k != kappa_other and den != 0.0
            and math.isfinite(d := eps / den)):
        raise SingularDenominator(
            f"first-order offset eps/{den!r} not finite, or modes degenerate, "
            f"for mode at kappa={kappa_k}, lambda={lam}")
    return d


def perturbative_roots(params: ModelParams) -> ModeRoots:
    """First-order root offsets, exact in the eps -> 0 limit."""
    k1, k2, w, eps = params
    return ModeRoots((k1, k2), (
        (_first_order_offset(k1, k2, eps, w, 1),
         _first_order_offset(k1, k2, eps, -w, 2)),
        (_first_order_offset(k2, k1, eps, w, 1),
         _first_order_offset(k2, k1, eps, -w, 2))))


def _solve_offset(kappa_k, kappa_other, eps, sw, lam, guess):
    """One root offset by bracket-safeguarded Newton iteration.

    The poles bracket the root: the residual falls from +inf just above
    kappa_k, to -inf at the other photon's pole for the lower mode, and
    below 0 at d = kappa_k for the upper one inside make_params' coupling
    bound. Runs Newton from guess, the first-order offset, one _dispersion
    call per step, bisecting whenever a step would leave the bracket. Stops
    when a step no longer moves d, when the residual is exactly zero, or
    when a Newton step raises |residual|, keeping the better iterate.
    Returns (d, residual at d).
    """
    lo, hi = 0.0, (kappa_other - kappa_k if kappa_k < kappa_other
                   else kappa_k)

    # Newton from the first-order offset, safeguarded by the bracket
    # (Numerical Recipes' rtsafe). Every residual shrinks the bracket by its
    # sign; a Newton step that would leave it becomes a bisection.
    d = guess if lo < guess < hi else 0.5 * (lo + hi)
    g_cur, slope = _dispersion(d, kappa_k, kappa_other, eps, sw)
    for _ in range(_ITER_MAX):
        if g_cur == 0.0:
            break
        if g_cur > 0.0:
            lo = d
        else:
            hi = d
        try:
            d_new = d - g_cur / slope
        except ZeroDivisionError:
            # The slope is 0, or its squares underflowed to 0 at tiny scales
            # (_dispersion's 0.0): the Newton step has no value.
            raise SingularDenominator(
                f"residual derivative has a zero denominator at offset {d!r} "
                f"for mode at kappa={kappa_k}, lambda={lam}") from None
        # Tested before the bracket: a sub-ulp step rounds onto d itself,
        # which is also a bracket edge.
        if d_new == d:
            break
        newton = lo < d_new < hi
        if not newton:
            d_new = 0.5 * (lo + hi)
            if not lo < d_new < hi:
                break
        g_new, slope_new = _dispersion(d_new, kappa_k, kappa_other, eps, sw)
        # Near the root the residual is quantized (one ulp of d moves it by
        # about one ulp of 1), so an equal |g| is accepted and only a rise
        # ends the iteration.
        if newton and abs(g_new) > abs(g_cur):
            break
        d, g_cur, slope = d_new, g_new, slope_new
    return d, g_cur


def exact_roots(params: ModelParams) -> ModeRoots:
    """Solve the dispersion relation for all four (k, lambda) roots.

    The returned roots satisfy |residual| <= RESIDUAL_TOL, re-checked after
    the solve; the residual is dimensionless, so scaling every frequency by
    2^e (eps by 2^2e) scales the offsets by 2^e and keeps the residuals.
    Rejects eps = 0, where the roots merge into the poles (use
    perturbative_roots for the limit).
    """
    k1, k2, w, eps = params
    if not (eps > 0.0):
        raise NonPositive(f"exact solver requires eps > 0, got {eps!r}")
    solved = []     # in INDEX_ORDER, each root checked before the next
    for k, kappa_k, kappa_o in ((1, k1, k2), (2, k2, k1)):
        for lam, sw in ((1, w), (2, -w)):
            guess = _first_order_offset(kappa_k, kappa_o, eps, sw, lam)
            d, g = _solve_offset(kappa_k, kappa_o, eps, sw, lam, guess)
            if not abs(g) <= RESIDUAL_TOL:
                raise NonConvergence(f"residual {g!r} above {RESIDUAL_TOL!r} "
                                     f"for k={k}, lambda={lam}")
            solved.append((d, g))
    (d11, g11), (d12, g12), (d21, g21), (d22, g22) = solved
    return ModeRoots((k1, k2), ((d11, d12), (d21, d22)),
                     ((g11, g12), (g21, g22)))
