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
from dataclasses import dataclass
from itertools import repeat
import math

import numpy as np

from .errors import (
    BracketFailure,
    NonConvergence,
    NonPositive,
    PoleEvaluation,
    SingularDenominator,
)
from .params import ModelParams

DEFAULT_REL_TOL = 1e-12
# Relative half-width of the band around each pole where the residual is
# considered unevaluable.
POLE_GUARD_REL = 1e-13
# First-order denominator must exceed this fraction of kappa_k^3.
DENOMINATOR_FLOOR_REL = 1e-9

# Iteration cap of the safeguarded Newton loop. Bisection alone halves the
# bracket to one ulp well within it; Newton from the first-order offset
# stops after a handful of steps.
_ITER_MAX = 120


def _branch_sign(lam):
    # (-1)^(lambda-1): +1 on branch 1, -1 on branch 2
    if lam not in (1, 2):
        raise ValueError(f"lambda must be 1 or 2, got {lam!r}")
    return 1.0 if lam == 1 else -1.0


@dataclass(frozen=True)
class ModeRoots:
    """Roots stored as offsets from their photon frequencies.

    offsets[k-1][lam-1] = r_{k,lam} - kappa_k. Offsets are the authoritative
    representation; r reconstructs the absolute frequencies. residuals holds
    the achieved dispersion residual per root (None entries for the
    first-order method, which does not solve).
    """

    kappas: tuple
    offsets: tuple          # ((d11, d12), (d21, d22))
    method: str             # "exact" or "perturbative"
    tol: float | None = None
    residuals: tuple | None = None

    def offset(self, k, lam):
        return self.offsets[k - 1][lam - 1]

    def root(self, k, lam):
        return self.kappas[k - 1] + self.offsets[k - 1][lam - 1]

    @property
    def r(self):
        """2x2 array of absolute frequencies, rows k, columns lambda."""
        return np.array([[self.kappas[k] + self.offsets[k][i] for i in range(2)]
                         for k in range(2)])

    def __post_init__(self):
        for k in (1, 2):
            for lam in (1, 2):
                if not (self.root(k, lam) > 0.0):
                    raise NonPositive(
                        f"root r[{k}][{lam}] = {self.root(k, lam)} not positive")


def residual(r, params: ModelParams, lam) -> float:
    """Dispersion residual at absolute frequency r on branch lam.

    Zero exactly at the quasiphoton frequencies. Refuses to evaluate inside
    the guard band around the poles r = kappa_s.
    """
    k1, k2 = params.kappa1, params.kappa2
    if r <= 0.0:
        raise PoleEvaluation(f"residual needs r > 0, got {r}")
    for ks in (k1, k2):
        if abs(r - ks) <= POLE_GUARD_REL * ks:
            raise PoleEvaluation(
                f"r = {r!r} within the guard band of the pole at {ks!r}")
    sgn = _branch_sign(lam)
    return (params.eps / ((r - k1) * (r + k1))
            + params.eps / ((r - k2) * (r + k2))
            - 1.0 - sgn * params.omega / r)


def _residual_offset(d, kappa, kappa_other, params, sgn):
    # residual at r = kappa + d with the pole differences kept factored
    r = kappa + d
    self_pole = d * (d + 2.0 * kappa)
    cross_pole = (kappa - kappa_other + d) * (kappa + kappa_other + d)
    return (params.eps / self_pole + params.eps / cross_pole
            - 1.0 - sgn * params.omega / r)


def _residual_offset_deriv(d, kappa, kappa_other, params, sgn):
    r = kappa + d
    self_pole = d * (d + 2.0 * kappa)
    cross_pole = (kappa - kappa_other + d) * (kappa + kappa_other + d)
    return (-2.0 * r * params.eps / self_pole ** 2
            - 2.0 * r * params.eps / cross_pole ** 2
            + sgn * params.omega / (r * r))


def _first_order_offset(kappa_k, params, lam):
    k1, k2 = params.kappa1, params.kappa2
    s_sq = k1 * k1 + k2 * k2
    num = params.eps * (2.0 * kappa_k * kappa_k - s_sq)
    den = (_branch_sign(lam) * 2.0 * params.omega * (2.0 * kappa_k * kappa_k - s_sq)
           + kappa_k * (5.0 * kappa_k * kappa_k - 3.0 * s_sq)
           + (k1 * k2) ** 2 / kappa_k)
    if abs(den) <= DENOMINATOR_FLOOR_REL * kappa_k ** 3:
        raise SingularDenominator(
            f"first-order denominator {den!r} below floor for "
            f"mode at kappa={kappa_k}, lambda={lam}")
    return num / den


def _pair(params, k):
    # (kappa_k, kappa_other) of root k
    kappas = (params.kappa1, params.kappa2)
    return kappas[k - 1], kappas[2 - k]


def _libm_pow(x, n):
    """x ** n entry by entry through libm's pow, as the scalar forms round it.

    numpy's power rounds differently (its x**2 is x*x, its x**3 a vector
    routine). An entry whose power could overflow, where Python's ** raises,
    comes back nan, so the caller's finiteness check flags it.
    """
    finite = np.abs(x) < 1e100
    powers = np.fromiter(map(math.pow, np.where(finite, x, 0.0).tolist(),
                             repeat(float(n))), float, x.size)
    return np.where(finite, powers, math.nan)


def _first_order_offsets(params, k, lam):
    """_first_order_offset for root (k, lam) over a batch of points.

    params holds one array entry per point. Returns (offsets, ok); ok is
    False where the scalar form raises SingularDenominator or an offset is
    not finite.
    """
    k1, k2 = params.kappa1, params.kappa2
    kappa_k = _pair(params, k)[0]
    s_sq = k1 * k1 + k2 * k2
    num = params.eps * (2.0 * kappa_k * kappa_k - s_sq)
    den = (_branch_sign(lam) * 2.0 * params.omega
           * (2.0 * kappa_k * kappa_k - s_sq)
           + kappa_k * (5.0 * kappa_k * kappa_k - 3.0 * s_sq)
           + _libm_pow(k1 * k2, 2) / kappa_k)
    d = num / den
    ok = ((np.abs(den) > DENOMINATOR_FLOOR_REL * _libm_pow(kappa_k, 3))
          & np.isfinite(d))
    return d, ok


def perturbative_roots(params: ModelParams) -> ModeRoots:
    """First-order root offsets, exact in the eps -> 0 limit."""
    offsets = tuple(
        tuple(_first_order_offset(kappa_k, params, lam) for lam in (1, 2))
        for kappa_k in (params.kappa1, params.kappa2))
    return ModeRoots(kappas=(params.kappa1, params.kappa2), offsets=offsets,
                     method="perturbative")


def _solve_offset(kappa_k, kappa_other, params, lam):
    """One root offset by bracket-safeguarded Newton iteration.

    Brackets the root (a probe around the first-order offset, else a
    geometric scan up from the pole guard band), then runs Newton from the
    first-order offset, bisecting whenever a step would leave the bracket.
    Stops when a step no longer moves d, when the residual is exactly zero,
    or when a Newton step raises |residual|, keeping the better iterate.
    Returns (d, residual at d); exact_roots checks the tolerance.
    """
    sgn = _branch_sign(lam)
    g = lambda d: _residual_offset(d, kappa_k, kappa_other, params, sgn)

    # Largest admissible offset: half the distance to the nearest other pole
    # (the other photon frequency, or the origin).
    cap = 0.5 * min(kappa_k, abs(kappa_other - kappa_k))
    guess = _first_order_offset(kappa_k, params, lam)

    lo = hi = None
    if 0.0 < guess < cap / 8.0:
        lo_try, hi_try = guess / 8.0, 8.0 * guess
        if g(lo_try) > 0.0 > g(hi_try):
            lo, hi = lo_try, hi_try
    if lo is None:
        # Geometric scan upward from the pole guard band.
        scan_lo = max(POLE_GUARD_REL * kappa_k, 1e-3 * abs(guess))
        d_prev, g_prev = scan_lo, g(scan_lo)
        d_cur = scan_lo
        while g_prev > 0.0 and d_cur < cap:
            d_cur = min(2.0 * d_cur, cap)
            g_cur = g(d_cur)
            if g_cur <= 0.0:
                lo, hi = d_prev, d_cur
                break
            d_prev, g_prev = d_cur, g_cur
        if lo is None:
            raise BracketFailure(
                f"no sign change in ({kappa_k + scan_lo!r}, {kappa_k + cap!r}) "
                f"for mode at kappa={kappa_k}, lambda={lam}")

    # Newton from the first-order offset, safeguarded by the bracket
    # (Numerical Recipes' rtsafe). Every residual shrinks the bracket by its
    # sign; a Newton step that would leave it becomes a bisection.
    d = guess if lo < guess < hi else 0.5 * (lo + hi)
    g_cur = g(d)
    for _ in range(_ITER_MAX):
        if g_cur == 0.0:
            break
        if g_cur > 0.0:
            lo = d
        else:
            hi = d
        d_new = d - g_cur / _residual_offset_deriv(d, kappa_k, kappa_other,
                                                   params, sgn)
        # Tested before the bracket: a sub-ulp step rounds onto d itself,
        # which is also a bracket edge.
        if d_new == d:
            break
        newton = lo < d_new < hi
        if not newton:
            d_new = 0.5 * (lo + hi)
            if not lo < d_new < hi:
                break
        g_new = g(d_new)
        # Near the root the residual is quantized (one ulp of d moves it by
        # about one ulp of 1), so an equal |g| is accepted and only a rise
        # ends the iteration.
        if newton and abs(g_new) > abs(g_cur):
            break
        d, g_cur = d_new, g_new
    return d, g_cur


def _residual_offset_derivs(d, kappa, kappa_other, params, sgn):
    # _residual_offset_deriv over arrays, squaring through libm as it does
    r = kappa + d
    self_pole = d * (d + 2.0 * kappa)
    cross_pole = (kappa - kappa_other + d) * (kappa + kappa_other + d)
    return (-2.0 * r * params.eps / _libm_pow(self_pole, 2)
            - 2.0 * r * params.eps / _libm_pow(cross_pole, 2)
            + sgn * params.omega / (r * r))


def _take(params, index):
    return ModelParams(params.kappa1[index], params.kappa2[index],
                       params.omega[index], params.eps[index])


def _solve_offsets(params, k, lam, tol):
    """exact_roots' solve and tolerance check for root (k, lam) over a batch.

    params holds one array entry per point. Every entry takes
    _solve_offset's decisions: the guess/8..8*guess probe, Newton inside
    the bracket, bisection when a step would leave it, and the same three
    stop rules; only the points still iterating are computed. Returns
    (offsets, ok). ok is False where the probe finds no bracket (the scalar
    form then scans), where the residual misses tol*kappa_k, and where a
    value is not finite or a derivative is zero; those points are left to
    exact_roots.
    """
    sgn = _branch_sign(lam)
    kappa_k, kappa_o = _pair(params, k)
    g = lambda d, p: _residual_offset(d, *_pair(p, k), p, sgn)
    guess, ok = _first_order_offsets(params, k, lam)
    cap = 0.5 * np.minimum(kappa_k, np.abs(kappa_o - kappa_k))
    lo, hi = guess / 8.0, 8.0 * guess
    g_lo, g_hi = g(lo, params), g(hi, params)
    ok &= ((0.0 < guess) & (guess < cap / 8.0) & (g_lo > 0.0) & (0.0 > g_hi)
           & np.isfinite(g_lo) & np.isfinite(g_hi))
    d = np.where((lo < guess) & (guess < hi), guess, 0.5 * (lo + hi))
    g_cur = g(d, params)
    ok &= np.isfinite(g_cur)

    # The iterating points, compacted: their indices, inputs and state.
    act = np.flatnonzero(ok)
    p = _take(params, act)
    d_a, g_a, lo, hi = d[act], g_cur[act], lo[act], hi[act]
    for _ in range(_ITER_MAX):
        if not act.size:
            break
        pos = g_a > 0.0
        lo = np.where(pos, d_a, lo)
        hi = np.where(pos, hi, d_a)
        deriv = _residual_offset_derivs(d_a, *_pair(p, k), p, sgn)
        d_new = d_a - g_a / deriv
        stop = (g_a == 0.0) | (d_new == d_a)
        newton = (lo < d_new) & (d_new < hi)
        d_new = np.where(newton, d_new, 0.5 * (lo + hi))
        stop |= ~newton & ~((lo < d_new) & (d_new < hi))
        g_new = g(d_new, p)
        stop |= newton & (np.abs(g_new) > np.abs(g_a))
        bad = ~(np.isfinite(deriv) & (deriv != 0.0) & np.isfinite(g_new))
        go = ~(stop | bad)
        d[act[~go]], g_cur[act[~go]] = d_a[~go], g_a[~go]
        ok[act[bad]] = False
        act, p = act[go], _take(p, go)
        d_a, g_a, lo, hi = d_new[go], g_new[go], lo[go], hi[go]
    d[act], g_cur[act] = d_a, g_a
    ok &= ~(np.abs(g_cur) > tol * kappa_k)
    return d, ok


def exact_roots(params: ModelParams, tol: float = DEFAULT_REL_TOL) -> ModeRoots:
    """Solve the dispersion relation for all four (k, lambda) roots.

    tol is relative: the returned roots satisfy
    |residual| <= tol * kappa_k, re-checked after the solve. Rejects eps = 0,
    where the roots merge into the poles (use perturbative_roots for the
    limit).
    """
    if not (params.eps > 0.0):
        raise NonPositive("exact solver requires eps > 0; the eps = 0 "
                          "equation has no bracketed root")
    kappas = (params.kappa1, params.kappa2)
    offsets = []
    residuals = []
    for k in (1, 2):
        kappa_k = kappas[k - 1]
        kappa_other = kappas[2 - k]
        row_d = []
        row_g = []
        for lam in (1, 2):
            d, g_final = _solve_offset(kappa_k, kappa_other, params, lam)
            if abs(g_final) > tol * kappa_k:
                raise NonConvergence(
                    f"residual {g_final!r} above {tol!r}*kappa for "
                    f"k={k}, lambda={lam}")
            row_d.append(d)
            row_g.append(g_final)
        offsets.append(tuple(row_d))
        residuals.append(tuple(row_g))
    return ModeRoots(kappas=kappas, offsets=tuple(offsets), method="exact",
                     tol=tol, residuals=tuple(residuals))
