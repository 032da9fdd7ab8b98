"""Array variants of the point pipeline, one entry per grid point.

The only module that imports NumPy at its top; sweep imports it inside
_validate and run_sweep, so point work never loads NumPy. Each function
shares its scalar counterpart's formula helpers, so every point gets its
scalar value, or a mask where the scalar stage would raise.
"""
import math

import numpy as np

from .bogoliubov import INDEX_ORDER, _deviations, _state_factors
from .dispersion import _ITER_MAX, RESIDUAL_TOL, _dispersion
from .entangle import (_SERIES_CUT, _asymptotic_from_phi, _asymptotic_terms,
                       _closed_verdicts, _info_direct, _info_from_gap,
                       _info_series, _measure_verdicts, _phi_terms,
                       _schmidt_from_gaps)
from .params import _PARAMS_RULES, ModelParams, _params_verdicts
from .qstate import _gaps, _norm_verdicts


def _pair(params, k):
    # (kappa_k, kappa_other) of root k
    kappas = (params.kappa1, params.kappa2)
    return kappas[k - 1], kappas[2 - k]


def _first_order_offsets(params, k, lam):
    """_first_order_offset for root (k, lam) over a batch of points:
    (offsets, ok), ok False where the scalar form raises."""
    kappa_k, kappa_o = _pair(params, k)
    d = params.eps / (2.0 * (kappa_k + (params.omega if lam == 1
                                        else -params.omega)))
    return d, (kappa_k != kappa_o) & np.isfinite(d)


def _solve_offsets(params, k, lam):
    """exact_roots' solve and residual check for root (k, lam) over a batch.

    Every entry takes _solve_offset's decisions: the pole bracket, Newton
    inside it, bisection when a step would leave it, and the same three
    stop rules; only the points still iterating are computed. Returns
    (offsets, ok). ok is False where the residual misses RESIDUAL_TOL, and
    where a value is not finite or a slope is zero; those points are left
    to exact_roots.
    """
    kappa_k, kappa_o = _pair(params, k)
    eps, sw = params.eps, params.omega if lam == 1 else -params.omega
    guess, ok = _first_order_offsets(params, k, lam)
    lo = np.zeros_like(guess)
    hi = np.where(kappa_k < kappa_o, kappa_o - kappa_k, kappa_k)
    d = np.where((lo < guess) & (guess < hi), guess, 0.5 * (lo + hi))
    g_cur, slope = _dispersion(d, kappa_k, kappa_o, eps, sw)
    ok &= np.isfinite(g_cur)

    # The iterating points, compacted: their indices, inputs and state.
    act = np.flatnonzero(ok)
    kk_a, ko_a, eps_a, sw_a = kappa_k[act], kappa_o[act], eps[act], sw[act]
    d_a, g_a, s_a, lo, hi = d[act], g_cur[act], slope[act], lo[act], hi[act]
    for _ in range(_ITER_MAX):
        if not act.size:
            break
        pos = g_a > 0.0
        lo = np.where(pos, d_a, lo)
        hi = np.where(pos, hi, d_a)
        d_new = d_a - g_a / s_a
        stop = (g_a == 0.0) | (d_new == d_a)
        newton = (lo < d_new) & (d_new < hi)
        d_new = np.where(newton, d_new, 0.5 * (lo + hi))
        stop |= ~newton & ~((lo < d_new) & (d_new < hi))
        g_new, s_new = _dispersion(d_new, kk_a, ko_a, eps_a, sw_a)
        stop |= newton & (np.abs(g_new) > np.abs(g_a))
        bad = ~(np.isfinite(s_a) & (s_a != 0.0) & np.isfinite(g_new))
        go = ~(stop | bad)
        d[act[~go]], g_cur[act[~go]] = d_a[~go], g_a[~go]
        ok[act[bad]] = False
        act = act[go]
        kk_a, ko_a, eps_a, sw_a = kk_a[go], ko_a[go], eps_a[go], sw_a[go]
        d_a, g_a, s_a, lo, hi = d_new[go], g_new[go], s_new[go], lo[go], hi[go]
    d[act], g_cur[act] = d_a, g_a
    ok &= np.abs(g_cur) <= RESIDUAL_TOL
    return d, ok


def _columns(d, params: ModelParams, k, lam):
    """_state_factors of column (k, lam) over a batch of points, d the
    column's root offsets. Returns (factors, ok): the four factors as
    arrays, and False where _checked raises or a factor is not finite.
    """
    kappa_k, kappa_o = _pair(params, k)
    r = kappa_k + d
    a_cross = (kappa_k - kappa_o + d) * (kappa_k + kappa_o + d)
    a_self, chi, xi = _deviations(kappa_k, d, r, a_cross, params, lam)
    factors = _state_factors(kappa_k, kappa_o, d, r, a_self, chi, xi, np.sqrt)
    # A zero cross factor (the other photon's pole) leaves chi and m_cross
    # non-finite, so the finiteness test flags it.
    ok = (d != 0.0) & (chi > -1.0)
    for x in factors:
        ok &= np.isfinite(x)
    return factors, ok


def _info_from_gaps(gap):
    """_info_from_gap over an array of gaps, bit for bit."""
    half = gap / 2.0
    live, series = half > 0.0, gap < _SERIES_CUT
    log_half = _logs(math.log, half, live)
    e_i = np.where(series, _info_series(gap, log_half), _info_direct(
        gap, log_half, _logs(math.log1p, -half, live & ~series)))
    e_i[~live] = 0.0
    for i in np.flatnonzero((gap > 0.0) & ~live).tolist():    # gap 5e-324
        e_i[i] = _info_from_gap(gap.item(i))
    return e_i


def _logs(log, x, where):
    """math.log or math.log1p (not NumPy's) of x where `where`, else 0.0."""
    return np.piecewise(x, [where], [lambda v: list(map(log, v.tolist())), 0.0])


def _asymptotic_from_phis(phi, eps, live):
    """_asymptotic_from_phi at one float eps, bit for bit, where live."""
    half = phi / 2.0
    e_i = np.where(live, _asymptotic_terms(phi, eps, _logs(
        math.log, half, live & (half > 0.0)), math.log(eps)), 0.0)
    for i in np.flatnonzero(live & ~(half > 0.0)).tolist():     # Phi 5e-324
        e_i[i] = _asymptotic_from_phi(phi.item(i), eps)
    return e_i


def _grid_arrays(config):
    """The omega and dk grids, and omega and kappa2 per point in order."""
    omegas, dks = config.omega_grid(), config.dk_grid()
    # inf and nan arise without a warning, as in Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        kappa2 = float(config.kappa1) + np.array(dks)
    return (omegas, dks, np.repeat(omegas, len(dks)),
            np.tile(kappa2, len(omegas)))


def _first_rejections(config):
    """The (omega, delta_kappa) of the first point of each error class
    that make_params raises on config's grid, in grid order."""
    omegas, dks, omega, kappa2 = _grid_arrays(config)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan
        ok = _params_verdicts(float(config.kappa1), kappa2, omega,
                              float(config.eps))
    # per point, the first row of its first failing row's class, or -1
    classes = [error for error, _ in _PARAMS_RULES]
    rank = np.select([np.logical_not(row) for row in ok],
                     [classes.index(error) for error in classes], -1)
    ranks, first = np.unique(rank, return_index=True)
    return [(omegas[i // len(dks)], dks[i % len(dks)])
            for i in sorted(first[ranks >= 0].tolist())]


def _batch_gaps(params: ModelParams, config):
    """(y_gap, norm_gap, settled) arrays for a batch of points.

    config gives the polarization and the method. Roots, the four columns
    and the gaps are the scalar pipeline's arithmetic in the same order, so
    each point gets its scalar value. settled is False wherever a stage
    would raise or a value is not finite; those points go through
    full_report.
    """
    settled = np.ones(len(params.omega), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        columns = {}
        for k, lam in INDEX_ORDER:      # all four: full_report checks each
            if config.method == "exact":
                d, ok = _solve_offsets(params, k, lam)
            else:
                d, ok = _first_order_offsets(params, k, lam)
            settled &= ok & (_pair(params, k)[0] + d > 0.0)
            columns[(k, lam)], ok = _columns(d, params, k, lam)
            settled &= ok
        pol = config.pol
        b_self, a_cross, y_gap, norm_gap = _gaps(
            columns[(1, pol.lambda1)], columns[(2, pol.lambda2)], pol.parallel)
        settled &= (np.logical_and.reduce(
            _norm_verdicts(b_self, a_cross, norm_gap, pol.parallel))
            & np.isfinite(y_gap) & np.isfinite(norm_gap))
    return y_gap, norm_gap, settled


def _batch_values(config):
    """The indices of the grid points the batch does not settle, then
    run_sweep's columns but status, as lists in output order.

    The values are full_report's formulas over the grid's arrays (np.sqrt
    rounds correctly, as math.sqrt does), with math's logs mapped per
    entry. A point is unsettled wherever a stage, a measure or a closed
    form would raise; its values are placeholders.
    """
    omegas, dks, omega, kappa2 = _grid_arrays(config)
    n = len(omega)
    params = ModelParams(np.full(n, float(config.kappa1)), kappa2, omega,
                         np.full(n, float(config.eps)))
    y_gap, norm_gap, settled = _batch_gaps(params, config)
    k1, k2, w, eps = params
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # _measures: its rules, then its clamp of e_s
        e_s = _schmidt_from_gaps(norm_gap, y_gap)
        settled &= np.logical_and.reduce(_measure_verdicts(y_gap, e_s))
        e_s = np.where(0.0 > e_s, 0.0, e_s)
        # _closed_forms
        pol = (config.pol.lambda1, config.pol.lambda2)
        if pol == (2, 1):
            num, den = _phi_terms(k1, k2, w)
            phi = num / den
            settled &= np.logical_and.reduce(
                _closed_verdicts(k1, w, den, eps, phi))
            e_s_closed = (2.0 * eps * phi).tolist()
            # Phi = 0 (omega = 0) is E_I = 0, as in _asymptotic_from_phi
            e_i_asym = _asymptotic_from_phis(phi, float(config.eps),
                                             settled & (phi != 0.0)).tolist()
        elif pol == (1, 1):     # two lists: run_sweep writes into each
            e_i_asym, e_s_closed = [0.0] * n, [0.0] * n
        else:
            e_i_asym, e_s_closed = [None] * n, [None] * n
        # _info_from_gap is 0 for a gap <= 0, as _measures relies on; 0.0
        # and 1.0 are placeholders where nothing settled.
        e_i = _info_from_gaps(np.where(settled, y_gap, 0.0)).tolist()
        raw_norm = np.sqrt(np.where(settled, 1.0 - norm_gap, 1.0))
        # The grid columns share one float object per grid value, to save
        # memory.
        return (np.flatnonzero(~settled).tolist(),
                np.repeat(np.array(omegas, dtype=object), len(dks)).tolist(),
                dks * len(omegas), kappa2[:len(dks)].tolist() * len(omegas),
                (1.0 - y_gap).tolist(), e_i, e_s.tolist(), e_i_asym,
                e_s_closed, raw_norm.tolist())
