"""Transformation block: normalizations, entry structure, identity defects.

The physically meaningful content lives in the deviations chi and xi, many
orders below the ulp of the raw entries, so most assertions target those
deviations and their scaling in the coupling rather than the entries.
"""
import math

import numpy as np
import pytest

from qubeam import (
    build_block,
    exact_roots,
    identity_defect,
    make_params,
    perturbative_roots,
)
from qubeam.bogoliubov import (
    INDEX_ORDER,
    BogoliubovBlock,
    _checked,
    _state_factors,
)
from qubeam.dispersion import ModeRoots
from qubeam.errors import NegativeRadicand, PoleEvaluation
from qubeam.params import ModelParams

from mp_reference import mp_column, rel_err

FIG = (2500.0, 3000.0, 0.5, 0.1)

# self-entry deviations at the reference point, frozen from a 50-digit
# evaluation of the factored expressions
CHI_12 = 1.601963e-12
CHI_21 = -9.242955e-13
XI_12 = 1.600640e-17
XI_21 = 7.713478e-18


def _columns(roots, params):
    """{(k, lam): (a_self, chi, xi, m_self, m_cross)} of the checked columns."""
    return {kl: (c[4], *_state_factors(*c))
            for kl, c in zip(INDEX_ORDER, _checked(roots, params))}


def test_column_deviations_match_frozen_values(fig_params, fig_roots):
    columns = _columns(fig_roots, fig_params)
    _, chi12, xi12, _, _ = columns[1, 2]
    _, chi21, xi21, _, _ = columns[2, 1]
    assert chi12 == pytest.approx(CHI_12, rel=1e-5)
    assert chi21 == pytest.approx(CHI_21, rel=1e-5)
    assert xi12 == pytest.approx(XI_12, rel=1e-5)
    assert xi21 == pytest.approx(XI_21, rel=1e-5)
    # lambda = 1 columns see the field with the opposite sign
    assert chi21 < 0.0 < chi12


def test_q_agrees_with_direct_radicand(fig_params, fig_roots, fig_block):
    # the direct form r^2 - kappa^2, evaluated at 50 digits at the float
    # offsets, keeps every digit the offset form resolves
    p = fig_params
    for k, lam in INDEX_ORDER:
        kk, ko = fig_roots.kappas[k - 1], fig_roots.kappas[2 - k]
        q, _, _ = mp_column(kk, ko, fig_roots.offset(k, lam), p.omega, p.eps,
                            lam)
        assert rel_err(fig_block.q[k - 1][lam - 1], q) <= 1e-15


def test_q_deviation_from_pole_limit_is_minus_half_chi(fig_params, fig_roots,
                                                      fig_block):
    for (k, lam), (a_self, chi, _, _, _) in _columns(fig_roots,
                                                     fig_params).items():
        dev = fig_block.q[k - 1][lam - 1] * math.sqrt(2.0) / abs(a_self) - 1.0
        assert dev == pytest.approx(-chi / 2.0, rel=1e-3)
        assert abs(dev) <= 1e-10


def test_q_deviation_scales_linearly_in_coupling():
    devs = []
    for factor in (1.0, 0.5, 0.25):
        p = make_params(2500.0, 3000.0, 0.5, 0.1 * factor)
        roots = exact_roots(p)
        a_self = _columns(roots, p)[1, 2][0]
        q = build_block(roots, p).q[0][1]
        devs.append(abs(q * math.sqrt(2.0) / a_self - 1.0))
    for hi, lo in zip(devs, devs[1:]):
        assert 1.7 <= hi / lo <= 2.3


def test_v_to_u_entry_ratio(fig_params, fig_roots, fig_block):
    # every entry pair obeys v/u = (r - kappa_s)/(r + kappa_s); the self-row
    # numerator is the offset itself, so build it from the offsets
    for j, (k, lam) in enumerate(INDEX_ORDER):
        d = fig_roots.offset(k, lam)
        r = fig_roots.kappas[k - 1] + d
        for i, (s, _) in enumerate(INDEX_ORDER):
            kappa_s = fig_roots.kappas[s - 1]
            num = d if s == k else (fig_roots.kappas[k - 1] - kappa_s) + d
            lhs = fig_block.v[i][j] * (r + kappa_s)
            rhs = fig_block.u[i][j] * num
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_self_entries_approach_equal_mixing(fig_params, fig_roots):
    # |u_self| = sqrt((1 + xi)/(2 (1 + chi))): deviation from 1/sqrt(2)
    # is (xi - chi)/2, first order in eps through chi
    for _, chi, xi, m_self, _ in _columns(fig_roots, fig_params).values():
        dev = m_self * math.sqrt(2.0) - 1.0
        assert abs(dev) <= 1e-10
        assert dev == pytest.approx((xi - chi) / 2.0, rel=1e-3)
    ladders = []
    for factor in (1.0, 0.5, 0.25):
        p = make_params(2500.0, 3000.0, 0.5, 0.1 * factor)
        m_self = _columns(exact_roots(p), p)[2, 1][3]
        ladders.append(abs(m_self * math.sqrt(2.0) - 1.0))
    for hi, lo in zip(ladders, ladders[1:]):
        assert 1.7 <= hi / lo <= 2.3


def test_mixing_entries_shrink_linearly_in_coupling():
    maxima_v, maxima_cross = [], []
    for factor in (1.0, 0.5, 0.25):
        p = make_params(2500.0, 3000.0, 0.5, 0.1 * factor)
        roots = exact_roots(p)
        maxima_v.append(float(np.abs(build_block(roots, p).v).max()))
        cross = [abs(col[4]) for col in _columns(roots, p).values()]
        maxima_cross.append(max(cross))
    for series in (maxima_v, maxima_cross):
        assert series[0] < 1e-4
        for hi, lo in zip(series, series[1:]):
            assert 1.9 <= hi / lo <= 2.1


def test_phase_structure_is_exact(fig_params, fig_roots, fig_block):
    for m in (fig_block.u, fig_block.v):
        assert np.all(m[[0, 2], :].imag == 0.0)   # rows with lambda = 1
        assert np.all(m[[1, 3], :].real == 0.0)   # rows with lambda = 2
        assert np.all(m[[1, 3], :].imag != 0.0)
    # lambda' = 2 columns flip the sign on lambda = 1 rows relative to the
    # magnitudes, lambda' = 1 columns keep it
    columns = _columns(fig_roots, fig_params)
    for j, (k, lam) in enumerate(INDEX_ORDER):
        sign = 1.0 if lam == 1 else -1.0
        i_self = 2 * (k - 1)
        assert fig_block.u[i_self][j].real == sign * columns[k, lam][3]


def test_identity_defects_frozen_and_linear(fig_block):
    duu, dsym = identity_defect(fig_block)
    assert duu == pytest.approx(1.599798e-12, rel=1e-3)
    assert dsym == pytest.approx(1.106510e-13, rel=1e-3)
    assert duu <= 5e-12 and dsym <= 5e-13
    series_uu, series_sym = [], []
    for factor in (1.0, 0.5, 0.25):
        p = make_params(2500.0, 3000.0, 0.5, 0.1 * factor)
        d1, d2 = identity_defect(build_block(exact_roots(p), p))
        series_uu.append(d1)
        series_sym.append(d2)
    for series in (series_uu, series_sym):
        assert series[0] > series[1] > series[2]
        for hi, lo in zip(series, series[1:]):
            assert 1.7 <= hi / lo <= 2.3


def test_identity_defect_zero_for_trivial_block():
    block = BogoliubovBlock(u=np.eye(4, dtype=complex),
                            v=np.zeros((4, 4), dtype=complex),
                            q=np.ones((2, 2)))
    assert identity_defect(block) == (0.0, 0.0)


def test_negative_radicand_reports_the_column():
    # a strong field at a root pushed far from its pole drives the radicand
    # negative on the lambda = 1 branch
    roots = ModeRoots(kappas=(2500.0, 3000.0),
                      offsets=((100.0, 100.0), (100.0, 100.0)))
    p = ModelParams(2500.0, 3000.0, 100.0, 0.1)
    with pytest.raises(NegativeRadicand) as err:
        build_block(roots, p)
    msg = str(err.value)
    assert "radicand" in msg and "k=1" in msg and "lambda=1" in msg


def test_root_on_pole_is_rejected(fig_params):
    roots = ModeRoots(kappas=(2500.0, 3000.0),
                      offsets=((0.0, 1e-5), (1e-5, 1e-5)))
    with pytest.raises(PoleEvaluation):
        build_block(roots, fig_params)
    # a root on the other photon's pole: r[1][1] = kappa2 exactly
    roots = ModeRoots(kappas=(10.0, 60.0), offsets=((50.0, 50.0), (1.0, 1.0)))
    with pytest.raises(PoleEvaluation) as err:
        build_block(roots, ModelParams(10.0, 60.0, 0.0, 1000.0))
    assert "other photon's pole" in str(err.value)


def test_q_norms_helper_matches_block(fig_block):
    assert np.all(fig_block.q > 0.0)


def test_m_cross_keeps_its_digits_for_near_degenerate_modes():
    """m_cross divides by the offset-form cross factor kappa_k - kappa_o + d,
    not by r - kappa_o with r already rounded, so near-degenerate modes keep
    full precision."""
    kappa1 = 33.8
    split = 1.1e-3
    worst = 0.0
    for omega in (0.0, 1.0, 5.0, 10.0, 16.0):
        for f in (1e-6, 1e-4, 1e-2):
            eps = f * 0.01 * (kappa1 - omega) ** 2 * split
            p = make_params(kappa1, kappa1 * (1.0 + split), omega, eps)
            roots = perturbative_roots(p)
            for (k, lam), col in _columns(roots, p).items():
                kk, ko = roots.kappas[k - 1], roots.kappas[2 - k]
                _, _, want = mp_column(kk, ko, roots.offset(k, lam), p.omega,
                                       p.eps, lam)
                worst = max(worst, rel_err(col[4], want))
    assert worst <= 1e-15
