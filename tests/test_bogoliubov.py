"""Transformation block: normalizations, entry structure, identity defects.

The physically meaningful content lives in the deviations chi and xi, many
orders below the ulp of the raw entries, so most assertions target those
deviations and their scaling in the coupling rather than the entries.
"""
import math

import mpmath
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
    _column,
    radicand,
)
from qubeam.dispersion import ModeRoots
from qubeam.errors import NegativeRadicand, PoleEvaluation
from qubeam.params import ModelParams

FIG = (2500.0, 3000.0, 0.5, 0.1)

# self-entry deviations at the reference point, frozen from a 50-digit
# evaluation of the factored expressions
CHI_12 = 1.601963e-12
CHI_21 = -9.242955e-13
XI_12 = 1.600640e-17
XI_21 = 7.713478e-18


def test_column_deviations_match_frozen_values(fig_params, fig_roots):
    c12 = _column(fig_roots, fig_params, 1, 2)
    c21 = _column(fig_roots, fig_params, 2, 1)
    assert c12.chi == pytest.approx(CHI_12, rel=1e-5)
    assert c21.chi == pytest.approx(CHI_21, rel=1e-5)
    assert c12.xi == pytest.approx(XI_12, rel=1e-5)
    assert c21.xi == pytest.approx(XI_21, rel=1e-5)
    # lambda = 1 columns see the field with the opposite sign
    assert c21.chi < 0.0 < c12.chi


def test_q_agrees_with_direct_radicand(fig_params, fig_roots, fig_block):
    # the direct form evaluates r^2 - kappa^2 at absolute frequencies and
    # keeps only ~8 of the offset's digits; agreement is correspondingly loose
    for k, lam in INDEX_ORDER:
        r = fig_roots.root(k, lam)
        direct = 1.0 / math.sqrt(radicand(r, fig_params, lam))
        assert fig_block.q[k - 1][lam - 1] == pytest.approx(direct, rel=1e-6)


def test_q_deviation_from_pole_limit_is_minus_half_chi(fig_params, fig_roots):
    for k, lam in INDEX_ORDER:
        col = _column(fig_roots, fig_params, k, lam)
        dev = col.q * math.sqrt(2.0) / abs(col.a_self) - 1.0
        assert dev == pytest.approx(-col.chi / 2.0, rel=1e-3)
        assert abs(dev) <= 1e-10


def test_q_deviation_scales_linearly_in_coupling():
    devs = []
    for factor in (1.0, 0.5, 0.25):
        p = make_params(2500.0, 3000.0, 0.5, 0.1 * factor)
        col = _column(exact_roots(p), p, 1, 2)
        devs.append(abs(col.q * math.sqrt(2.0) / col.a_self - 1.0))
    for hi, lo in zip(devs, devs[1:]):
        assert 1.7 <= hi / lo <= 2.3


def test_radicand_branch_difference_is_the_field_term(fig_params):
    r = 2500.5
    diff = radicand(r, fig_params, 1) - radicand(r, fig_params, 2)
    expected = -2.0 * fig_params.omega / (r ** 3 * fig_params.eps)
    assert diff == pytest.approx(expected, rel=1e-12)


def test_zero_field_radicand_positive_and_branch_blind():
    p = make_params(2500.0, 3000.0, 0.0, 0.1)
    for r in (2500.5, 2700.0, 3000.4, 5000.0):
        assert radicand(r, p, 1) > 0.0
        assert radicand(r, p, 1) == radicand(r, p, 2)


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
    for k, lam in INDEX_ORDER:
        col = _column(fig_roots, fig_params, k, lam)
        dev = col.m_self * math.sqrt(2.0) - 1.0
        assert abs(dev) <= 1e-10
        assert dev == pytest.approx((col.xi - col.chi) / 2.0, rel=1e-3)
    ladders = []
    for factor in (1.0, 0.5, 0.25):
        p = make_params(2500.0, 3000.0, 0.5, 0.1 * factor)
        col = _column(exact_roots(p), p, 2, 1)
        ladders.append(abs(col.m_self * math.sqrt(2.0) - 1.0))
    for hi, lo in zip(ladders, ladders[1:]):
        assert 1.7 <= hi / lo <= 2.3


def test_mixing_entries_shrink_linearly_in_coupling():
    maxima_v, maxima_cross = [], []
    for factor in (1.0, 0.5, 0.25):
        p = make_params(2500.0, 3000.0, 0.5, 0.1 * factor)
        block = build_block(exact_roots(p), p)
        maxima_v.append(float(np.abs(block.v).max()))
        cross = [abs(col.m_cross) for col in block.columns]
        maxima_cross.append(max(cross))
    for series in (maxima_v, maxima_cross):
        assert series[0] < 1e-4
        for hi, lo in zip(series, series[1:]):
            assert 1.9 <= hi / lo <= 2.1


def test_phase_structure_is_exact(fig_block):
    for m in (fig_block.u, fig_block.v):
        assert np.all(m[[0, 2], :].imag == 0.0)   # rows with lambda = 1
        assert np.all(m[[1, 3], :].real == 0.0)   # rows with lambda = 2
        assert np.all(m[[1, 3], :].imag != 0.0)
    # lambda' = 2 columns flip the sign on lambda = 1 rows relative to the
    # magnitudes, lambda' = 1 columns keep it
    for j, ((k, lam), col) in enumerate(zip(INDEX_ORDER, fig_block.columns)):
        sign = 1.0 if lam == 1 else -1.0
        i_self = 2 * (k - 1)
        assert fig_block.u[i_self][j].real == sign * col.m_self


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


def test_identity_defect_zero_for_trivial_block(fig_roots, fig_block):
    block = BogoliubovBlock(u=np.eye(4, dtype=complex),
                            v=np.zeros((4, 4), dtype=complex),
                            q=np.ones((2, 2)), roots=fig_roots,
                            columns=fig_block.columns)
    assert identity_defect(block) == (0.0, 0.0)


def test_negative_radicand_reports_the_column():
    # a strong field at a root pushed far from its pole drives the radicand
    # negative on the lambda = 1 branch
    roots = ModeRoots(kappas=(2500.0, 3000.0),
                      offsets=((100.0, 100.0), (100.0, 100.0)),
                      method="perturbative")
    p = ModelParams(2500.0, 3000.0, 100.0, 0.1)
    with pytest.raises(NegativeRadicand) as err:
        build_block(roots, p)
    msg = str(err.value)
    assert "radicand" in msg and "k=1" in msg and "lambda=1" in msg


def test_root_on_pole_is_rejected(fig_params):
    roots = ModeRoots(kappas=(2500.0, 3000.0),
                      offsets=((0.0, 1e-5), (1e-5, 1e-5)),
                      method="perturbative")
    with pytest.raises(PoleEvaluation):
        build_block(roots, fig_params)
    # a root on the other photon's pole: r[1][1] = kappa2 exactly
    roots = ModeRoots(kappas=(10.0, 60.0), offsets=((50.0, 50.0), (1.0, 1.0)),
                      method="perturbative")
    with pytest.raises(PoleEvaluation) as err:
        _column(roots, make_params(10.0, 60.0, 0.0, 1000.0), 1, 1)
    assert "other photon's pole" in str(err.value)


def test_q_norms_helper_matches_block(fig_block):
    assert np.all(fig_block.q > 0.0)


def _mp_m_cross(kappa_k, kappa_o, d, p, lam):
    # m_cross in offset form, every operation at 50 digits
    with mpmath.workdps(50):
        kk, ko, d = mpmath.mpf(kappa_k), mpmath.mpf(kappa_o), mpmath.mpf(d)
        r = kk + d
        a_self = d * (d + 2 * kk)
        a_cross = (kk - ko + d) * (kk + ko + d)
        field_sign = -1 if lam == 1 else 1
        chi = (a_self ** 2 / 2) * (field_sign * mpmath.mpf(p.omega)
                                   / (r ** 3 * mpmath.mpf(p.eps))
                                   + 2 / a_cross ** 2)
        return a_self / (2 * mpmath.sqrt(r * ko) * (kk - ko + d)
                         * mpmath.sqrt(2 * (1 + chi)))


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
            for k, lam in INDEX_ORDER:
                kk, ko = roots.kappas[k - 1], roots.kappas[2 - k]
                want = _mp_m_cross(kk, ko, roots.offset(k, lam), p, lam)
                got = _column(roots, p, k, lam).m_cross
                with mpmath.workdps(50):
                    worst = max(worst, float(abs((got - want) / want)))
    assert worst <= 1e-15
