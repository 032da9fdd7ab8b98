"""Quasiphoton frequencies: the solved equation versus the first-order forms.

The roots sit a few parts in 1e8 above the photon frequencies, so everything
here is asserted on the stored offsets d = r - kappa_k, never on differences
of absolute frequencies.
"""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubeam import exact_roots, make_params, perturbative_roots, residual
from qubeam.dispersion import DEFAULT_REL_TOL, ModeRoots
from qubeam.errors import (
    BracketFailure,
    ComputationError,
    NonPositive,
    PoleEvaluation,
    SingularDenominator,
)
from qubeam.params import ModelParams

FIG = (2500.0, 3000.0, 0.5, 0.1)
KLAM = [(k, lam) for k in (1, 2) for lam in (1, 2)]


def _mp_offset(p, k, lam):
    """Root offset to 50 digits, bracketed by doubling up from the pole."""
    with mpmath.workdps(50):
        k1, k2, w, eps = (mpmath.mpf(x) for x in
                          (p.kappa1, p.kappa2, p.omega, p.eps))
        kk, ko = (k1, k2) if k == 1 else (k2, k1)
        sign = 1 if lam == 1 else -1

        def g(d):
            return (eps / (d * (d + 2 * kk))
                    + eps / ((kk - ko + d) * (kk + ko + d))
                    - 1 - sign * w / (kk + d))

        lo = kk * mpmath.mpf("1e-30")
        while g(2 * lo) > 0:
            lo *= 2
        return mpmath.findroot(g, (lo, 2 * lo), solver="anderson")


def first_order_reference(params, k, lam):
    # Independent arithmetic for the leading-order offset: numerator
    # eps*(2 kk^2 - S) over the cubic-in-kappa denominator.
    kk = (params.kappa1, params.kappa2)[k - 1]
    s_sq = params.kappa1 ** 2 + params.kappa2 ** 2
    sign = 1.0 if lam == 1 else -1.0
    num = params.eps * (2.0 * kk * kk - s_sq)
    den = (sign * 2.0 * params.omega * (2.0 * kk * kk - s_sq)
           + kk * (5.0 * kk * kk - 3.0 * s_sq)
           + (params.kappa1 * params.kappa2) ** 2 / kk)
    return num / den


def test_first_order_offsets_match_reference(fig_params):
    pert = perturbative_roots(fig_params)
    for k, lam in KLAM:
        assert pert.offset(k, lam) == pytest.approx(
            first_order_reference(fig_params, k, lam), rel=1e-14)
    # hand check on the (1,2) entry: numerator -2.75e5, denominator
    # about -1.375e10, correction about +2.0e-5
    assert pert.offset(1, 2) == pytest.approx(2.0004e-5, rel=1e-4)
    assert pert.root(1, 2) == pytest.approx(2500.00002, abs=1e-7)


def test_zero_coupling_first_order_roots_are_the_photon_frequencies():
    p = ModelParams(2500.0, 3000.0, 0.5, 0.0)  # bypasses eps > 0 validation
    pert = perturbative_roots(p)
    for k, lam in KLAM:
        assert pert.offset(k, lam) == 0.0
        assert pert.root(k, lam) == (p.kappa1 if k == 1 else p.kappa2)


def test_zero_field_removes_the_branch_split(fig_params):
    p = make_params(2500.0, 3000.0, 0.0, 0.1)
    pert = perturbative_roots(p)
    ex = exact_roots(p)
    for k in (1, 2):
        assert pert.offset(k, 1) == pert.offset(k, 2)
        assert ex.offset(k, 1) == ex.offset(k, 2)
    # and the residual itself is branch-independent
    for r in (2499.0, 2500.7, 3100.0):
        assert residual(r, p, 1) == residual(r, p, 2)


def test_residual_sign_and_poles(fig_params):
    # just above the first pole the coupling term dominates, positive
    assert residual(2500.0 + 1e-6, fig_params, 1) > 1.0
    # far from both poles the -1 dominates
    assert residual(10000.0, fig_params, 1) < -0.5
    with pytest.raises(PoleEvaluation):
        residual(2500.0 * (1.0 + 1e-14), fig_params, 1)
    with pytest.raises(PoleEvaluation):
        residual(3000.0, fig_params, 2)
    with pytest.raises(PoleEvaluation):
        residual(-1.0, fig_params, 1)


def test_exact_residuals_within_tolerance(fig_params, fig_roots):
    assert fig_roots.method == "exact"
    assert fig_roots.tol == DEFAULT_REL_TOL
    for k, lam in KLAM:
        kk = fig_roots.kappas[k - 1]
        assert abs(fig_roots.residuals[k - 1][lam - 1]) <= DEFAULT_REL_TOL * kk


def test_first_order_roots_leave_a_linear_residual(fig_params):
    """The residual at the first-order roots shrinks like eps, not eps^2.

    The root-distance defect is second order, but the residual slope at the
    root grows like 1/eps (the root sits a distance O(eps) from the pole),
    so the product is first order. Asserting the true rate pins the
    distinction down.

    Measured in offset form: rounding r = kappa + d to float64 perturbs d
    by ulp(kappa)/2, which feeds a ~1e-8 error back through the self pole,
    the same order as the signal itself. The public residual() only bounds
    the magnitude here.
    """
    from qubeam.dispersion import _branch_sign, _residual_offset

    ladders = {kl: [] for kl in KLAM}
    for factor in (1.0, 0.5, 0.25):
        p = make_params(2500.0, 3000.0, 0.5, 0.1 * factor)
        pert = perturbative_roots(p)
        for k, lam in KLAM:
            kk = (p.kappa1, p.kappa2)[k - 1]
            ko = (p.kappa2, p.kappa1)[k - 1]
            ladders[(k, lam)].append(_residual_offset(
                pert.offset(k, lam), kk, ko, p, _branch_sign(lam)))
    for series in ladders.values():
        assert abs(series[0]) < 1e-6
        for hi, lo in zip(series, series[1:]):
            assert 1.9 <= hi / lo <= 2.1
    p = make_params(*FIG)
    pert = perturbative_roots(p)
    assert abs(residual(pert.root(1, 2), p, 2)) < 1e-6


def test_exact_versus_first_order_defect_is_second_order():
    defects = {kl: [] for kl in KLAM}
    for factor in (1.0, 0.5, 0.25):
        p = make_params(2500.0, 3000.0, 0.5, 0.1 * factor)
        ex = exact_roots(p)
        pert = perturbative_roots(p)
        for k, lam in KLAM:
            defects[(k, lam)].append(abs(ex.offset(k, lam) - pert.offset(k, lam)))
    for series in defects.values():
        assert series[0] < 1e-11
        for hi, lo in zip(series, series[1:]):
            assert 3.5 <= hi / lo <= 4.5


def test_exact_roots_match_high_precision_solution(fig_params, fig_roots):
    """Solve the dispersion equation in 50-digit arithmetic and compare."""
    for k, lam in KLAM:
        d_ref = _mp_offset(fig_params, k, lam)
        got = fig_roots.offset(k, lam)
        assert abs(got - float(d_ref)) <= 1e-13 * float(d_ref)


def test_small_coupling_roots_stay_near_the_poles():
    p = make_params(2500.0, 3000.0, 0.5, 1e-6 * 2500.0 ** 2)
    ex = exact_roots(p)
    for k, lam in KLAM:
        kk = ex.kappas[k - 1]
        assert abs(ex.root(k, lam) - kk) < 1e-3 * kk


def test_branches_move_apart_with_the_field():
    d1_prev, d2_prev = None, None
    for omega in (0.0, 0.1, 0.2, 0.3):
        p = make_params(2500.0, 3000.0, omega, 0.1)
        ex = exact_roots(p)
        d1, d2 = ex.offset(1, 1), ex.offset(1, 2)
        if d1_prev is not None:
            assert d1 < d1_prev       # lambda = 1 pushed down
            assert d2 > d2_prev       # lambda = 2 pushed up
        d1_prev, d2_prev = d1, d2


def test_root_ordering_invariants(fig_roots):
    for k, lam in KLAM:
        assert fig_roots.root(k, lam) > 0.0
    for lam in (1, 2):
        assert fig_roots.root(1, lam) < 3000.0
        assert fig_roots.offset(1, lam) > 0.0
    assert fig_roots.r.shape == (2, 2)


def test_zero_coupling_exact_solve_rejected():
    with pytest.raises(NonPositive):
        exact_roots(ModelParams(2500.0, 3000.0, 0.5, 0.0))


def test_bracket_failure_reports_scanned_interval():
    # a coupling so large no root remains near the photon frequencies
    p = make_params(2500.0, 3000.0, 0.5, 1e9)
    with pytest.raises(BracketFailure) as err:
        exact_roots(p)
    assert "sign change" in str(err.value)


def test_first_order_denominator_floor():
    # kappa1 = kappa2 zeroes the structure; reachable only by bypassing
    # validation, which is exactly what the floor protects against
    p = ModelParams(2500.0, 2500.0, 0.0, 0.1)
    with pytest.raises(SingularDenominator):
        perturbative_roots(p)


def test_mode_roots_reject_nonpositive_roots():
    with pytest.raises(NonPositive):
        ModeRoots(kappas=(2500.0, 3000.0),
                  offsets=((-2500.0, 0.1), (0.1, 0.1)),
                  method="perturbative")


def _evaluations_per_root(p):
    """Residual plus derivative evaluations spent on each (k, lambda) root."""
    from qubeam import dispersion

    count = [0]

    def counted(fn):
        def wrapper(*args):
            count[0] += 1
            return fn(*args)
        return wrapper

    per_root = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_residual_offset", "_residual_offset_deriv"):
            mp.setattr(dispersion, name, counted(getattr(dispersion, name)))
        for k, lam in KLAM:
            kk, ko = (p.kappa1, p.kappa2) if k == 1 else (p.kappa2, p.kappa1)
            count[0] = 0
            dispersion._solve_offset(kk, ko, p, lam)
            per_root.append(count[0])
    return per_root


# The original regime: kappa2/kappa1 - 1 in 0.05..3, omega <= kappa1/2,
# eps up to 1e-3 kappa1^2.
_REGIME = st.builds(
    lambda kappa1, split, omega_frac, eps_exp: (
        kappa1, kappa1 * (1.0 + split), omega_frac * kappa1,
        1e-3 * kappa1 ** 2 * 10.0 ** eps_exp),
    st.floats(min_value=10.0, max_value=1e4),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=-6.0, max_value=0.0))

# The point_mix envelope: kappa1 and dk/kappa1 log-uniform, and eps up to
# acceptance 6's bound 0.01 (kappa1 - omega)^2 min(1, dk/kappa1).
_ENVELOPE = st.builds(
    lambda k_exp, dk_exp, omega_frac, eps_exp: (
        10.0 ** k_exp, 10.0 ** k_exp * (1.0 + 10.0 ** dk_exp),
        omega_frac * 10.0 ** k_exp,
        10.0 ** eps_exp * 0.01 * (10.0 ** k_exp * (1.0 - omega_frac)) ** 2
        * min(1.0, 10.0 ** dk_exp)),
    st.floats(min_value=1.0, max_value=4.0),
    st.floats(min_value=-3.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=-4.0, max_value=0.0))


@given(point=st.one_of(_REGIME, _ENVELOPE))
@settings(deadline=None, derandomize=True, max_examples=100)
def test_solver_properties_hold_across_the_regime(point):
    """Residual tolerance, 50-digit accuracy, work per root, and ordering."""
    p = make_params(*point)
    ex = exact_roots(p)
    for k, lam in KLAM:
        kk = ex.kappas[k - 1]
        got = ex.offset(k, lam)
        assert abs(ex.residuals[k - 1][lam - 1]) <= DEFAULT_REL_TOL * kk
        assert got > 0.0
        with mpmath.workdps(50):
            err = abs(mpmath.mpf(got) - _mp_offset(p, k, lam))
        assert err <= 4 * math.ulp(got)
    assert max(_evaluations_per_root(p)) <= 20
    for k in (1, 2):
        # the lambda = 1 branch sees the larger effective denominator
        assert ex.offset(k, 1) <= ex.offset(k, 2)
    assert ex.root(1, 1) < p.kappa2


# The envelope with its coupling bound exceeded up to 1e4-fold: the probe
# around the first-order offset fails to bracket, or no root remains.
_PAST_ENVELOPE = st.builds(
    lambda point, factor_exp: point[:3] + (point[3] * 10.0 ** factor_exp,),
    _ENVELOPE, st.floats(min_value=0.0, max_value=4.0))


@given(points=st.lists(st.one_of(_REGIME, _ENVELOPE, _PAST_ENVELOPE),
                       min_size=1, max_size=6))
@settings(deadline=None, derandomize=True, max_examples=100)
def test_batched_offsets_match_the_scalar_solvers_or_are_flagged(points):
    """Each unflagged batch offset equals the scalar one bit for bit, and a
    root the scalar solver cannot return (it raises, or exact_roots rejects
    its residual) is flagged."""
    from qubeam import dispersion

    batch = ModelParams(*(np.array(column) for column in zip(*points)))
    for k, lam in KLAM:
        exact, exact_ok = dispersion._solve_offsets(batch, k, lam,
                                                   DEFAULT_REL_TOL)
        first, first_ok = dispersion._first_order_offsets(batch, k, lam)
        for i, point in enumerate(points):
            p = make_params(*point)
            kk, ko = (p.kappa1, p.kappa2) if k == 1 else (p.kappa2, p.kappa1)
            try:
                d, g = dispersion._solve_offset(kk, ko, p, lam)
            except ComputationError:
                d = None
            if d is None or abs(g) > DEFAULT_REL_TOL * kk:
                assert not exact_ok[i]
            elif exact_ok[i]:
                assert exact[i] == d
            try:
                want = dispersion._first_order_offset(kk, p, lam)
            except ComputationError:
                assert not first_ok[i]
                continue
            if first_ok[i]:
                assert first[i] == want
