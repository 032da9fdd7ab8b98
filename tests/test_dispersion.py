"""Quasiphoton frequencies: the solved equation versus the first-order forms.

The roots sit a few parts in 1e8 above the photon frequencies, so everything
here is asserted on the stored offsets d = r - kappa_k, never on differences
of absolute frequencies.
"""
import hashlib
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubeam import exact_roots, make_params, perturbative_roots
from qubeam.dispersion import RESIDUAL_TOL, ModeRoots
from qubeam.errors import (
    ComputationError,
    NonConvergence,
    NonPositive,
    SingularDenominator,
)
from qubeam.params import RESONANCE_MARGIN, ModelParams

from conftest import in_set
from mp_reference import DIGITS, mp_first_order_offset, mp_offset

FIG = (2500.0, 3000.0, 0.5, 0.1)
KLAM = [(k, lam) for k in (1, 2) for lam in (1, 2)]


def _root_ulps(p, k, lam, got):
    """Distance of offset got from the 50-digit root, in ulps of got."""
    ref = mp_offset(p.kappa1, p.kappa2, p.omega, p.eps, k, lam)
    return float(abs(ref - got)) / math.ulp(got)


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


def test_exact_residuals_within_tolerance(fig_params, fig_roots):
    for k, lam in KLAM:
        assert abs(fig_roots.residuals[k - 1][lam - 1]) <= RESIDUAL_TOL


def test_first_order_roots_leave_a_linear_residual(fig_params):
    """The residual at the first-order roots shrinks like eps, not eps^2.

    The root-distance defect is second order, but the residual slope at the
    root grows like 1/eps (the root sits a distance O(eps) from the pole),
    so the product is first order. Asserting the true rate pins the
    distinction down.

    Measured in offset form: rounding r = kappa + d to float64 perturbs d
    by ulp(kappa)/2, which feeds a ~1e-8 error back through the self pole,
    the same order as the signal itself.
    """
    from qubeam.dispersion import _dispersion

    ladders = {kl: [] for kl in KLAM}
    for factor in (1.0, 0.5, 0.25):
        p = make_params(2500.0, 3000.0, 0.5, 0.1 * factor)
        pert = perturbative_roots(p)
        for k, lam in KLAM:
            kk = (p.kappa1, p.kappa2)[k - 1]
            ko = (p.kappa2, p.kappa1)[k - 1]
            ladders[(k, lam)].append(_dispersion(
                pert.offset(k, lam), kk, ko, p.eps,
                p.omega if lam == 1 else -p.omega)[0])
    for series in ladders.values():
        assert abs(series[0]) < 1e-6
        for hi, lo in zip(series, series[1:]):
            assert 1.9 <= hi / lo <= 2.1


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
        assert _root_ulps(fig_params, k, lam, fig_roots.offset(k, lam)) <= 4


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


def test_zero_coupling_exact_solve_rejected():
    with pytest.raises(NonPositive):
        exact_roots(ModelParams(2500.0, 3000.0, 0.5, 0.0))


@pytest.mark.parametrize("eps", [-math.inf, -1.0, -0.0, 0.0, math.nan])
def test_exact_solver_names_the_coupling_it_rejects(eps):
    with pytest.raises(NonPositive) as err:
        exact_roots(ModelParams(1.0, 2.0, 0.5, eps))
    assert str(err.value) == f"exact solver requires eps > 0, got {eps!r}"


def test_first_order_denominator_floor():
    # kappa1 = kappa2 zeroes the structure; reachable only by bypassing
    # validation, which is exactly what the floor protects against
    p = ModelParams(2500.0, 2500.0, 0.0, 0.1)
    with pytest.raises(SingularDenominator):
        perturbative_roots(p)


def _split_sample():
    """Points of make_params' set whose split dk/kappa1 runs from one ulp
    of kappa1 to 10, at omega = 0, mid-range and on the last float below
    the resonance margin, with eps at the coupling bound and 1e-6 of it."""
    points = []
    for kappa1 in (1e-3, 1.0, 2500.0, 1e6):
        kappa2s = [math.nextafter(kappa1, math.inf)] + [
            kappa1 * (1.0 + rel) for rel in (1e-15, 1e-12, 2.5e-10, 1e-9,
                                             1e-6, 1e-3, 1.0, 10.0)]
        for kappa2 in kappa2s:
            for omega in (0.0, 0.37 * kappa1, math.nextafter(
                    kappa1 * (1.0 - RESONANCE_MARGIN), 0.0)):
                for eps_rel in (1.0, 1e-6):
                    points.append(in_set(kappa1, kappa2, omega, eps_rel))
    return points


def _mp_first_order(point, k, lam):
    """eps/(2 (kappa_k + (-1)^(lambda-1) omega)) to DIGITS digits."""
    kappa1, kappa2, omega, eps = point
    with mpmath.workdps(DIGITS):
        return mpmath.mpf(eps) / (2 * (mpmath.mpf((kappa1, kappa2)[k - 1])
                                       + (omega if lam == 1 else -omega)))


def test_first_order_offsets_are_the_correctly_rounded_closed_form():
    """Every first-order offset, scalar and batched, lies within 2 ulps of
    the 50-digit eps/(2 (kappa_k + (-1)^(lambda-1) omega)), down to a
    split of one ulp, where a form that cancels the split loses it all."""
    from qubeam import batch as batch_mod

    points = _split_sample()
    batch = ModelParams(*(np.array(column) for column in zip(*points)))
    batched = {kl: batch_mod._first_order_offsets(batch, *kl) for kl in KLAM}
    for i, point in enumerate(points):
        pert = perturbative_roots(make_params(*point))
        for k, lam in KLAM:
            got = pert.offset(k, lam)
            ref = _mp_first_order(point, k, lam)
            assert float(abs(got - ref)) <= 2 * math.ulp(got), (point, k, lam)
            offsets, ok = batched[(k, lam)]
            assert ok[i] and offsets[i] == got


def test_the_oracles_first_order_cubic_is_the_closed_form():
    """perfbench's mp_first_order_offset evaluates the cubic-denominator
    form; at 50 digits it equals eps/(2 (kappa_k +- omega)), so the
    benchmark's pert check and the solver's form are one quantity."""
    worst = 0.0
    for point in _split_sample():
        for k, lam in KLAM:
            closed = _mp_first_order(point, k, lam)
            with mpmath.workdps(DIGITS):
                worst = max(worst, float(abs(
                    mp_first_order_offset(*point, k, lam) - closed) / closed))
    # the cubic cancels the split (one ulp of kappa1 at the least), so its
    # 50-digit rounding may show; this sample measures 0
    assert worst <= 1e-30


@pytest.mark.parametrize("method", ["exact", "perturbative"])
def test_degenerate_modes_raise_at_stage_roots(method):
    # kappa1 == kappa2 puts both poles under one root, which the
    # first-order form does not count; only a hand-built ModelParams holds it
    from qubeam import full_report
    from qubeam.qstate import PolarizationConfig

    with pytest.raises(SingularDenominator) as err:
        full_report(ModelParams(2500.0, 2500.0, 0.5, 0.1),
                    PolarizationConfig.from_code("du"), method)
    assert err.value.stage == "roots"


def test_mode_roots_reject_nonpositive_roots():
    with pytest.raises(NonPositive):
        ModeRoots(kappas=(2500.0, 3000.0),
                  offsets=((-2500.0, 0.1), (0.1, 0.1)))


_GOOD_OFFSETS = ((1e-5, 2e-5), (3e-5, 4e-5))


def _offsets_with(bad):
    # _GOOD_OFFSETS with bad[(k, lam)] in place of those offsets
    return tuple(tuple(bad.get((k, lam), _GOOD_OFFSETS[k - 1][lam - 1])
                       for lam in (1, 2)) for k in (1, 2))


_ROUTES = {
    "new": lambda offsets: ModeRoots((2500.0, 3000.0), offsets),
    "make": lambda offsets: ModeRoots._make(((2500.0, 3000.0), offsets, None)),
    "replace": lambda offsets: ModeRoots(
        (2500.0, 3000.0), _GOOD_OFFSETS)._replace(offsets=offsets),
}


@pytest.mark.parametrize("route", _ROUTES)
@pytest.mark.parametrize("k,lam", KLAM)
def test_mode_roots_check_every_root_on_every_construction_route(route, k,
                                                                 lam):
    build = _ROUTES[route]
    kappa = (2500.0, 3000.0)[k - 1]
    # a root of -1 (offset -(kappa + 1)), and separately a nan offset
    for bad, shown in ((-(kappa + 1.0), "-1.0"), (math.nan, "nan")):
        with pytest.raises(NonPositive) as err:
            build(_offsets_with({(k, lam): bad}))
        assert str(err.value) == f"root r[{k}][{lam}] = {shown} not positive"
    # with every later root bad too, the message still names this one
    later = {kl: -1e4 for kl in KLAM[KLAM.index((k, lam)):]}
    with pytest.raises(NonPositive) as err:
        build(_offsets_with(later))
    assert str(err.value).startswith(f"root r[{k}][{lam}] = ")
    assert build(_GOOD_OFFSETS) == ModeRoots((2500.0, 3000.0), _GOOD_OFFSETS)


def test_mode_roots_fields_repr_and_index_range(fig_roots):
    roots = ModeRoots((2500.0, 3000.0), _GOOD_OFFSETS)
    assert repr(roots) == ("ModeRoots(kappas=(2500.0, 3000.0), offsets="
                           "((1e-05, 2e-05), (3e-05, 4e-05)), residuals=None)")
    assert roots.offset(2, 1) == 3e-5 and roots.root(2, 1) == 3000.0 + 3e-5
    with pytest.raises(AttributeError):
        roots.offsets = _GOOD_OFFSETS
    # k and lambda index from 1; 0 and negatives must not wrap around to the
    # last row or column (offset(0, 1) once returned r[2][1]'s offset)
    for k, lam in ((0, 1), (1, 0), (0, 0), (-1, 1), (1, -1), (3, 1), (1, 3)):
        with pytest.raises(ValueError):
            fig_roots.offset(k, lam)
        with pytest.raises(ValueError):
            fig_roots.root(k, lam)


def _evaluations_per_root(p):
    """Residual plus slope evaluations spent on each (k, lambda) root, two
    per _dispersion call. The bracket comes from the poles, so no
    residual-only evaluation remains: _dispersion is the one evaluator."""
    from qubeam import dispersion

    assert [name for name in vars(dispersion)
            if name.startswith("_residual")] == []
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real, per_root = dispersion._dispersion, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dispersion, "_dispersion", counted)
        for k, lam in KLAM:
            kk, ko = (p.kappa1, p.kappa2) if k == 1 else (p.kappa2, p.kappa1)
            sw = p.omega if lam == 1 else -p.omega
            guess = dispersion._first_order_offset(kk, ko, p.eps, sw, lam)
            calls.clear()
            dispersion._solve_offset(kk, ko, p.eps, sw, lam, guess)
            assert calls
            per_root.append(2 * len(calls))
    return per_root


def test_an_underflowed_slope_fails_only_a_newton_step_that_uses_it():
    # About 2^-274 times an envelope point: the squares in the slope at the
    # first Newton iterate underflow to 0. |residual| has risen there, so
    # the loop stops at the guess without stepping from that iterate, and
    # exact_roots rejects the guess's residual. A step that does use a zero
    # slope raises SingularDenominator (test_tiny_scale_is_a_computation_error
    # in test_cli.py).
    from qubeam import dispersion

    p = ModelParams(7.495809915797975e-81, 8.51430823159308e-81,
                    1.791634686408228e-81, 1.970308506118531e-162)
    guess = dispersion._first_order_offset(p.kappa1, p.kappa2, p.eps,
                                           p.omega, 1)
    real, evaluated = dispersion._dispersion, []

    def recorded(*args):
        evaluated.append(real(*args))
        return evaluated[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dispersion, "_dispersion", recorded)
        d, g = dispersion._solve_offset(p.kappa1, p.kappa2, p.eps, p.omega, 1,
                                        guess)
    assert (d, g) == (guess, evaluated[0][0])
    assert [slope == 0.0 for _, slope in evaluated] == [False, True]
    assert abs(evaluated[1][0]) > abs(g)
    with pytest.raises(NonConvergence) as err:
        exact_roots(p)
    assert str(err.value) == f"residual {g!r} above 1e-12 for k=1, lambda=1"


def _set_sample(n, seed):
    """n seeded points of make_params' set, then its corners. kappa1 spans
    ~1e-3..1e6, (kappa2 - kappa1)/kappa1 ~3e-5..8, omega < 0.99 kappa1 and
    eps ~3e-11..1 times the coupling bound. The corners put eps at the bound
    with omega = 0 and with omega on the last float below the resonance
    margin. Drawn from binary fractions and exponents, so no libm call
    shapes the points."""
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        kappa1 = math.ldexp(1.0 + rng.random(), rng.randrange(-10, 20))
        kappa2 = kappa1 * (1.0 + math.ldexp(1.0 + rng.random(),
                                            rng.randrange(-15, 3)))
        points.append(in_set(kappa1, kappa2, 0.99 * rng.random() * kappa1,
                             math.ldexp(1.0 + rng.random(),
                                        rng.randrange(-35, 0))))
    for kappa1 in (1e-3, 1.0, 2500.0, 1e6):
        for dk_rel in (1e-4, 0.2, 1.0, 10.0):
            for omega in (0.0, math.nextafter(
                    kappa1 * (1.0 - RESONANCE_MARGIN), 0.0)):
                points.append(in_set(kappa1, kappa1 * (1.0 + dk_rel), omega))
    return points


# SHA-256 of every (point, exact_roots outcome) line over _set_sample(2000,
# 13) at scales 1, 2^-200 and 2^200. Re-recorded when the Newton guess took
# the first-order offset's closed form: at each scale 1,081 of the 2,032
# points moved 1,581 roots, 1,345 of them by at most 2 ulps and 191 of the
# rest at omega > 0.9 kappa1; against the 50-digit roots the moved roots'
# median error went from 0.86 to 0.87 ulps, and 797 came closer, 784 not.
SET_ROOTS_DIGEST = ("c986744413ffa018047e7111d158010a"
                    "6313f2813168fc1143f7321c8b9feaeb")


def test_roots_inside_the_set_are_pinned():
    """Root offsets and residuals, or the error, at each point of a seeded
    sample of the set, its corners and the same points scaled by t = 2^+-200
    (eps by t^2): one digest over their reprs. The residual has no unit, so
    each scaled outcome is the scale-1 offsets times t, bit for bit, with
    the scale-1 residuals."""
    digest, sample = hashlib.sha256(), _set_sample(2000, 13)
    at_one = [exact_roots(make_params(*point)) for point in sample]
    for t in (1.0, 2.0 ** -200, 2.0 ** 200):
        for (k1, k2, w, eps), base in zip(sample, at_one):
            p = make_params(k1 * t, k2 * t, w * t, eps * t * t)
            try:
                roots = exact_roots(p)
                outcome = repr((roots.offsets, roots.residuals))
            except ComputationError as err:
                outcome = f"{type(err).__name__}: {err}"
            scaled = tuple(tuple(d * t for d in pair) for pair in base.offsets)
            assert outcome == repr((scaled, base.residuals)), p
            digest.update(f"{p!r} {outcome}\n".encode())
    assert digest.hexdigest() == SET_ROOTS_DIGEST


# The original regime: kappa2/kappa1 - 1 in 0.05..3, omega <= kappa1/2,
# eps down to 1e-6 times the coupling bound.
_REGIME = st.builds(
    lambda kappa1, split, omega_frac, eps_exp: in_set(
        kappa1, kappa1 * (1.0 + split), omega_frac * kappa1,
        10.0 ** eps_exp),
    st.floats(min_value=10.0, max_value=1e4),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=-6.0, max_value=0.0))

# The point_mix envelope: kappa1 and dk/kappa1 log-uniform, and eps up to
# the coupling bound 0.01 (kappa1 - omega)^2 min(1, dk/kappa1).
_ENVELOPE = st.builds(
    lambda k_exp, dk_exp, omega_frac, eps_exp: in_set(
        10.0 ** k_exp, 10.0 ** k_exp * (1.0 + 10.0 ** dk_exp),
        omega_frac * 10.0 ** k_exp, 10.0 ** eps_exp),
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
        got = ex.offset(k, lam)
        assert abs(ex.residuals[k - 1][lam - 1]) <= RESIDUAL_TOL
        assert got > 0.0
        assert _root_ulps(p, k, lam, got) <= 4
    assert max(_evaluations_per_root(p)) <= 18
    for k in (1, 2):
        # the lambda = 1 branch sees the larger effective denominator
        assert ex.offset(k, 1) <= ex.offset(k, 2)
    assert ex.root(1, 1) < p.kappa2


# The envelope with its coupling bound exceeded up to 1e4-fold, which only a
# hand-built ModelParams reaches: the solve can find another root of the
# equation than the near-pole one, or miss tol.
_PAST_ENVELOPE = st.builds(
    lambda point, factor_exp: point[:3] + (point[3] * 10.0 ** factor_exp,),
    _ENVELOPE, st.floats(min_value=0.0, max_value=4.0))


@given(points=st.lists(st.one_of(_REGIME, _ENVELOPE, _PAST_ENVELOPE),
                       min_size=1, max_size=6))
@settings(deadline=None, derandomize=True, max_examples=100)
def test_batched_offsets_match_the_scalar_solvers_or_are_flagged(points):
    """Where the scalar solver returns a root within tol, the batch entry is
    unflagged and equal to it bit for bit; a root the scalar solver cannot
    return (it raises, or exact_roots rejects its residual) is flagged. The
    batch hands no root back to the scalar solver, outside the set too."""
    from qubeam import batch as batch_mod, dispersion

    batch = ModelParams(*(np.array(column) for column in zip(*points)))
    for k, lam in KLAM:
        exact, exact_ok = batch_mod._solve_offsets(batch, k, lam)
        first, first_ok = batch_mod._first_order_offsets(batch, k, lam)
        for i, point in enumerate(points):
            p = ModelParams(*point)
            kk, ko = (p.kappa1, p.kappa2) if k == 1 else (p.kappa2, p.kappa1)
            sw = p.omega if lam == 1 else -p.omega
            try:
                guess = dispersion._first_order_offset(kk, ko, p.eps, sw, lam)
                d, g = dispersion._solve_offset(kk, ko, p.eps, sw, lam, guess)
            except ComputationError:
                d = None
            if d is None or not abs(g) <= RESIDUAL_TOL:
                assert not exact_ok[i]
            else:
                assert exact_ok[i] and exact[i] == d
            try:
                want = dispersion._first_order_offset(kk, ko, p.eps, sw, lam)
            except ComputationError:
                assert not first_ok[i]
                continue
            if first_ok[i]:
                assert first[i] == want
