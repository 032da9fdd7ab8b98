"""Entanglement measures: exact two-qubit identities, closed forms, report."""
import math
import random
import warnings

import mpmath
import numpy as np
import pytest

from qubeam import (
    amplitudes,
    build_block,
    entangle,
    exact_roots,
    full_report,
    info_measure,
    make_params,
    perturbative_roots,
    phi_closed,
    reduced_density,
    schmidt_measure,
)
from qubeam.entangle import (
    _SERIES_CUT,
    _info_from_gap,
    _schmidt_from_gaps,
    asymptotic_info,
)
from qubeam.errors import (
    BracketFailure,
    DomainError,
    NonPositive,
    PoleEvaluation,
    QubeamError,
    RangeViolation,
    ResonancePole,
    ValidationError,
)
from qubeam.params import ModelParams
from qubeam.qstate import PolarizationConfig, TwoQubitAmplitudes

FIG = (2500.0, 3000.0, 0.5, 0.1)

# reference-point values, frozen from a 50-digit evaluation
PHI_FIG = 6.7502283095724485e-12
EI_FIG = 1.4524353672107015e-11
ES_FIG = 1.3552872417060722e-12
EI_ASYM_FIG = 1.4470067505667856e-11


def _amps(vec):
    v = np.asarray(vec, dtype=complex)
    return TwoQubitAmplitudes(vec=v, config=PolarizationConfig(2, 1),
                              normalized=True, raw_norm_sq=1.0, norm_gap=0.0,
                              y_gap=0.0)


def test_reduced_density_of_known_states():
    s = 1.0 / math.sqrt(2.0)
    bell = reduced_density(_amps([s, 0.0, 0.0, s]))
    assert bell.y == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(bell.rho, np.eye(2) / 2.0, atol=1e-15)
    assert bell.eigs == pytest.approx((0.5, 0.5), abs=1e-15)
    assert schmidt_measure(bell) == pytest.approx(0.5, abs=1e-15)

    product = reduced_density(_amps([1.0, 0.0, 0.0, 0.0]))
    assert product.y == 1.0
    assert np.allclose(product.rho, np.diag([1.0, 0.0]))
    assert schmidt_measure(product) == 0.0


def test_reduced_density_identities_at_reference_point(fig_block):
    for code in ("uu", "ud", "du", "dd"):
        dens = reduced_density(
            amplitudes(fig_block, PolarizationConfig.from_code(code)))
        rho = dens.rho
        assert abs(np.trace(rho) - 1.0) <= 1e-14
        assert rho[0, 1] == np.conj(rho[1, 0])
        lo, hi = dens.eigs
        assert lo + hi == pytest.approx(1.0, abs=1e-14)
        assert hi - lo == pytest.approx(dens.y, abs=1e-14)
        # normalized-state identity between the two measures
        assert schmidt_measure(dens) == pytest.approx(
            (1.0 - dens.y ** 2) / 2.0, abs=1e-12)


def test_info_measure_endpoints_exact():
    assert info_measure(1.0) == 0.0
    assert info_measure(0.0) == 1.0


def test_info_measure_is_the_binary_entropy():
    y = 0.5
    p = (1.0 - y) / 2.0
    expected = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
    assert info_measure(y) == pytest.approx(expected, rel=1e-14)


def test_info_measure_domain_handling():
    with pytest.raises(DomainError):
        info_measure(1.0 + 2e-9)
    with pytest.raises(DomainError):
        info_measure(-2e-9)
    assert info_measure(1.0 + 5e-10) == 0.0
    assert info_measure(-5e-10) == 1.0


def test_info_from_gap_against_high_precision():
    mpmath.mp.dps = 50
    for g in np.logspace(-16.0, -0.3, 25):
        x = mpmath.mpf(repr(float(g))) / 2
        ref = float(-(x * mpmath.log(x)
                      + (1 - x) * mpmath.log1p(-x)) / mpmath.log(2))
        assert _info_from_gap(float(g)) == pytest.approx(ref, rel=1e-13)


def test_info_from_gap_continuous_at_series_cut():
    below = _info_from_gap(_SERIES_CUT * (1.0 - 1e-12))
    at = _info_from_gap(_SERIES_CUT)
    assert abs(below - at) / at <= 1e-11
    assert _info_from_gap(0.0) == 0.0
    assert _info_from_gap(-1e-300) == 0.0


def test_small_gap_info_approaches_leading_term():
    rels = []
    for g in (1e-6, 1e-7, 1e-8):
        leading = g * (1.0 - math.log(g / 2.0)) / math.log(4.0)
        rels.append(abs(_info_from_gap(g) / leading - 1.0))
    assert rels[0] <= 0.05
    assert rels[0] > rels[1] > rels[2]


def test_phi_closed_matches_split_form(fig_params):
    phi, y_closed = phi_closed(fig_params)
    k1, k2, w = fig_params.kappa1, fig_params.kappa2, fig_params.omega
    split = (w / 2.0) * (1.0 / (k1 * (k1 - w) ** 2)
                         - 1.0 / (k2 * (k2 + w) ** 2))
    assert phi == pytest.approx(split, rel=1e-12)
    assert phi == pytest.approx(PHI_FIG, rel=1e-6)
    assert y_closed == pytest.approx(1.0 - fig_params.eps * phi, abs=1e-16)


def test_phi_grows_with_the_field():
    prev = 0.0
    for w in (0.0, 0.2, 0.5, 1.0, 5.0, 100.0):
        phi, _ = phi_closed(make_params(2500.0, 3000.0, w, 0.1))
        if w == 0.0:
            assert phi == 0.0
        else:
            assert phi > prev
        prev = phi


def test_phi_closed_failure_modes():
    with pytest.raises(ResonancePole):
        phi_closed(ModelParams(2500.0, 3000.0, 2500.0 * (1.0 - 1e-13), 0.1))
    with pytest.raises(RangeViolation):
        phi_closed(ModelParams(2500.0, 3000.0, 2500.0 * (1.0 - 1e-8), 0.1))


def test_asymptotic_info_forms_agree(fig_params):
    val = asymptotic_info(fig_params)
    phi, _ = phi_closed(fig_params)
    g = fig_params.eps * phi
    assert val == pytest.approx(g * (1.0 - math.log(g / 2.0)) / math.log(4.0),
                                rel=1e-13)
    assert val == pytest.approx(EI_ASYM_FIG, rel=1e-9)
    with pytest.raises(DomainError):
        asymptotic_info(make_params(2500.0, 3000.0, 0.0, 0.1))


def test_report_frozen_values(fig_params):
    rep = full_report(fig_params, PolarizationConfig.from_code("du"))
    assert rep.Phi == pytest.approx(PHI_FIG, rel=1e-6)
    assert rep.E_I == pytest.approx(EI_FIG, rel=1e-5)
    assert rep.E_S == pytest.approx(ES_FIG, rel=1e-5)
    assert rep.E_S_closed == pytest.approx(2.0 * 0.1 * PHI_FIG, rel=1e-6)
    assert rep.E_I_asymptotic == pytest.approx(EI_ASYM_FIG, rel=1e-9)
    assert rep.y_closed == pytest.approx(1.0 - 0.1 * PHI_FIG, abs=1e-15)
    # the asymptotic reference sits within a factor of the pipeline value
    assert 0.5 <= rep.E_I_asymptotic / rep.E_I <= 2.0
    assert rep.E_I <= 1.0 and 0.0 <= rep.E_S <= 0.5
    assert abs(rep.E_S - (1.0 - rep.y ** 2) / 2.0) <= 1e-10


def test_schmidt_tracks_the_closed_form():
    defects = []
    for factor in (1.0, 0.5, 0.25):
        p = make_params(2500.0, 3000.0, 0.5, 0.1 * factor)
        rep = full_report(p, PolarizationConfig.from_code("du"))
        assert abs(rep.E_S - rep.E_S_closed) <= 50.0 * p.eps ** 2 * rep.Phi
        defects.append(abs(rep.E_S - rep.E_S_closed))
    for hi, lo in zip(defects, defects[1:]):
        assert 3.5 <= hi / lo <= 4.5


def test_parallel_configs_carry_no_entanglement(fig_params):
    for code in ("uu", "dd"):
        rep = full_report(fig_params, PolarizationConfig.from_code(code))
        bound = 50.0 * fig_params.eps ** 2
        assert rep.E_I <= bound and rep.E_S <= bound
        assert rep.E_I <= 1e-9 and rep.E_S <= 1e-10
    uu = full_report(fig_params, PolarizationConfig.from_code("uu"))
    assert uu.y_closed == 1.0
    assert uu.E_I_asymptotic == 0.0 and uu.E_S_closed == 0.0
    dd = full_report(fig_params, PolarizationConfig.from_code("dd"))
    assert dd.E_I == pytest.approx(5.186564e-11, rel=1e-4)
    assert dd.E_S == pytest.approx(5.064329e-12, rel=1e-4)
    assert dd.Phi is None and dd.y_closed is None
    assert dd.E_I_asymptotic is None and dd.E_S_closed is None


def test_zero_field_mixed_pair_is_unentangled():
    rep = full_report(make_params(2500.0, 3000.0, 0.0, 0.1),
                      PolarizationConfig.from_code("du"))
    assert rep.E_I <= 1e-8 and rep.E_S <= 1e-10
    assert rep.Phi == 0.0 and rep.E_I_asymptotic == 0.0


def test_opposite_mixed_pair_clamps_to_zero(fig_params):
    rep = full_report(fig_params, PolarizationConfig.from_code("ud"))
    assert rep.y > 1.0
    assert rep.E_I == 0.0 and rep.E_S == 0.0
    assert rep.Phi is None and rep.E_S_closed is None


def test_report_stage_labels_and_method(fig_params):
    with pytest.raises(NonPositive) as err:
        full_report(ModelParams(2500.0, 3000.0, 0.5, -1.0),
                    PolarizationConfig.from_code("du"))
    assert str(err.value).startswith("stage roots:")
    with pytest.raises(ValueError):
        full_report(fig_params, PolarizationConfig.from_code("du"),
                    method="newton")
    pert = full_report(fig_params, PolarizationConfig.from_code("du"),
                       method="perturbative")
    exact = full_report(fig_params, PolarizationConfig.from_code("du"))
    assert pert.method == "perturbative" and exact.method == "exact"
    assert pert.E_I == pytest.approx(exact.E_I, rel=1e-2)


@pytest.mark.parametrize("point,code,method,kind,message", [
    ((2500.0, 2900.0, 0.0, 1e9), "du", "exact", BracketFailure,
     "stage roots: no sign change in (2700.0, 2700.0) for mode at "
     "kappa=2500.0, lambda=1"),
    ((10.0, 11.0, 0.25, 1e-3), "uu", "exact", DomainError,
     "stage measures: raw spectral gap -2.0010587158091604e-07 below domain "
     "tolerance or not a number; state outside the truncation regime"),
], ids=["bracket", "domain"])
def test_report_stage_is_set_on_the_raised_error(point, code, method, kind,
                                                 message):
    # Messages recorded before the stage became an attribute.
    with pytest.raises(kind) as err:
        full_report(make_params(*point), PolarizationConfig.from_code(code),
                    method)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert err.value.stage == message.split(":")[0].removeprefix("stage ")


def test_report_stage_reraises_the_same_object(fig_params, monkeypatch):
    inner = PoleEvaluation("on the pole")
    inner.detail = object()

    def broken(roots, params, k, lam):
        raise inner

    monkeypatch.setattr(entangle, "_column", broken)
    with pytest.raises(PoleEvaluation) as err:
        full_report(fig_params, PolarizationConfig.from_code("du"))
    assert err.value is inner and err.value.detail is inner.detail
    assert err.value.stage == "block"
    assert str(err.value) == "stage block: on the pole"
    assert PoleEvaluation("x").stage is None


def _report_through_the_block(params, config, method):
    """full_report's fields or error from the block and amplitude vector:
    (y_gap, norm_gap, raw_norm_sq, E_I, E_S), or (type, message, stage)."""
    stage = "roots"
    try:
        roots = (exact_roots(params) if method == "exact"
                 else perturbative_roots(params))
        stage = "block"
        block = build_block(roots, params)
        stage = "amplitudes"
        amps = amplitudes(block, config)
        stage = "measures"
        e_i, e_s = entangle._measures(amps.y_gap, amps.norm_gap)
        entangle._closed_forms(params, config)
    except QubeamError as exc:
        return type(exc), f"stage {stage}: {exc}", stage
    return amps.y_gap, amps.norm_gap, amps.raw_norm_sq, e_i, e_s


def test_report_equals_the_block_route_bit_for_bit():
    # point_mix's input envelope (kappa1 10..1e4, dk/kappa1 1e-3..10, omega
    # up to kappa1/2) with the coupling up to 100 times its bound, plus a
    # root on the other photon's pole, an underflowing normalization and a
    # spectral gap above 2, so that every stage raises somewhere.
    rng = random.Random(8)
    points = [(10.0, 60.0, 0.0, 1000.0), (1e-66, 2e-66, 1e-67, 1e-135),
              (1e-60, 1.00000001e-60, 0.0, 1e-80)]
    for _ in range(60):
        kappa1 = 10.0 ** rng.uniform(1.0, 4.0)
        dk_rel = 10.0 ** rng.uniform(-3.0, 1.0)
        omega = rng.uniform(0.0, kappa1 / 2.0)
        eps = (10.0 ** rng.uniform(-4.0, 2.0) * 0.01 * (kappa1 - omega)
               * (kappa1 - omega) * min(1.0, dk_rel))
        points.append((kappa1, kappa1 * (1.0 + dk_rel), omega, eps))
    outcomes = set()
    for point in points:
        params = make_params(*point)
        for code in ("uu", "ud", "du", "dd"):
            config = PolarizationConfig.from_code(code)
            for method in ("exact", "perturbative"):
                want = _report_through_the_block(params, config, method)
                try:
                    rep = full_report(params, config, method)
                except QubeamError as exc:
                    got = type(exc), str(exc), exc.stage
                    outcomes.add((exc.stage, type(exc).__name__))
                else:
                    got = (rep.y_gap, rep.norm_gap, rep.raw_norm_sq, rep.E_I,
                           rep.E_S)
                    outcomes.add("ok")
                    assert rep.y == 1.0 - rep.y_gap
                # repr tells -0.0 from 0.0 and prints every digit
                assert repr(got) == repr(want), (params, code, method)
    assert {"ok", ("roots", "BracketFailure"), ("block", "PoleEvaluation"),
            ("block", "SingularDenominator"),
            ("measures", "DomainError")} <= outcomes


def test_schmidt_from_gaps_consistency():
    # same quantity two ways: gaps form vs the normalized-state identity
    ng, yg = 3e-13, 7e-13
    direct = _schmidt_from_gaps(ng, yg)
    assert direct == pytest.approx(ng + yg, rel=1e-3)


def test_closed_forms_compute_phi_once(fig_params, monkeypatch):
    calls = []

    def counted(params):
        calls.append(params)
        return phi_closed(params)

    monkeypatch.setattr(entangle, "phi_closed", counted)
    monkeypatch.setattr(entangle, "asymptotic_info", None)
    rep = full_report(fig_params, PolarizationConfig.from_code("du"))
    assert calls == [fig_params]
    assert rep.E_I_asymptotic == pytest.approx(EI_ASYM_FIG, rel=1e-9)


def _reports_raise_package_errors_only(kappa1s):
    """Over valid points at each kappa1 (4 couplings, 3 splits, 3 fields),
    every report of each config and method either succeeds with finite
    fields or raises a QubeamError, and no RuntimeWarning is issued.
    Returns the outcomes seen."""
    outcomes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kappa1 in kappa1s:
            for eps_exp in (-9, -6, -3, -1):
                for split in (1e-3, 0.5, 3.0):
                    for omega_frac in (0.0, 0.1, 0.5):
                        try:
                            p = make_params(kappa1, kappa1 * (1.0 + split),
                                            omega_frac * kappa1,
                                            10.0 ** eps_exp * kappa1 * kappa1)
                        except ValidationError:
                            continue
                        for code in ("uu", "ud", "du", "dd"):
                            for method in ("exact", "perturbative"):
                                try:
                                    rep = full_report(
                                        p, PolarizationConfig.from_code(code),
                                        method)
                                except QubeamError as exc:
                                    outcomes.add(type(exc).__name__)
                                    continue
                                outcomes.add("ok")
                                for value in (rep.y, rep.E_I, rep.E_S,
                                              rep.raw_norm_sq,
                                              rep.E_I_asymptotic,
                                              rep.E_S_closed):
                                    assert value is None or math.isfinite(value)
    return outcomes


def test_large_scales_raise_package_errors_only():
    # Up to kappa1 ~ 1e300, where intermediate products overflow.
    outcomes = _reports_raise_package_errors_only(
        10.0 ** k_exp for k_exp in range(1, 307, 6))
    assert "ok" in outcomes and "SingularDenominator" in outcomes


def test_tiny_scales_raise_package_errors_only():
    # Down to kappa1 ~ 1e-304, where the normalization's denominators
    # underflow to 0.
    outcomes = _reports_raise_package_errors_only(
        10.0 ** -k_exp for k_exp in range(1, 305, 3))
    assert "ok" in outcomes and "SingularDenominator" in outcomes
