"""Entanglement measures: exact two-qubit identities, closed forms, report."""
import ast
import hashlib
import math
from pathlib import Path
import random
import re
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

import qubeam
from qubeam import (
    build_block,
    entangle,
    exact_roots,
    full_report,
    make_params,
    perturbative_roots,
    phi_closed,
)
from qubeam.batch import _asymptotic_from_phis, _info_from_gaps
from qubeam.bogoliubov import INDEX_ORDER
from qubeam.dispersion import ModeRoots
from qubeam.entangle import (
    _SERIES_CUT,
    DOMAIN_TOL,
    _asymptotic_from_phi,
    _info_from_gap,
    _schmidt_from_gaps,
)
from qubeam.errors import (
    AllRowsFailed,
    DomainError,
    NonPositive,
    PoleEvaluation,
    QubeamError,
    RangeViolation,
    ResonancePole,
    SingularDenominator,
    ValidationError,
)
from qubeam.params import ModelParams
from qubeam.qstate import (
    PolarizationConfig,
    _normalized_state,
    _state_columns,
    _state_gaps,
)
from qubeam.sweep import SweepConfig, run_sweep

import mp_reference
from mp_reference import info_from_gap, rel_err

FIG = (2500.0, 3000.0, 0.5, 0.1)

# reference-point values, frozen from a 50-digit evaluation
PHI_FIG = 6.7502283095724485e-12
EI_FIG = 1.4524353672107015e-11
ES_FIG = 1.3552872417060722e-12
EI_ASYM_FIG = 1.4470067505667856e-11


def test_reduced_density_identities_at_reference_point(fig_params, fig_roots):
    # rho = M M+ of the normalized amplitudes, with M = vec as a 2x2 matrix
    for code in ("uu", "ud", "du", "dd"):
        cfg = PolarizationConfig.from_code(code)
        vec, _, _ = _normalized_state(
            _state_columns(fig_roots, fig_params, cfg), cfg)
        m = np.array(vec).reshape(2, 2)
        rho = m @ m.conj().T
        assert abs(np.trace(rho) - 1.0) <= 1e-14
        assert rho[0, 1] == np.conj(rho[1, 0])
        y = math.sqrt((rho[0, 0].real - rho[1, 1].real) ** 2
                      + 4.0 * abs(rho[0, 1]) ** 2)
        lo, hi = np.linalg.eigvalsh(rho)
        assert lo + hi == pytest.approx(1.0, abs=1e-14)
        assert hi - lo == pytest.approx(y, abs=1e-14)
        # normalized-state identity between the two measures
        impurity = 1.0 - float(np.sum(np.abs(rho) ** 2))
        assert impurity == pytest.approx((1.0 - y ** 2) / 2.0, abs=1e-12)


def test_info_measure_endpoints_exact():
    # (E_I, E_S) from (y_gap, norm_gap): y = 1 and y = 0
    assert entangle._measures(0.0, 0.0) == (0.0, 0.0)
    assert entangle._measures(1.0, 1.0) == (1.0, 1.0)


def test_info_measure_is_the_binary_entropy():
    gap = 0.5           # y = 0.5
    p = gap / 2.0
    expected = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
    assert _info_from_gap(gap) == pytest.approx(expected, rel=1e-14)


def test_info_measure_domain_handling():
    for y_gap in (1.0 + 2e-9, -2e-9, float("nan")):
        with pytest.raises(DomainError):
            entangle._measures(y_gap, 0.0)
    # within DOMAIN_TOL outside [0, 1] a gap is accepted: below 0 it clamps
    # to 0, and above 1 the entropy still rounds to 1
    assert entangle._measures(-5e-10, 0.0) == (0.0, 0.0)
    assert entangle._measures(1.0 + 5e-10, 0.0)[0] == 1.0


def test_info_from_gap_against_high_precision():
    for g in [*np.logspace(-16.0, -0.3, 25).tolist(), 0.5, 1.0]:
        assert rel_err(_info_from_gap(g), info_from_gap(g)) <= 1e-14


def test_info_from_gap_continuous_at_series_cut():
    below = _info_from_gap(_SERIES_CUT * (1.0 - 1e-12))
    at = _info_from_gap(_SERIES_CUT)
    assert abs(below - at) / at <= 1e-11
    assert _info_from_gap(0.0) == 0.0
    assert _info_from_gap(-1e-300) == 0.0


def test_info_from_gap_at_the_smallest_subnormal_gap():
    # gap / 2 rounds to 0 there; the measure stays finite and positive
    tiny = _info_from_gap(5e-324)
    assert math.isfinite(tiny) and tiny > 0.0


def test_asymptotic_form_at_the_smallest_subnormal_phi():
    # Phi / 2 rounds to 0 there, so ln(Phi/2) is taken as ln(Phi) - ln(2);
    # the value is the 50-digit one, rounded into the subnormal range
    for phi in (5e-324, 1e-323):
        assert _asymptotic_from_phi(phi, 1e-3) == float(
            mp_reference.asymptotic_info(phi, 1e-3))


# Gaps at the edges of _info_from_gap's branches: zeros of both signs,
# negative gaps, the smallest subnormal (whose half rounds to 0) and its
# neighbour, the series cut and its neighbours, and 1 +- DOMAIN_TOL.
_GAP_EDGES = [0.0, -0.0, -5e-324, -1e-300, -DOMAIN_TOL, -1.0, 5e-324, 1e-323,
              2.2250738585072014e-308, math.nextafter(_SERIES_CUT, 0.0),
              _SERIES_CUT, math.nextafter(_SERIES_CUT, 1.0),
              1.0 - DOMAIN_TOL, 1.0, 1.0 + DOMAIN_TOL]


@given(gaps=st.lists(st.one_of(st.sampled_from(_GAP_EDGES),
                               st.floats(-1.0, 1.0 + DOMAIN_TOL),
                               st.floats(0.0, 1e-6),
                               st.floats(0.0, 1e-300)),
                     min_size=1, max_size=24))
@settings(deadline=None, derandomize=True, max_examples=300)
def test_batched_information_measure_is_the_scalar_one(gaps):
    got = _info_from_gaps(np.array(gaps)).tolist()
    assert [value.hex() for value in got] == [
        _info_from_gap(gap).hex() for gap in gaps]


# Phi at the smallest subnormal (whose half rounds to 0) and its neighbour;
# nonpositive Phi is not live and gives 0.0.
_PHI_EDGES = [5e-324, 1e-323, 2.2250738585072014e-308, 6.7502283095724485e-12,
              1.0, 1e300]
_EPS_EDGES = [5e-324, 1e-323, 2.2250738585072014e-308, 1e-300, 1e-17, 0.1,
              1.0]


@given(phis=st.lists(st.one_of(st.sampled_from(_PHI_EDGES),
                               st.floats(5e-324, 1e10),
                               st.sampled_from([0.0, -0.0, -1.0])),
                     min_size=1, max_size=24),
       eps=st.one_of(st.sampled_from(_EPS_EDGES), st.floats(5e-324, 1e-10),
                     st.floats(5e-324, 10.0)))
@settings(deadline=None, derandomize=True, max_examples=300)
def test_batched_asymptotic_form_is_the_scalar_one(phis, eps):
    live = np.array(phis) > 0.0
    got = _asymptotic_from_phis(np.array(phis), eps, live).tolist()
    assert [value.hex() for value in got] == [
        _asymptotic_from_phi(phi, eps).hex() if phi > 0.0 else "0x0.0p+0"
        for phi in phis]


def test_package_uses_no_numpy_transcendentals():
    # Logs are math's: np.log differed from math.log on 11 of 1e6 inputs
    # and np.log1p on 67,711, and a batch formula must equal its scalar
    # twin bit for bit. Powers are products, never np.power and never a
    # ** after an operand (libm pow rounds some squares differently);
    # f(**kw) unpacks a dict.
    banned = re.compile(r"\b(?:np|numpy)(?:\.\w+)*\."
                        r"(?:log|log1p|log2|log10|exp|expm1|power)\b"
                        r"|[\w)\]]\s*\*\*")
    src = Path(__file__).resolve().parent.parent / "src" / "qubeam"
    hits = [f"{path.name}:{number}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)]
    assert hits == []


def test_every_exception_class_is_a_base_or_named_elsewhere():
    # A class in errors.py that no other class derives from and that no
    # other module's code names (an import alone, a docstring or a comment
    # does not count) is dead.
    src = Path(qubeam.__file__).resolve().parent
    classes = [node for node in ast.parse((src / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for path in src.glob("*.py") if path.name != "errors.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert [node.name for node in classes
            if node.name not in bases | named] == []


def test_every_exported_name_resolves():
    namespace = {}
    exec("from qubeam import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") \
        == sorted(qubeam.__all__)


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
    # Phi's denominator overflows from kappa1 ~ 1e52, where num/inf would
    # read Phi = 0; every closed-form route rejects it. At kappa1 1e4 the
    # same scaled point reads E_I_asymptotic 8.94e-10, E_S_closed 9.74e-11.
    du = PolarizationConfig.from_code("du")
    low, high = (make_params(k1, 1.5 * k1, 0.1 * k1, 1e-9 * k1 * k1)
                 for k1 in (1e4, 1e52))
    for method in ("exact", "perturbative"):
        rep = full_report(low, du, method)
        assert rep.E_I_asymptotic == pytest.approx(8.94e-10, rel=1e-3)
        assert rep.E_S_closed == pytest.approx(9.74e-11, rel=1e-3)
        with pytest.raises(SingularDenominator) as err:
            full_report(high, du, method)
        assert (err.value.stage, str(err.value)) == (
            "measures", "stage measures: Phi denominator inf is not finite "
            "at kappa1 = 1e+52, kappa2 = 1.5e+52")
    with pytest.raises(SingularDenominator):
        phi_closed(high)
    # The batch leaves every point to full_report, so all rows fail alike.
    with pytest.raises(AllRowsFailed) as err:
        run_sweep(SweepConfig(kappa1=1e52, eps=1e95, dk_min=4e51,
                              dk_max=6e51, dk_steps=2, omega_min=1e51,
                              omega_max=2e51, omega_steps=2))
    assert str(err.value) == ("all 4 grid points failed; first status: "
                              "error:SingularDenominator")


def test_asymptotic_form_agrees_with_its_formula(fig_params):
    phi, _ = phi_closed(fig_params)
    val = _asymptotic_from_phi(phi, fig_params.eps)
    g = fig_params.eps * phi
    assert val == pytest.approx(g * (1.0 - math.log(g / 2.0)) / math.log(4.0),
                                rel=1e-13)
    assert val == pytest.approx(EI_ASYM_FIG, rel=1e-9)
    # omega = 0 gives Phi = 0, where both routes give the exact E_I = 0
    zero_field = make_params(2500.0, 3000.0, 0.0, 0.1)
    assert _asymptotic_from_phi(phi_closed(zero_field)[0],
                                zero_field.eps) == full_report(
        zero_field, PolarizationConfig.from_code("du")).E_I_asymptotic == 0.0


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


@pytest.mark.parametrize("params,code,method,kind,message", [
    # omega = kappa1, which only a hand-built ModelParams holds, zeroes the
    # (1, 2) root's first-order denominator
    (ModelParams(1.0, 2.0, 1.0, 1e-3), "du", "exact", SingularDenominator,
     "stage roots: first-order offset eps/0.0 not finite, or modes "
     "degenerate, for mode at kappa=1.0, lambda=2"),
    (make_params(10.0, 11.0, 0.25, 1e-3), "uu", "exact", DomainError,
     "stage measures: raw spectral gap -2.0010587158091604e-07 below domain "
     "tolerance or not a number; state outside the truncation regime"),
], ids=["roots", "domain"])
def test_report_stage_is_set_on_the_raised_error(params, code, method, kind,
                                                 message):
    with pytest.raises(kind) as err:
        full_report(params, PolarizationConfig.from_code(code), method)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert err.value.stage == message.split(":")[0].removeprefix("stage ")


def test_report_stage_reraises_the_same_object(fig_params, monkeypatch):
    inner = PoleEvaluation("on the pole")
    inner.detail = object()

    def broken(roots, params):
        raise inner

    monkeypatch.setattr(qubeam.qstate, "_checked", broken)
    with pytest.raises(PoleEvaluation) as err:
        full_report(fig_params, PolarizationConfig.from_code("du"))
    assert err.value is inner and err.value.detail is inner.detail
    assert err.value.stage == "block"
    assert str(err.value) == "stage block: on the pole"
    assert PoleEvaluation("x").stage is None


@pytest.mark.parametrize("k,lam", INDEX_ORDER)
def test_every_column_is_checked_whether_the_state_reads_it_or_not(
        fig_params, fig_roots, monkeypatch, k, lam):
    # A root on its pole marks an invalid regime even in a column that the
    # config's state does not read, so the report fails at the block stage,
    # and build_block fails with the same text.
    offsets = [list(row) for row in fig_roots.offsets]
    offsets[k - 1][lam - 1] = 0.0
    on_pole = ModeRoots(fig_roots.kappas, tuple(map(tuple, offsets)))
    monkeypatch.setattr(entangle, "exact_roots", lambda params: on_pole)
    monkeypatch.setattr(entangle, "perturbative_roots", lambda params: on_pole)
    for code in ("uu", "ud", "du", "dd"):
        for method in ("exact", "perturbative"):
            with pytest.raises(PoleEvaluation) as err:
                full_report(fig_params, PolarizationConfig.from_code(code),
                            method)
            assert err.value.stage == "block"
            assert str(err.value) == (
                f"stage block: root r[{k}][{lam}] sits exactly on its pole; "
                "the transformation is singular there")
    with pytest.raises(PoleEvaluation) as block_err:
        build_block(on_pole, fig_params)
    assert "stage block: " + str(block_err.value) == str(err.value)


def _report_through_the_block(params, config, method):
    """full_report's fields or error from the block and the normalized state:
    (y_gap, norm_gap, raw_norm_sq, E_I, E_S), or (type, message, stage)."""
    stage = "roots"
    try:
        roots = (exact_roots(params) if method == "exact"
                 else perturbative_roots(params))
        stage = "block"
        build_block(roots, params)
        stage = "amplitudes"
        _, y_gap, norm_gap = _normalized_state(
            _state_columns(roots, params, config), config)
        stage = "measures"
        e_i, e_s = entangle._measures(y_gap, norm_gap)
        entangle._closed_forms(params, config)
    except QubeamError as exc:
        return type(exc), f"stage {stage}: {exc}", stage
    return y_gap, norm_gap, 1.0 - norm_gap, e_i, e_s


def _envelope_points(seed, n):
    """n seeded points of point_mix's input envelope (kappa1 10..1e4,
    dk/kappa1 1e-3..10, omega up to kappa1/2) with the coupling up to 100
    times its bound."""
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        kappa1 = 10.0 ** rng.uniform(1.0, 4.0)
        dk_rel = 10.0 ** rng.uniform(-3.0, 1.0)
        omega = rng.uniform(0.0, kappa1 / 2.0)
        eps = (10.0 ** rng.uniform(-4.0, 2.0) * 0.01 * (kappa1 - omega)
               * (kappa1 - omega) * min(1.0, dk_rel))
        points.append((kappa1, kappa1 * (1.0 + dk_rel), omega, eps))
    return points


def test_report_equals_the_block_route_bit_for_bit():
    # The envelope plus a root on the other photon's pole, an underflowing
    # normalization and a spectral gap above 2, so that every stage raises
    # somewhere.
    points = [(10.0, 60.0, 0.0, 1000.0), (1e-66, 2e-66, 1e-67, 1e-135),
              (1e-60, 1.00000001e-60, 0.0, 1e-80)] + _envelope_points(8, 60)
    outcomes = set()
    for point in points:
        params = ModelParams(*point)    # some lie outside make_params' set
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
    assert {"ok", ("roots", "NonConvergence"), ("block", "PoleEvaluation"),
            ("block", "SingularDenominator"),
            ("measures", "DomainError")} <= outcomes


# SHA-256 of the outcomes below, recorded before the point path's
# per-request overhead was cut; any change to a bit or an error shows here.
# Re-recorded when a Phi denominator that is not finite became an error:
# 355 du reports at 179 of the 2^200-scaled points moved from ok (with
# E_I_asymptotic = E_S_closed = 0) to SingularDenominator at stage measures.
# Re-recorded when make_params gained the coupling bound: the 219 points
# (73 at each scale) past it moved all 8 reports to StrongCoupling, 1,752
# reports of which 986 were ok; no other report moved.
# Re-recorded when the exact solver's residual bound lost its unit: at 126
# of the 2^-200-scaled points all 504 exact reports moved from
# NonConvergence, 224 to ok (126 dd, 82 ud, 16 uu; each equal to its
# scale-1 report), 154 to DomainError (110 uu, 44 ud) and 126 du to
# SingularDenominator at stage measures; no other report moved.
# Re-recorded when the first-order offsets took their closed form
# eps/(2 (kappa_k +- omega)) and Phi's subnormal denominators became an
# error: no report changed between ok and an error. 868 ok reports moved
# in their gaps and measures only (828 pert, up to 4,791 ulps; 40 exact, up
# to 31), 384 DomainError messages moved with their gap, and the 254 du
# SingularDenominator messages at stage measures took the row's new text.
POINT_PATH_DIGEST = (
    "5fb4295ab082789455741834d267d6001e15f6e1a7b6b1ec30a8ba0330750bc2")


def test_point_path_outcomes_are_pinned():
    # 200 envelope points, each also scaled by 2^-200 and 2^200 (eps by the
    # square, so the model is only rescaled), over all four configs and
    # both methods. repr keeps every digit, the sign of zero, and each
    # error's type, message and stage.
    points = [tuple(x * f for x, f in zip(point, (s, s, s, s * s)))
              for point in _envelope_points(10, 200)
              for s in (1.0, 2.0 ** -200, 2.0 ** 200)]
    digest = hashlib.sha256()
    for point in points:
        for code in ("uu", "ud", "du", "dd"):
            config = PolarizationConfig.from_code(code)
            for method in ("exact", "perturbative"):
                try:
                    rep = full_report(make_params(*point), config, method)
                except QubeamError as exc:
                    got = type(exc).__name__, str(exc), exc.stage
                else:
                    got = (rep.y_gap, rep.norm_gap, rep.raw_norm_sq, rep.E_I,
                           rep.E_S, rep.Phi, rep.y_closed, rep.E_I_asymptotic,
                           rep.E_S_closed)
                digest.update(repr(got).encode() + b"\n")
    assert digest.hexdigest() == POINT_PATH_DIGEST


def _stages_without_closed_forms(params, config, method):
    """full_report's stages up to the measures: (offsets, y_gap, norm_gap,
    E_I, E_S), or the (type, stage) of the error raised."""
    stage = "roots"
    try:
        roots = (exact_roots(params) if method == "exact"
                 else perturbative_roots(params))
        stage = "block"
        columns = _state_columns(roots, params, config)
        stage = "amplitudes"
        _, _, y_gap, norm_gap = _state_gaps(columns, config)
        stage = "measures"
        e_i, e_s = entangle._measures(y_gap, norm_gap)
    except QubeamError as exc:
        return type(exc), stage
    return roots.offsets, y_gap, norm_gap, e_i, e_s


def test_reversing_the_field_mirrors_both_polarizations_bit_for_bit():
    # omega enters only as (-1)^(lambda-1) * omega, an exact product, so
    # (omega, lambda1, lambda2) and (-omega, 3-lambda1, 3-lambda2) are the
    # same state with each mode's two roots swapped. Where one side raises,
    # the other raises the same type at the same stage; the text may name
    # the other branch's root, since roots are solved in INDEX_ORDER.
    evaluated = raised = 0
    for point in _envelope_points(16, 300):
        for s in (1.0, 2.0 ** -60, 2.0 ** 60):
            k1, k2, omega, eps = (x * f for x, f in
                                  zip(point, (s, s, s, s * s)))
            params = ModelParams(k1, k2, omega, eps)
            mirror = ModelParams(k1, k2, -omega, eps)
            for l1, l2 in INDEX_ORDER:
                config = PolarizationConfig(l1, l2)
                flipped = PolarizationConfig(3 - l1, 3 - l2)
                for method in ("exact", "perturbative"):
                    got = _stages_without_closed_forms(params, config, method)
                    want = _stages_without_closed_forms(mirror, flipped,
                                                        method)
                    if len(want) == 5:
                        (d11, d12), (d21, d22) = want[0]
                        want = ((d12, d11), (d22, d21)), *want[1:]
                        evaluated += 1
                    else:
                        raised += 1
                    assert repr(got) == repr(want), (point, s, config, method)
    assert evaluated > 1000 and raised > 1000


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
