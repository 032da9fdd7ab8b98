"""Two-photon amplitude vector: structure, closed forms, normalization."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubeam import (
    exact_roots,
    make_params,
    perturbative_roots,
)
from qubeam.bogoliubov import INDEX_ORDER, _checked, _state_factors
from qubeam.entangle import phi_closed
from qubeam.errors import ZeroNorm
from qubeam.qstate import (
    PolarizationConfig,
    _gaps,
    _normalized_state,
    _pattern_vector,
    _state_columns,
    _state_gaps,
)

from conftest import in_set

FIG = (2500.0, 3000.0, 0.5, 0.1)


def _state(roots, params, code):
    """(vec, y_gap, norm_gap) of the normalized state `qubeam state` prints;
    its raw norm squared is 1 - norm_gap."""
    cfg = PolarizationConfig.from_code(code)
    vec, y_gap, norm_gap = _normalized_state(
        _state_columns(roots, params, cfg), cfg)
    return np.array(vec), y_gap, norm_gap


def test_polarization_codes_round_trip():
    for code, pair in (("uu", (1, 1)), ("ud", (1, 2)),
                       ("du", (2, 1)), ("dd", (2, 2))):
        cfg = PolarizationConfig.from_code(code)
        assert (cfg.lambda1, cfg.lambda2) == pair
        assert cfg.code == code
        assert cfg.parallel == (code in ("uu", "dd"))
    assert PolarizationConfig.from_code(" DU ").code == "du"
    for bad in ("x", "uud", "u", "ab", ""):
        with pytest.raises(ValueError):
            PolarizationConfig.from_code(bad)
    with pytest.raises(ValueError):
        PolarizationConfig(3, 1)


def test_mixed_pair_vector_structure(fig_params, fig_roots):
    v, _, _ = _state(fig_roots, fig_params, "du")
    # the symmetric real / antisymmetric imaginary pattern is exact
    assert v[0] == v[3]
    assert v[1] == -v[2]
    assert v[0].imag == 0.0 and v[3].imag == 0.0
    assert v[1].real == 0.0 and v[2].real == 0.0
    for entry in v:
        assert abs(entry) == pytest.approx(0.5, abs=1e-12)
    assert float(np.sum(np.abs(v) ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_parallel_pair_vector_structure(fig_params, fig_roots):
    v, _, _ = _state(fig_roots, fig_params, "uu")
    assert v[1] == v[2] == -1j * v[0]
    assert v[3] == -v[0]
    M = v.reshape(2, 2)
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    assert det == 0.0    # rank one, exactly: the pair is a product state


def test_frozen_norm_gaps(fig_params, fig_roots):
    _, du_y_gap, du_norm_gap = _state(fig_roots, fig_params, "du")
    _, _, uu_norm_gap = _state(fig_roots, fig_params, "uu")
    assert du_norm_gap == pytest.approx(6.7764362085e-13, rel=1e-5)
    assert du_y_gap == du_norm_gap
    assert uu_norm_gap == pytest.approx(-2.5196918095e-12, rel=1e-5)


def test_opposite_mixed_pair_has_negative_gap(fig_params, fig_roots):
    _, y_gap, _ = _state(fig_roots, fig_params, "ud")
    phi, _ = phi_closed(fig_params)
    assert y_gap < 0.0
    assert 0.9 <= y_gap / (-fig_params.eps * phi) <= 1.1


def test_closed_form_reproduces_the_gap(fig_params):
    pert = perturbative_roots(fig_params)
    phi, y_closed = phi_closed(fig_params)
    cfg = PolarizationConfig.from_code("du")
    b, a, _, _ = _state_gaps(_state_columns(pert, fig_params, cfg), cfg)
    assert abs(a) < 1e-5 < 0.4999 < b < 0.5
    assert abs(4.0 * abs(a * a - b * b) - y_closed) \
        <= 50.0 * fig_params.eps ** 2 * phi
    cfg = PolarizationConfig.from_code("uu")
    b, a, _, _ = _state_gaps(_state_columns(pert, fig_params, cfg), cfg)
    assert abs(4.0 * (a + b) ** 2 - 1.0) <= 50.0 * fig_params.eps ** 2


def test_zero_field_closed_form(fig_params):
    p = make_params(2500.0, 3000.0, 0.0, 0.1)
    phi, _ = phi_closed(p)
    assert phi == 0.0
    cfg = PolarizationConfig.from_code("du")
    b, a, _, _ = _state_gaps(_state_columns(perturbative_roots(p), p, cfg),
                             cfg)
    assert 4.0 * abs(a * a - b * b) == pytest.approx(1.0, abs=50 * p.eps ** 2)
    # the two amplitudes are nowhere near equal even without the field;
    # only their combination is constrained
    assert abs(a) < 1e-10 and abs(b - 0.5) < 1e-10


def test_pattern_vector_matches_pipeline(fig_params, fig_roots):
    pert = perturbative_roots(fig_params)
    for code in ("du", "uu"):
        cfg = PolarizationConfig.from_code(code)
        b, a, _, _ = _state_gaps(_state_columns(pert, fig_params, cfg), cfg)
        pat = _pattern_vector(b, a, cfg)
        pat = pat / np.linalg.norm(pat)
        vec, _, _ = _state(fig_roots, fig_params, code)
        assert float(np.abs(pat - vec).max()) <= 50.0 * fig_params.eps ** 2


def test_raw_norm_matches_closed_form(fig_params, fig_roots):
    pert = perturbative_roots(fig_params)
    for code in ("du", "uu"):
        cfg = PolarizationConfig.from_code(code)
        b, a, _, _ = _state_gaps(_state_columns(pert, fig_params, cfg), cfg)
        _, _, norm_gap = _state(fig_roots, fig_params, code)
        assert abs(4.0 * (a * a + b * b) - (1.0 - norm_gap)) <= 1e-13


def test_gap_scales_linearly_in_coupling():
    gaps = {"du": [], "uu": []}
    for factor in (1.0, 0.5, 0.25):
        p = make_params(2500.0, 3000.0, 0.5, 0.1 * factor)
        roots = exact_roots(p)
        for code in gaps:
            gaps[code].append(abs(_state(roots, p, code)[1]))
    for series in gaps.values():
        for hi, lo in zip(series, series[1:]):
            assert 1.7 <= hi / lo <= 2.3


def test_matrix_fallback_agrees_with_column_path(fig_params, fig_roots,
                                                fig_block):
    # Reference: the defining products of u entries,
    # upsilon(lam, lam') = u[1lam,1lam1] u[2lam',2lam2] + u[2lam',1lam1] u[1lam,2lam2],
    # with the gaps formed by plain subtraction.
    def idx(s, lam):
        return INDEX_ORDER.index((s, lam))

    u = fig_block.u
    for code in ("du", "uu", "ud", "dd"):
        cfg = PolarizationConfig.from_code(code)
        lam1, lam2 = cfg.lambda1, cfg.lambda2
        direct = np.array([
            u[idx(1, lam)][idx(1, lam1)] * u[idx(2, lam_p)][idx(2, lam2)]
            + u[idx(2, lam_p)][idx(1, lam1)] * u[idx(1, lam)][idx(2, lam2)]
            for lam in (1, 2) for lam_p in (1, 2)])
        raw_norm_sq = float(np.sum(np.abs(direct) ** 2))
        m = direct.reshape(2, 2)
        rho = m @ m.conj().T
        y_raw = float(np.sqrt((rho[0, 0].real - rho[1, 1].real) ** 2
                              + 4.0 * abs(rho[0, 1]) ** 2))
        vec, y_gap, _ = _state(fig_roots, fig_params, code)
        assert float(np.abs(vec - direct / np.sqrt(raw_norm_sq)).max()) \
            <= 1e-12
        # the direct products still resolve the gap to a few ulp of 1
        assert abs(y_gap - (1.0 - y_raw)) <= 1e-15


def test_zero_block_rejected(fig_params, fig_roots):
    # the reference point's columns with m_self = m_cross = 0
    zero = [_state_factors(*c)[:2] + (0.0, 0.0)
            for c in _checked(fig_roots, fig_params)]
    with pytest.raises(ZeroNorm):
        _normalized_state(zero, PolarizationConfig.from_code("du"))


_EDGES = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, math.inf, -math.inf, math.nan,
          5e-324, -5e-324)


def test_zero_norm_check_agrees_with_the_amplitude_vector():
    # Columns (1, lam) carry b_self and a_cross as their u entries, columns
    # (2, lam) carry 1.0, so the state's b_self and a_cross are exactly the
    # table's values. The reference is the check on the vector itself.
    def column(k, b, a):
        m_self, m_cross = (b, a) if k == 1 else (1.0, 1.0)
        return 0.0, 0.0, m_self, m_cross

    vanishing = 0
    for code in ("uu", "ud", "du", "dd"):
        cfg = PolarizationConfig.from_code(code)
        for b in _EDGES:
            for a in _EDGES:
                columns = [column(k, b, a) for k, _ in INDEX_ORDER]
                b_self, a_cross, _, norm_gap = _gaps(
                    columns[INDEX_ORDER.index((1, cfg.lambda1))],
                    columns[INDEX_ORDER.index((2, cfg.lambda2))],
                    cfg.parallel)
                assert repr((b_self, a_cross)) == repr((b, a))
                vector_zero = not np.any(_pattern_vector(b, a, cfg))
                vanishing += vector_zero
                try:
                    _state_gaps(columns, cfg)
                except ZeroNorm:
                    raised = True
                else:
                    raised = False
                assert raised == (not 1.0 - norm_gap > 0.0 or vector_zero), (
                    code, b, a)
    assert vanishing > 0


@given(
    kappa1=st.floats(min_value=100.0, max_value=5000.0),
    split=st.floats(min_value=0.1, max_value=2.0),
    omega_frac=st.floats(min_value=0.0, max_value=0.5),
    code=st.sampled_from(["uu", "ud", "du", "dd"]),
)
@settings(deadline=None, derandomize=True, max_examples=40)
def test_state_always_normalized(kappa1, split, omega_frac, code):
    # eps at the coupling bound, the strongest coupling of the set
    p = make_params(*in_set(kappa1, kappa1 * (1.0 + split),
                            omega_frac * kappa1))
    cfg = PolarizationConfig.from_code(code)
    columns = _state_columns(exact_roots(p), p, cfg)
    vec = np.array(_normalized_state(columns, cfg)[0])
    assert float(np.sum(np.abs(vec) ** 2)) == pytest.approx(1.0, abs=1e-12)
    # the vector is NumPy's division of the raw one, bit for bit
    b_self, a_cross, _, norm_gap = _state_gaps(columns, cfg)
    raw = np.array(_pattern_vector(b_self, a_cross, cfg))
    assert vec.tobytes() == (raw / np.sqrt(1.0 - norm_gap)).tobytes()
    if cfg.parallel:
        M = vec.reshape(2, 2)
        assert M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0] == 0.0
