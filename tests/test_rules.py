"""Each stage's rule table against its two readers: the verdicts over arrays
(what the batch ANDs) equal the verdicts over floats entry by entry, and
the point path raises its first failing row's error with unchanged text."""
import hashlib
import inspect
import itertools
import math

import numpy as np
import pytest

from qubeam import entangle, params, qstate
from qubeam.bogoliubov import INDEX_ORDER
from qubeam.entangle import DOMAIN_TOL, _phi_terms
from qubeam.errors import QubeamError
from qubeam.params import RESONANCE_MARGIN, ModelParams
from qubeam.qstate import PolarizationConfig, _gaps

_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1.0,
          -1.0, 1e308]
_LIMIT = 1.0 * (1.0 - RESONANCE_MARGIN)     # NearResonance's at kappa1 = 1
_GAPS = _EDGES + [-DOMAIN_TOL, 1.0 + DOMAIN_TOL]
# Phi at (1, 2, 0.5) and the coupling that puts eps*Phi at 1; omega at
# kappa1 = 1 on both sides of ResonancePole's band.
_PHI = _phi_terms(1.0, 2.0, 0.5)[0] / _phi_terms(1.0, 2.0, 0.5)[1]
_OMEGAS = _EDGES + [0.5, 1.0 - 1e-12, 1.0 - 2e-12]
_COUPLINGS = _EDGES + [1.0 / _PHI, math.nextafter(1.0 / _PHI, 0.0)]
_KAPPA2S = [2.0, 0.5, math.inf, math.nan]


def _columns(xi, b_self, a_cross):
    # Columns (1, lam) carry xi, b_self and a_cross, columns (2, lam) the
    # identity, so the state's norm_gap is -xi -+ its a_cross terms.
    one = (0.0, 0.0, 1.0, 1.0)
    mine = (0.0, xi, b_self, a_cross)
    return [mine if k == 1 else one for k, _ in INDEX_ORDER]


def _state(code, xi, b_self, a_cross):
    return qstate._state_gaps(_columns(xi, b_self, a_cross),
                              PolarizationConfig.from_code(code))


def _nan_norm(code, xi, b_self, a_cross):
    cfg = PolarizationConfig.from_code(code)
    columns = _columns(xi, b_self, a_cross)
    return math.isnan(_gaps(columns[cfg.lambda1 - 1], columns[cfg.lambda2 + 1],
                            cfg.parallel)[3])


def _past_the_coupling_bound(k1, k2, w, eps):
    # the seven rows before the coupling bound's accept, and it rejects
    bound = 0.01 * (k1 - w) * (k1 - w)
    return all(params._params_verdicts(k1, k2, w, eps)[:7]) and not (
        eps <= bound and eps * k1 <= bound * (k2 - k1))


def _nan_pole(k1, k2, w, eps):
    return math.isnan(abs(w - k1))


def _negative_phi(k1, k2, w, eps):
    num, den = _phi_terms(k1, k2, w)
    return _nan_pole(k1, k2, w, eps) or den > 0.0 and num / den < 0.0


def _phi_closed_changed(k1, k2, w, eps):
    return _negative_phi(k1, k2, w, eps) or not eps > 0.0


def _asymptotic_changed(k1, k2, w, eps):
    num, den = _phi_terms(k1, k2, w)
    return _negative_phi(k1, k2, w, eps) or den > 0.0 and num / den == 0.0


# Per stage: the module, its verdict function and rule table; the inputs
# the verdicts are fed, and the extra arguments; and the point paths with
# their inputs and the cases whose outcome the tables changed on purpose
# (since 5f92945 a nan norm_gap fails ZeroNorm's positive-norm rule and a
# nan distance to the resonance pole fails ResonancePole; since 9a9bc43
# both closed forms read one rule set: a negative Phi raises "Phi >= 0"'s
# DomainError, phi_closed applies the eps row, and the asymptotic form gives
# 0 at Phi = 0). The second closed path is the asymptotic form taken from
# phi_closed's Phi, as _closed_forms takes it.
STAGES = {
    "params": (params, "_params_verdicts", "_PARAMS_RULES",
               [_EDGES + [_LIMIT]] * 4, [()],
               [(params.make_params, [_EDGES + [_LIMIT]] * 4,
                 _past_the_coupling_bound)]),
    "norm": (qstate, "_norm_verdicts", "_NORM_RULES",
             [_EDGES] * 3, [(False,), (True,)],
             [(_state, [["uu", "ud", "du", "dd"]] + [_EDGES] * 3,
               _nan_norm)]),
    "measures": (entangle, "_measure_verdicts", "_MEASURE_RULES",
                 [_GAPS] * 2, [()],
                 [(entangle._measures, [_GAPS] * 2, None)]),
    "closed": (entangle, "_closed_verdicts", "_CLOSED_RULES",
               [_EDGES, _OMEGAS, _EDGES, _EDGES, _EDGES],
               [()],
               [(lambda *p: entangle.phi_closed(ModelParams(*p)),
                 [_EDGES, _KAPPA2S, _OMEGAS, _COUPLINGS],
                 _phi_closed_changed),
                # positive couplings, the ones make_params accepts
                (lambda *p: entangle._asymptotic_from_phi(
                    entangle.phi_closed(ModelParams(*p))[0], p[3]),
                 [_EDGES, _KAPPA2S, _OMEGAS, [c for c in _COUPLINGS if c > 0]],
                 _asymptotic_changed)]),
}

# SHA-256 of the point paths' outcomes (error class and message, or "ok")
# at 5f92945 (the closed stage's since its row for a Phi denominator that is
# not finite: 720 of its 5028 cases moved from RangeViolation to that row's
# SingularDenominator), over every case that did not change on purpose. The
# params stage's was re-recorded, over the same outcomes, when its coupling
# row moved 51 of its 14641 cases from ok to StrongCoupling. The closed
# stage's was re-recorded when its positive-denominator row began to reject
# a subnormal one: 84 cases at kappa1 = 5e-324 (denominators 1e-323 to
# 1.8e-322) moved from RangeViolation to that row's SingularDenominator, and
# the row's other 3144 cases only to its new text.
OUTCOME_DIGESTS = {
    "params":
        "d01bcfa3c322f57be8b2d0323edc997c93b956cca20661da18d7b2fb0b8951e8",
    "norm":
        "275172d3db56685b7b82fa3abec73a80507966c883eef620f14c7d24a62885a1",
    "measures":
        "19f2c021165a202a418bffda9e63dd83a319d7996ba410aeede56ee01959bd45",
    "closed":
        "5b9e1e4fc2b8fd052ef33bfe0a755574ec57c18fbdad601d9b11483c535038da",
}


def _outcome(point_path, case):
    try:
        point_path(*case)
    except QubeamError as exc:
        return type(exc), f"{type(exc).__name__}: {exc}"
    return None, "ok"


def _outcome_digest(stage):
    """The digest of the stage's unchanged outcomes; uses only names that
    exist at 5f92945 and 9a9bc43, so it can be recorded there."""
    digest = hashlib.sha256()
    for point_path, inputs, changed in STAGES[stage][5]:
        for case in itertools.product(*inputs):
            if not (changed and changed(*case)):
                digest.update(_outcome(point_path, case)[1].encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("stage", STAGES)
def test_rule_tables_serve_arrays_floats_and_the_point_path(stage,
                                                            monkeypatch):
    module, verdicts_name, rules_name, inputs, extras, points = STAGES[stage]
    verdicts, rules = getattr(module, verdicts_name), getattr(module,
                                                              rules_name)
    cases = list(itertools.product(*inputs))
    columns = [np.array(column) for column in zip(*cases)]
    for extra in extras:
        with np.errstate(invalid="ignore", over="ignore"):
            masks = verdicts(*columns, *extra)
        assert len(masks) == len(rules)
        got = [tuple(row) for row in np.array(masks).T.tolist()]
        assert got == [tuple(map(bool, verdicts(*case, *extra)))
                       for case in cases]
        assert all(len(set(row)) == 2 for row in zip(*got))   # each rule bites

    seen = []
    monkeypatch.setattr(module, verdicts_name,
                        lambda *a: seen.append(verdicts(*a)) or seen[-1])
    raised = set()
    for point_path, point_inputs, _ in points:
        for case in itertools.product(*point_inputs):
            seen.clear()
            error, _ = _outcome(point_path, case)
            failing = [row for row, ok in zip(rules, seen[-1]) if not ok]
            assert error is (failing[0][0] if failing else None), case
            raised.add(error)
    assert {error for error, _ in rules} <= raised
    monkeypatch.undo()
    assert _outcome_digest(stage) == OUTCOME_DIGESTS[stage]



@pytest.mark.parametrize("eps", [-1.0, -1e-3])
def test_asymptotic_form_rejects_a_coupling_that_is_not_positive(eps):
    # log(eps) needs eps > 0: the last _CLOSED_RULES row raises its
    # DomainError first, on phi_closed and full_report's du route, where
    # math.log used to raise ValueError; the batch reads the same verdict.
    message = f"asymptotic form needs eps > 0, got {eps!r}"
    for point in [(1.0, 2.0, 0.5), (2500.0, 2510.0, 0.25)]:
        params = ModelParams(*point, eps)
        with pytest.raises(entangle.DomainError) as err:
            entangle.phi_closed(params)
        assert str(err.value) == message
    with pytest.raises(entangle.DomainError) as err:
        entangle.full_report(params, PolarizationConfig.from_code("du"),
                             method="perturbative")
    assert (err.value.stage, str(err.value)) == ("measures",
                                                 f"stage measures: {message}")
    num, den = _phi_terms(*point)
    verdicts = entangle._closed_verdicts(*point[::2], den, np.array(
        [eps, -eps]), num / den)
    assert [np.broadcast_to(row, 2).tolist() for row in verdicts] == [
        [True, True]] * 5 + [[False, True]]


@pytest.mark.parametrize("eps", [-math.inf, -1.0, -1e-3, -0.0, 0.0])
def test_every_closed_form_route_rejects_a_coupling_that_is_not_positive(
        eps):
    # One rule set: phi_closed and full_report's du closed forms raise the
    # eps row's DomainError alike. full_report reaches them through
    # _closed_forms with either method, but at these couplings its roots or
    # block stage mostly rejects first, so the route is called directly.
    # The batch's verdicts reject every point.
    message = f"asymptotic form needs eps > 0, got {eps!r}"
    du = PolarizationConfig.from_code("du")
    points = [(1.0, 2.0, 0.5), (2500.0, 2510.0, 0.25), (2500.0, 3000.0, 0.5)]
    for point in points:
        params = ModelParams(*point, eps)
        for route in (entangle.phi_closed,
                      lambda p: entangle._closed_forms(p, du)):
            with pytest.raises(entangle.DomainError) as err:
                route(params)
            assert str(err.value) == message
    k1, k2, w = np.array(points).T
    num, den = _phi_terms(k1, k2, w)
    verdicts = entangle._closed_verdicts(k1, w, den, np.full(3, eps),
                                         num / den)
    assert [row.tolist() for row in verdicts] == [[True] * 3] * 5 + [
        [False] * 3]


def test_closed_verdicts_take_no_route_argument():
    assert list(inspect.signature(entangle._closed_verdicts).parameters) == [
        "k1", "w", "den", "eps", "phi"]
