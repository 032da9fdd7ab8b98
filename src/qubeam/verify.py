"""Internal consistency oracles at one parameter point: the pipeline against
its leading-order closed forms, on eps-halving ladders where the second-order
defect must shrink ~4x per halving."""
from dataclasses import dataclass
import functools
import math

from .bogoliubov import INDEX_ORDER
from .dispersion import exact_roots, perturbative_roots
from .entangle import (_asymptotic_from_phi, _info_from_gap, _log_half,
                       _report, phi_closed)
from .errors import QubeamError
from .params import ModelParams
from .qstate import PolarizationConfig, _state_columns, _state_gaps


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    status: str          # "pass" | "fail" | "skip"
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    @property
    def counts(self):
        """(passed, failed, skipped)."""
        return tuple(sum(c.status == status for c in self.checks)
                     for status in ("pass", "fail", "skip"))


_LADDER = (1.0, 0.5, 0.25)


def _ratio(a, b):
    # Exact and first-order values can agree to the bit at a tiny coupling;
    # a zero defect below gives inf, which fails the check.
    return a / b if b else math.inf


def _quartered(ratios):
    # A second-order defect shrinks ~4x per halving of eps.
    return all(3.5 <= r <= 4.5 for r in ratios)


def _first_order_ladder(values, label):
    """Ladder check of the numbers values(roots, lp, pol) gives per rung, from
    the exact roots against the first-order roots; exact_roots raises
    NonConvergence where a residual misses RESIDUAL_TOL."""
    def check(params, pol, ladder, solvers):
        defects = []        # per rung, one per value
        for lp, _ in ladder:
            ex, pert = (values(solve(lp), lp, pol) for solve in solvers)
            defects.append([abs(x - y) for x, y in zip(ex, pert)])
        ratios = [_ratio(d[i], d[i + 1])
                  for d in zip(*defects) for i in range(2)]
        return (_quartered(ratios),
                f"{label} ratios {['%.3f' % r for r in ratios]}")
    return check


def _closed_ladder(measure, scale):
    """Ladder check of a pipeline measure against scale * eps * Phi."""
    def check(params, pol, ladder, _solvers):
        reps = [report() for _, report in ladder]
        defs = [abs(getattr(rep, measure) - scale * lp.eps * rep.Phi)
                for (lp, _), rep in zip(ladder, reps)]
        bound = 50.0 * (params.eps * params.eps) * reps[0].Phi
        ratios = [_ratio(defs[0], defs[1]), _ratio(defs[1], defs[2])]
        ok = defs[0] <= bound * scale and _quartered(ratios)
        return (ok, f"defects {['%.3e' % d for d in defs]}, "
                    f"ratios {['%.3f' % r for r in ratios]}")
    return check


def _check_info_asymptotic(params, pol, ladder, _solvers):
    # Same gap argument on both sides: the asymptotic formula is the
    # leading expansion of the exact information measure at g = eps*Phi,
    # so feeding it the pipeline gap instead would report the O(eps^2)
    # difference between the two gaps, not the quality of the expansion.
    # That relative difference is the series' next term, g/(4 (1 - ln(g/2))):
    # the bound is twice it, plus 8 ulps of rounding.
    phi, _ = phi_closed(params)
    gap = params.eps * phi
    exact_at_gap = _info_from_gap(gap)
    if not exact_at_gap > 0.0:
        return (False, f"exact measure {exact_at_gap:.3e} at shared gap "
                f"{gap:.3e} is not positive; no ratio")
    ratio = _asymptotic_from_phi(phi, params.eps) / exact_at_gap
    bound = 2.0 * (gap / (4.0 * (1.0 - _log_half(gap)))) + 8.0 * math.ulp(1.0)
    return (abs(ratio - 1.0) <= bound,
            f"asymptotic/exact ratio deviates by {abs(ratio - 1.0):.3e} "
            f"at shared gap {gap:.3e}")


def _check_zero_entanglement(params, pol, ladder, _solvers):
    rep = ladder[0][1]()        # the report at params
    bound = 50.0 * (params.eps * params.eps)
    return (rep.E_I <= bound and rep.E_S <= bound,
            f"E_I={rep.E_I:.3e}, E_S={rep.E_S:.3e} (bound {bound:.3e})")


# One row per check, in report order: name; the pol codes it runs on and the
# skip text for any other ({} is the code); the skip text at omega = 0, or
# None if it runs there; the check, which returns (ok, detail). root_ladder
# holds the first-order roots to the solved dispersion relation;
# state_pattern the state they give, through its two raw gaps, which fix
# (b, a), to the exact-root state, the one `qubeam state` prints.
_CHECKS = (
    ("root_ladder", ("uu", "ud", "du", "dd"), None, None, _first_order_ladder(
        lambda roots, lp, pol: [roots.offset(*kl) for kl in INDEX_ORDER],
        "defect")),
    ("state_pattern", ("uu", "ud", "du", "dd"), None,
     "omega = 0 has no first-order gap", _first_order_ladder(
         lambda roots, lp, pol: _state_gaps(_state_columns(roots, lp, pol),
                                            pol)[2:], "gap defect")),
    ("y_closed_ladder", ("du",), "closed forms apply to pol du only",
     "omega = 0 has no ladder signal", _closed_ladder("y_gap", 1.0)),
    ("schmidt_closed_ladder", ("du",), "closed forms apply to pol du only",
     "omega = 0 has no ladder signal", _closed_ladder("E_S", 2.0)),
    ("info_asymptotic", ("du",), "needs pol du and omega > 0",
     "needs pol du and omega > 0", _check_info_asymptotic),
    ("zero_entanglement", ("uu", "dd"), "applies to parallel polarizations",
     None, _check_zero_entanglement),
)


def verify_point(params: ModelParams,
                 pol: PolarizationConfig) -> VerificationReport:
    """Run the internal consistency oracles at one parameter point.

    Ladder checks evaluate at eps, eps/2, eps/4 and require the
    second-order defects to shrink by ~4x per halving. A check that raises
    a QubeamError fails with the error text as its detail. Each rung's
    exact and first-order roots, and its exact report, are evaluated once
    per call, whichever checks read them; one that raised is evaluated
    again by the next check that reads it.
    """
    # Call-scoped caches of this module's solvers, looked up at call time
    solvers = functools.cache(exact_roots), functools.cache(perturbative_roots)
    ladder = [(lp, functools.cache(functools.partial(   # (point, report)
        _report, lp, pol, "exact", solvers[0])))
        for lp in (params._replace(eps=params.eps * f) for f in _LADDER)]
    checks = []
    for name, codes, other_pol, zero_field, check in _CHECKS:
        if pol.code not in codes:
            status, detail = "skip", other_pol.format(pol.code)
        elif zero_field and not params.omega > 0.0:
            status, detail = "skip", zero_field
        else:
            try:
                ok, detail = check(params, pol, ladder, solvers)
            except QubeamError as exc:
                ok, detail = False, str(exc)
            status = "pass" if ok else "fail"
        checks.append(VerificationCheck(name, status, detail))
    return VerificationReport(checks=tuple(checks))
