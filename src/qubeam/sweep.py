"""Parameter sweeps over (omega, delta_kappa), CSV emission, verification.

A sweep fixes kappa1 and eps, walks a rectangular grid in the cyclotron
frequency omega and the frequency split delta_kappa = kappa2 - kappa1, and
records the entanglement measures per point. Output is deterministic: rows
ordered lexicographically by (omega, delta_kappa), numbers printed with 17
significant digits, metadata confined to '#' comment lines, no timestamps.
"""
from contextlib import ExitStack
from dataclasses import dataclass, replace
import itertools
import math
from typing import NamedTuple

import numpy as np

from .bogoliubov import INDEX_ORDER, _columns, build_block
from .dispersion import (
    _first_order_offsets,
    _pair,
    _solve_offsets,
    exact_roots,
    perturbative_roots,
)
from .entangle import (
    DOMAIN_TOL,
    _asymptotic_from_phi,
    _info_from_gap,
    _phi_terms,
    _schmidt_from_gaps,
    asymptotic_info,
    full_report,
    phi_closed,
)
from .errors import AllRowsFailed, ParseError, QubeamError, ValidationError
from .params import ModelParams, _rejections, make_params
from .qstate import (
    PolarizationConfig,
    _gaps,
    _pattern_vector,
    amplitudes,
    closed_form_ab,
)

CSV_HEADER = ("omega,delta_kappa,kappa2,y,E_I,E_S,"
              "E_I_asymptotic,E_S_closed,raw_norm,status")

_METHOD_ALIASES = {"exact": "exact", "pert": "perturbative",
                   "perturbative": "perturbative"}


@dataclass(frozen=True)
class SweepConfig:
    kappa1: float = 2500.0
    dk_min: float = 10.0
    dk_max: float = 3500.0
    dk_steps: int = 64
    omega_min: float = 0.0
    omega_max: float = 0.5
    omega_steps: int = 64
    eps: float = 0.1
    pol: PolarizationConfig = PolarizationConfig(2, 1)
    method: str = "exact"
    tol: float = 1e-12

    def omega_grid(self):
        return _grid(self.omega_min, self.omega_max, self.omega_steps)

    def dk_grid(self):
        return _grid(self.dk_min, self.dk_max, self.dk_steps)


class SweepRow(NamedTuple):
    """One grid point's CSV columns; the value fields are None where the
    point failed. A tuple, so the rows of a sweep are cheap to make."""

    omega: float
    delta_kappa: float
    kappa2: float
    y: float | None
    E_I: float | None
    E_S: float | None
    E_I_asymptotic: float | None
    E_S_closed: float | None
    raw_norm: float | None
    status: str


def _grid(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _grid_arrays(config):
    """omega and kappa2 of every grid point, in output order."""
    omegas, dks = config.omega_grid(), config.dk_grid()
    # inf and nan arise without a warning, as in Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        kappa2 = float(config.kappa1) + np.array(dks)
    return np.repeat(omegas, len(dks)), np.tile(kappa2, len(omegas))


_FILE_KEYS = {
    "kappa1": float, "dk_min": float, "dk_max": float, "dk_steps": int,
    "omega_min": float, "omega_max": float, "omega_steps": int,
    "eps": float, "tol": float, "pol": str, "method": str,
}


def parse_config(path: str | None = None, overrides: dict | None = None) -> SweepConfig:
    """Build a SweepConfig from an optional key=value file plus overrides.

    File format: one 'key = value' per line, '#' starts a comment, blank
    lines ignored. Overrides (typically CLI flags) win over file keys.
    Raises ParseError with line context, or ValidationError listing every
    violated invariant.
    """
    values = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParseError(f"{path}:{lineno}: expected key=value, "
                                     f"got {raw.strip()!r}")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in _FILE_KEYS:
                    raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _FILE_KEYS[key](val)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad value for "
                                     f"{key!r}: {exc}") from exc
    if overrides:
        for key, val in overrides.items():
            if val is not None:
                values[key] = val

    if "pol" in values and not isinstance(values["pol"], PolarizationConfig):
        try:
            values["pol"] = PolarizationConfig.from_code(values["pol"])
        except ValueError as exc:
            raise ParseError(f"bad pol value: {exc}") from exc
    if "method" in values:
        method = str(values["method"]).lower()
        if method not in _METHOD_ALIASES:
            raise ParseError(f"bad method {values['method']!r}: "
                             "expected exact or pert")
        values["method"] = _METHOD_ALIASES[method]

    config = SweepConfig(**values)
    _validate(config)
    return config


def _validate(config: SweepConfig):
    problems = []
    if config.dk_steps < 2:
        problems.append(f"dk_steps must be >= 2, got {config.dk_steps}")
    if config.omega_steps < 2:
        problems.append(f"omega_steps must be >= 2, got {config.omega_steps}")
    if not config.dk_min > 0:
        problems.append(f"dk_min must be > 0, got {config.dk_min}")
    if config.dk_max < config.dk_min:
        problems.append("dk_max must be >= dk_min")
    if config.omega_min < 0:
        problems.append(f"omega_min must be >= 0, got {config.omega_min}")
    if config.omega_max < config.omega_min:
        problems.append("omega_max must be >= omega_min")
    if not config.tol > 0:
        problems.append(f"tol must be > 0, got {config.tol}")
    if problems:
        raise ValidationError("; ".join(problems))
    # Every grid point must be a valid model point. The grid is checked as
    # arrays; make_params runs only at the first point of each error class,
    # in grid order, to quote its message.
    omega, kappa2 = _grid_arrays(config)
    rank = _rejections(float(config.kappa1), kappa2, omega, float(config.eps))
    omegas, dks = config.omega_grid(), config.dk_grid()
    seen = set()
    for i in np.flatnonzero(rank).tolist():
        if rank[i] in seen:
            continue
        seen.add(rank[i])
        line, column = divmod(i, len(dks))
        point_omega, point_dk = omegas[line], dks[column]
        try:
            make_params(config.kappa1, config.kappa1 + point_dk, point_omega,
                        config.eps)
        except ValidationError as exc:
            problems.append(f"grid point omega={point_omega}, "
                            f"delta_kappa={point_dk}: {exc}")
    if problems:
        raise ValidationError("; ".join(problems))


def _evaluate_point(config, omega, dk):
    kappa2 = config.kappa1 + dk
    try:
        params = make_params(config.kappa1, kappa2, omega, config.eps)
        rep = full_report(params, config.pol, method=config.method,
                          tol=config.tol)
    except QubeamError as exc:
        return SweepRow(omega, dk, kappa2, None, None, None, None, None, None,
                        f"error:{type(exc).__name__}")
    return SweepRow(
        omega=omega, delta_kappa=dk, kappa2=kappa2, y=rep.y, E_I=rep.E_I,
        E_S=rep.E_S, E_I_asymptotic=rep.E_I_asymptotic,
        E_S_closed=rep.E_S_closed, raw_norm=math.sqrt(rep.raw_norm_sq),
        status="ok")


def _batch_gaps(params: ModelParams, config: SweepConfig):
    """(y_gap, norm_gap, settled) arrays for a batch of points.

    params holds one array entry per point; config gives the polarization,
    the method and the tolerance. Roots, the four columns and the gaps are
    the scalar pipeline's arithmetic in the same order, so each point gets
    its scalar value. settled is False wherever a stage would raise or a
    value is not finite; those points go through full_report.
    """
    settled = np.ones(len(params.omega), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        offsets = {}
        for k, lam in INDEX_ORDER:
            if config.method == "exact":
                d, ok = _solve_offsets(params, k, lam, config.tol)
            else:
                d, ok = _first_order_offsets(params, k, lam)
            settled &= ok & (_pair(params, k)[0] + d > 0.0)
            offsets[(k, lam)] = d
        columns = {}
        for k, lam in INDEX_ORDER:      # all four: full_report checks each
            columns[(k, lam)], ok = _columns(offsets, params, k, lam)
            settled &= ok
        pol = config.pol
        b_self, a_cross, y_gap, norm_gap = _gaps(
            columns[(1, pol.lambda1)], columns[(2, pol.lambda2)], pol.parallel)
        # _state_gaps' ZeroNorm: the entries are +-b_self +- a_cross up to
        # unit phases, so all four vanish only where |a_cross| == |b_self|.
        settled &= ((1.0 - norm_gap > 0.0) & (np.abs(a_cross) != np.abs(b_self))
                    & np.isfinite(y_gap) & np.isfinite(norm_gap))
    return y_gap, norm_gap, settled


def _batch_values(params: ModelParams, config: SweepConfig):
    """The row values of a batch of points, as lists: settled, y, E_I, E_S,
    E_I_asymptotic, E_S_closed, raw_norm.

    The + - * / and the raw norm's square root (correctly rounded, as
    math.sqrt) are full_report's formulas over arrays. The logs
    (_info_from_gap, _asymptotic_from_phi) run per entry as in full_report,
    because NumPy's logs round differently. settled is False wherever
    make_params, a stage, a measure or a closed form would raise; the
    values there are placeholders.
    """
    y_gap, norm_gap, settled = _batch_gaps(params, config)
    k1, k2, w, eps = params.kappa1, params.kappa2, params.omega, params.eps
    settled &= _rejections(k1, k2, w, eps) == 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # _measures: the DomainErrors, then max(e_s, 0.0)
        e_s = _schmidt_from_gaps(norm_gap, y_gap)
        settled &= ((y_gap >= -DOMAIN_TOL) & (y_gap <= 1.0 + DOMAIN_TOL)
                    & (e_s >= -DOMAIN_TOL))
        e_s = np.where(0.0 > e_s, 0.0, e_s)
        # _closed_forms
        pol = (config.pol.lambda1, config.pol.lambda2)
        if pol == (2, 1):
            num, den = _phi_terms(k1, k2, w)
            phi = num / den
            # phi_closed's ResonancePole, SingularDenominator and
            # RangeViolation; _asymptotic_from_phi's DomainError where
            # omega and Phi are nonzero.
            zero = (w == 0.0) | (phi == 0.0)
            settled &= (~(np.abs(w - k1) <= 1e-12 * k1) & (den > 0.0)
                        & (eps * phi < 1.0) & (zero | ~(phi <= 0.0)))
            e_s_closed = (2.0 * eps * phi).tolist()
            e_i_asym = [_asymptotic_from_phi(p, e) if log else 0.0
                        for p, e, log in zip(phi.tolist(), eps.tolist(),
                                             (settled & ~zero).tolist())]
        elif pol == (1, 1):
            e_i_asym = e_s_closed = [0.0] * len(w)
        else:
            e_i_asym = e_s_closed = [None] * len(w)
        # _info_from_gap is 0 for a gap <= 0, so the clamp of _measures is
        # not needed; 0.0 and 1.0 are placeholders where nothing settled.
        e_i = [_info_from_gap(g)
               for g in np.where(settled, y_gap, 0.0).tolist()]
        raw_norm = np.sqrt(np.where(settled, 1.0 - norm_gap, 1.0))
        return (settled.tolist(), (1.0 - y_gap).tolist(), e_i, e_s.tolist(),
                e_i_asym, e_s_closed, raw_norm.tolist())


def run_sweep(config: SweepConfig):
    """Evaluate every grid point; returns the rows in output order.

    The grid is evaluated as one batch of arrays (_batch_values); a point
    the batch does not settle goes through full_report, so rows and error
    statuses are those of the point-by-point pipeline. Per-point failures
    become rows with an error status; AllRowsFailed is raised only if
    nothing succeeds. Nothing is written: the caller passes the rows to
    write_csv.
    """
    omega, kappa2 = _grid_arrays(config)
    n = len(omega)
    params = ModelParams(np.full(n, float(config.kappa1)), kappa2, omega,
                         np.full(n, float(config.eps)))
    # The rows share one float object per grid value, which keeps a sweep's
    # memory down.
    dks = config.dk_grid()
    kappa2s = kappa2[:len(dks)].tolist()
    points = ((w, d, k2) for w in config.omega_grid()
              for d, k2 in zip(dks, kappa2s))
    rows = [
        SweepRow(w, d, k2, y, e_i, e_s, e_i_asym, e_s_closed, raw, "ok")
        if settled else _evaluate_point(config, w, d)
        for (w, d, k2), settled, y, e_i, e_s, e_i_asym, e_s_closed, raw
        in zip(points, *_batch_values(params, config))]
    if all(row.status != "ok" for row in rows):
        raise AllRowsFailed(f"all {len(rows)} grid points failed; "
                            f"first status: {rows[0].status}")
    return rows


def _fmt(value):
    return "" if value is None else format(value, ".17g")


def config_echo_lines(config: SweepConfig):
    from . import __version__
    pairs = [
        ("kappa1", format(config.kappa1, ".17g")),
        ("dk_min", format(config.dk_min, ".17g")),
        ("dk_max", format(config.dk_max, ".17g")),
        ("dk_steps", str(config.dk_steps)),
        ("omega_min", format(config.omega_min, ".17g")),
        ("omega_max", format(config.omega_max, ".17g")),
        ("omega_steps", str(config.omega_steps)),
        ("eps", format(config.eps, ".17g")),
        ("pol", config.pol.code),
        ("method", config.method),
        ("tol", format(config.tol, ".17g")),
    ]
    lines = [f"# qubeam {__version__}"]
    lines.extend(f"# {key}={val}" for key, val in pairs)
    return lines


def _grid_text(config: SweepConfig):
    """.17g text of the nonzero omega, delta_kappa and kappa2 grid values,
    by value. Zeros are left out: 0.0 and -0.0 are one key but print apart."""
    dks = config.dk_grid()
    values = config.omega_grid() + dks + [config.kappa1 + dk for dk in dks]
    return {value: _fmt(value) for value in values if value}


# write_csv's line for each pattern of None among y, E_I_asymptotic,
# E_S_closed and raw_norm: a number prints at .17g, a None ("%.0s") as
# nothing. The grid values, E_I and E_S come in as text.
_LINES = {nones: "%s,%s,%s,{},%s,%s,{},{},{},%s\n".format(
              *("%.0s" if none else "%.17g" for none in nones))
          for nones in itertools.product((False, True), repeat=4)}


def write_csv(rows, config: SweepConfig, path: str, matrix: str | None = None):
    """Write run_sweep(config)'s rows to the CSV at path and, with matrix,
    the gnuplot nonuniform-matrix surfaces MATRIX_EI.dat and MATRIX_ES.dat:
    N and the N delta_kappa values, then per omega the omega and the measure
    per column, nan where the point failed. One pass, one omega line of rows
    at a time; returns {"EI": path, "ES": path}, or {} without matrix."""
    dks = config.dk_grid()
    grid = _grid_text(config)
    surfaces = ({suffix: f"{matrix}_{suffix}.dat" for suffix in ("EI", "ES")}
                if matrix else {})
    with ExitStack() as files:
        csv, *dats = [files.enter_context(
            open(name, "w", encoding="utf-8", newline="\n"))
            for name in (path, *surfaces.values())]
        csv.writelines(f"{line}\n" for line in config_echo_lines(config))
        csv.write(f"{CSV_HEADER}\n")
        for dat in dats:
            dat.write(" ".join([str(len(dks))]
                               + [grid.get(dk) or _fmt(dk) for dk in dks])
                      + "\n")
        for omega, start in zip(config.omega_grid(),
                                range(0, len(rows), len(dks))):
            lines, e_is, e_ss = [], [], []
            for (w, dk, kappa2, y, e_i, e_s, asym, closed, raw_norm,
                 status) in rows[start:start + len(dks)]:
                e_i, e_s = _fmt(e_i), _fmt(e_s)
                lines.append(_LINES[y is None, asym is None, closed is None,
                                    raw_norm is None] % (
                    grid.get(w) or _fmt(w), grid.get(dk) or _fmt(dk),
                    grid.get(kappa2) or _fmt(kappa2), y, e_i, e_s, asym,
                    closed, raw_norm, status))
                e_is.append(e_i or "nan")
                e_ss.append(e_s or "nan")
            csv.writelines(lines)
            head = grid.get(omega) or _fmt(omega)
            for dat, cells in zip(dats, (e_is, e_ss)):
                dat.write(f"{head} {' '.join(cells)}\n")
    return surfaces


# ----------------------------------------------------------------- verify

@dataclass(frozen=True)
class VerificationCheck:
    name: str
    status: str          # "pass" | "fail" | "skip"
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    params: ModelParams
    pol: PolarizationConfig
    checks: tuple

    @property
    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    @property
    def counts(self):
        passed = sum(1 for c in self.checks if c.status == "pass")
        failed = sum(1 for c in self.checks if c.status == "fail")
        skipped = sum(1 for c in self.checks if c.status == "skip")
        return passed, failed, skipped


_LADDER = (1.0, 0.5, 0.25)
_RATIO_LO, _RATIO_HI = 3.5, 4.5


def _check_root_ladder(params, pol, tol, ladder):
    """First-order roots against the solved dispersion relation."""
    defects = {(k, lam): [] for k in (1, 2) for lam in (1, 2)}
    residual_ok = True
    for lp in ladder:
        ex = exact_roots(lp, tol)
        pert = perturbative_roots(lp)
        for k in (1, 2):
            for lam in (1, 2):
                defects[(k, lam)].append(
                    abs(ex.offset(k, lam) - pert.offset(k, lam)))
                if abs(ex.residuals[k - 1][lam - 1]) > tol * ex.kappas[k - 1]:
                    residual_ok = False
    ratios = [d[i] / d[i + 1] for d in defects.values() for i in range(2)]
    ladder_ok = all(_RATIO_LO <= r <= _RATIO_HI for r in ratios)
    return (ladder_ok and residual_ok,
            f"defect ratios {['%.3f' % r for r in ratios]}, "
            f"residuals within tol: {residual_ok}")


def _check_state_pattern(params, pol, tol, ladder):
    """Pipeline amplitudes against the explicit (a, b) pattern."""
    roots = exact_roots(params, tol)
    amps = amplitudes(build_block(roots, params), pol)
    a, b = closed_form_ab(perturbative_roots(params), params, pol)
    pattern = _pattern_vector(b, a, pol)
    pattern = pattern / np.sqrt(np.sum(np.abs(pattern) ** 2))
    defect = float(np.max(np.abs(amps.vec - pattern)))
    bound = 50.0 * params.eps ** 2
    return (defect <= bound,
            f"entrywise defect {defect:.3e} (bound {bound:.3e})")


def _closed_ladder(measure, scale):
    """Ladder check of a pipeline measure against scale * eps * Phi."""
    def check(params, pol, tol, ladder):
        defs = []
        for lp in ladder:
            rep = full_report(lp, pol, method="exact", tol=tol)
            phi, _ = phi_closed(lp)
            defs.append(abs(getattr(rep, measure) - scale * lp.eps * phi))
        phi0, _ = phi_closed(params)
        bound = 50.0 * params.eps ** 2 * phi0
        ratios = [defs[0] / defs[1], defs[1] / defs[2]]
        ok = (defs[0] <= bound * scale
              and all(_RATIO_LO <= r <= _RATIO_HI for r in ratios))
        return (ok, f"defects {['%.3e' % d for d in defs]}, "
                    f"ratios {['%.3f' % r for r in ratios]}")
    return check


def _check_info_asymptotic(params, pol, tol, ladder):
    # Same gap argument on both sides: the asymptotic formula is the
    # leading expansion of the exact information measure at g = eps*Phi,
    # so feeding it the pipeline gap instead would report the O(eps^2)
    # difference between the two gaps, not the quality of the expansion.
    phi, _ = phi_closed(params)
    exact_at_gap = _info_from_gap(params.eps * phi)
    ratio = asymptotic_info(params) / exact_at_gap
    return (abs(ratio - 1.0) <= 1e-10,
            f"asymptotic/exact ratio deviates by {abs(ratio - 1.0):.3e} "
            f"at shared gap {params.eps * phi:.3e}")


def _check_zero_entanglement(params, pol, tol, ladder):
    rep = full_report(params, pol, method="exact", tol=tol)
    bound = 50.0 * params.eps ** 2
    return (rep.E_I <= bound and rep.E_S <= bound,
            f"E_I={rep.E_I:.3e}, E_S={rep.E_S:.3e} (bound {bound:.3e})")


def _skip_pattern(params, pol):
    if (pol.lambda1, pol.lambda2) not in ((2, 1), (1, 1)):
        return f"no explicit pattern for {pol.code}"


def _skip_ladder(params, pol):
    if (pol.lambda1, pol.lambda2) != (2, 1):
        return "closed forms apply to pol du only"
    if not params.omega > 0.0:
        return "omega = 0 has no ladder signal"


def _skip_info(params, pol):
    if _skip_ladder(params, pol):
        return "needs pol du and omega > 0"


def _skip_zero(params, pol):
    if not pol.parallel:
        return "applies to parallel polarizations"


# (name, check, skip rule) in report order. A check returns (ok, detail); a
# skip rule returns the reason to skip, or None to run the check.
_CHECKS = (
    ("root_ladder", _check_root_ladder, None),
    ("state_pattern", _check_state_pattern, _skip_pattern),
    ("y_closed_ladder", _closed_ladder("y_gap", 1.0), _skip_ladder),
    ("schmidt_closed_ladder", _closed_ladder("E_S", 2.0), _skip_ladder),
    ("info_asymptotic", _check_info_asymptotic, _skip_info),
    ("zero_entanglement", _check_zero_entanglement, _skip_zero),
)


def verify_point(params: ModelParams, pol: PolarizationConfig,
                 tol: float = 1e-12) -> VerificationReport:
    """Run the internal consistency oracles at one parameter point.

    Ladder checks evaluate at eps, eps/2, eps/4 and require the
    second-order defects to shrink by ~4x per halving. A check that raises
    a QubeamError fails with the error text as its detail.
    """
    ladder = [replace(params, eps=params.eps * f) for f in _LADDER]
    checks = []
    for name, check, skip in _CHECKS:
        reason = skip(params, pol) if skip else None
        if reason:
            checks.append(VerificationCheck(name, "skip", reason))
            continue
        try:
            ok, detail = check(params, pol, tol, ladder)
        except QubeamError as exc:
            ok, detail = False, str(exc)
        checks.append(VerificationCheck(name, "pass" if ok else "fail", detail))
    return VerificationReport(params=params, pol=pol, checks=tuple(checks))


def verify(config: SweepConfig) -> VerificationReport:
    """Consistency oracles at the config's most-structured grid corner."""
    params = make_params(config.kappa1, config.kappa1 + config.dk_max,
                         config.omega_max, config.eps)
    return verify_point(params, config.pol, tol=config.tol)
