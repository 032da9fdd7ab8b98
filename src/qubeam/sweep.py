"""Parameter sweeps over (omega, delta_kappa), CSV emission, verification.

A sweep fixes kappa1 and eps, walks a rectangular grid in the cyclotron
frequency omega and the frequency split delta_kappa = kappa2 - kappa1, and
records the entanglement measures per point. Output is deterministic: rows
ordered lexicographically by (omega, delta_kappa), numbers printed with 17
significant digits, metadata confined to '#' comment lines, no timestamps.
"""
from dataclasses import dataclass, replace

from .dispersion import exact_roots, perturbative_roots
from .entangle import full_report
from .errors import AllRowsFailed, ParseError, QubeamError, ValidationError
from .params import ModelParams, make_params
from .qstate import PolarizationConfig, amplitudes, closed_form_ab
from .bogoliubov import build_block

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
    out_path: str | None = None

    def omega_grid(self):
        return _grid(self.omega_min, self.omega_max, self.omega_steps)

    def dk_grid(self):
        return _grid(self.dk_min, self.dk_max, self.dk_steps)


@dataclass(frozen=True)
class SweepRow:
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


_FILE_KEYS = {
    "kappa1": float, "dk_min": float, "dk_max": float, "dk_steps": int,
    "omega_min": float, "omega_max": float, "omega_steps": int,
    "eps": float, "tol": float, "pol": str, "method": str, "out_path": str,
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
    # Every grid point must be a valid model point (the binding cases are the
    # corners, but the loop is cheap and unambiguous).
    seen = set()
    for omega in config.omega_grid():
        for dk in config.dk_grid():
            try:
                make_params(config.kappa1, config.kappa1 + dk, omega, config.eps)
            except ValidationError as exc:
                msg = f"grid point omega={omega}, delta_kappa={dk}: {exc}"
                if type(exc).__name__ not in seen:
                    seen.add(type(exc).__name__)
                    problems.append(msg)
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
        E_S_closed=rep.E_S_closed, raw_norm=rep.raw_norm_sq ** 0.5,
        status="ok")


def run_sweep(config: SweepConfig):
    """Evaluate every grid point; returns the rows in output order.

    Per-point failures become rows with an error status; AllRowsFailed is
    raised only if nothing succeeds. Writes CSV to config.out_path when set.
    """
    rows = [_evaluate_point(config, omega, dk)
            for omega in config.omega_grid() for dk in config.dk_grid()]
    if all(row.status != "ok" for row in rows):
        raise AllRowsFailed(f"all {len(rows)} grid points failed; "
                            f"first status: {rows[0].status}")
    if config.out_path:
        write_csv(rows, config, config.out_path)
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


def write_csv(rows, config: SweepConfig, path: str):
    lines = config_echo_lines(config)
    lines.append(CSV_HEADER)
    for row in rows:
        lines.append(",".join([
            _fmt(row.omega), _fmt(row.delta_kappa), _fmt(row.kappa2),
            _fmt(row.y), _fmt(row.E_I), _fmt(row.E_S),
            _fmt(row.E_I_asymptotic), _fmt(row.E_S_closed),
            _fmt(row.raw_norm), row.status]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_matrix(rows, config: SweepConfig, base_path: str):
    """Gnuplot nonuniform-matrix surfaces BASE_EI.dat and BASE_ES.dat.

    First row: N followed by the N delta_kappa values; then one row per
    omega: omega followed by the measure per column. Failed points appear
    as nan.
    """
    dks = config.dk_grid()
    omegas = config.omega_grid()
    by_point = {(row.omega, row.delta_kappa): row for row in rows}
    out = {}
    for suffix, field in (("EI", "E_I"), ("ES", "E_S")):
        lines = [" ".join([str(len(dks))] + [format(dk, ".17g") for dk in dks])]
        for omega in omegas:
            cells = [format(omega, ".17g")]
            for dk in dks:
                row = by_point.get((omega, dk))
                value = getattr(row, field) if row is not None else None
                cells.append(format(value, ".17g") if value is not None
                             else "nan")
            lines.append(" ".join(cells))
        path = f"{base_path}_{suffix}.dat"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        out[suffix] = path
    return out


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


def verify_point(params: ModelParams, pol: PolarizationConfig,
                 tol: float = 1e-12) -> VerificationReport:
    """Run the internal consistency oracles at one parameter point.

    Ladder checks evaluate at eps, eps/2, eps/4 and require the
    second-order defects to shrink by ~4x per halving.
    """
    checks = []
    ladder_params = [replace(params, eps=params.eps * f) for f in _LADDER]

    # First-order roots against the solved dispersion relation.
    try:
        defects = {(k, lam): [] for k in (1, 2) for lam in (1, 2)}
        residual_ok = True
        for lp in ladder_params:
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
        status = "pass" if (ladder_ok and residual_ok) else "fail"
        checks.append(VerificationCheck(
            "root_ladder", status,
            f"defect ratios {['%.3f' % r for r in ratios]}, "
            f"residuals within tol: {residual_ok}"))
    except QubeamError as exc:
        checks.append(VerificationCheck("root_ladder", "fail", str(exc)))

    # Pipeline amplitudes against the explicit (a, b) pattern.
    if (pol.lambda1, pol.lambda2) in ((2, 1), (1, 1)):
        try:
            from .qstate import _pattern_vector
            import numpy as np
            roots = exact_roots(params, tol)
            amps = amplitudes(build_block(roots, params), pol)
            a, b = closed_form_ab(perturbative_roots(params), params, pol)
            pattern = _pattern_vector(b, a, pol)
            pattern = pattern / np.sqrt(np.sum(np.abs(pattern) ** 2))
            defect = float(np.max(np.abs(amps.vec - pattern)))
            bound = 50.0 * params.eps ** 2
            status = "pass" if defect <= bound else "fail"
            checks.append(VerificationCheck(
                "state_pattern", status,
                f"entrywise defect {defect:.3e} (bound {bound:.3e})"))
        except QubeamError as exc:
            checks.append(VerificationCheck("state_pattern", "fail", str(exc)))
    else:
        checks.append(VerificationCheck(
            "state_pattern", "skip", f"no explicit pattern for {pol.code}"))

    antiparallel_du = (pol.lambda1, pol.lambda2) == (2, 1)
    if antiparallel_du and params.omega > 0.0:
        for name, attr, closed in (("y_closed_ladder", "y_gap", "phi"),
                                   ("schmidt_closed_ladder", "E_S", "two_phi")):
            try:
                from .entangle import phi_closed
                defs = []
                for lp in ladder_params:
                    rep = full_report(lp, pol, method="exact", tol=tol)
                    phi, _ = phi_closed(lp)
                    if closed == "phi":
                        defs.append(abs(rep.y_gap - lp.eps * phi))
                    else:
                        defs.append(abs(rep.E_S - 2.0 * lp.eps * phi))
                phi0, _ = phi_closed(params)
                bound = 50.0 * params.eps ** 2 * phi0
                ratios = [defs[0] / defs[1], defs[1] / defs[2]]
                ok = (defs[0] <= bound * (2.0 if closed == "two_phi" else 1.0)
                      and all(_RATIO_LO <= r <= _RATIO_HI for r in ratios))
                checks.append(VerificationCheck(
                    name, "pass" if ok else "fail",
                    f"defects {['%.3e' % d for d in defs]}, "
                    f"ratios {['%.3f' % r for r in ratios]}"))
            except QubeamError as exc:
                checks.append(VerificationCheck(name, "fail", str(exc)))
    else:
        reason = ("closed forms apply to pol du only" if not antiparallel_du
                  else "omega = 0 has no ladder signal")
        checks.append(VerificationCheck("y_closed_ladder", "skip", reason))
        checks.append(VerificationCheck("schmidt_closed_ladder", "skip", reason))

    if antiparallel_du and params.omega > 0.0:
        # Same gap argument on both sides: the asymptotic formula is the
        # leading expansion of the exact information measure at g = eps*Phi,
        # so feeding it the pipeline gap instead would report the O(eps^2)
        # difference between the two gaps, not the quality of the expansion.
        try:
            from .entangle import _info_from_gap, asymptotic_info, phi_closed
            phi, _ = phi_closed(params)
            exact_at_gap = _info_from_gap(params.eps * phi)
            ratio = asymptotic_info(params) / exact_at_gap
            ok = abs(ratio - 1.0) <= 1e-10
            checks.append(VerificationCheck(
                "info_asymptotic", "pass" if ok else "fail",
                f"asymptotic/exact ratio deviates by {abs(ratio - 1.0):.3e} "
                f"at shared gap {params.eps * phi:.3e}"))
        except QubeamError as exc:
            checks.append(VerificationCheck("info_asymptotic", "fail", str(exc)))
    else:
        checks.append(VerificationCheck(
            "info_asymptotic", "skip",
            "needs pol du and omega > 0"))

    if pol.parallel:
        try:
            rep = full_report(params, pol, method="exact", tol=tol)
            bound = 50.0 * params.eps ** 2
            ok = rep.E_I <= bound and rep.E_S <= bound
            checks.append(VerificationCheck(
                "zero_entanglement", "pass" if ok else "fail",
                f"E_I={rep.E_I:.3e}, E_S={rep.E_S:.3e} (bound {bound:.3e})"))
        except QubeamError as exc:
            checks.append(VerificationCheck("zero_entanglement", "fail",
                                            str(exc)))
    else:
        checks.append(VerificationCheck(
            "zero_entanglement", "skip",
            "applies to parallel polarizations"))

    return VerificationReport(params=params, pol=pol, checks=tuple(checks))


def verify(config: SweepConfig) -> VerificationReport:
    """Consistency oracles at the config's most-structured grid corner."""
    params = make_params(config.kappa1, config.kappa1 + config.dk_max,
                         config.omega_max, config.eps)
    return verify_point(params, config.pol, tol=config.tol)
